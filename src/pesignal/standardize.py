"""Rolling z-score standardization over a trailing window.

Each quarter's feature value is centered and scaled by the sample mean
and standard deviation (T-1 denominator) of the trailing T quarters,
window inclusive of the quarter itself. The first standardized quarter
is therefore T-1 quarters after the series start.
"""

from __future__ import annotations

import math

from ._record import NamedTuple
from .errors import InsufficientHistoryError
from .features import feature_names, feature_series
from .quarters import Quarter, QuarterlySeries


def _window_stats(window) -> tuple:
    mu = math.fsum(window) / len(window)
    var = math.fsum((v - mu) ** 2 for v in window) / (len(window) - 1)
    return mu, math.sqrt(var)


class ZScoreSeries(NamedTuple):
    """Standardized series plus the quarters where sigma was 0.

    Missing z values mark quarters whose trailing window holds a missing
    raw value; they are never interpolated.
    """

    series: QuarterlySeries
    zero_variance: tuple


def zscore(x: QuarterlySeries, window: int) -> ZScoreSeries:
    """Standardize; output covers x.start + window - 1 through x.end.

    A zero-variance window yields z = 0 and flags the quarter: a locally
    constant feature carries no directional information, and 0 is its
    natural standardized value.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2 quarters, got {window}")
    if len(x) < window:
        raise InsufficientHistoryError(
            f"standardization needs {window} quarters, series has {len(x)}"
        )
    out = []
    flagged = []
    for k in range(window - 1, len(x)):
        values = x.values[k - window + 1 : k + 1]
        if any(v is None for v in values):
            out.append(None)
            continue
        mu, sigma = _window_stats(values)
        if sigma == 0.0:
            out.append(0.0)
            flagged.append(x.start + k)
        else:
            out.append((x.values[k] - mu) / sigma)
    return ZScoreSeries(QuarterlySeries(x.start + (window - 1), tuple(out)), tuple(flagged))


class ZScoreTable(NamedTuple):
    """Standardized feature vectors plus row-level diagnostics.

    z holds one tuple of floats per quarter from start on, one per name.
    A quarter whose window held a missing raw value for some feature is
    dropped: its row is all None and it is listed in dropped.
    zero_variance lists (quarter, feature) pairs where sigma = 0 forced z = 0.
    """

    scope: object
    names: tuple
    start: Quarter
    z: tuple
    dropped: tuple
    zero_variance: tuple

    def row_at(self, quarter: Quarter):
        """The quarter's z vector, or None when it is dropped or outside the table."""
        k = quarter - self.start
        if 0 <= k < len(self.z) and self.z[k][0] is not None:
            return self.z[k]
        return None


def build_zscore_table(feature_rows, window: int) -> ZScoreTable:
    """Standardize every feature of a contiguous single-scope table."""
    series = feature_series(feature_rows)
    scope = feature_rows[0].scope
    names = feature_names(scope)
    standardized = {name: zscore(series[name], window) for name in names}
    zero_variance = tuple(
        (quarter, name) for name in names for quarter in standardized[name].zero_variance
    )
    start = feature_rows[0].quarter + (window - 1)
    rows = zip(*(standardized[name].series.values for name in names))
    z = tuple((None,) * len(names) if None in row else row for row in rows)
    dropped = tuple(start + k for k, row in enumerate(z) if row[0] is None)
    return ZScoreTable(scope, names, start, z, dropped, zero_variance)


def write_zscore_table(table: ZScoreTable, stream):
    """Emit the standardized table for audit, 6-decimal fixed."""
    stream.write(",".join(["scope", "quarter_end", *(f"z_{n}" for n in table.names)]) + "\n")
    for k, row in enumerate(table.z):
        if row[0] is not None:
            cells = [table.scope.name, (table.start + k).end_date().isoformat()]
            cells += [f"{z:.6f}" for z in row]
            stream.write(",".join(cells) + "\n")
