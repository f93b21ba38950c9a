"""Rolling z-score standardization over a trailing window.

Each quarter's feature value is centered and scaled by the sample mean
and standard deviation (T-1 denominator) of the trailing T quarters,
window inclusive of the quarter itself. The first standardized quarter
is therefore T-1 quarters after the series start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InsufficientHistoryError
from .features import feature_names, feature_series
from .quarters import Quarter, QuarterlySeries, quarter_range


def _window_stats(window) -> tuple:
    mu = math.fsum(window) / len(window)
    var = math.fsum((v - mu) ** 2 for v in window) / (len(window) - 1)
    return mu, math.sqrt(var)


@dataclass(frozen=True)
class ZScoreSeries:
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


@dataclass(frozen=True)
class ZScoreRow:
    """One quarter's standardized feature vector for one scope."""

    quarter: Quarter
    scope: object
    z: tuple

    def __post_init__(self):
        for v in self.z:
            if not math.isfinite(v):
                raise ValueError(f"non-finite z component at {self.quarter}: {v!r}")


@dataclass(frozen=True)
class ZScoreTable:
    """Standardized feature vectors plus row-level diagnostics.

    dropped lists quarters excluded because some feature's window held a
    missing raw value; zero_variance lists (quarter, feature) pairs where
    sigma = 0 forced z = 0.
    """

    scope: object
    names: tuple
    rows: tuple
    dropped: tuple
    zero_variance: tuple

    @cached_property
    def _by_quarter(self) -> dict:
        return {row.quarter: row for row in self.rows}

    def row_at(self, quarter: Quarter):
        return self._by_quarter.get(quarter)


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
    end = feature_rows[-1].quarter
    rows = []
    dropped = []
    for quarter in quarter_range(start, end):
        zs = tuple(standardized[name].series.get(quarter) for name in names)
        if any(z is None for z in zs):
            dropped.append(quarter)
        else:
            rows.append(ZScoreRow(quarter, scope, zs))
    return ZScoreTable(scope, names, tuple(rows), tuple(dropped), zero_variance)


def write_zscore_table(table: ZScoreTable, stream):
    """Emit the standardized table for audit, 6-decimal fixed."""
    stream.write(",".join(["scope", "quarter_end", *(f"z_{n}" for n in table.names)]) + "\n")
    for row in table.rows:
        cells = [table.scope.name, row.quarter.end_date().isoformat()]
        cells += [f"{z:.6f}" for z in row.z]
        stream.write(",".join(cells) + "\n")
