"""Rolling z-score standardization over a trailing window.

Each quarter's feature value is centered and scaled by the sample mean
and standard deviation (T-1 denominator) of the trailing T quarters,
window inclusive of the quarter itself. The first standardized quarter
is therefore T-1 quarters after the series start.

The statistics are exact under the power-of-two scaling of
features.unit_scaled and square by multiplication, so no finite window
is too large or too small to standardize.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import InsufficientHistoryError
from .features import FeatureTable, unit_scaled


def _window_z(window) -> float | None:
    """z of the window's last value, in scaled units (z has none); None at zero variance."""
    _, scaled = unit_scaled(window)
    mu = math.fsum(scaled) / len(scaled)
    deviations = [v - mu for v in scaled]
    sigma = math.sqrt(math.fsum(map(mul, deviations, deviations)) / (len(scaled) - 1))
    return deviations[-1] / sigma if sigma else None


def zscore(column, window: int) -> tuple:
    """Standardize one column: (z, flagged), z[j] for column[j + window - 1].

    z[j] is None when its trailing window holds a missing value; missing
    values are never interpolated. A zero-variance window yields z = 0
    and its offset j is flagged: a locally constant feature carries no
    directional information, and 0 is its natural standardized value.
    The statistics are exact under power-of-two scaling and square by
    multiplication, so no finite window is too large or too small.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2 quarters, got {window}")
    if len(column) < window:
        raise InsufficientHistoryError(
            f"standardization needs {window} quarters, series has {len(column)}"
        )
    out = []
    flagged = []
    for k in range(window - 1, len(column)):
        values = column[k - window + 1 : k + 1]
        if any(v is None for v in values):
            out.append(None)
            continue
        z = _window_z(values)
        if z is None:
            flagged.append(k - window + 1)
        out.append(0.0 if z is None else z)
    return tuple(out), tuple(flagged)


def build_zscore_table(table: FeatureTable, window: int) -> FeatureTable:
    """Standardize every column; row k of the result is quarter
    table.start + window - 1 + k.

    A quarter whose window held a missing value in any column is dropped:
    its row is all None. zero_variance lists the (quarter, feature) pairs
    where sigma = 0 forced z = 0.
    """
    start = table.start + (window - 1)
    columns = [zscore(column, window) for column in zip(*table.rows)]
    zero_variance = tuple(
        (start + j, name) for name, (_, flagged) in zip(table.names, columns) for j in flagged
    )
    rows = zip(*(z for z, _ in columns))
    z = tuple((None,) * len(columns) if None in row else row for row in rows)
    return FeatureTable(table.scope, start, tuple(f"z_{n}" for n in table.names), z, zero_variance)
