"""Rolling z-score standardization over a trailing window.

Each quarter's feature value is centered and scaled by the sample mean
and standard deviation (T-1 denominator) of the trailing T quarters,
window inclusive of the quarter itself. The first standardized quarter
is therefore T-1 quarters after the series start.
"""

from __future__ import annotations

import math

from .errors import DataError, InsufficientHistoryError
from .features import FeatureTable


def _window_stats(window) -> tuple:
    mu = math.fsum(window) / len(window)
    var = math.fsum((v - mu) ** 2 for v in window) / (len(window) - 1)
    return mu, math.sqrt(var)


def zscore(column, window: int) -> tuple:
    """Standardize one column: (z, flagged), z[j] for column[j + window - 1].

    z[j] is None when its trailing window holds a missing value; missing
    values are never interpolated. A zero-variance window yields z = 0
    and its offset j is flagged: a locally constant feature carries no
    directional information, and 0 is its natural standardized value.
    A window whose mean or variance overflows raises OverflowError(j).
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
        try:
            mu, sigma = _window_stats(values)
        except OverflowError:
            raise OverflowError(k - window + 1) from None
        if sigma == 0.0:
            out.append(0.0)
            flagged.append(k - window + 1)
        else:
            out.append((column[k] - mu) / sigma)
    return tuple(out), tuple(flagged)


def build_zscore_table(table: FeatureTable, window: int) -> FeatureTable:
    """Standardize every column; row k of the result is quarter
    table.start + window - 1 + k.

    A quarter whose window held a missing value in any column is dropped:
    its row is all None. zero_variance lists the (quarter, feature) pairs
    where sigma = 0 forced z = 0. Values too large to standardize are a
    DataError naming the scope, feature and quarter.
    """
    start = table.start + (window - 1)
    columns = []
    for name, column in zip(table.names, zip(*table.rows)):
        try:
            columns.append(zscore(column, window))
        except OverflowError as exc:
            quarter = start + exc.args[0]
            raise DataError(f"{table.scope.name} {name}: values too large to standardize in the window ending {quarter}") from None
    zero_variance = tuple(
        (start + j, name) for name, (_, flagged) in zip(table.names, columns) for j in flagged
    )
    rows = zip(*(z for z, _ in columns))
    z = tuple((None,) * len(columns) if None in row else row for row in rows)
    return FeatureTable(table.scope, start, tuple(f"z_{n}" for n in table.names), z, zero_variance)
