"""UP/DOWN response labels from {Quarter: index level} maps.

The broad-market label is the sign of the annualized one-quarter
forward return; a sector label is the sign of the sector's annualized
forward return less the broad market's. Zero maps to DOWN: UP means
strictly positive forward movement, and ties must land deterministically.
"""

from __future__ import annotations

import enum
import math

from .errors import DataError
from .features import BROAD_SCOPE, Scope
from .quarters import Quarter


class Label(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"


def label_of(value: float) -> Label:
    return Label.UP if value > 0.0 else Label.DOWN


def ann_forward_return(prices: dict, t: Quarter, index: str = "the index") -> float:
    """Annualized forward return in percent of the series index: 100 ((P(t+1)/P(t))^4 - 1).
    A missing price, or a return past the float range, is a DataError."""
    p0 = prices.get(t)
    p1 = prices.get(t + 1)
    if p0 is None or p1 is None:
        raise DataError(f"forward return at {t} needs prices at {t} and {t + 1}")
    try:
        value = 100.0 * ((p1 / p0) ** 4 - 1.0)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DataError(f"forward return of {index} at {t} overflows: level {p0!r} to {p1!r}")
    return value


def sector_spread(sector_prices: dict, market_prices: dict, t: Quarter, sector: str = "the sector") -> float:
    """Sector annualized forward return less the market's, in percent points."""
    return ann_forward_return(sector_prices, t, sector) - ann_forward_return(market_prices, t, BROAD_SCOPE.name)


def build_labels(
    scope: Scope,
    market_prices: dict,
    sector_prices: dict | None = None,
) -> dict:
    """The Label of every quarter where the needed prices exist, by quarter.

    Prices are {Quarter: index level} maps. The label at t consumes
    P(t+1), so the final covered quarter of the price history is never
    labeled; callers wanting the last feature quarter labeled must
    supply one extra trailing price.
    """
    if not scope.is_broad and sector_prices is None:
        raise DataError(f"sector scope {scope.name} needs sector prices")
    labels = {}
    for t in sorted(market_prices):
        if t + 1 not in market_prices or not (scope.is_broad or {t, t + 1} <= sector_prices.keys()):
            continue  # a missing price leaves t unlabeled
        if scope.is_broad:
            labels[t] = label_of(ann_forward_return(market_prices, t, scope.name))
        else:
            labels[t] = label_of(sector_spread(sector_prices, market_prices, t, scope.name))
    return labels
