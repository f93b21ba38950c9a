"""UP/DOWN response labels from {Quarter: index level} maps.

The broad-market label is the sign of the annualized one-quarter
forward return; a sector label is the sign of the sector's annualized
forward return less the broad market's. Zero maps to DOWN: UP means
strictly positive forward movement, and ties must land deterministically.
"""

from __future__ import annotations

import enum

from .errors import DataError
from .features import Scope
from .quarters import Quarter


class Label(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"


def label_of(value: float) -> Label:
    return Label.UP if value > 0.0 else Label.DOWN


def ann_forward_return(prices: dict, t: Quarter) -> float:
    """Annualized forward return in percent: 100 ((P(t+1)/P(t))^4 - 1)."""
    p0 = prices.get(t)
    p1 = prices.get(t + 1)
    if p0 is None or p1 is None:
        raise DataError(f"forward return at {t} needs prices at {t} and {t + 1}")
    return 100.0 * ((p1 / p0) ** 4 - 1.0)


def sector_spread(sector_prices: dict, market_prices: dict, t: Quarter) -> float:
    """Sector annualized forward return less the market's, in percent points."""
    return ann_forward_return(sector_prices, t) - ann_forward_return(market_prices, t)


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
        try:
            if scope.is_broad:
                labels[t] = label_of(ann_forward_return(market_prices, t))
            else:
                labels[t] = label_of(sector_spread(sector_prices, market_prices, t))
        except DataError:
            pass  # a missing price leaves t unlabeled
    return labels
