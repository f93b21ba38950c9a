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
from .features import BROAD_SCOPE, Scope, named_series
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


def sector_spread(prices: dict, market: dict, t: Quarter, sector: str = "the sector") -> float:
    """The sector's annualized forward return, from its prices, less the market's, in percent points."""
    return ann_forward_return(prices, t, sector) - ann_forward_return(market, t, BROAD_SCOPE.name)


def build_labels(scope: Scope, prices: dict) -> dict:
    """The Label of every quarter where the needed prices exist, by quarter.

    prices maps each index name to its {Quarter: index level} series, as
    parse_prices reads them; Market's series and the scope's own must be
    there. The label at t consumes P(t+1), so the final covered quarter
    of the price history is never labeled; callers wanting the last
    feature quarter labeled must supply one extra trailing price.
    """
    market, own = named_series(prices, BROAD_SCOPE.name), named_series(prices, scope.name)
    priced = market.keys() & own.keys()
    labels = {}
    for t in sorted(priced):
        if t + 1 not in priced:
            continue  # a missing price leaves t unlabeled
        if scope.is_broad:
            labels[t] = label_of(ann_forward_return(market, t, scope.name))
        else:
            labels[t] = label_of(sector_spread(own, market, t, scope.name))
    return labels
