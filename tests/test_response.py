"""Forward-return labels from {Quarter: level} price maps."""

import random

import pytest

from pesignal.errors import DataError
from pesignal.features import BROAD_SCOPE, Scope
from pesignal.quarters import Quarter, quarter_range
from pesignal.response import Label, ann_forward_return, build_labels, label_of, sector_spread

START = Quarter(2002, 4)

# Three consecutive quarter-end index levels; the middle step loses
# about 3 percent and the next gains about 16.
LEVELS = (66.43170, 64.41500, 74.60800)


def prices(*values, start=START):
    return {start + k: v for k, v in enumerate(values)}


def prices_with_ann_return(ann_pct, start=START, base=100.0):
    """Two-quarter prices whose annualized forward return is ann_pct."""
    ratio = (1.0 + ann_pct / 100.0) ** 0.25
    return prices(base, base * ratio, start=start)


class TestForwardReturns:
    def test_quarterly_returns(self):
        # the annualized return compounds the quarterly one four times
        p = prices(*LEVELS)
        for k, quarterly in enumerate((-3.04, 15.82)):
            simple = 100.0 * (LEVELS[k + 1] / LEVELS[k] - 1.0)
            assert simple == pytest.approx(quarterly, abs=0.005)
            assert ann_forward_return(p, START + k) == pytest.approx(
                100.0 * ((1.0 + simple / 100.0) ** 4 - 1.0), rel=1e-12
            )

    def test_annualized_returns(self):
        p = prices(*LEVELS)
        assert ann_forward_return(p, START) == pytest.approx(-11.60, abs=0.005)
        assert ann_forward_return(p, START + 1) == pytest.approx(79.97, abs=0.005)

    def test_flat_price(self):
        assert ann_forward_return(prices(50.0, 50.0), START) == 0.0

    def test_missing_next_price(self):
        p = prices(*LEVELS)
        with pytest.raises(DataError):
            ann_forward_return(p, START + 2)
        with pytest.raises(DataError):
            ann_forward_return(p, START - 1)

    @pytest.mark.parametrize(
        "p0, p1",
        [
            pytest.param(1.0, 1e100, id="power"),  # (P1 / P0) ** 4 raises OverflowError
            pytest.param(1e-200, 1e200, id="ratio"),  # P1 / P0 is inf
            pytest.param(1.0, 1e307**0.25, id="percent"),  # the power is finite, 100 times it is not
        ],
    )
    def test_overflow_is_a_data_error(self, p0, p1):
        with pytest.raises(DataError, match=f"forward return of Finance at {START} overflows"):
            ann_forward_return(prices(p0, p1), START, "Finance")
        with pytest.raises(DataError, match=f"forward return of Market at {START} overflows"):
            build_labels(BROAD_SCOPE, prices(p0, p1))
        # a sector's label needs the market's return as well as its own
        with pytest.raises(DataError, match=f"forward return of Finance at {START} overflows"):
            build_labels(Scope("Finance"), prices(*LEVELS), prices(p0, p1))
        with pytest.raises(DataError, match=f"forward return of Market at {START} overflows"):
            build_labels(Scope("Finance"), prices(p0, p1), prices(*LEVELS))

    def test_signs_agree(self):
        rng = random.Random(23)
        for _ in range(200):
            p0, p1 = rng.uniform(10, 200), rng.uniform(10, 200)
            annual = ann_forward_return(prices(p0, p1), START)
            assert label_of(p1 - p0) is label_of(annual)

    def test_rescaling_invariance(self):
        rng = random.Random(29)
        values = [rng.uniform(50, 150) for _ in range(6)]
        for c in (0.01, 3.0, 1e4):
            scaled = prices(*(c * v for v in values))
            plain = prices(*values)
            for k in range(5):
                assert ann_forward_return(scaled, START + k) == pytest.approx(
                    ann_forward_return(plain, START + k), rel=1e-12
                )


class TestBroadLabel:
    def test_down_then_up(self):
        p = prices(*LEVELS)
        labels = build_labels(BROAD_SCOPE, p)
        assert labels[START] is Label.DOWN
        assert labels[START + 1] is Label.UP

    def test_zero_return_is_down(self):
        assert build_labels(BROAD_SCOPE, prices(50.0, 50.0)) == {START: Label.DOWN}


class TestSectorSpread:
    def test_spread_values(self):
        market_down = prices_with_ann_return(-11.60)
        sector_down = prices_with_ann_return(-17.90)
        assert sector_spread(sector_down, market_down, START) == pytest.approx(-6.30, abs=0.005)

        market_up = prices_with_ann_return(79.97)
        sector_up = prices_with_ann_return(124.67)
        assert sector_spread(sector_up, market_up, START) == pytest.approx(44.70, abs=0.005)

    def test_spread_labels(self):
        scope = Scope("Communications")
        # the sector falls less than the market's gain: its own return
        # is positive, its spread negative, and the spread decides
        sector, market = prices_with_ann_return(12.0), prices_with_ann_return(30.0)
        assert ann_forward_return(sector, START) > 0.0
        assert build_labels(scope, market, sector) == {START: Label.DOWN}
        down = build_labels(scope, prices_with_ann_return(-11.60), prices_with_ann_return(-17.90))
        assert down == {START: Label.DOWN}
        up = build_labels(scope, prices_with_ann_return(79.97), prices_with_ann_return(124.67))
        assert up == {START: Label.UP}

    def test_equal_returns_down(self):
        p = prices(*LEVELS)
        assert sector_spread(p, p, START) == 0.0
        assert build_labels(Scope("Finance"), p, p) == {START: Label.DOWN, START + 1: Label.DOWN}

    def test_antisymmetry(self):
        rng = random.Random(31)
        a = prices(rng.uniform(10, 100), rng.uniform(10, 100))
        b = prices(rng.uniform(10, 100), rng.uniform(10, 100))
        assert sector_spread(a, b, START) == pytest.approx(-sector_spread(b, a, START), abs=1e-12)


class TestBuildLabels:
    def test_broad_coverage(self):
        p = prices(*LEVELS)
        labels = build_labels(BROAD_SCOPE, p)
        assert list(labels) == [START, START + 1]
        assert list(labels.values()) == [Label.DOWN, Label.UP]

    def test_sector_needs_both_series(self):
        market = prices(*LEVELS)
        sector = prices(100.0, 90.0, start=START + 1)
        labels = build_labels(Scope("Finance"), market, sector)
        assert list(labels) == [START + 1]
        with pytest.raises(DataError):
            build_labels(Scope("Finance"), market)

    def test_empty_prices_label_nothing(self):
        assert build_labels(BROAD_SCOPE, {}) == {}
        assert build_labels(Scope("Finance"), {}, prices(*LEVELS)) == {}
        assert build_labels(Scope("Finance"), prices(*LEVELS), {}) == {}

    def test_label_consistency_enforced(self):
        # each label is the sign of the return that decides it: the
        # market's own forward return, or a sector's spread over it
        rng = random.Random(37)
        market = prices(*(rng.uniform(50, 150) for _ in range(12)))
        sector = prices(*(rng.uniform(50, 150) for _ in range(10)), start=START + 1)
        broad = build_labels(BROAD_SCOPE, market)
        assert broad == {t: label_of(ann_forward_return(market, t)) for t in quarter_range(START, START + 10)}
        spread = build_labels(Scope("Finance"), market, sector)
        assert spread == {
            t: label_of(sector_spread(sector, market, t)) for t in quarter_range(START + 1, START + 9)
        }
        assert set(broad.values()) == set(spread.values()) == {Label.UP, Label.DOWN}
