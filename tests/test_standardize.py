"""Rolling z-scores against brute-force statistics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import series_zscore_table, unscaled_window_z
from pesignal.errors import InsufficientHistoryError
from pesignal.features import BROAD_FEATURES, BROAD_SCOPE, FeatureTable, Scope, feature_names, write_feature_table
from pesignal.quarters import Quarter
from pesignal.standardize import _window_z, build_zscore_table, zscore

START = Quarter(2000, 1)


class TestRollingStats:
    """The trailing-window mean and sample standard deviation each z is
    built from, seen through the z of the window's last quarter."""

    def test_small_sample(self):
        # mean 2, sample std 1
        assert zscore((1.0, 2.0, 3.0), 3) == ((1.0,), ())

    def test_constant_window(self):
        # 4.2 is not a binary fraction, yet the window's sigma is exactly 0
        z, flagged = zscore([4.2] * 5, 4)
        assert z == (0.0, 0.0)
        assert flagged == (0, 1)

    def test_matches_two_pass_oracle(self):
        rng = random.Random(21)
        values = [rng.uniform(-5, 5) for _ in range(12)]
        (z,), _ = zscore(values, 12)
        expected = (values[-1] - np.mean(values)) / np.std(values, ddof=1)
        assert z == pytest.approx(expected, abs=1e-12)

    def test_trailing_window_only(self):
        values = [100.0, 100.0, 1.0, 2.0, 3.0]
        # z[2] belongs to values[4]
        assert zscore(values, 3)[0][2] == 1.0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            zscore((1.0, 2.0), 3)
        z, _ = zscore((1.0, 2.0, 3.0), 3)
        assert len(z) == 1

    def test_missing_value_in_window(self):
        assert zscore((1.0, None, 3.0), 3) == ((None,), ())

    def test_window_below_two_rejected(self):
        with pytest.raises(ValueError):
            zscore((1.0, 2.0), 1)

    def test_tiny_distinct_values_are_not_flagged(self):
        # unscaled, every squared deviation (1e-330) is below the
        # smallest subnormal and the variance would read 0
        (z,), flagged = zscore([1e-165, 2e-165, 3e-165], 3)
        assert flagged == ()
        assert abs(z - 1.0) <= math.ulp(1.0)

    def test_subnormal_deviation_is_not_flagged(self):
        # unscaled, the squared deviations underflow to 0
        (z,), flagged = zscore([0.0, 5.001986363585299e-303], 2)
        assert flagged == ()
        assert z == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_huge_values_standardize(self):
        # unscaled, the squared deviations overflow
        (z,), flagged = zscore([-1e300, 1e300, 1.7e308], 3)
        assert flagged == ()
        assert math.isfinite(z) and z > 0


class TestZScore:
    def test_first_quarter_after_three_years(self):
        x = FeatureTable(BROAD_SCOPE, Quarter(2000, 1), ("x",), tuple((float(k),) for k in range(20)))
        z = build_zscore_table(x, 12)
        assert z.start == Quarter(2002, 4)
        assert len(z.rows) == len(x.rows) - 12 + 1

    def test_constant_series_flagged_zero(self):
        assert zscore([3.0] * 6, 4) == ((0.0, 0.0, 0.0), (0, 1, 2))

    def test_linear_ramp(self):
        x = [float(k) for k in range(10)]
        z, _ = zscore(x, 3)
        for value in z:
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_shift_scale_equivariance(self):
        rng = random.Random(13)
        values = [rng.uniform(-3, 3) for _ in range(16)]
        a, b = 2.7, -11.0
        z_plain, flagged_plain = zscore(values, 5)
        z_affine, flagged_affine = zscore([a * v + b for v in values], 5)
        assert flagged_affine == flagged_plain
        for p, q in zip(z_plain, z_affine):
            assert q == pytest.approx(p, abs=1e-12)

    def test_missing_value_blanks_overlapping_windows(self):
        values = [1.0, 2.0, 3.0, None, 5.0, 6.0, 7.0, 8.0]
        z, _ = zscore(values, 3)
        # windows ending at offsets 3, 4, 5 contain the missing offset 3
        assert [v is None for v in z] == [False, True, True, True, False, False]

    def test_no_lookahead(self):
        rng = random.Random(17)
        values = [rng.uniform(0, 10) for _ in range(20)]
        full, _ = zscore(values, 6)
        truncated, _ = zscore(values[:15], 6)
        assert full[: len(truncated)] == truncated

    def test_too_short_series(self):
        with pytest.raises(InsufficientHistoryError):
            zscore((1.0, 2.0), 3)


def broad_table(rows):
    """A market feature table from START, one (count, aum, wavg, rank, pe) row a quarter."""
    return FeatureTable(BROAD_SCOPE, START, BROAD_FEATURES, tuple(rows))


def kept(table):
    """(quarter, z vector) for each row of the table that is not dropped."""
    return [(table.start + k, row) for k, row in enumerate(table.rows) if None not in row]


class TestZScoreTable:
    def make_rows(self, n=8, hole=None):
        rng = random.Random(31)
        rows = []
        for k in range(n):
            aum = None if k == hole else rng.uniform(1, 8)
            rows.append(
                (
                    rng.randrange(50, 300),
                    aum,
                    None if aum is None else aum * 1.2,
                    rng.uniform(1.5, 3.5),
                    rng.uniform(12, 25),
                )
            )
        return broad_table(rows)

    def test_complete_table(self):
        table = build_zscore_table(self.make_rows(), 3)
        assert table.names == ("z_deal_count", "z_avg_aum", "z_weighted_avg_aum", "z_avg_fund_ranking", "z_market_pe")
        assert table.start == START + 2
        assert len(table.rows) == 6
        assert all(len(row) == 5 and all(type(z) is float for z in row) for row in table.rows)
        assert table.dropped == ()
        assert len(kept(table)) == 6

    def test_hole_drops_overlapping_quarters(self):
        table = build_zscore_table(self.make_rows(hole=4), 3)
        assert table.dropped == (START + 4, START + 5, START + 6)
        assert [quarter for quarter, _ in kept(table)] == [START + 2, START + 3, START + 7]
        assert table.rows[2:5] == ((None,) * 5,) * 3

    def test_row_at_finds_kept_rows_only(self):
        table = build_zscore_table(self.make_rows(hole=4), 3)
        for quarter, row in kept(table):
            assert table.row_at(quarter) == row
        assert table.row_at(START + 5) is None  # dropped for the hole
        assert table.row_at(START + 1) is None  # before the first full window
        assert table.row_at(START + 8) is None  # past the end

    def test_zero_variance_flag_propagates(self):
        table = build_zscore_table(broad_table((100, 5.0, 5.0, 2.0, 12.0 + k) for k in range(5)), 3)
        flagged_names = {name for _, name in table.zero_variance}
        assert flagged_names == {"deal_count", "avg_aum", "weighted_avg_aum", "avg_fund_ranking"}
        for _, row in kept(table):
            assert tuple(row[:4]) == (0.0, 0.0, 0.0, 0.0)
            assert row[4] != 0.0

    def test_matches_scalar_zscore(self):
        rows = self.make_rows()
        table = build_zscore_table(rows, 4)
        scalar, _ = zscore([row[4] for row in rows.rows], 4)
        for quarter, row in kept(table):
            assert row[4] == scalar[quarter - table.start]

    def test_write_table(self):
        import io

        table = build_zscore_table(self.make_rows(hole=4), 3)
        out = io.StringIO()
        write_feature_table(table, out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("scope,quarter_end,z_deal_count,")
        # the three dropped quarters are left out
        assert len(lines) == 1 + len(table.rows) - 3
        assert lines[1].split(",")[0] == "Market"

    def test_infinite_z_rejected(self, monkeypatch):
        # |z| <= (n - 1) / sqrt(n) for any window, so only a faulty
        # statistic gives inf; the table's own check still rejects it
        monkeypatch.setattr("pesignal.standardize._window_z", lambda window: math.inf)
        with pytest.raises(ValueError, match="non-finite value at 2000Q3: inf"):
            build_zscore_table(self.make_rows(), 3)


def runs(values, length):
    """length cells drawn as runs of repeated values, so some windows are constant."""
    pairs = st.lists(st.tuples(values, st.integers(1, 6)), min_size=length, max_size=length)
    return pairs.map(lambda pairs: [v for v, n in pairs for _ in range(n)][:length])


@settings(max_examples=150, deadline=None)
@given(
    scope=st.sampled_from([BROAD_SCOPE, Scope("Finance")]),
    window=st.integers(2, 6),
    extra=st.integers(0, 10),
    data=st.data(),
)
def test_build_zscore_table_equals_the_series_oracle(scope, window, extra, data):
    n = window + extra
    values = st.none() | st.sampled_from([0.0, 4.2, -1.5]) | st.floats(-1e6, 1e6)
    columns = [data.draw(runs(st.integers(0, 5), n))]
    columns += [data.draw(runs(values, n)) for _ in feature_names(scope)[1:]]
    table = FeatureTable(scope, START, feature_names(scope), tuple(zip(*columns)))
    assert build_zscore_table(table, window) == series_zscore_table(table, window)


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(2, 6),
    extra=st.integers(0, 8),
    k=st.integers(-1000, 1000),
    data=st.data(),
)
def test_power_of_two_scaling_changes_no_z(window, extra, k, data):
    # magnitudes in [2**-20, 2**20) times 2**k stay normal and finite
    # for |k| <= 1000, so the scaled column holds the same values in
    # another unit; unscaled squares of 2**1000 would overflow
    values = st.none() | st.just(0.0) | signed(st.floats(2.0**-20, 2.0**20, exclude_max=True))
    column = data.draw(runs(values, window + extra))
    scaled = [None if v is None else math.ldexp(v, k) for v in column]
    assert zscore(scaled, window) == zscore(column, window)


@settings(max_examples=300, deadline=None)
@given(window=st.integers(2, 12), data=st.data())
def test_window_z_equals_the_unscaled_restatement(window, data):
    # Domain: 0 or magnitudes in [2**-150, 2**150]. Every value is then a
    # multiple of 2**-202, so the mean is 0 or at least 2**-206 and a
    # nonzero deviation lies in [2**-258, 2**151]: unscaled, no square
    # underflows and no sum of squares overflows, and scaled by 2**-e
    # with e <= 151, every value, mean and square stays normal.
    values = st.just(0.0) | signed(st.floats(2.0**-150, 2.0**150))
    window_values = data.draw(runs(values, window))
    assert _window_z(window_values) == unscaled_window_z(window_values)
