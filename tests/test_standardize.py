"""Rolling z-scores against brute-force statistics."""

import random

import numpy as np
import pytest

from pesignal.errors import InsufficientHistoryError
from pesignal.features import BROAD_SCOPE, RawFeatureRow
from pesignal.quarters import Quarter, QuarterlySeries
from pesignal.standardize import build_zscore_table, write_zscore_table, zscore

START = Quarter(2000, 1)


def series(*values):
    return QuarterlySeries(START, tuple(values))


class TestRollingStats:
    """The trailing-window mean and sample standard deviation each z is
    built from, seen through the z of the window's last quarter."""

    def test_small_sample(self):
        # mean 2, sample std 1
        assert zscore(series(1.0, 2.0, 3.0), 3).series.values == (1.0,)

    def test_constant_window(self):
        # 4.2 is not a binary fraction, yet the window's sigma is exactly 0
        z = zscore(series(*([4.2] * 5)), 4)
        assert z.series.values == (0.0, 0.0)
        assert z.zero_variance == (Quarter(2000, 4), Quarter(2001, 1))

    def test_matches_two_pass_oracle(self):
        rng = random.Random(21)
        values = [rng.uniform(-5, 5) for _ in range(12)]
        (z,) = zscore(series(*values), 12).series.values
        expected = (values[-1] - np.mean(values)) / np.std(values, ddof=1)
        assert z == pytest.approx(expected, abs=1e-12)

    def test_trailing_window_only(self):
        values = [100.0, 100.0, 1.0, 2.0, 3.0]
        assert zscore(series(*values), 3).series.get(Quarter(2001, 1)) == 1.0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            zscore(series(1.0, 2.0), 3)
        z = zscore(series(1.0, 2.0, 3.0), 3)
        assert z.series.start == z.series.end == Quarter(2000, 3)

    def test_missing_value_in_window(self):
        z = zscore(series(1.0, None, 3.0), 3)
        assert z.series.values == (None,)
        assert z.zero_variance == ()

    def test_window_below_two_rejected(self):
        with pytest.raises(ValueError):
            zscore(series(1.0, 2.0), 1)


class TestZScore:
    def test_first_quarter_after_three_years(self):
        x = QuarterlySeries(Quarter(2000, 1), tuple(float(k) for k in range(20)))
        z = zscore(x, 12)
        assert z.series.start == Quarter(2002, 4)
        assert len(z.series) == len(x) - 12 + 1

    def test_constant_series_flagged_zero(self):
        z = zscore(series(*([3.0] * 6)), 4)
        assert z.series.values == (0.0, 0.0, 0.0)
        assert z.zero_variance == (Quarter(2000, 4), Quarter(2001, 1), Quarter(2001, 2))

    def test_linear_ramp(self):
        x = series(*(float(k) for k in range(10)))
        z = zscore(x, 3)
        for value in z.series.values:
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_shift_scale_equivariance(self):
        rng = random.Random(13)
        values = [rng.uniform(-3, 3) for _ in range(16)]
        a, b = 2.7, -11.0
        z_plain = zscore(series(*values), 5)
        z_affine = zscore(series(*(a * v + b for v in values)), 5)
        assert z_affine.zero_variance == z_plain.zero_variance
        for p, q in zip(z_plain.series.values, z_affine.series.values):
            assert q == pytest.approx(p, abs=1e-12)

    def test_missing_value_blanks_overlapping_windows(self):
        values = [1.0, 2.0, 3.0, None, 5.0, 6.0, 7.0, 8.0]
        z = zscore(series(*values), 3)
        # windows ending at offsets 3, 4, 5 contain the missing offset 3
        assert [v is None for v in z.series.values] == [False, True, True, True, False, False]

    def test_no_lookahead(self):
        rng = random.Random(17)
        values = [rng.uniform(0, 10) for _ in range(20)]
        full = zscore(series(*values), 6)
        truncated = zscore(series(*values[:15]), 6)
        assert full.series.values[: len(truncated.series)] == truncated.series.values

    def test_too_short_series(self):
        with pytest.raises(InsufficientHistoryError):
            zscore(series(1.0, 2.0), 3)


def broad_row(quarter, count, aum, wavg, rank, pe):
    return RawFeatureRow(
        quarter=quarter,
        scope=BROAD_SCOPE,
        deal_count=count,
        avg_aum=aum,
        weighted_avg_aum=wavg,
        market_pe=pe,
        avg_fund_ranking=rank,
    )


def kept(table):
    """(quarter, z vector) for each row of the table that is not dropped."""
    return [(table.start + k, row) for k, row in enumerate(table.z) if None not in row]


class TestZScoreTable:
    def make_rows(self, n=8, hole=None):
        rng = random.Random(31)
        rows = []
        for k in range(n):
            aum = None if k == hole else rng.uniform(1, 8)
            rows.append(
                broad_row(
                    START + k,
                    rng.randrange(50, 300),
                    aum,
                    None if aum is None else aum * 1.2,
                    rng.uniform(1.5, 3.5),
                    rng.uniform(12, 25),
                )
            )
        return rows

    def test_complete_table(self):
        table = build_zscore_table(self.make_rows(), 3)
        assert table.names == ("deal_count", "avg_aum", "weighted_avg_aum", "avg_fund_ranking", "market_pe")
        assert table.start == START + 2
        assert len(table.z) == 6
        assert all(len(row) == 5 and all(type(z) is float for z in row) for row in table.z)
        assert table.dropped == ()
        assert len(kept(table)) == 6

    def test_hole_drops_overlapping_quarters(self):
        table = build_zscore_table(self.make_rows(hole=4), 3)
        assert table.dropped == (START + 4, START + 5, START + 6)
        assert [quarter for quarter, _ in kept(table)] == [START + 2, START + 3, START + 7]
        assert table.z[2:5] == ((None,) * 5,) * 3

    def test_row_at_finds_kept_rows_only(self):
        table = build_zscore_table(self.make_rows(hole=4), 3)
        for quarter, row in kept(table):
            assert table.row_at(quarter) == row
        assert table.row_at(START + 5) is None  # dropped for the hole
        assert table.row_at(START + 1) is None  # before the first full window
        assert table.row_at(START + 8) is None  # past the end

    def test_zero_variance_flag_propagates(self):
        rows = [broad_row(START + k, 100, 5.0, 5.0, 2.0, 12.0 + k) for k in range(5)]
        table = build_zscore_table(rows, 3)
        flagged_names = {name for _, name in table.zero_variance}
        assert flagged_names == {"deal_count", "avg_aum", "weighted_avg_aum", "avg_fund_ranking"}
        for _, row in kept(table):
            assert tuple(row[:4]) == (0.0, 0.0, 0.0, 0.0)
            assert row[4] != 0.0

    def test_matches_scalar_zscore(self):
        rows = self.make_rows()
        table = build_zscore_table(rows, 4)
        pe = QuarterlySeries(START, tuple(r.market_pe for r in rows))
        scalar = zscore(pe, 4)
        for quarter, row in kept(table):
            assert row[4] == scalar.series.get(quarter)

    def test_write_table(self):
        import io

        table = build_zscore_table(self.make_rows(), 3)
        out = io.StringIO()
        write_zscore_table(table, out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("scope,quarter_end,z_deal_count,")
        assert len(lines) == 1 + len(table.z)
        assert lines[1].split(",")[0] == "Market"

    def test_infinite_z_rejected(self, monkeypatch):
        # a sigma this small overflows every z that is not exactly 0
        monkeypatch.setattr("pesignal.standardize._window_stats", lambda window: (0.0, 5e-324))
        with pytest.raises(ValueError, match="non-finite value at 2000Q3: inf"):
            build_zscore_table(self.make_rows(), 3)
