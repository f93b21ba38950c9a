"""Walk-forward scheduling and the standardize/estimate/predict loop."""

import io
import random
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesignal.backtest import (
    BacktestConfig,
    BacktestResult,
    PredictionRecord,
    SkippedWindow,
    read_predictions,
    run,
    run_scopes,
    write_predictions,
)
from pesignal.errors import DataError, InsufficientHistoryError, NumericalError
from pesignal.evaluation import report
from pesignal.features import BROAD_FEATURES, BROAD_SCOPE, FeatureTable, Scope, build_feature_table, deals_by_quarter
from pesignal.ingest import SECTOR_NAMES, AumBucket, first_deals
from pesignal.logit import fit, fit_windows
from pesignal.quarters import Quarter, quarter_range
from pesignal.response import Label, build_labels
from pesignal.standardize import build_zscore_table
from pesignal.synthetic import SyntheticSpec, generate_dataset

START = Quarter(2000, 1)


def broad_rows(n, seed=101, hole=None):
    """A market feature table of n quarters from START."""
    rng = random.Random(seed)
    rows = []
    for k in range(n):
        aum = None if k == hole else rng.uniform(1, 9)
        count = rng.randrange(40, 400)
        wavg = None if aum is None else aum * rng.uniform(1.0, 1.6)
        pe = rng.uniform(10, 25)
        rows.append((count, aum, wavg, rng.uniform(1.5, 3.5), pe))
    return FeatureTable(BROAD_SCOPE, START, BROAD_FEATURES, tuple(rows))


def quarters_of(table):
    return [table.start + k for k in range(len(table.rows))]


def broad_labels(quarters, seed=202, force=None):
    rng = random.Random(seed)
    labels = {}
    for q in quarters:
        up = rng.random() < 0.5 if force is None else force is Label.UP
        labels[q] = Label.UP if up else Label.DOWN
    return labels


FAST = BacktestConfig(std_window=4, est_window=3, max_iter=300)


def walk(rows, config):
    """Every predicted quarter of the walk, recorded or skipped, in the order the windows come."""
    result = run(rows, broad_labels(quarters_of(rows)), config)
    return [w.quarter for w in result.windows]


class TestSchedule:
    def test_study_shape(self):
        rows = broad_rows(68)
        predicted = walk(rows, BacktestConfig(std_window=12, est_window=7, max_iter=20))
        assert len(predicted) == 50
        assert predicted[0] == Quarter(2004, 3)
        assert predicted[0].end_date().isoformat() == "2004-09-30"
        assert predicted[-1] == Quarter(2016, 4)

    def test_windows_slide_by_one(self):
        rows = broad_rows(68)
        labels = broad_labels(quarters_of(rows))
        config = BacktestConfig(std_window=12, est_window=7, max_iter=20)
        table = build_zscore_table(rows, 12)
        result = run(rows, labels, config)
        assert [r.quarter for r in result.records] == [Quarter(2004, 3) + k for k in range(50)]
        for k, r in enumerate(result.records):
            # window k fits z rows k .. k+6, the 7 quarters just before the predicted one
            assert table.start + k == r.quarter - 7
            y = np.array([labels[q] is Label.UP for q in quarter_range(r.quarter - 7, r.quarter - 1)], dtype=float)
            assert r.fit == fit(table.rows[k : k + 7], y, config)

    def test_minimal_history_single_prediction(self):
        assert walk(broad_rows(19), BacktestConfig(std_window=12, est_window=7, max_iter=20)) == [Quarter(2004, 3)]

    def test_count_formula(self):
        rng = random.Random(7)
        for _ in range(50):
            t = rng.randint(2, 14)
            ne = rng.randint(2, 9)
            n = rng.randint(t + ne, t + ne + 30)
            predicted = walk(broad_rows(n), BacktestConfig(std_window=t, est_window=ne, max_iter=0))
            assert predicted == [START + k for k in range(t + ne - 1, n)]
            assert len(predicted) == n - t - ne + 1

    def test_records_and_skipped_split_the_windows_in_order(self):
        assert BacktestResult._fields == ("scope", "windows")
        assert SkippedWindow._fields == ("quarter", "reason")
        rng = random.Random(11)
        mixed = 0
        for _ in range(30):
            t = rng.randint(2, 8)
            ne = rng.randint(2, 6)
            n = rng.randint(t + ne, t + ne + 20)
            rows = broad_rows(n, seed=rng.randrange(1000), hole=rng.choice([None, rng.randrange(n)]))
            labels = broad_labels(quarters_of(rows))
            for q in rng.sample(sorted(labels), rng.randint(0, 3)):
                del labels[q]
            result = run(rows, labels, BacktestConfig(std_window=t, est_window=ne, max_iter=5))
            # one window per planned quarter, as many as test_count_formula counts, in schedule order
            assert len(result.windows) == n - t - ne + 1
            assert [w.quarter for w in result.windows] == [START + k for k in range(t + ne - 1, n)]
            # records and skipped are the two kinds of window, each in the order the windows come
            assert result.records == tuple(w for w in result.windows if type(w) is PredictionRecord)
            assert result.skipped == tuple(w for w in result.windows if type(w) is SkippedWindow)
            assert len(result.records) + len(result.skipped) == len(result.windows)
            mixed += bool(result.records and result.skipped)
        assert mixed >= 5

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError, match="19 quarters"):
            walk(broad_rows(18), BacktestConfig(std_window=12, est_window=7))

    def test_bad_windows(self):
        with pytest.raises(ValueError):
            BacktestConfig(std_window=1, est_window=7)
        with pytest.raises(ValueError):
            BacktestConfig(std_window=12, est_window=1)

    def test_no_scopes_no_results(self):
        assert run_scopes([], FAST) == []


class TestRun:
    def test_record_per_scheduled_quarter(self):
        rows = broad_rows(16)
        labels = broad_labels(quarters_of(rows))
        result = run(rows, labels, FAST)
        assert result.skipped == ()
        assert [r.quarter for r in result.records] == [START + k for k in range(6, 16)]
        assert all(r.actual is not None for r in result.records)
        assert all(r.fit is not None for r in result.records)

    def test_deterministic(self):
        rows = broad_rows(16)
        labels = broad_labels(quarters_of(rows))
        first = io.StringIO()
        second = io.StringIO()
        write_predictions(run(rows, labels, FAST).records, first)
        write_predictions(run(rows, labels, FAST).records, second)
        assert first.getvalue() == second.getvalue()

    def test_constant_features_all_up_labels(self):
        rows = FeatureTable(BROAD_SCOPE, START, BROAD_FEATURES, ((100, 5.0, 5.0, 2.0, 15.0),) * 10)
        labels = broad_labels(quarters_of(rows), force=Label.UP)
        result = run(rows, labels, BacktestConfig(std_window=4, est_window=3, max_iter=200))
        assert result.records
        assert all(r.predicted is Label.UP for r in result.records)

    def test_feature_hole_skips_overlapping_windows(self):
        rows = broad_rows(16, hole=8)
        labels = broad_labels(quarters_of(rows))
        result = run(rows, labels, FAST)
        assert len(result.records) + len(result.skipped) == 16 - 4 - 3 + 1
        assert result.skipped
        for skip in result.skipped:
            assert "z-score row" in skip.reason

    def test_missing_label_skips_window(self):
        rows = broad_rows(16)
        quarters = quarters_of(rows)
        missing = START + 9
        labels = broad_labels(quarters)
        del labels[missing]
        result = run(rows, labels, FAST)
        reasons = [s.reason for s in result.skipped]
        assert any("no label at 2002Q2" in r for r in reasons)
        # windows not touching the missing quarter still predict
        assert any(rec.quarter > missing + 3 for rec in result.records)

    def test_unscored_final_quarter(self):
        rows = broad_rows(16)
        quarters = quarters_of(rows)
        labels = broad_labels(quarters)
        del labels[quarters[-1]]
        result = run(rows, labels, FAST)
        last = result.records[-1]
        assert last.quarter == quarters[-1]
        assert last.actual is None
        assert last.correct is None

    def test_no_lookahead(self):
        rows = broad_rows(16)
        quarters = quarters_of(rows)
        labels = broad_labels(quarters)
        full = run(rows, labels, FAST)
        for horizon in (10, 12, 15):
            q = START + horizon
            truncated = run(
                rows._replace(rows=rows.rows[: horizon + 1]),
                {quarter: y for quarter, y in labels.items() if quarter < q},
                FAST,
            )
            want = {r.quarter: r for r in full.records if r.quarter <= q}
            got = {r.quarter: r for r in truncated.records}
            assert set(got) == set(want)
            for quarter, rec in got.items():
                assert rec.p_up == want[quarter].p_up
                assert rec.predicted is want[quarter].predicted

    def test_estimation_failure_skips(self, monkeypatch):
        # labels missing at START+5 and START+11 skip the windows that
        # predict START+6..8 and START+12..14; of the runnable windows
        # (predicting START+9, 10, 11, 15) the kernel fails the second
        def second_fails(z, y, config):
            outcomes = fit_windows(z, y, config)
            outcomes[1] = NumericalError("boom")
            return outcomes

        rows = broad_rows(16)
        labels = broad_labels(quarters_of(rows))
        del labels[START + 5], labels[START + 11]
        clean = run(rows, labels, FAST)
        monkeypatch.setattr("pesignal.backtest.fit_windows", second_fails)
        result = run(rows, labels, FAST)
        assert [s.quarter for s in result.skipped] == [START + k for k in (6, 7, 8, 10, 12, 13, 14)]
        # the failed window keeps its place in the schedule, between the records either side of it
        assert [w.quarter for w in result.windows] == [START + k for k in range(6, 16)]
        assert result.windows[3:6] == (clean.windows[3], SkippedWindow(START + 10, "estimation failed: boom"), clean.windows[5])
        reasons = {s.quarter: s.reason for s in result.skipped}
        assert reasons[START + 10] == "estimation failed: boom"
        assert all("no label at" in r for q, r in reasons.items() if q != START + 10)
        assert [r.quarter for r in result.records] == [START + k for k in (9, 11, 15)]
        assert result.records == tuple(r for r in clean.records if r.quarter != START + 10)


LOOKAHEAD_SPEC = SyntheticSpec(seed=5, n_quarters=20, n_sectors=2, std_window=4)
LOOKAHEAD_DATA = generate_dataset(LOOKAHEAD_SPEC)


def pipeline(deals, prices, pe, scope, config):
    """Raw deals, price levels and P/E series to one scope's walk."""
    spec = LOOKAHEAD_SPEC
    buckets = deals_by_quarter(first_deals(deals))
    rows = build_feature_table(buckets, scope, spec.start, spec.last, pe)
    labels = build_labels(scope, prices)
    return run(rows, labels, config)


def after(series: dict, q, rng) -> dict:
    """Each series with every value strictly after q rescaled."""
    out = {}
    for name, s in series.items():
        scale = np.exp(rng.normal(0, 0.3, len(s)))
        out[name] = {quarter: v * float(f) if quarter > q else v for (quarter, v), f in zip(s.items(), scale)}
    return out


def deals_after(deals, q, rng) -> list:
    """The deals dated after q changed, dropped, added or followed on."""
    spec = LOOKAHEAD_SPEC
    sectors = [scope.name for scope in spec.scopes()[1:]]
    first_day = (q + 1).end_date() - timedelta(days=89)
    span = (spec.last.end_date() - first_day).days

    def later(day):
        return day + timedelta(days=int(rng.integers(1, 120)))

    out = []
    for deal in deals:
        if Quarter.of_date(deal.investment_date) <= q:
            out.append(deal)
        elif rng.random() < 0.8:
            aum = [None, AumBucket.HIGH, float(rng.uniform(0.5, 20.0))][int(rng.integers(0, 3))]
            out.append(deal._replace(
                sector=sectors[int(rng.integers(0, len(sectors)))],
                investment_date=later(deal.investment_date) if rng.random() < 0.3 else deal.investment_date,
                investor_aum=aum,
                investor_rank=None if rng.random() < 0.2 else float(rng.uniform(1.0, 4.0)),
            ))
        # a follow-on round after q keeps the company's first deal
        if rng.random() < 0.2:
            out.append(deal._replace(
                investment_date=max(later(deal.investment_date), first_day), investor_aum=50.0, investor="Fund 00"
            ))
    for j in range(int(rng.integers(0, 40))):
        day = first_day + timedelta(days=int(rng.integers(0, span + 1)))
        new = deals[0]._replace(company_id=f"NEW-{j}", sector=sectors[j % len(sectors)], investment_date=day)
        out.append(new)
    return out


@settings(max_examples=30, deadline=None)
@given(
    offset=st.integers(0, LOOKAHEAD_SPEC.n_quarters - 2),
    seed=st.integers(0, 2**32 - 1),
    change_deals=st.booleans(),
    change_prices=st.booleans(),
    change_pe=st.booleans(),
)
def test_no_lookahead_through_the_pipeline(offset, seed, change_deals, change_prices, change_pe):
    # predictions issued at or before q may use nothing dated after q;
    # only the actual label at q reads a later price, P(q+1)
    q = LOOKAHEAD_SPEC.start + offset
    rng = np.random.default_rng(seed)
    data = LOOKAHEAD_DATA
    deals = deals_after(data.deals, q, rng) if change_deals else data.deals
    prices = after(data.prices, q, rng) if change_prices else data.prices
    pe = after(data.pe, q, rng) if change_pe else data.pe
    config = BacktestConfig(std_window=4, est_window=3, max_iter=150)
    for scope in LOOKAHEAD_SPEC.scopes():
        full = pipeline(data.deals, data.prices, data.pe, scope, config)
        changed = pipeline(deals, prices, pe, scope, config)
        want = [(r.quarter, r.p_up, r.predicted, r.fit) for r in full.records if r.quarter <= q]
        got = [(r.quarter, r.p_up, r.predicted, r.fit) for r in changed.records if r.quarter <= q]
        assert got == want, scope.name
        assert [r.actual for r in changed.records if r.quarter < q] == [r.actual for r in full.records if r.quarter < q]
        assert [s for s in changed.skipped if s.quarter <= q] == [s for s in full.skipped if s.quarter <= q]


class TestPredictionIO:
    def test_round_trip(self):
        rows = broad_rows(16)
        labels = broad_labels(quarters_of(rows))
        del labels[quarters_of(rows)[-1]]
        records = run(rows, labels, FAST).records
        out = io.StringIO()
        write_predictions(records, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "scope,quarter_end,p_up,predicted,actual,correct"
        back = read_predictions(io.StringIO(out.getvalue()))
        assert len(back) == len(records)
        for rec, parsed in zip(records, back):
            assert parsed.scope == rec.scope
            assert parsed.quarter == rec.quarter
            assert parsed.p_up == pytest.approx(rec.p_up, abs=5e-7)
            assert parsed.predicted is rec.predicted
            assert parsed.actual is rec.actual
            assert parsed.fit is None

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_drawn_records_round_trip(self, data):
        # p_up at 6 decimals, which the table holds exactly; quarters in order, with gaps
        scope = data.draw(st.sampled_from([BROAD_SCOPE, *map(Scope, SECTOR_NAMES)]))
        quarter = data.draw(st.builds(Quarter, st.integers(1990, 2030), st.integers(1, 4)))
        records = []
        for gap in data.draw(st.lists(st.integers(1, 4), max_size=60)):
            quarter += gap
            p_up = data.draw(st.integers(0, 10**6)) / 10**6
            labels = data.draw(st.tuples(st.sampled_from(Label), st.none() | st.sampled_from(Label)))
            records.append(PredictionRecord(scope, quarter, p_up, *labels, fit=None))
        out = io.StringIO()
        write_predictions(records, out)
        assert read_predictions(io.StringIO(out.getvalue())) == records

    def test_correct_flag_formatting(self):
        records = [
            PredictionRecord(BROAD_SCOPE, START, 0.75, Label.UP, Label.UP),
            PredictionRecord(BROAD_SCOPE, START + 1, 0.25, Label.DOWN, Label.UP),
            PredictionRecord(BROAD_SCOPE, START + 2, 0.5, Label.UP, None),
        ]
        out = io.StringIO()
        write_predictions(records, out)
        rows = out.getvalue().splitlines()[1:]
        assert rows[0].endswith("0.750000,UP,UP,1")
        assert rows[1].endswith("0.250000,DOWN,UP,0")
        assert rows[2].endswith("0.500000,UP,NA,NA")

    def test_table_read_back_classifies_as_written(self, monkeypatch):
        # 0.49999996 is DOWN but is written 0.500000, so backtest
        # classifies it UP at threshold 0.5, as evaluate's report counts it
        monkeypatch.setattr("pesignal.backtest.prob_up", lambda z, params: 0.49999996)
        rows = broad_rows(16)
        records = run(rows, broad_labels(quarters_of(rows), force=Label.DOWN), FAST).records
        out = io.StringIO()
        write_predictions(records, out)
        assert all(line.endswith(",0.500000,UP,DOWN,0") for line in out.getvalue().splitlines()[1:])
        back = read_predictions(io.StringIO(out.getvalue()))
        assert all(rec.predicted is Label.UP and rec.p_up >= FAST.threshold for rec in back)
        scores = report(back)
        assert (scores.tp, scores.fp, scores.tn, scores.fn) == (0, len(back), 0, 0)

    def test_read_skips_a_blank_line(self):
        rows = ["Market,2004-09-30,0.700000,UP,DOWN,0\n", "Market,2004-12-31,0.800000,UP,NA,NA\n"]
        plain = read_predictions(io.StringIO(self.HEADER + "".join(rows)))
        assert len(plain) == 2
        assert read_predictions(io.StringIO(self.HEADER + rows[0] + "\n" + rows[1] + "\n")) == plain

    def test_read_rejects_bad_header(self):
        with pytest.raises(DataError, match="header"):
            read_predictions(io.StringIO("nope\n"))

    def test_read_rejects_bad_row(self):
        header = "scope,quarter_end,p_up,predicted,actual,correct\n"
        for row, error in (
            ("Market,2004-09-30,oops,UP,NA,NA", "line 2"),
            ("Market,2004-09-3x,0.500000,UP,NA,NA", "line 2: cannot parse quarter from '2004-09-3x'"),
        ):
            with pytest.raises(DataError, match=error):
                read_predictions(io.StringIO(header + row + "\n"))

    HEADER = "scope,quarter_end,p_up,predicted,actual,correct\n"

    @pytest.mark.parametrize("correct", ["0", "NA", ""])
    def test_read_rejects_a_correct_cell_that_predicted_and_actual_contradict(self, correct):
        text = self.HEADER + "Market,2004-09-30,0.700000,UP,DOWN,0\n" + f"Market,2004-12-31,0.800000,UP,UP,{correct}\n"
        with pytest.raises(DataError, match="line 3: correct is"):
            read_predictions(io.StringIO(text))

    def test_read_rejects_a_repeated_quarter(self):
        row = "Market,2004-09-30,0.700000,UP,DOWN,0\n"
        with pytest.raises(DataError, match="line 4: quarter 2004Q3 appears twice"):
            read_predictions(io.StringIO(self.HEADER + row + "Market,2004-12-31,0.800000,UP,NA,NA\n" + row))


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            BacktestConfig(std_window=1)
        with pytest.raises(ValueError):
            BacktestConfig(est_window=1)
        with pytest.raises(ValueError):
            BacktestConfig(threshold=1.5)
        with pytest.raises(ValueError):
            BacktestConfig(learning_rate=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                BacktestConfig(learning_rate=bad)
            with pytest.raises(ValueError, match="finite"):
                BacktestConfig(tolerance=bad)
            with pytest.raises(ValueError):
                BacktestConfig(threshold=bad)
