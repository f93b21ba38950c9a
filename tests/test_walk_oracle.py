"""The array walk against the object walk it replaced.

oracle_zscore_table and oracle_run are the z-table with one tuple row per
kept quarter and the walk that planned each window from per-quarter dicts,
as they stood before the walk planned on one (quarters, d) z array and
windows became row slices of it. They are kept here with the types they
used: the row type, the schedule of ScheduleEntry quarter objects the
walk followed, and the ResponseLabel objects it read labels from, built
by oracle_labels; oracle_zscore_table standardizes each feature as its
own series, through tests/oracles.py. So the array walk is checked against the
implementation whose outputs the CLI's byte-identical tables pin: every
record field, every fit report field and every skip reason must be
equal (==, not approx), and build_labels' quarter-to-Label map must hold
exactly the oracle's labels. Both walks share the fit kernel, which
tests/test_fit_kernel.py checks against its own oracle.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesignal.backtest import BacktestConfig, BacktestResult, PredictionRecord, SkippedWindow, run
from pesignal.errors import DataError, InsufficientHistoryError, NumericalError
from oracles import feature_series, series_zscore
from pesignal.features import BROAD_SCOPE, FeatureTable, Scope, feature_names
from pesignal.ingest import SECTOR_NAMES
from pesignal.logit import classify, fit_windows, prob_up
from pesignal.quarters import Quarter, quarter_count, quarter_range
from pesignal.response import Label, ann_forward_return, build_labels, label_of, sector_spread
from pesignal.standardize import build_zscore_table

START = Quarter(2000, 1)


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
class OracleTable:
    scope: object
    names: tuple
    rows: tuple
    dropped: tuple
    zero_variance: tuple


def oracle_zscore_table(features: FeatureTable, window: int) -> OracleTable:
    series = feature_series(features)
    scope = features.scope
    names = feature_names(scope)
    standardized = {name: series_zscore(series[name], window) for name in names}
    zero_variance = tuple(
        (quarter, name) for name in names for quarter in standardized[name][1]
    )
    start = features.start + (window - 1)
    end = features.start + (len(features.rows) - 1)
    rows = []
    dropped = []
    for quarter in quarter_range(start, end):
        zs = tuple(standardized[name][0][1][quarter - start] for name in names)
        if any(z is None for z in zs):
            dropped.append(quarter)
        else:
            rows.append(ZScoreRow(quarter, scope, zs))
    return OracleTable(scope, names, tuple(rows), tuple(dropped), zero_variance)


@dataclass(frozen=True)
class ScheduleEntry:
    """One slide: estimate on [window_start, window_end], predict the next."""

    window_start: Quarter
    window_end: Quarter
    predicted: Quarter


def schedule(first: Quarter, last: Quarter, std_window: int, est_window: int) -> list:
    """All one-ahead slides over the feature range [first, last].

    The first std_window - 1 quarters only feed standardization, the
    next est_window feed the first estimation window, and the quarter
    after that is the first predicted one. The count works out to
    quarter_count - std_window - est_window + 1.
    """
    if std_window < 2 or est_window < 2:
        raise ValueError("std_window and est_window must both be at least 2")
    n = quarter_count(first, last)
    needed = std_window + est_window
    if n < needed:
        raise InsufficientHistoryError(
            f"walk-forward needs at least {needed} quarters"
            f" ({std_window} to standardize, {est_window} to estimate,"
            f" predicting the one after), got {n}"
        )
    entries = []
    for k in range(n - needed + 1):
        window_start = first + (std_window - 1 + k)
        window_end = window_start + (est_window - 1)
        entries.append(ScheduleEntry(window_start, window_end, window_end + 1))
    return entries


@dataclass(frozen=True)
class ResponseLabel:
    """Label for quarter t, decided by prices through the end of t+1."""

    quarter: Quarter
    scope: Scope
    ann_forward_return: float
    y: Label
    spread: float | None = None

    def __post_init__(self):
        decided_by = self.ann_forward_return if self.scope.is_broad else self.spread
        if decided_by is None:
            raise ValueError("sector labels need a spread")
        if self.y is not label_of(decided_by):
            raise ValueError(f"label {self.y} contradicts its return {decided_by!r}")


def broad_label(prices: dict, t: Quarter) -> ResponseLabel:
    ret = ann_forward_return(prices, t)
    return ResponseLabel(t, BROAD_SCOPE, ret, label_of(ret))


def sector_label(sector_prices, market_prices, t: Quarter, scope: Scope) -> ResponseLabel:
    spread = sector_spread(sector_prices, market_prices, t)
    ret = ann_forward_return(sector_prices, t)
    return ResponseLabel(t, scope, ret, label_of(spread), spread=spread)


def oracle_labels(scope: Scope, market_prices, sector_prices=None) -> list:
    """build_labels as it stood, one ResponseLabel per labelable quarter."""
    if not scope.is_broad and sector_prices is None:
        raise DataError(f"sector scope {scope.name} needs sector prices")
    needed = [market_prices] if scope.is_broad else [market_prices, sector_prices]
    if not all(needed):
        return []
    lo = max(map(min, needed))
    hi = min(map(max, needed)) - 1
    labels = []
    t = lo
    while t <= hi:
        if all(s.get(t) is not None and s.get(t + 1) is not None for s in needed):
            if scope.is_broad:
                labels.append(broad_label(market_prices, t))
            else:
                labels.append(sector_label(sector_prices, market_prices, t, scope))
        t = t + 1
    return labels


def oracle_run(features: FeatureTable, labels, config: BacktestConfig) -> BacktestResult:
    scope = features.scope
    table = oracle_zscore_table(features, config.std_window)
    z_by_quarter = {row.quarter: row for row in table.rows}
    y_by_quarter = {lab.quarter: lab.y for lab in labels}
    entries = schedule(
        features.start, features.start + (len(features.rows) - 1), config.std_window, config.est_window
    )
    plan = []
    for entry in entries:
        if entry.predicted not in z_by_quarter:
            plan.append(f"no z-score row at predicted quarter {entry.predicted}")
            continue
        samples = []
        problem = None
        for t in quarter_range(entry.window_start, entry.window_end):
            z_row = z_by_quarter.get(t)
            if z_row is None:
                problem = f"no z-score row at {t} inside the estimation window"
                break
            y = y_by_quarter.get(t)
            if y is None:
                problem = f"no label at {t} inside the estimation window"
                break
            samples.append((z_row.z, y))
        plan.append(problem if problem is not None else samples)
    # the windows stacked as the kernel takes them, one 0/1 label per row
    batch = [step for step in plan if isinstance(step, list)]
    shape = (len(batch), config.est_window)
    z = np.array([[zs for zs, _ in samples] for samples in batch], dtype=float).reshape(*shape, len(table.names))
    y = np.array([[1.0 if y is Label.UP else 0.0 for _, y in samples] for samples in batch]).reshape(shape)
    outcomes = iter(fit_windows(z, y, config))
    windows = []
    for entry, step in zip(entries, plan):
        outcome = next(outcomes) if isinstance(step, list) else step
        if isinstance(outcome, NumericalError):
            outcome = f"estimation failed: {outcome}"
        if isinstance(outcome, str):
            windows.append(SkippedWindow(entry.predicted, outcome))
            continue
        p = prob_up(z_by_quarter[entry.predicted].z, outcome.params)
        windows.append(
            PredictionRecord(
                scope=scope,
                quarter=entry.predicted,
                p_up=p,
                predicted=classify(float(f"{p:.6f}"), config.threshold),
                actual=y_by_quarter.get(entry.predicted),
                fit=outcome,
            )
        )
    return BacktestResult(scope, tuple(windows))


def draw_rows(rng, scope, n, hole_rate, coarse):
    """n quarters of raw features; any column but deal_count may be missing.

    Coarse draws repeat values, so some windows have zero variance and
    some estimation windows are not separable."""
    def value(low, high):
        if rng.random() < hole_rate:
            return None
        return float(rng.integers(low, high)) if coarse else float(rng.uniform(low, high))

    rows = []
    for _ in range(n):
        values = dict(
            deal_count=int(rng.integers(0, 4)) if coarse else int(rng.integers(0, 400)),
            avg_aum=value(1, 4),
            weighted_avg_aum=value(1, 4),
            market_pe=value(10, 13),
        )
        if scope.is_broad:
            values.update(avg_fund_ranking=value(1, 4))
        else:
            values.update(sector_count_pct=value(0, 100), sector_pe=value(10, 13))
        rows.append(tuple(values[name] for name in feature_names(scope)))
    return FeatureTable(scope, START, feature_names(scope), tuple(rows))


def draw_labels(rng, scope, quarters, missing_rate):
    labels = []
    for quarter in quarters:
        if rng.random() < missing_rate:
            continue
        ret = 8.0 if rng.random() < 0.5 else -8.0
        y = Label.UP if ret > 0 else Label.DOWN
        labels.append(ResponseLabel(quarter, scope, ret, y, None if scope.is_broad else ret))
    return labels


scopes = st.sampled_from([BROAD_SCOPE, Scope("Finance")])
rates = st.sampled_from([0.0, 0.03, 0.1, 0.25])


@settings(max_examples=120, deadline=None)
@given(
    scope=scopes,
    std_window=st.integers(2, 6),
    est_window=st.sampled_from([2, 3, 5, 7]),
    extra=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    hole_rate=rates,
    missing_rate=rates,
    last_unlabelled=st.booleans(),
    learning_rate=st.sampled_from([1e-3, 0.05, 0.5]),
    tolerance=st.sampled_from([0.0, 1e-6, 0.05, 0.3, 1.0]),
    max_iter=st.integers(0, 120),
    threshold=st.sampled_from([0.5, 0.3]),
)
def test_run_matches_the_object_walk(
    scope, std_window, est_window, extra, seed, coarse, hole_rate, missing_rate, last_unlabelled,
    learning_rate, tolerance, max_iter, threshold,
):
    rng = np.random.default_rng(seed)
    rows = draw_rows(rng, scope, std_window + est_window + extra, hole_rate, coarse)
    quarters = [rows.start + k for k in range(len(rows.rows))]
    # a missing label at the last quarter leaves its prediction unscored
    labels = draw_labels(rng, scope, quarters[:-1] if last_unlabelled else quarters, missing_rate)
    config = BacktestConfig(
        std_window=std_window,
        est_window=est_window,
        learning_rate=learning_rate,
        tolerance=tolerance,
        max_iter=max_iter,
        threshold=threshold,
    )
    got = run(rows, {lab.quarter: lab.y for lab in labels}, config)
    want = oracle_run(rows, labels, config)
    assert got.scope == want.scope
    assert got.windows == want.windows
    assert got.skipped == want.skipped
    # record equality compares every field, the whole FitReport included
    assert got.records == want.records


@settings(max_examples=120, deadline=None)
@given(
    scope=scopes,
    window=st.integers(2, 6),
    extra=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    hole_rate=rates,
)
def test_zscore_table_matches_the_tuple_rows(scope, window, extra, seed, coarse, hole_rate):
    rows = draw_rows(np.random.default_rng(seed), scope, window + extra, hole_rate, coarse)
    table = build_zscore_table(rows, window)
    want = oracle_zscore_table(rows, window)
    kept = [(table.start + k, z) for k, z in enumerate(table.rows) if None not in z]
    assert kept == [(row.quarter, row.z) for row in want.rows]
    assert all(table.rows[quarter - table.start] == (None,) * len(table.names) for quarter in table.dropped)
    assert table.start + len(table.rows) == rows.start + len(rows.rows)
    assert table.names == tuple(f"z_{name}" for name in want.names)
    assert (table.dropped, table.zero_variance) == (want.dropped, want.zero_variance)
    for quarter, z in kept:
        assert table.row_at(quarter) == z
    for quarter in table.dropped:
        assert table.row_at(quarter) is None


def draw_prices(rng, start, n, hole_rate):
    """Quarter-end levels for the n quarters from start; a level may be
    missing, so the map may have holes or be empty, and some steps are
    flat, so some forward returns and spreads are exactly 0."""
    prices = {}
    for k in range(n):
        level = float(rng.choice([50.0, 60.0, rng.uniform(40, 80)]))
        if rng.random() >= hole_rate:
            prices[start + k] = level
    return prices


@settings(max_examples=120, deadline=None)
@given(
    scope=scopes,
    seed=st.integers(0, 2**32 - 1),
    n_market=st.integers(1, 16),
    n_sector=st.integers(1, 16),
    offset=st.integers(-4, 4),
    hole_rate=rates,
    # more series, whose names may be Market's or the scope's own; the
    # map's own two then replace them
    others=st.lists(st.sampled_from(("Market", *SECTOR_NAMES)), unique=True, max_size=3),
)
def test_label_map_matches_the_label_objects(scope, seed, n_market, n_sector, offset, hole_rate, others):
    rng = np.random.default_rng(seed)
    market = draw_prices(rng, START, n_market, hole_rate)
    sector = None if scope.is_broad else draw_prices(rng, START + offset, n_sector, hole_rate)
    want = {lab.quarter: lab.y for lab in oracle_labels(scope, market, sector)}
    prices = {"Market": market} if scope.is_broad else {"Market": market, scope.name: sector}
    assert build_labels(scope, prices) == want
    other = {name: draw_prices(rng, START, n_sector, hole_rate) for name in others}
    assert build_labels(scope, {**other, **prices}) == want


def test_run_raises_the_schedule_history_error():
    # the array walk counts its windows without a schedule, and refuses
    # too short a history with the schedule's own words
    for n, t, ne in ((18, 12, 7), (9, 4, 6), (4, 2, 3)):
        rows = draw_rows(np.random.default_rng(n), BROAD_SCOPE, n, 0.0, False)
        with pytest.raises(InsufficientHistoryError) as want:
            schedule(rows.start, rows.start + (n - 1), t, ne)
        with pytest.raises(InsufficientHistoryError) as got:
            run(rows, {}, BacktestConfig(std_window=t, est_window=ne))
        assert str(got.value) == str(want.value)
