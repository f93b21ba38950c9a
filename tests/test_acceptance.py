"""Acceptance gate: one test per published criterion, run with -v for
one pass/fail line each."""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from pesignal.backtest import BacktestConfig, run
from pesignal.cli import main
from pesignal.evaluation import roc, scored_pairs
from pesignal.features import BROAD_SCOPE, Scope
from pesignal.logit import LogitParams, fit
from pesignal.quarters import Quarter
from pesignal.response import Label, build_labels, sector_spread, ann_forward_return
from pesignal.synthetic import SyntheticSpec, generate_dataset
from oracles import gradient, log_likelihood, planted_samples
from test_fit_kernel import oracle_fit


def prices_from_ann(*anns):
    """Price path whose annualized forward returns hit the targets."""
    values = [100.0]
    for ann in anns:
        values.append(values[-1] * (1.0 + ann / 100.0) ** 0.25)
    return {Quarter(2008, 1) + k: v for k, v in enumerate(values)}


def test_criterion_1_forward_returns_and_labels():
    prices = {Quarter(2008, 1): 66.43170, Quarter(2008, 2): 64.41500, Quarter(2008, 3): 74.60800}
    first, second = Quarter(2008, 1), Quarter(2008, 2)
    for quarter, quarterly in ((first, -3.04), (second, 15.82)):
        simple = 100.0 * (prices.get(quarter + 1) / prices.get(quarter) - 1.0)
        assert simple == pytest.approx(quarterly, abs=0.005)
    assert ann_forward_return(prices, first) == pytest.approx(-11.60, abs=0.005)
    assert ann_forward_return(prices, second) == pytest.approx(79.97, abs=0.005)
    labels = build_labels(BROAD_SCOPE, prices)
    assert labels == {first: Label.DOWN, second: Label.UP}


def test_criterion_2_sector_spreads_and_labels():
    market = prices_from_ann(-11.60, 79.97)
    sector = prices_from_ann(-17.90, 124.67)
    first, second = Quarter(2008, 1), Quarter(2008, 2)
    assert sector_spread(sector, market, first) == pytest.approx(-6.30, abs=0.005)
    assert sector_spread(sector, market, second) == pytest.approx(44.70, abs=0.005)
    labels = build_labels(Scope("Finance"), market, sector)
    assert labels == {first: Label.DOWN, second: Label.UP}


def test_criterion_3_schedule_yields_50_predictions():
    data = generate_dataset(SyntheticSpec(seed=3, n_quarters=68, n_sectors=1, std_window=12))
    table = data.features["Market"]
    assert (table.start, table.start + (len(table.rows) - 1)) == (Quarter(2000, 1), Quarter(2016, 4))
    result = run(table, data.labels["Market"], BacktestConfig(std_window=12, est_window=7, max_iter=20))
    predicted = [w.quarter for w in result.windows]
    assert len(predicted) == 50
    assert predicted[0].end_date().isoformat() == "2004-09-30"
    assert predicted[-1].end_date().isoformat() == "2016-12-31"


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _window(rng, m, n):
    """n uniform feature rows in m dimensions with fair 0/1 labels."""
    z, y = [], []
    for _ in range(n):
        z.append([rng.uniform(-2.0, 2.0) for _ in range(m)])
        y.append(1.0 if rng.random() < 0.5 else 0.0)
    return z, y


def test_criterion_4_gradient_matches_finite_differences():
    started = time.perf_counter()
    step = 1e-6
    for case in range(100):
        rng = random.Random(100 + case)
        m = rng.randrange(1, 9)
        n = rng.randrange(2, 65)
        z, y = _window(rng, m, n)
        w = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        b = rng.uniform(-1.0, 1.0)
        dw, db = gradient(z, y, LogitParams(tuple(w), b))

        def ll_at(weights, bias):
            return log_likelihood(z, y, LogitParams(tuple(weights), bias))

        for i in range(m):
            hi = list(w)
            lo = list(w)
            hi[i] += step
            lo[i] -= step
            fd = (ll_at(hi, b) - ll_at(lo, b)) / (2 * step)
            assert _relative_error(dw[i], fd) < 1e-5, f"case {case}, weight {i}"
        fd_b = (ll_at(w, b + step) - ll_at(w, b - step)) / (2 * step)
        assert _relative_error(db, fd_b) < 1e-5, f"case {case}, bias"
    assert time.perf_counter() - started < 5.0


def test_criterion_5_likelihood_ascends_on_non_separable_instances():
    for case in range(50):
        rng = random.Random(2000 + case)
        m = rng.randrange(1, 5)
        z, y = _window(rng, m, rng.randrange(4, 21))
        clash = [rng.uniform(-2.0, 2.0) for _ in range(m)]
        z += [clash, clash]
        y += [1.0, 0.0]
        config = BacktestConfig(learning_rate=1e-3, max_iter=1200)
        trace = []
        report = fit(z, y, config)
        assert report == oracle_fit(np.array(z), np.array(y), config, trace), f"case {case}"
        assert all(later - earlier >= -1e-10 for earlier, later in zip(trace, trace[1:])), f"case {case}"
        initial_dw, initial_db = gradient(z, y, LogitParams((0.0,) * m, 0.0))
        initial_norm = max(max(abs(g) for g in initial_dw), abs(initial_db))
        assert report.final_gradient_norm < initial_norm, f"case {case}"


def _concordance(pairs) -> float:
    ups = [p for p, y in pairs if y is Label.UP]
    downs = [p for p, y in pairs if y is Label.DOWN]
    score = 0.0
    for up in ups:
        for down in downs:
            if up > down:
                score += 1.0
            elif up == down:
                score += 0.5
    return score / (len(ups) * len(downs))


def test_criterion_6_auc_equals_pairwise_concordance():
    for case in range(100):
        rng = random.Random(3000 + case)
        n = rng.randrange(8, 121)
        tie_heavy = case % 2 == 0
        pairs = []
        for _ in range(n):
            p = rng.random()
            if tie_heavy:
                p = round(p, 1)
            pairs.append((p, Label.UP if rng.random() < 0.5 else Label.DOWN))
        pairs.append((rng.random(), Label.UP))
        pairs.append((rng.random(), Label.DOWN))
        assert roc(pairs).auc == pytest.approx(_concordance(pairs), abs=1e-9), f"case {case}"


def _shuffled_labels(labels, seed: int) -> dict:
    ys = list(labels.values())
    random.Random(seed).shuffle(ys)
    return dict(zip(labels, ys))


def _pooled_auc(data, config, labels_by_scope) -> float:
    per_scope = []
    for name in data.features:
        result = run(data.features[name], labels_by_scope[name], config)
        pairs = scored_pairs(result.records)
        if pairs:
            per_scope.append(pairs)
    assert len(per_scope) >= 2, "pooling needs scored records from at least two scopes"
    return roc([pair for pairs in per_scope for pair in pairs]).auc


def test_criterion_7_planted_signal_recovery():
    started = time.perf_counter()
    strong = LogitParams((2.0, -1.5, 1.0, -1.0, 1.5), 0.25)
    z, y = planted_samples(strong, 2000, seed=41)
    report = fit(z, y, BacktestConfig(max_iter=3000))
    recovered = report.params.weights
    dot = sum(a * b for a, b in zip(recovered, strong.weights))
    cosine = dot / (
        math.sqrt(sum(a * a for a in recovered)) * math.sqrt(sum(b * b for b in strong.weights))
    )
    assert cosine > 0.95

    spec = SyntheticSpec(seed=19, n_quarters=68, n_sectors=2, std_window=12)
    data = generate_dataset(spec)
    config = BacktestConfig(std_window=12, est_window=7, max_iter=300)
    strong_auc = _pooled_auc(data, config, data.labels)
    assert strong_auc >= 0.65

    for seed in range(20):
        shuffled = {
            name: _shuffled_labels(labels, seed) for name, labels in data.labels.items()
        }
        null_auc = _pooled_auc(data, config, shuffled)
        assert 0.35 <= null_auc <= 0.65, f"shuffle seed {seed}: AUC {null_auc:.3f}"
    assert time.perf_counter() - started < 60.0


def test_criterion_8_proprietary_results_documented_out_of_scope():
    raw = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    readme = " ".join(raw.split())
    assert "out of scope" in readme.lower()
    assert "FactSet" in readme
    for number in ("0.60", "0.42", "0.71", "0.61", "0.64"):
        assert number in readme
    here = Path(__file__).read_text(encoding="utf-8")
    for substitute in (4, 5, 6, 7):
        assert f"def test_criterion_{substitute}" in here


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    settings = tmp_path / "config.json"
    settings.write_text(
        '{"n_quarters": 24, "n_sectors": 1, "t": 6, "ne": 4, "max_iter": 150, "seed": 13}',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    scopes = "Market,Commercial Services"
    for command in ("synth", "features", "backtest", "evaluate"):
        assert main([command, "--config", str(settings), "--out", str(out), "--scopes", scopes]) == 0
    watched = [
        "predictions_market.csv",
        "predictions_commercial_services.csv",
        "scores.jsonl",
    ]
    before = {name: (out / name).read_bytes() for name in watched}
    for command in ("backtest", "evaluate"):
        manifest = out / f"manifest_{command}.json"
        assert main([command, "--config", str(manifest)]) == 0
    after = {name: (out / name).read_bytes() for name in watched}
    assert after == before
