"""Generator checks: determinism, planted law, and round-trip identity."""

import json
import math

import numpy as np
import pytest

from pesignal.backtest import BacktestConfig, run
from pesignal.cli import main
from pesignal.errors import DataError
from pesignal.evaluation import roc, scored_pairs
from pesignal.features import BROAD_SCOPE, Scope, build_feature_table, deals_by_quarter
from pesignal.ingest import first_deals, parse_deals, parse_prices
from pesignal.logit import LogitParams, prob_up
from pesignal.quarters import Quarter
from pesignal.response import Label, build_labels
from pesignal.standardize import build_zscore_table
from pesignal.synthetic import (
    SyntheticSpec,
    aum_level_path,
    deal_intensity_path,
    generate_dataset,
    generate_deals,
    generate_labels,
    pe_path,
    planted_params,
    quarter_deal_counts,
)
from oracles import numpy_generate_deals, planted_samples, staged_generate_dataset

SMALL = SyntheticSpec(seed=7, n_quarters=20, n_sectors=2, std_window=6)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(seed=-1)
    with pytest.raises(ValueError):
        SyntheticSpec(n_quarters=10, std_window=12)
    with pytest.raises(ValueError):
        SyntheticSpec(n_sectors=0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_sectors=20)
    with pytest.raises(ValueError):
        SyntheticSpec(planted_w=(1.0, 2.0))
    with pytest.raises(ValueError):
        SyntheticSpec(noise_scale=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(base_deal_intensity=0.0)
    for bad in (float("nan"), float("inf")):
        for field in ("noise_scale", "base_deal_intensity", "planted_b"):
            with pytest.raises(ValueError, match="finite"):
                SyntheticSpec(**{field: bad})
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(planted_w=(1.0, 1.0, bad, 1.0, 1.0))
    # date() covers years 1 to 9999, and every quarter's deals are dated
    for start, n_quarters in ((Quarter(0, 1), 68), (Quarter(2000, 1), 10**30), (Quarter(9990, 1), 68)):
        with pytest.raises(ValueError, match="years 1 to 9999"):
            SyntheticSpec(start=start, n_quarters=n_quarters)


def test_same_seed_same_dataset():
    a = generate_dataset(SMALL)
    b = generate_dataset(SMALL)
    assert a.deals == b.deals
    assert a.prices == b.prices
    assert a.pe == b.pe
    assert a.features == b.features
    assert a.labels == b.labels


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(seed=seed, n_sectors=n_sectors, noise_scale=noise_scale)
        for seed, n_sectors, noise_scale in ((0, 1, 1.0), (7, 3, 0.0), (7, 3, 1.0), (20, 19, 1.0))
    ]
    + [SyntheticSpec(seed=5, n_quarters=12, n_sectors=3, std_window=2)],
    ids=["one-sector", "three-noiseless", "three", "nineteen", "short-window"],
)
def test_one_pass_dataset_equals_the_staged_oracle(spec):
    data = generate_dataset(spec)
    oracle = staged_generate_dataset(spec)
    for field in data._fields:
        assert getattr(data, field) == oracle[field], field


def test_different_seeds_differ():
    a = generate_dataset(SMALL)
    b = generate_dataset(SyntheticSpec(seed=8, n_quarters=20, n_sectors=2, std_window=6))
    assert a.deals != b.deals


def test_fewer_sectors_is_a_subset():
    wide = generate_deals(SyntheticSpec(seed=7, n_quarters=16, n_sectors=5, std_window=6))
    narrow = generate_deals(SyntheticSpec(seed=7, n_quarters=16, n_sectors=2, std_window=6))
    narrow_sectors = {d.sector for d in narrow}
    assert [d for d in wide if d.sector in narrow_sectors] == narrow


def test_shorter_horizon_is_a_prefix():
    long = generate_deals(SyntheticSpec(seed=7, n_quarters=24, n_sectors=2, std_window=6))
    short = generate_deals(SyntheticSpec(seed=7, n_quarters=16, n_sectors=2, std_window=6))
    horizon = SyntheticSpec(seed=7, n_quarters=16, n_sectors=2, std_window=6).last
    assert [d for d in long if Quarter.of_date(d.investment_date) <= horizon] == short


def named_rows(table):
    """Each row of a feature table as a {name: value} dict."""
    return [dict(zip(table.names, row)) for row in table.rows]


def test_zero_noise_features_follow_mean_paths():
    spec = SyntheticSpec(seed=3, n_quarters=12, n_sectors=2, std_window=4, noise_scale=0.0)
    features = generate_dataset(spec).features
    intensity = {
        s: deal_intensity_path(spec, s) for s in range(2)
    }
    aum = {s: aum_level_path(spec, s) for s in range(2)}
    for s, scope_name in enumerate(name for name in features if name != BROAD_SCOPE.name):
        for k, row in enumerate(named_rows(features[scope_name])):
            assert row["deal_count"] == int(round(float(intensity[s][k])))
            assert row["avg_aum"] == pytest.approx(float(aum[s][k]), abs=1e-12)
    broad = features[BROAD_SCOPE.name]
    market_pe = pe_path(spec, 0xFFFFFFFF, 7)
    for k, row in enumerate(named_rows(broad)):
        assert row["deal_count"] == sum(
            int(round(float(intensity[s][k]))) for s in range(2)
        )
        assert row["market_pe"] == pytest.approx(float(market_pe[k]), abs=1e-12)


def test_counts_are_non_negative_integers():
    spec = SyntheticSpec(seed=11, n_quarters=530, n_sectors=19, std_window=12, noise_scale=2.0)
    draws = []
    for s in range(spec.n_sectors):
        draws.extend(quarter_deal_counts(spec, s))
    assert len(draws) >= 10_000
    assert all(isinstance(c, int) and c >= 0 for c in draws)


def test_feature_counts_match_the_drawn_counts():
    features = generate_dataset(SMALL).features
    for s, name in enumerate(name for name in features if name != BROAD_SCOPE.name):
        counts = quarter_deal_counts(SMALL, s)
        assert [row["deal_count"] for row in named_rows(features[name])] == counts


@pytest.mark.parametrize("n_sectors", [1, 3])
@pytest.mark.parametrize("noise_scale", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_deals_equal_the_numpy_scalar_oracle(seed, noise_scale, n_sectors):
    spec = SyntheticSpec(seed=seed, n_sectors=n_sectors, noise_scale=noise_scale)
    assert generate_deals(spec) == numpy_generate_deals(spec)


def test_deal_dates_fall_inside_their_quarter():
    for deal in generate_deals(SMALL):
        q = Quarter.of_date(deal.investment_date)
        assert SMALL.start <= q <= SMALL.last


def test_every_quarter_keeps_a_numeric_aum_and_rank():
    spec = SyntheticSpec(seed=5, n_quarters=24, n_sectors=3, std_window=6, noise_scale=2.0)
    features = generate_dataset(spec).features
    for table in features.values():
        for row in named_rows(table):
            if row["deal_count"] > 0:
                assert row["avg_aum"] is not None
                assert row["weighted_avg_aum"] is not None


def test_pe_series_positive_and_complete():
    pe = generate_dataset(SMALL).pe
    assert set(pe) == {BROAD_SCOPE.name, "Commercial Services", "Communications"}
    for series in pe.values():
        assert list(series) == [SMALL.start + k for k in range(SMALL.n_quarters)]
        assert all(v > 0 for v in series.values())


def test_planted_params_shapes():
    broad = planted_params(SMALL, BROAD_SCOPE)
    sector = planted_params(SMALL, Scope("Finance"))
    assert broad.dim == 5
    assert sector.dim == 6
    assert broad.weights == SMALL.planted_w
    assert sector.weights[0] == SMALL.planted_w[0]
    assert sector.weights[1] == SMALL.planted_w[3]
    assert sector.weights[4] == SMALL.planted_w[4] == sector.weights[5]


def test_labels_round_trip_through_prices():
    data = generate_dataset(SMALL)
    market = data.prices[BROAD_SCOPE.name]
    assert max(market) == SMALL.last + 1
    again = build_labels(BROAD_SCOPE, market)
    assert again == data.labels[BROAD_SCOPE.name]
    scope = Scope("Communications")
    sector_again = build_labels(scope, market, data.prices[scope.name])
    assert sector_again == data.labels[scope.name]


def test_labels_cover_every_generated_quarter():
    data = generate_dataset(SMALL)
    for labels in data.labels.values():
        assert list(labels) == list(
            SMALL.start + k for k in range(SMALL.n_quarters)
        )


def test_sector_label_generation_needs_market_prices():
    data = generate_dataset(SMALL)
    scope = Scope("Communications")
    ztable = build_zscore_table(data.features[scope.name], SMALL.std_window)
    with pytest.raises(ValueError, match="market price series"):
        generate_labels(ztable, planted_params(SMALL, scope), SMALL, scope)


def test_huge_bias_forces_up_on_z_quarters():
    spec = SyntheticSpec(
        seed=9, n_quarters=16, n_sectors=1, std_window=4,
        planted_w=(0.0, 0.0, 0.0, 0.0, 0.0), planted_b=50.0,
    )
    data = generate_dataset(spec)
    table = build_zscore_table(data.features[BROAD_SCOPE.name], spec.std_window)
    z_quarters = {table.start + k for k in range(len(table.rows))} - set(table.dropped)
    for quarter, y in data.labels[BROAD_SCOPE.name].items():
        if quarter in z_quarters:
            assert y is Label.UP


def test_zero_signal_up_fraction_near_half():
    params = LogitParams((0.0, 0.0, 0.0), 0.0)
    _, y = planted_samples(params, 2000, seed=21)
    assert set(y) == {0.0, 1.0}
    assert abs(y.mean() - 0.5) < 3 * 0.5 / math.sqrt(2000)


def test_planted_samples_follow_the_law():
    params = LogitParams((1.5, -1.0), 0.3)
    z, y = planted_samples(params, 4000, seed=33)
    p = np.array([prob_up(row, params) for row in z])
    hi, lo = y[p > 0.8], y[p < 0.2]
    assert len(hi) > 100 and len(lo) > 100
    assert hi.mean() > 0.7
    assert lo.mean() < 0.3


def test_planted_samples_deterministic():
    params = LogitParams((1.0, 2.0), -0.5)
    first, again, other = (planted_samples(params, 50, seed=seed) for seed in (4, 4, 5))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])


def test_written_files_round_trip_exactly(tmp_path):
    data = generate_dataset(SMALL)
    settings = tmp_path / "config.json"
    settings.write_text(
        json.dumps(
            {"seed": SMALL.seed, "n_quarters": SMALL.n_quarters, "n_sectors": SMALL.n_sectors, "t": SMALL.std_window}
        ),
        encoding="utf-8",
    )
    assert main(["synth", "--config", str(settings), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "deals.csv", newline="", encoding="utf-8") as handle:
        parsed = parse_deals(handle)
    assert parsed.issues == []
    assert first_deals(parsed.records) == sorted(
        data.deals, key=lambda d: (d.investment_date, d.company_id)
    )
    with open(tmp_path / "prices.csv", newline="", encoding="utf-8") as handle:
        prices = parse_prices(handle)
    assert prices == data.prices
    with open(tmp_path / "pe.csv", newline="", encoding="utf-8") as handle:
        pe = parse_prices(handle)
    assert pe == data.pe
    buckets = deals_by_quarter(parsed.records)
    for scope in SMALL.scopes():
        table = build_feature_table(
            buckets,
            scope,
            SMALL.start,
            SMALL.last,
            market_pe=pe[BROAD_SCOPE.name],
            sector_pe=None if scope.is_broad else pe[scope.name],
        )
        assert table == data.features[scope.name]
        labels = build_labels(
            scope,
            prices[BROAD_SCOPE.name],
            None if scope.is_broad else prices[scope.name],
        )
        assert labels == data.labels[scope.name]


def _pooled_auc(spec: SyntheticSpec, config: BacktestConfig) -> float:
    data = generate_dataset(spec)
    pairs = []
    for scope in spec.scopes():
        result = run(data.features[scope.name], data.labels[scope.name], config)
        pairs.append(scored_pairs(result.records))
    populated = [p for p in pairs if p]
    if len(populated) < 2:
        return 0.5
    try:
        return roc([pair for p in populated for pair in p]).auc
    except DataError:
        return 0.5


def test_stronger_planted_signal_raises_out_of_sample_auc():
    config = BacktestConfig(std_window=6, est_window=4, max_iter=250)
    base = (2.0, -1.5, 1.0, -1.0, 1.5)
    aucs = []
    for gain in (0.0, 1.0, 3.0):
        per_seed = []
        for seed in (101, 202):
            spec = SyntheticSpec(
                seed=seed, n_quarters=32, n_sectors=2, std_window=6,
                planted_w=tuple(gain * w for w in base), planted_b=0.0,
            )
            per_seed.append(_pooled_auc(spec, config))
        aucs.append(sum(per_seed) / len(per_seed))
    assert aucs[0] < aucs[1] < aucs[2]
    assert aucs[2] > 0.65
