"""Desk-scale synthetic data with a planted logit relationship.

Deals are drawn per sector from smooth positive intensity/level paths
(optionally roughened by autocorrelated noise), then aggregated by the
real feature pipeline, so generated tables and ingested tables agree by
construction. Labels are drawn from the planted law on standardized
features, and prices are synthesized backward from the drawn labels so
the response module reproduces them exactly.

All randomness flows from counter-based streams keyed (seed, purpose,
scope), so regenerating fewer sectors or fewer quarters yields a prefix
of the larger dataset.
"""

from __future__ import annotations

import math
from datetime import MAXYEAR, MINYEAR, timedelta
from typing import TYPE_CHECKING

from ._record import NamedTuple, checked
from .features import BROAD_FEATURES, BROAD_SCOPE, FeatureTable, Scope, build_feature_table, deals_by_quarter
from .features import feature_names, named_series
from .ingest import AumBucket, DealRecord, SECTOR_NAMES
from .logit import LogitParams, prob_up
from .quarters import Quarter
from .response import Label, ann_forward_return, build_labels
from .standardize import build_zscore_table

if TYPE_CHECKING:
    import numpy as np

# stream purposes (tests/oracles.py keys its samples with 6); the market uses index _BROAD_STREAM
_P_INTENSITY = 1
_P_AUM = 2
_P_PE = 3
_P_DEALS = 4
_P_LABELS = 5
_P_COUNTS = 7
_BROAD_STREAM = 0xFFFFFFFF


def _stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(key=[seed, (purpose << 32) | index]))


@checked
class SyntheticSpec(NamedTuple):
    seed: int = 1
    n_quarters: int = 68
    n_sectors: int = 3
    start: Quarter = Quarter(2000, 1)
    std_window: int = 12
    planted_w: tuple = (2.0, -1.5, 1.0, -1.0, 1.5)
    planted_b: float = 0.25
    noise_scale: float = 1.0
    base_deal_intensity: float = 18.0

    def _check(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.seed >= 2**63:  # numpy reads a larger key word of _stream's as a float
            raise ValueError("seed must be < 2**63")
        if self.std_window < 2:
            raise ValueError("std_window must be at least 2")
        if self.n_quarters < self.std_window + 2:
            raise ValueError(
                f"need at least std_window + 2 = {self.std_window + 2} quarters"
            )
        if not 1 <= self.n_sectors <= len(SECTOR_NAMES):
            raise ValueError(f"n_sectors must lie in 1..{len(SECTOR_NAMES)}")
        if len(self.planted_w) != 5:
            raise ValueError("planted_w carries one weight per broad feature (5)")
        if not all(math.isfinite(v) for v in (*self.planted_w, self.planted_b)):
            raise ValueError("planted_w and planted_b must be finite")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be finite and >= 0")
        if not 0 < self.base_deal_intensity < math.inf:
            raise ValueError("base_deal_intensity must be finite and > 0")
        # every quarter's deals are dated
        if not MINYEAR <= self.start.year <= self.last.year <= MAXYEAR:
            raise ValueError(f"quarters {self.start} to {self.last} must lie in years {MINYEAR} to {MAXYEAR}")

    @property
    def last(self) -> Quarter:
        return self.start + (self.n_quarters - 1)

    def scopes(self) -> list:
        return [BROAD_SCOPE] + [Scope(name) for name in SECTOR_NAMES[: self.n_sectors]]


def planted_params(spec: SyntheticSpec, scope: Scope) -> LogitParams:
    """Planted coefficients for a scope.

    planted_w holds one weight per broad feature, and sectors reuse them
    by feature name; the sector-only columns inherit the leftover broad
    weights (sector_count_pct takes the ranking weight, sector_pe the
    market P/E weight).
    """
    by_name = dict(zip(BROAD_FEATURES, spec.planted_w))
    by_name.update(sector_count_pct=by_name["avg_fund_ranking"], sector_pe=by_name["market_pe"])
    return LogitParams(tuple(by_name[name] for name in feature_names(scope)), spec.planted_b)


def _roughen(spec: SyntheticSpec, base: np.ndarray, purpose: int, index: int, scale: float) -> np.ndarray:
    """base times exp(scale * noise_scale * x) for the AR(1) path
    x_k = 0.8 x_(k-1) + 0.6 e_k, e standard normal from the (purpose,
    index) stream; exactly base when noise_scale is 0."""
    import numpy as np

    eps = _stream(spec.seed, purpose, index).normal(size=spec.n_quarters)
    ar = np.empty(spec.n_quarters)
    level = 0.0
    for k in range(spec.n_quarters):
        level = 0.8 * level + 0.6 * eps[k]
        ar[k] = level
    return base * np.exp(scale * spec.noise_scale * ar)


def _wave(spec: SyntheticSpec, shift: int, period: int) -> np.ndarray:
    """sin(2 pi (k + shift) / period) for quarters k = 0 .. n_quarters - 1."""
    import numpy as np

    return np.sin(2 * np.pi * (np.arange(spec.n_quarters) + shift) / period)


def deal_intensity_path(spec: SyntheticSpec, sector_idx: int) -> np.ndarray:
    """Expected deals per quarter for one sector; positive and smooth."""
    base = spec.base_deal_intensity * (1.0 + 0.4 * _wave(spec, 2 * sector_idx, 12))
    return _roughen(spec, base, _P_INTENSITY, sector_idx, 0.25)


def aum_level_path(spec: SyntheticSpec, sector_idx: int) -> np.ndarray:
    """Per-sector AUM level in $B around which deal AUMs scatter."""
    base = 4.0 * (1.0 + 0.5 * _wave(spec, 3 * sector_idx, 10))
    return _roughen(spec, base, _P_AUM, sector_idx, 0.25)


def rank_level_path(spec: SyntheticSpec, sector_idx: int) -> np.ndarray:
    return 2.5 + 1.0 * _wave(spec, sector_idx, 9)


def pe_path(spec: SyntheticSpec, stream_idx: int, phase: int) -> np.ndarray:
    base = 17.0 + 6.0 * _wave(spec, 2 * phase, 16)
    return _roughen(spec, base, _P_PE, stream_idx, 0.15)


def quarter_deal_counts(spec: SyntheticSpec, sector_idx: int) -> list:
    """Deal counts per quarter for one sector.

    Poisson draws around the intensity path, or the rounded path itself
    when noise_scale is 0. Always non-negative integers.
    """
    intensity = deal_intensity_path(spec, sector_idx)
    if spec.noise_scale == 0:
        return [int(round(float(lam))) for lam in intensity]
    rng = _stream(spec.seed, _P_COUNTS, sector_idx)
    return [int(rng.poisson(float(lam))) for lam in intensity]


def _stream_index(scope: Scope) -> int:
    return _BROAD_STREAM if scope.is_broad else SECTOR_NAMES.index(scope.name)


def generate_deals(spec: SyntheticSpec) -> list:
    """First-deal records, one synthetic company per record.

    Every quarter's first deal per sector always carries a numeric AUM
    and a rank, so AUM and ranking features never go missing wholesale.
    """
    deals = []
    for s, sector in enumerate(SECTOR_NAMES[: spec.n_sectors]):
        counts = quarter_deal_counts(spec, s)
        aum_level = aum_level_path(spec, s).tolist()
        rank_level = rank_level_path(spec, s).tolist()
        rng = _stream(spec.seed, _P_DEALS, s)
        for k in range(spec.n_quarters):
            quarter = spec.start + k
            count = counts[k]
            quarter_start = quarter.end_date() - timedelta(days=89)
            for j in range(count):
                company = f"SYN-{s:02d}-{k:03d}-{j:03d}"
                name = f"Synthetic Co {s}-{k}-{j}"
                if j % 3 == 0:
                    name += ", Inc."
                when = quarter_start + timedelta(days=(j * 7) % 85)
                aum: object = aum_level[k]
                rank: float | None = min(max(rank_level[k], 1.0), 4.0)
                if spec.noise_scale > 0:
                    u_bucket, u_missing, g_aum, u_rank, g_rank = (
                        rng.random(),
                        rng.random(),
                        rng.normal(),
                        rng.random(),
                        rng.normal(),
                    )
                    value = aum_level[k] * math.exp(0.3 * spec.noise_scale * g_aum)
                    if j > 0 and u_missing < 0.05:
                        aum = None
                    elif u_bucket < 0.25:
                        aum = AumBucket.of(value)
                    else:
                        aum = value
                    if j > 0 and u_rank < 0.2:
                        rank = None
                    else:
                        rank = min(max(rank_level[k] + 0.4 * g_rank, 1.0), 4.0)
                deals.append(
                    DealRecord(
                        company_id=company,
                        company_name=name,
                        sector=sector,
                        investment_date=when,
                        investor_aum=aum,
                        investor_rank=rank,
                        investor=f"Fund {(j + s) % 9:02d}",
                    )
                )
    return deals


def generate_labels(ztable: FeatureTable, params: LogitParams, spec: SyntheticSpec, scope: Scope, prices: dict) -> tuple:
    """Draw labels from the planted law and back out a price series.

    Quarters with a z row draw UP with probability P(UP | z) under the
    planted parameters; quarters before the first z (or with a dropped
    row) flip a fair coin. The emitted series spans one quarter past the
    horizon so every drawn label is reproduced by the response module.
    prices maps each index name drawn so far to its series; a sector's
    path anchors to Market's there, so the drawn label decides the
    spread sign.
    """
    rng = _stream(spec.seed, _P_LABELS, _stream_index(scope))
    values = [100.0]
    drawn = []
    for k in range(spec.n_quarters):
        quarter = spec.start + k
        u_label = rng.random()
        u_mag = rng.random()
        row = ztable.row_at(quarter)
        p_up = prob_up(row, params) if row is not None else 0.5
        sign = 1.0 if u_label < p_up else -1.0
        drawn.append(Label.UP if sign > 0 else Label.DOWN)
        if scope.is_broad:
            ann = sign * (8.0 + 30.0 * u_mag)
        else:
            ann = ann_forward_return(named_series(prices, BROAD_SCOPE.name), quarter) + sign * (6.0 + 22.0 * u_mag)
        values.append(values[-1] * (1.0 + ann / 100.0) ** 0.25)
    own = {spec.start + k: v for k, v in enumerate(values)}
    labels = build_labels(scope, {**prices, scope.name: own})
    if list(labels.values()) != drawn:
        raise AssertionError("synthesized prices failed to reproduce the drawn labels")
    return labels, own


class SyntheticDataset(NamedTuple):
    deals: list
    prices: dict
    pe: dict
    features: dict
    labels: dict


def generate_dataset(spec: SyntheticSpec) -> SyntheticDataset:
    """The deals, then each scope's P/E path, features and labels in one
    pass. spec.scopes() puts the market first, so every sector finds the
    market's P/E and prices."""
    deals = generate_deals(spec)
    buckets = deals_by_quarter(deals)
    data = SyntheticDataset(deals, {}, {}, {}, {})
    for scope in spec.scopes():
        name, index = scope.name, _stream_index(scope)
        path = pe_path(spec, index, 7 if scope.is_broad else index)
        data.pe[name] = {spec.start + k: float(v) for k, v in enumerate(path)}
        data.features[name] = build_feature_table(buckets, scope, spec.start, spec.last, data.pe)
        ztable = build_zscore_table(data.features[name], spec.std_window)
        data.labels[name], data.prices[name] = generate_labels(ztable, planted_params(spec, scope), spec, scope, data.prices)
    return data
