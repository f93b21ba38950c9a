"""Quarterly aggregation of first-deal records into model features.

Two scopes exist: the broad market (all sectors pooled, 5 features) and
a single sector (6 features). Feature vectors keep a fixed column order
per scope so downstream weights stay interpretable.
"""

from __future__ import annotations

import math

from ._record import NamedTuple, checked
from .errors import DataError
from .ingest import BROAD_INDEX_NAME, SECTOR_NAMES, AumBucket
from .quarters import Quarter, QuarterlySeries, quarter_range

BROAD_FEATURES = ("deal_count", "avg_aum", "weighted_avg_aum", "avg_fund_ranking", "market_pe")
SECTOR_FEATURES = (
    "deal_count",
    "sector_count_pct",
    "avg_aum",
    "weighted_avg_aum",
    "sector_pe",
    "market_pe",
)


@checked
class Scope(NamedTuple):
    """Aggregation scope: a sector name, or None for the broad market."""

    sector: str | None = None

    def _check(self):
        if self.sector is not None and self.sector not in SECTOR_NAMES:
            raise ValueError(f"unknown sector {self.sector!r}")

    @property
    def is_broad(self) -> bool:
        return self.sector is None

    @property
    def name(self) -> str:
        return BROAD_INDEX_NAME if self.sector is None else self.sector

    def matches(self, deal) -> bool:
        return self.sector is None or deal.sector == self.sector

    @classmethod
    def of_name(cls, name: str) -> "Scope":
        return cls(None if name == BROAD_INDEX_NAME else name)

    def __str__(self) -> str:
        return self.name


BROAD_SCOPE = Scope()


@checked
class RawFeatureRow(NamedTuple):
    """One quarter of raw (unstandardized) features for one scope.

    avg_aum and weighted_avg_aum are None exactly when no deal in the
    quarter and scope carries a usable AUM. avg_fund_ranking is broad
    scope only; sector_count_pct and sector_pe are sector scope only.
    """

    quarter: Quarter
    scope: Scope
    deal_count: int
    avg_aum: float | None
    weighted_avg_aum: float | None
    market_pe: float
    avg_fund_ranking: float | None = None
    sector_count_pct: float | None = None
    sector_pe: float | None = None

    def _check(self):
        if self.deal_count < 0:
            raise ValueError("deal_count must be >= 0")
        if self.sector_count_pct is not None and not 0.0 <= self.sector_count_pct <= 100.0:
            raise ValueError(f"sector_count_pct out of [0, 100]: {self.sector_count_pct!r}")


def feature_names(scope: Scope) -> tuple:
    return BROAD_FEATURES if scope.is_broad else SECTOR_FEATURES


_AUM_WEIGHTS = {AumBucket.LOW: 0.1, AumBucket.MID: 0.5, AumBucket.HIGH: 1.5}


def aum_weight(aum: float) -> float:
    """Deal weight by investor size: 0.1 below $2B, 0.5 through $10B, 1.5 above."""
    return _AUM_WEIGHTS[AumBucket.of(aum)]


def deals_by_quarter(deals) -> dict:
    """First deals keyed by investment quarter, input order kept within each."""
    buckets = {}
    for d in deals:
        buckets.setdefault(Quarter.of_date(d.investment_date), []).append(d)
    return buckets


def matching_deals(bucket, scope: Scope) -> list:
    return [d for d in bucket if scope.matches(d)]


def _mean(values) -> float | None:
    """statistics.mean of floats, bit for bit: one int / int over a common power-of-two denominator."""
    if not values:
        return None
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return sum(n * (den // d) for n, d in ratios) / (den * len(ratios))


def _weighted_mean(aums) -> float | None:
    """Size-weighted mean AUM, normalized by the weight sum."""
    if not aums:
        return None
    return math.fsum(aum_weight(a) * a for a in aums) / math.fsum(aum_weight(a) for a in aums)


def build_feature_table(
    buckets: dict,
    scope: Scope,
    first_quarter: Quarter,
    last_quarter: Quarter,
    market_pe: QuarterlySeries,
    sector_pe: QuarterlySeries | None = None,
) -> list:
    """One RawFeatureRow per quarter in [first_quarter, last_quarter].

    buckets maps each quarter to its first deals (deals_by_quarter), so
    one grouping serves every scope. market_pe must cover every quarter;
    sector scopes additionally need sector_pe coverage. Raises DataError
    naming the first bare quarter.
    """
    if not scope.is_broad and sector_pe is None:
        raise DataError(f"sector scope {scope.name} needs a sector P/E series")
    rows = []
    for quarter in quarter_range(first_quarter, last_quarter):
        m_pe = market_pe.get(quarter)
        if m_pe is None:
            raise DataError(f"market P/E series does not cover {quarter}")
        s_pe = None
        if not scope.is_broad:
            s_pe = sector_pe.get(quarter)
            if s_pe is None:
                raise DataError(f"sector P/E series for {scope.name} does not cover {quarter}")
        bucket = buckets.get(quarter, [])
        matched = matching_deals(bucket, scope)
        aums = [a for a in (d.numeric_aum() for d in matched) if a is not None]
        ranks = [d.investor_rank for d in matched if d.investor_rank is not None]
        # a sector's share of all the quarter's deals; None when it has none
        share = None if scope.is_broad or not bucket else 100.0 * len(matched) / len(bucket)
        row = RawFeatureRow(
            quarter=quarter,
            scope=scope,
            deal_count=len(matched),
            avg_aum=_mean(aums),
            weighted_avg_aum=_weighted_mean(aums),
            market_pe=m_pe,
            avg_fund_ranking=_mean(ranks) if scope.is_broad else None,
            sector_count_pct=share,
            sector_pe=s_pe,
        )
        rows.append(row)
    return rows


def feature_series(rows) -> dict:
    """Per-feature QuarterlySeries from a contiguous feature table."""
    if not rows:
        raise DataError("empty feature table")
    scope = rows[0].scope
    start = rows[0].quarter
    series = {}
    for name in feature_names(scope):
        values = []
        for k, row in enumerate(rows):
            if row.scope != scope:
                raise DataError("feature table mixes scopes")
            if row.quarter - start != k:
                raise DataError(f"feature table is not contiguous at {row.quarter}")
            value = getattr(row, name)
            values.append(None if value is None else float(value))
        series[name] = QuarterlySeries(start, tuple(values))
    return series


def format_value(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6f}"


def write_feature_table(rows, stream):
    """Emit the audit table: quarter-end date then the scope's columns."""
    if not rows:
        raise DataError("empty feature table")
    names = feature_names(rows[0].scope)
    stream.write(",".join(["scope", "quarter_end", *names]) + "\n")
    for row in rows:
        cells = [row.scope.name, row.quarter.end_date().isoformat()]
        cells += [format_value(getattr(row, name)) for name in names]
        stream.write(",".join(cells) + "\n")


def read_feature_table(stream) -> list:
    """Parse a feature table back into RawFeatureRows.

    Values carry the table's 6-decimal precision, not the full floats
    the writer started from.
    """
    header = stream.readline().rstrip("\n")
    columns = header.split(",")
    if columns[:2] != ["scope", "quarter_end"]:
        raise DataError(f"unexpected feature table header: {header!r}")
    names = tuple(columns[2:])
    rows = []
    for line_no, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise DataError(
                f"feature table line {line_no}: expected {len(columns)} columns"
            )
        try:
            scope = Scope.of_name(parts[0])
            if names != feature_names(scope):
                raise ValueError(f"columns {names} do not fit scope {scope.name}")
            values = {}
            for name, cell in zip(names, parts[2:]):
                if cell == "NA":
                    values[name] = None
                elif name == "deal_count":
                    values[name] = int(cell)
                else:
                    values[name] = float(cell)
                    if not math.isfinite(values[name]):
                        raise ValueError(f"{name} is not finite: {cell!r}")
            rows.append(RawFeatureRow(quarter=Quarter.parse(parts[1]), scope=scope, **values))
        except ValueError as exc:
            raise DataError(f"feature table line {line_no}: {exc}") from None
    return rows
