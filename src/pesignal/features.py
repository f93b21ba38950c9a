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
from .quarters import Quarter, quarter_range

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
class FeatureTable(NamedTuple):
    """One scope's quarterly feature matrix: rows[k] holds the values of
    quarter start + k, one per name, and None marks a missing value.

    standardize.build_zscore_table maps it to its z table: z_ names, an
    all-None row for each dropped quarter, and zero_variance filled in.
    """

    scope: Scope
    start: Quarter
    names: tuple
    rows: tuple
    zero_variance: tuple = ()

    def _check(self):
        for k, row in enumerate(self.rows):
            for v in row:
                if v is not None and not math.isfinite(v):
                    raise ValueError(f"non-finite value at {self.start + k}: {v!r}")

    @property
    def dropped(self) -> tuple:
        """The quarters whose row is all None."""
        return tuple(self.start + k for k, row in enumerate(self.rows) if row.count(None) == len(row))

    def row_at(self, quarter: Quarter):
        """The quarter's row, or None when it holds a None or lies outside the table."""
        k = quarter - self.start
        if 0 <= k < len(self.rows) and None not in self.rows[k]:
            return self.rows[k]
        return None


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


def unit_scaled(values) -> tuple:
    """(e, [v * 2**-e for v in values]), e the frexp exponent of the largest |v|:
    exact wherever a scaled value stays normal, and no square of one overflows."""
    e = math.frexp(max(map(abs, values)))[1]
    return e, list(map(math.ldexp, values, [-e] * len(values)))


def _weighted_mean(aums) -> float | None:
    """Size-weighted mean AUM, normalized by the weight sum."""
    if not aums:
        return None
    e, scaled = unit_scaled(aums)
    weights = [aum_weight(a) for a in aums]
    return math.ldexp(math.fsum(w * s for w, s in zip(weights, scaled)) / math.fsum(weights), e)


def build_feature_table(
    buckets: dict,
    scope: Scope,
    first_quarter: Quarter,
    last_quarter: Quarter,
    market_pe: dict,
    sector_pe: dict | None = None,
) -> FeatureTable:
    """The scope's features for every quarter in [first_quarter, last_quarter].

    buckets maps each quarter to its first deals (deals_by_quarter), so
    one grouping serves every scope. market_pe and sector_pe are
    {Quarter: P/E} maps; market_pe must cover every quarter, and sector
    scopes additionally need sector_pe coverage. Raises DataError
    naming the first bare quarter. deal_count is an int; avg_aum and
    weighted_avg_aum are None exactly when no deal in the quarter and
    scope carries a usable AUM.
    """
    if not scope.is_broad and sector_pe is None:
        raise DataError(f"sector scope {scope.name} needs a sector P/E series")
    names = feature_names(scope)
    rows = []
    for quarter in quarter_range(first_quarter, last_quarter):
        m_pe = market_pe.get(quarter)
        s_pe = None if scope.is_broad else sector_pe.get(quarter)
        if m_pe is None:
            raise DataError(f"market P/E series does not cover {quarter}")
        if s_pe is None and not scope.is_broad:
            raise DataError(f"sector P/E series for {scope.name} does not cover {quarter}")
        bucket = buckets.get(quarter, [])
        matched = matching_deals(bucket, scope)
        aums = [a for a in (d.numeric_aum() for d in matched) if a is not None]
        # every feature of either scope; the scope's names pick its columns
        values = {
            "deal_count": len(matched),
            # a sector's share of all the quarter's deals; None when it has none
            "sector_count_pct": 100.0 * len(matched) / len(bucket) if bucket else None,
            "avg_aum": _mean(aums),
            "weighted_avg_aum": _weighted_mean(aums),
            "avg_fund_ranking": _mean([d.investor_rank for d in matched if d.investor_rank is not None]),
            "sector_pe": s_pe,
            "market_pe": m_pe,
        }
        rows.append(tuple(values[name] for name in names))
    return FeatureTable(scope, first_quarter, names, tuple(rows))


def write_feature_table(table: FeatureTable, stream):
    """Emit an audit table, feature or z: scope, quarter-end date, then
    the table's columns, an int as is, a float to 6 decimals and None as
    NA; all-None rows are left out."""
    stream.write(",".join(["scope", "quarter_end", *table.names]) + "\n")
    for k, row in enumerate(table.rows):
        if row.count(None) < len(row):
            cells = [table.scope.name, (table.start + k).end_date().isoformat()]
            cells += ["NA" if v is None else str(v) if isinstance(v, int) else f"{v:.6f}" for v in row]
            stream.write(",".join(cells) + "\n")


def _cell(name: str, cell: str):
    """One feature table cell: deal_count a count, any other column NA or a finite float."""
    if name == "deal_count":
        if not cell.isdigit():
            raise ValueError(f"deal_count is not a count: {cell!r}")
        return int(cell)
    if cell == "NA":
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite: {cell!r}")
    if name == "sector_count_pct" and not 0.0 <= value <= 100.0:
        raise ValueError(f"sector_count_pct out of [0, 100]: {value!r}")
    return value


def read_feature_table(stream) -> FeatureTable:
    """Parse a feature table back into a FeatureTable.

    Values carry the table's 6-decimal precision, not the full floats
    the writer started from. A row that names another scope than the
    first row, or another quarter than the one after the row before, is
    a DataError naming its line.
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
        try:
            if len(parts) != len(columns):
                raise ValueError(f"expected {len(columns)} columns")
            quarter = Quarter.parse(parts[1])
            if not rows:
                scope, start = Scope.of_name(parts[0]), quarter
                if names != feature_names(scope):
                    raise ValueError(f"columns {names} do not fit scope {scope.name}")
            elif parts[0] != scope.name:
                raise ValueError(f"scope {parts[0]}, but the table is {scope.name}'s")
            elif quarter != start + len(rows):
                raise ValueError(f"quarter {quarter}, but the row before is {start + (len(rows) - 1)}")
            rows.append(tuple(_cell(name, cell) for name, cell in zip(names, parts[2:])))
        except (ValueError, DataError) as exc:
            raise DataError(f"feature table line {line_no}: {exc}") from None
    if not rows:
        raise DataError("empty feature table")
    return FeatureTable(scope, start, names, tuple(rows))
