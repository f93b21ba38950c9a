"""Quarterly aggregation of first-deal records into model features.

Two scopes exist: the broad market (all sectors pooled, 5 features) and
a single sector (6 features). Feature vectors keep a fixed column order
per scope so downstream weights stay interpretable.
"""

from __future__ import annotations

import math

from ._record import NamedTuple, checked
from .errors import DataError
from .ingest import BROAD_INDEX_NAME, SECTOR_NAMES, AumBucket, parse_float
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
    """Aggregation scope: the broad market, by default, or one sector, by its name."""

    name: str = BROAD_INDEX_NAME

    def _check(self):
        if self.name != BROAD_INDEX_NAME and self.name not in SECTOR_NAMES:
            raise ValueError(f"unknown sector {self.name!r}")

    @property
    def is_broad(self) -> bool:
        return self.name == BROAD_INDEX_NAME

    def matches(self, deal) -> bool:
        return self.name in (BROAD_INDEX_NAME, deal.sector)


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


def table_cell(value) -> str:
    """A value as a table holds it: a string or an int as is, None as NA, a float to 6 decimals."""
    return "NA" if value is None else str(value) if isinstance(value, (str, int)) else f"{value:.6f}"


def write_table(rows, stream):
    """Write rows, the header first, one line each: its table_cells joined by commas."""
    for row in rows:
        stream.write(",".join(map(table_cell, row)) + "\n")


def write_feature_table(table: FeatureTable, stream):
    """Emit an audit table, feature or z: scope, quarter-end date, then
    the table's columns; all-None rows are left out."""
    kept = [k for k, row in enumerate(table.rows) if row.count(None) < len(row)]
    dated = [(table.scope.name, (table.start + k).end_date().isoformat(), *table.rows[k]) for k in kept]
    write_table([("scope", "quarter_end", *table.names), *dated], stream)


def read_table(stream, what: str, row, fits=lambda names: True) -> tuple:
    """(scope, names, rows) of a table whose columns are scope, quarter_end, then names.

    The header must pass fits(names); blank lines are skipped, and CRLF
    ends a line as LF does. A line must have the header's width, a
    quarter and the first row's scope; row(names, scope, quarter, cells)
    makes its entry of rows, and a ValueError or DataError on the line
    is a DataError naming it. scope is None when no row follows the header.
    """
    header = stream.readline().rstrip("\r\n")
    columns = header.split(",")
    names = tuple(columns[2:])
    if columns[:2] != ["scope", "quarter_end"] or not fits(names):
        raise DataError(f"unexpected {what} header: {header!r}")
    scope, rows = None, []
    for line_no, line in enumerate(stream, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) != len(columns):
                raise ValueError(f"expected {len(columns)} columns")
            quarter = Quarter.parse(cells[1])
            if scope is None:
                scope = Scope(cells[0])
            elif cells[0] != scope.name:
                raise ValueError(f"scope {cells[0]}, but the table is {scope.name}'s")
            rows.append(row(names, scope, quarter, cells[2:]))
        except (ValueError, DataError) as exc:
            raise DataError(f"{what} line {line_no}: {exc}") from None
    return scope, names, rows


def _cell(name: str, cell: str):
    """One feature table cell: deal_count a count, any other column NA or a finite float."""
    if name == "deal_count":
        # ASCII digits only: str.isdigit also takes other scripts' digits
        if not (cell.isascii() and cell.isdigit()):
            raise ValueError(f"deal_count is not a count: {cell!r}")
        return int(cell)
    if cell == "NA":
        return None
    value = parse_float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite: {cell!r}")
    if name == "sector_count_pct" and not 0.0 <= value <= 100.0:
        raise ValueError(f"sector_count_pct out of [0, 100]: {value!r}")
    return value


def read_feature_table(stream) -> FeatureTable:
    """Parse a feature table back into a FeatureTable, its values at the
    table's 6-decimal precision. Columns that do not fit the first row's
    scope, or a quarter that does not follow the row before, is a
    DataError naming its line."""
    quarters = []

    def values(names, scope, quarter, cells):
        if not quarters and names != feature_names(scope):
            raise ValueError(f"columns {names} do not fit scope {scope.name}")
        if quarters and quarter != quarters[-1] + 1:
            raise ValueError(f"quarter {quarter}, but the row before is {quarters[-1]}")
        quarters.append(quarter)
        return tuple(map(_cell, names, cells))

    scope, names, rows = read_table(stream, "feature table", values)
    if not rows:
        raise DataError("empty feature table")
    return FeatureTable(scope, quarters[0], names, tuple(rows))
