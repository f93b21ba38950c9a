"""Deal and price file ingestion.

Schema-mapped delimited parsing with row-level diagnostics, reduction of
multi-round deal records to first deals per portfolio company, and
serializers whose output parses back to the same records.
"""

from __future__ import annotations

import csv
import enum
import math
from datetime import date

from ._record import NamedTuple, checked
from .errors import DataError
from .quarters import Quarter, iso_date

SECTOR_NAMES = (
    "Commercial Services",
    "Communications",
    "Consumer Durables",
    "Consumer Non-Durables",
    "Consumer Services",
    "Distribution Services",
    "Electronic Technology",
    "Energy Minerals",
    "Finance",
    "Health Services",
    "Health Technology",
    "Industrial Services",
    "Non-Energy Minerals",
    "Process Industries",
    "Producer Manufacturing",
    "Retail Trade",
    "Technology Services",
    "Transportation",
    "Utilities",
)

BROAD_INDEX_NAME = "Market"

_VALID_SECTORS = frozenset(SECTOR_NAMES) | {BROAD_INDEX_NAME}

_NA_TOKENS = frozenset({"", "n/a", "na", "none"})

_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


class AumBucket(enum.Enum):
    """AUM size bucket with boundaries at $2B and $10B.

    The enum value is the representative level in $B used whenever a
    numeric AUM is required and only the bucket is known.
    """

    LOW = 1.0
    MID = 6.0
    HIGH = 15.0

    @classmethod
    def of(cls, level: float) -> "AumBucket":
        """The bucket of a level in $B: below 2 LOW, 2 through 10 MID, above 10 HIGH."""
        if level < 2.0:
            return cls.LOW
        if level <= 10.0:
            return cls.MID
        return cls.HIGH


_BUCKET_TAGS = {
    "LOW": AumBucket.LOW,
    "AUM<2": AumBucket.LOW,
    "MID": AumBucket.MID,
    "2<AUM<10": AumBucket.MID,
    "HIGH": AumBucket.HIGH,
    "AUM>10": AumBucket.HIGH,
}

_CANONICAL_BUCKET_TAG = {
    AumBucket.LOW: "AUM<2",
    AumBucket.MID: "2<AUM<10",
    AumBucket.HIGH: "AUM>10",
}


@checked
class DealRecord(NamedTuple):
    """One investment round into a portfolio company.

    investor_aum is a numeric level in $B, an AumBucket, or None when
    the export carries no usable value. The investor field exists only
    for the deterministic first-deal tie-break; exports lacking it parse
    with investor = "".
    """

    company_id: str
    company_name: str
    sector: str
    investment_date: date
    investor_aum: object = None
    investor_rank: float | None = None
    investor: str = ""

    def _check(self):
        if not self.company_id:
            raise ValueError("company_id must be nonempty")
        if self.sector not in _VALID_SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        aum = self.investor_aum
        if aum is not None and not isinstance(aum, AumBucket):
            if not (isinstance(aum, (int, float)) and math.isfinite(aum) and aum >= 0):
                raise ValueError(f"investor_aum must be a finite level >= 0, got {aum!r}")
        if self.investor_rank is not None and not 1.0 <= self.investor_rank <= 4.0:
            raise ValueError(f"investor_rank must lie in [1, 4], got {self.investor_rank!r}")

    def numeric_aum(self) -> float | None:
        """AUM in $B, mapping buckets to their representative levels."""
        if self.investor_aum is None:
            return None
        if isinstance(self.investor_aum, AumBucket):
            return self.investor_aum.value
        return float(self.investor_aum)


class DealFileFormat(NamedTuple):
    """Column names and delimiter of a deal export."""

    delimiter: str = ","
    company_id: str = "company_id"
    company_name: str = "company_name"
    sector: str = "sector"
    date: str = "first_investment_date"
    aum: str = "investor_aum"
    rank: str = "investor_performance"
    investor: str = "investor"


class PriceFileFormat(NamedTuple):
    delimiter: str = ","
    index_name: str = "index_name"
    date: str = "date"
    value: str = "value"


class RowIssue(NamedTuple):
    """Diagnostic for one rejected input row."""

    line: int
    column: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParsedDeals(NamedTuple):
    records: list
    issues: list


def parse_date(text: str) -> date:
    """Accepts ISO 'YYYY-MM-DD' and 'MMM-DD-YY' ('Feb-12-08')."""
    raw = text.strip()
    try:
        return iso_date(raw)
    except ValueError:
        pass
    parts = raw.split("-")
    if len(parts) == 3 and parts[0].lower() in _MONTHS and len(parts[2]) == 2 and parts[2].isdigit():
        month = _MONTHS[parts[0].lower()]
        try:
            day = int(parts[1])
            year = int(parts[2])
        except ValueError:
            raise DataError(f"cannot parse date {text!r}") from None
        # Two-digit years pivot at 69: 00-68 -> 2000s, 69-99 -> 1900s.
        year += 2000 if year < 69 else 1900
        try:
            return date(year, month, day)
        except ValueError:
            raise DataError(f"invalid calendar date {text!r}") from None
    raise DataError(f"cannot parse date {text!r}")


def parse_aum(text: str):
    """Numeric $B level, bucket tag, or None for N/A-style tokens."""
    raw = text.strip()
    if raw.lower() in _NA_TOKENS:
        return None
    tag = raw.replace(" ", "").upper()
    if tag in _BUCKET_TAGS:
        return _BUCKET_TAGS[tag]
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"cannot parse AUM {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise DataError(f"AUM must be a finite level >= 0, got {text!r}")
    return value


def parse_rank(text: str) -> float | None:
    """Quartile score in [1,4]; quartile-pair wording maps to 1.5 / 3.5."""
    raw = text.strip()
    if raw.lower() in _NA_TOKENS:
        return None
    key = " ".join(raw.lower().split())
    if key == "top two quartiles":
        return 1.5
    if key == "bottom two quartiles":
        return 3.5
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"cannot parse performance rank {text!r}") from None
    if not 1.0 <= value <= 4.0:
        raise DataError(f"performance rank must lie in [1, 4], got {text!r}")
    return value


def _require_columns(fieldnames, wanted, what: str):
    if fieldnames is None:
        raise DataError(f"{what} has no header row")
    missing = [c for c in wanted if c not in fieldnames]
    if missing:
        raise DataError(f"{what} header is missing columns: {', '.join(missing)}")


def _company_id(text: str) -> str:
    if not text.strip():
        raise DataError("empty company_id")
    return text.strip()


def _sector(text: str) -> str:
    if text.strip() not in _VALID_SECTORS:
        raise DataError(f"unknown sector {text.strip()!r}")
    return text.strip()


def parse_deals(stream, fmt: DealFileFormat = DealFileFormat(), strict: bool = False) -> ParsedDeals:
    """Parse a deal export.

    Rows whose fields fail to parse are rejected with a RowIssue naming
    the line and the first failing column; strict mode turns the first
    such row into a DataError. A malformed header is always fatal.
    """
    # DealRecord's fields in order, each parsed from its column; the last,
    # investor, is optional, and a missing cell reads as ""
    fields = (
        ("company_id", fmt.company_id, _company_id),
        ("company_name", fmt.company_name, str.strip),
        ("sector", fmt.sector, _sector),
        ("investment_date", fmt.date, parse_date),
        ("investor_aum", fmt.aum, parse_aum),
        ("investor_rank", fmt.rank, parse_rank),
        ("investor", fmt.investor, str.strip),
    )
    reader = csv.DictReader(stream, delimiter=fmt.delimiter)
    _require_columns(reader.fieldnames, [column for _, column, _ in fields[:-1]], "deal file")
    result = ParsedDeals([], [])
    for row in reader:
        values = {}
        for field, column, parser in fields:
            try:
                values[field] = parser(row.get(column) or "")
            except DataError as exc:
                issue = RowIssue(reader.line_num, column, str(exc))
                if strict:
                    raise DataError(str(issue)) from None
                result.issues.append(issue)
                break
        else:
            result.records.append(DealRecord(**values))
    return result


def first_deals(records) -> list:
    """Reduce to one record per company_id: earliest investment_date.

    Same-date ties break by lexicographic investor identifier, then by
    input position. Output is sorted by (investment_date, company_id).
    """
    chosen = {}
    for position, rec in enumerate(records):
        key = (rec.investment_date, rec.investor, position)
        kept = chosen.get(rec.company_id)
        if kept is None or key < kept[0]:
            chosen[rec.company_id] = (key, rec)
    picked = [rec for _, rec in chosen.values()]
    picked.sort(key=lambda r: (r.investment_date, r.company_id))
    return picked


def parse_prices(stream, fmt: PriceFileFormat = PriceFileFormat()) -> dict:
    """Parse quarter-end index levels into one gap-free {Quarter: level} map per index.

    All defects are fatal here: a broken price history poisons every
    label downstream, so there is no lenient mode.
    """
    reader = csv.DictReader(stream, delimiter=fmt.delimiter)
    _require_columns(reader.fieldnames, [fmt.index_name, fmt.date, fmt.value], "price file")
    by_index: dict = {}
    for row in reader:
        line = reader.line_num
        name = (row.get(fmt.index_name) or "").strip()
        if not name:
            raise DataError(f"price file line {line}: empty index name")
        raw_date = (row.get(fmt.date) or "").strip()
        try:
            when = parse_date(raw_date)
        except DataError as exc:
            raise DataError(f"price file line {line}: {exc}") from None
        quarter = Quarter.of_date(when)
        if when != quarter.end_date():
            raise DataError(
                f"price file line {line}: {raw_date} is not a quarter-end date"
            )
        try:
            value = float((row.get(fmt.value) or "").strip())
        except ValueError:
            raise DataError(
                f"price file line {line}: cannot parse index level {row.get(fmt.value)!r}"
            ) from None
        if not (math.isfinite(value) and value > 0):
            raise DataError(f"price file line {line}: index level must be finite and > 0, got {value!r}")
        by_index.setdefault(name, []).append((quarter, value))
    series = {}
    for name, items in sorted(by_index.items()):
        items.sort()
        start = items[0][0]
        for k, (quarter, _) in enumerate(items):
            if quarter - start != k:
                raise DataError(f"price index {name!r}: non-contiguous quarters: gap or duplicate at {quarter}")
        series[name] = dict(items)
    return series


def format_aum(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, AumBucket):
        return _CANONICAL_BUCKET_TAG[value]
    return repr(float(value))


def format_rank(value: float | None) -> str:
    return "N/A" if value is None else repr(float(value))


def write_deals(records, stream, fmt: DealFileFormat = DealFileFormat()):
    writer = csv.writer(stream, delimiter=fmt.delimiter, lineterminator="\n")
    writer.writerow(
        [fmt.company_id, fmt.company_name, fmt.sector, fmt.date, fmt.investor, fmt.aum, fmt.rank]
    )
    for rec in records:
        writer.writerow(
            [
                rec.company_id,
                rec.company_name,
                rec.sector,
                rec.investment_date.isoformat(),
                rec.investor,
                format_aum(rec.investor_aum),
                format_rank(rec.investor_rank),
            ]
        )


def write_prices(series_by_index, stream, fmt: PriceFileFormat = PriceFileFormat()):
    writer = csv.writer(stream, delimiter=fmt.delimiter, lineterminator="\n")
    writer.writerow([fmt.index_name, fmt.date, fmt.value])
    for name in sorted(series_by_index):
        for quarter, value in series_by_index[name].items():
            writer.writerow([name, quarter.end_date().isoformat(), repr(float(value))])
