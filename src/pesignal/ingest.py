"""Deal and price file ingestion.

Schema-mapped delimited parsing with row-level diagnostics, reduction of
multi-round deal records to first deals per portfolio company, and
serializers whose output parses back to the same records.
"""

from __future__ import annotations

import csv
import enum
import math
import re
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

_NA_TOKENS = frozenset({"", "n/a", "na", "none"})

# digits are ASCII: str.isdigit and int also take other scripts' digits
_MMM_DD_YY_RE = re.compile(r"([A-Za-z]{3})-([0-9]+)-([0-9]{2})")

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


_CANONICAL_BUCKET_TAG = {
    AumBucket.LOW: "AUM<2",
    AumBucket.MID: "2<AUM<10",
    AumBucket.HIGH: "AUM>10",
}

# parse_aum reads a bucket from its canonical tag or its name
_BUCKET_TAGS = {tag: b for b, canonical in _CANONICAL_BUCKET_TAG.items() for tag in (b.name, canonical)}


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
        if self.sector not in SECTOR_NAMES:
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


def _distinct_columns(fmt):
    """_check of a file format: a column that two fields name would be read for both and written twice."""
    for k, column in enumerate(fmt[2:], 2):
        if column in fmt[1:k]:
            field = fmt._fields[fmt.index(column, 1)]
            raise ValueError(f"{type(fmt).__name__} fields {field} and {fmt._fields[k]} both name column {column!r}")


@checked
class DealFileFormat(NamedTuple):
    """Delimiter and column names of a deal export, the columns in file order."""

    delimiter: str = ","
    company_id: str = "company_id"
    company_name: str = "company_name"
    sector: str = "sector"
    date: str = "first_investment_date"
    investor: str = "investor"
    aum: str = "investor_aum"
    rank: str = "investor_performance"
    _check = _distinct_columns


@checked
class PriceFileFormat(NamedTuple):
    delimiter: str = ","
    index_name: str = "index_name"
    date: str = "date"
    value: str = "value"
    _check = _distinct_columns


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
    match = _MMM_DD_YY_RE.fullmatch(raw)
    if match and match[1].lower() in _MONTHS:
        month, day, year = _MONTHS[match[1].lower()], int(match[2]), int(match[3])
        # Two-digit years pivot at 69: 00-68 -> 2000s, 69-99 -> 1900s.
        year += 2000 if year < 69 else 1900
        try:
            return date(year, month, day)
        except ValueError:
            raise DataError(f"invalid calendar date {text!r}") from None
    raise DataError(f"cannot parse date {text!r}")


def parse_float(text: str) -> float:
    """float(text), which also takes surrounding whitespace, "_" separators
    and other scripts' digits, for ASCII text with none of them."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_aum(text: str):
    """Numeric $B level, bucket tag, or None for N/A-style tokens."""
    raw = text.strip()
    if raw.lower() in _NA_TOKENS:
        return None
    tag = raw.replace(" ", "").upper()
    if tag in _BUCKET_TAGS:
        return _BUCKET_TAGS[tag]
    try:
        value = parse_float(raw)
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
        value = parse_float(raw)
    except ValueError:
        raise DataError(f"cannot parse performance rank {text!r}") from None
    if not 1.0 <= value <= 4.0:
        raise DataError(f"performance rank must lie in [1, 4], got {text!r}")
    return value


def _csv_rows(stream, delimiter: str, read: list, what: str, optional=()):
    """(line number, {column: cell}, short) for each non-blank row of a
    CSV file whose header holds each read column but the optional ones,
    and names none of them twice; short is the leftmost read column a row
    is too short to hold, else None. A csv.Error, from the header or a
    row, such as a cell over the csv module's field size limit, is a
    DataError naming its line."""
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{what} has no header row")
        missing = [c for c in read if c not in header and c not in optional]
        if missing:
            raise DataError(f"{what} header is missing columns: {', '.join(missing)}")
        repeated = [c for c in read if header.count(c) > 1]
        if repeated:
            raise DataError(f"{what} header repeats columns: {', '.join(repeated)}")
        read_at = sorted(header.index(c) for c in read if c in header)
        for cells in reader:
            if cells:
                short = None if len(cells) > read_at[-1] else header[next(k for k in read_at if k >= len(cells))]
                yield reader.line_num, dict(zip(header, cells)), short
    except csv.Error as exc:
        raise DataError(f"{what} line {reader.line_num}: {exc}") from None


def _company_id(text: str) -> str:
    if not text.strip():
        raise DataError("empty company_id")
    return text.strip()


def _sector(text: str) -> str:
    if text.strip() not in SECTOR_NAMES:
        raise DataError(f"unknown sector {text.strip()!r}")
    return text.strip()


def format_aum(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, AumBucket):
        return _CANONICAL_BUCKET_TAG[value]
    return repr(float(value))


def format_rank(value: float | None) -> str:
    return "N/A" if value is None else repr(float(value))


# one row per deal-file column, in DealFileFormat's order: the DealRecord
# field it holds, the parser of its cell and the writer of its value
_DEAL_COLUMNS = (
    ("company_id", _company_id, str),
    ("company_name", str.strip, str),
    ("sector", _sector, str),
    ("investment_date", parse_date, date.isoformat),
    ("investor", str.strip, str),
    ("investor_aum", parse_aum, format_aum),
    ("investor_rank", parse_rank, format_rank),
)


def parse_deals(stream, fmt: DealFileFormat = DealFileFormat()) -> ParsedDeals:
    """Parse a deal export.

    Rows whose fields fail to parse are rejected with a RowIssue naming
    the line and the first failing column. A malformed header is fatal.
    """
    columns = tuple(zip(fmt[1:], _DEAL_COLUMNS))
    result = ParsedDeals([], [])
    # every column but investor is required; a header without it reads its cells as ""
    for line, row, short in _csv_rows(stream, fmt.delimiter, fmt[1:], "deal file", optional=[fmt.investor]):
        if short is not None:
            result.issues.append(RowIssue(line, short, f"row has no {short} cell"))
            continue
        values = {}
        for column, (field, parser, _) in columns:
            try:
                values[field] = parser(row.get(column, ""))
            except DataError as exc:
                result.issues.append(RowIssue(line, column, str(exc)))
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
    by_index: dict = {}
    for line, row, short in _csv_rows(stream, fmt.delimiter, fmt[1:], "price file"):
        try:
            if short is not None:
                raise DataError(f"row has no {short} cell")
            name = row[fmt.index_name].strip()
            if not name:
                raise DataError("empty index name")
            raw_date = row[fmt.date].strip()
            when = parse_date(raw_date)
            quarter = Quarter.of_date(when)
            if when != quarter.end_date():
                raise DataError(f"{raw_date} is not a quarter-end date")
            try:
                value = parse_float(row[fmt.value].strip())
            except ValueError:
                raise DataError(f"cannot parse index level {row[fmt.value]!r}") from None
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"index level must be finite and > 0, got {value!r}")
        except DataError as exc:
            raise DataError(f"price file line {line}: {exc}") from None
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


def write_deals(records, stream, fmt: DealFileFormat = DealFileFormat()):
    writer = csv.writer(stream, delimiter=fmt.delimiter, lineterminator="\n")
    writer.writerow(fmt[1:])
    writer.writerows([write(getattr(rec, field)) for field, _, write in _DEAL_COLUMNS] for rec in records)


def write_prices(series_by_index, stream, fmt: PriceFileFormat = PriceFileFormat()):
    writer = csv.writer(stream, delimiter=fmt.delimiter, lineterminator="\n")
    writer.writerow(fmt[1:])
    for name in sorted(series_by_index):
        for quarter, value in series_by_index[name].items():
            writer.writerow([name, quarter.end_date().isoformat(), repr(float(value))])
