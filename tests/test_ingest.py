"""Deal/price parsing, first-deal reduction, and serialization round-trips."""

import csv
import io
import random
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pesignal.errors import DataError
from pesignal.ingest import (
    BROAD_INDEX_NAME,
    SECTOR_NAMES,
    AumBucket,
    DealFileFormat,
    DealRecord,
    PriceFileFormat,
    RowIssue,
    first_deals,
    parse_aum,
    parse_date,
    parse_deals,
    parse_prices,
    parse_rank,
    write_deals,
    write_prices,
)
from pesignal.quarters import Quarter

from oracles import listed_parse_deals, listed_write_deals

DEAL_HEADER = (
    "company_id,company_name,sector,first_investment_date,investor_aum,investor_performance"
)
# the header write_deals gives, with investor
WRITTEN_HEADER = "company_id,company_name,sector,first_investment_date,investor,investor_aum,investor_performance"

# (cell, the number a deal or price reader reads, None if it rejects the
# cell): either reader strips a cell first, but float() alone would also
# take "_" separators and other scripts' digits; repr writes an exponent
NUMBER_CELLS = [(" 0.5", 0.5), ("0.000_5", None), ("\u0660.\u0665", None), ("1e-05", 1e-05)]


def deals_io(*rows):
    return io.StringIO("\n".join([DEAL_HEADER, *rows]) + "\n")


class TestFieldParsers:
    def test_date_formats(self):
        assert parse_date("2008-02-12") == date(2008, 2, 12)
        assert parse_date("Feb-12-08") == date(2008, 2, 12)
        assert parse_date("Oct-06-06") == date(2006, 10, 6)
        assert parse_date("Dec-31-99") == date(1999, 12, 31)
        assert parse_date("Feb-12-69") == date(1969, 2, 12)

    @pytest.mark.parametrize("text", ["Feb-12-8", "Feb-12-0008", "Feb-12-108"])
    def test_month_name_dates_take_exactly_two_year_digits(self, text):
        with pytest.raises(DataError, match=f"cannot parse date '{text}'"):
            parse_date(text)
        parsed = parse_deals(deals_io(f"C1,Co,Finance,{text},3.5,1.0"))
        assert parsed.records == [] and len(parsed.issues) == 1

    # int takes other scripts' digits and "1_2"; the day and year are ASCII digits
    @pytest.mark.parametrize("text", ["Feb-xx-08", "Feb--08", "Feb-12-\u0660\u0668", "Feb-\u0661\u0662-08", "Feb-1_2-08"])
    def test_month_name_dates_take_ascii_digits(self, text):
        with pytest.raises(DataError, match=f"^cannot parse date '{text}'$"):
            parse_date(text)
        parsed = parse_deals(deals_io(f"C1,Co,Finance,{text},3.5,1.0"))
        assert parsed.records == [] and len(parsed.issues) == 1

    def test_date_rejects_garbage(self):
        for bad in ("12 Feb 2008", "Feb-30-08", "2008-13-01", ""):
            with pytest.raises(DataError):
                parse_date(bad)

    @pytest.mark.parametrize("text", ["20040930", "2004-W39-4"])
    def test_date_rejects_other_iso_forms(self, text):
        # date.fromisoformat takes both from Python 3.11 on and neither
        # before, so a deal file would keep or drop rows by interpreter
        with pytest.raises(DataError, match=f"cannot parse date '{text}'"):
            parse_date(text)
        parsed = parse_deals(deals_io(f"C1,Co,Finance,{text},3.5,1.0"))
        assert parsed.records == [] and len(parsed.issues) == 1

    def test_bad_date_messages(self):
        # the benchmark's malformed deal rows carry these two dates
        for bad in ("2004-13-45", "sometime in 2003"):
            with pytest.raises(DataError) as caught:
                parse_date(bad)
            assert str(caught.value) == f"cannot parse date {bad!r}"

    def test_aum_buckets(self):
        assert parse_aum("AUM>10") is AumBucket.HIGH
        assert parse_aum("2<AUM<10") is AumBucket.MID
        assert parse_aum("AUM<2") is AumBucket.LOW
        assert parse_aum("2 < AUM < 10") is AumBucket.MID
        assert parse_aum("high") is AumBucket.HIGH

    def test_aum_numeric_and_missing(self):
        assert parse_aum("3.5") == 3.5
        assert parse_aum("N/A") is None
        assert parse_aum("") is None
        with pytest.raises(DataError):
            parse_aum("-1")
        with pytest.raises(DataError):
            parse_aum("lots")

    def test_bucket_representatives(self):
        for bucket, level in ((AumBucket.LOW, 1.0), (AumBucket.MID, 6.0), (AumBucket.HIGH, 15.0)):
            assert bucket.value == level
            assert DealRecord("x", "X", "Finance", date(2008, 2, 12), bucket).numeric_aum() == level

    def test_rank_mappings(self):
        assert parse_rank("Top Two Quartiles") == 1.5
        assert parse_rank("Bottom Two Quartiles") == 3.5
        assert parse_rank("2.3") == 2.3
        assert parse_rank("N/A") is None
        with pytest.raises(DataError):
            parse_rank("0.5")
        with pytest.raises(DataError):
            parse_rank("great")

    @pytest.mark.parametrize("text", ["2_5", "\u0662", "\uff12"])
    def test_rank_is_an_ascii_number(self, text):
        with pytest.raises(DataError, match="^cannot parse performance rank"):
            parse_rank(text)


class TestParseDeals:
    def test_bucket_and_missing_rank_row(self):
        parsed = parse_deals(
            deals_io(
                '"21st Century Oncology Holdings, Inc.",'
                '"21st Century Oncology Holdings, Inc.",'
                "Health Services,Feb-12-08,AUM>10,N/A"
            )
        )
        assert parsed.issues == []
        (rec,) = parsed.records
        assert rec.sector == "Health Services"
        assert rec.investment_date == date(2008, 2, 12)
        assert rec.investor_aum is AumBucket.HIGH
        assert rec.investor_rank is None

    def test_mid_bucket_and_top_quartiles_row(self):
        parsed = parse_deals(
            deals_io("ace,ACE Cash Express,Finance,Oct-06-06,2<AUM<10,Top Two Quartiles")
        )
        (rec,) = parsed.records
        assert rec.investor_aum is AumBucket.MID
        assert rec.investor_rank == 1.5

    def test_empty_file_with_header(self):
        parsed = parse_deals(deals_io())
        assert parsed.records == []
        assert parsed.issues == []

    def test_malformed_header_fatal(self):
        stream = io.StringIO("company_id,sector\nx,Finance\n")
        with pytest.raises(DataError, match="missing columns"):
            parse_deals(stream)

    # the last of two cells of one name would win without a word
    @pytest.mark.parametrize("column", ["sector", "first_investment_date", "investor"])
    def test_a_repeated_column_a_field_reads_is_fatal(self, column):
        stream = io.StringIO(f"{DEAL_HEADER},investor,{column}\na,A,Finance,2008-02-12,1.0,N/A,Fund One,x\n")
        with pytest.raises(DataError, match=f"^deal file header repeats columns: {column}$"):
            parse_deals(stream)

    def test_a_repeated_column_no_field_reads_is_kept(self):
        stream = io.StringIO(f"note,{DEAL_HEADER},note\nx,a,A,Finance,2008-02-12,1.0,N/A,y\n")
        assert parse_deals(stream) == parse_deals(deals_io("a,A,Finance,2008-02-12,1.0,N/A"))

    def test_unknown_sector_rejected_with_diagnostics(self):
        parsed = parse_deals(
            deals_io(
                "a,A,Fintech,2008-02-12,1.0,N/A",
                "b,B,Finance,2008-02-12,1.0,N/A",
            )
        )
        assert len(parsed.records) == 1
        (issue,) = parsed.issues
        assert issue.line == 2
        assert issue.column == "sector"
        assert "Fintech" in issue.message

    def test_bad_date_and_bad_aum_rejected(self):
        parsed = parse_deals(
            deals_io(
                "a,A,Finance,someday,1.0,N/A",
                "b,B,Finance,2008-02-12,plenty,N/A",
                "c,C,Finance,2008-02-12,1.0,superb",
                ",D,Finance,2008-02-12,1.0,N/A",
            )
        )
        assert parsed.records == []
        assert [i.column for i in parsed.issues] == [
            "first_investment_date",
            "investor_aum",
            "investor_performance",
            "company_id",
        ]
        assert parsed.issues[-1].message == "empty company_id"

    @pytest.mark.parametrize("text, value", NUMBER_CELLS)
    def test_aum_is_an_ascii_number(self, text, value):
        parsed = parse_deals(deals_io(f"a,A,Finance,2008-02-12,{text},N/A"))
        if value is None:
            assert parsed.issues == [RowIssue(2, "investor_aum", f"cannot parse AUM {text!r}")]
        else:
            assert [r.investor_aum for r in parsed.records] == [value]

    def test_issue_reads_as_line_column_and_message(self):
        # the text `features --strict` reports after the deal file's path
        (issue,) = parse_deals(deals_io("a,A,Fintech,2008-02-12,1.0,N/A")).issues
        assert str(issue) == "line 2, column sector: unknown sector 'Fintech'"

    def test_market_is_no_deal_sector(self):
        (issue,) = parse_deals(deals_io(f"a,A,{BROAD_INDEX_NAME},2008-02-12,1.0,N/A")).issues
        assert str(issue) == "line 2, column sector: unknown sector 'Market'"
        with pytest.raises(ValueError, match="unknown sector 'Market'"):
            DealRecord("a", "A", BROAD_INDEX_NAME, date(2008, 2, 12))

    def test_custom_columns_and_delimiter(self):
        fmt = DealFileFormat(
            delimiter=";",
            company_id="id",
            company_name="name",
            sector="industry",
            date="first_date",
            aum="aum",
            rank="perf",
        )
        stream = io.StringIO("id;name;industry;first_date;aum;perf\nx;X;Utilities;2010-03-31;2;1\n")
        parsed = parse_deals(stream, fmt)
        (rec,) = parsed.records
        assert rec.sector == "Utilities"
        assert rec.investor_aum == 2.0
        assert rec.investor_rank == 1.0

    # a row cut short is a row issue naming the first column it has no cell
    # for, in the header's order, not a deal without the fields it lacks
    @pytest.mark.parametrize(
        "header, row, column",
        [
            pytest.param(WRITTEN_HEADER, "a,A,Finance,2008-02-12", "investor", id="cut-after-date"),
            pytest.param(WRITTEN_HEADER, "a,A,Finance,2008-02-12,F,3.0", "investor_performance", id="cut-after-aum"),
            pytest.param(DEAL_HEADER, "a,A,Finance,2008-02-12", "investor_aum", id="no-investor-cut-after-date"),
            pytest.param(DEAL_HEADER, "a,A,Finance,2008-02-12,3.0", "investor_performance", id="no-investor-cut-after-aum"),
            pytest.param(
                "company_id,company_name,investor_performance,sector,first_investment_date,investor_aum",
                "a,A",
                "investor_performance",
                id="header-order",
            ),
            pytest.param(f"note,{DEAL_HEADER}", "x,a,A,Finance,2008-02-12,1.0", "investor_performance", id="unread-first"),
            pytest.param(DEAL_HEADER, "a", "company_name", id="one-cell"),
        ],
    )
    def test_short_row_is_a_row_issue_naming_its_first_missing_column(self, header, row, column):
        parsed = parse_deals(io.StringIO(f"{header}\n{row}\n"))
        assert parsed.records == []
        assert parsed.issues == [RowIssue(2, column, f"row has no {column} cell")]

    def test_short_row_names_a_column_named_empty(self):
        stream = io.StringIO("company_id,,sector,first_investment_date,investor_aum,investor_performance\na\n")
        parsed = parse_deals(stream, DealFileFormat(company_name=""))
        assert parsed.issues == [RowIssue(2, "", "row has no  cell")]

    def test_an_empty_cell_is_no_short_row(self):
        (rec,) = parse_deals(io.StringIO(f"{WRITTEN_HEADER}\na,A,Finance,2008-02-12,F,3.0,\n")).records
        assert (rec.investor, rec.investor_aum, rec.investor_rank) == ("F", 3.0, None)

    def test_a_row_may_lack_a_column_no_field_reads(self):
        stream = io.StringIO(f"{DEAL_HEADER},note\na,A,Finance,2008-02-12,1.0,N/A\n")
        assert parse_deals(stream) == parse_deals(deals_io("a,A,Finance,2008-02-12,1.0,N/A"))

    def test_investor_column_optional(self):
        stream = io.StringIO(
            DEAL_HEADER + ",investor\na,A,Finance,2008-02-12,1.0,N/A,Fund One\n"
        )
        parsed = parse_deals(stream)
        assert parsed.records[0].investor == "Fund One"
        parsed = parse_deals(deals_io("a,A,Finance,2008-02-12,1.0,N/A"))
        assert parsed.records[0].investor == ""


def deal(cid, day, investor="", sector="Finance"):
    return DealRecord(
        company_id=cid,
        company_name=cid.upper(),
        sector=sector,
        investment_date=day,
        investor=investor,
    )


class TestFirstDeals:
    def test_earliest_date_wins(self):
        records = [deal("x", date(2010, 5, 1)), deal("x", date(2008, 2, 12))]
        (kept,) = first_deals(records)
        assert kept.investment_date == date(2008, 2, 12)

    def test_single_record_identity(self):
        records = [deal("x", date(2008, 2, 12))]
        assert first_deals(records) == records

    def test_same_date_tie_breaks_on_investor(self):
        day = date(2008, 2, 12)
        records = [deal("x", day, "beta"), deal("x", day, "alpha"), deal("x", day, "gamma")]
        (kept,) = first_deals(records)
        assert kept.investor == "alpha"

    def test_idempotent_and_counts_companies(self):
        rng = random.Random(3)
        records = []
        for _ in range(200):
            cid = f"c{rng.randrange(40)}"
            day = date(2005, 1, 1) + timedelta(days=rng.randrange(2000))
            records.append(deal(cid, day, investor=f"f{rng.randrange(9)}"))
        reduced = first_deals(records)
        assert len(reduced) == len({r.company_id for r in records})
        assert first_deals(reduced) == reduced


PRICE_HEADER = "index_name,date,value"


def prices_io(*rows):
    return io.StringIO("\n".join([PRICE_HEADER, *rows]) + "\n")


class TestParsePrices:
    def test_two_indices(self):
        series = parse_prices(
            prices_io(
                "MARKET,2002-12-31,66.4317",
                "MARKET,2003-03-31,64.415",
                "Finance,2002-12-31,100.0",
                "Finance,2003-03-31,101.0",
            )
        )
        assert set(series) == {"MARKET", "Finance"}
        assert series["MARKET"].get(Quarter(2002, 4)) == 66.4317
        assert series["Finance"].get(Quarter(2003, 1)) == 101.0

    def test_gap_fatal(self):
        with pytest.raises(DataError, match="MARKET"):
            parse_prices(prices_io("MARKET,2002-12-31,1.0", "MARKET,2003-06-30,2.0"))

    def test_duplicate_quarter_fatal(self):
        with pytest.raises(DataError, match="MARKET"):
            parse_prices(prices_io("MARKET,2002-12-31,1.0", "MARKET,2002-12-31,2.0"))

    def test_non_quarter_end_date_fatal(self):
        with pytest.raises(DataError, match="quarter-end"):
            parse_prices(prices_io("MARKET,2002-12-30,1.0"))

    def test_rows_out_of_order_parse_as_sorted(self):
        rows = ["MARKET,2002-12-31,1.0", "MARKET,2003-03-31,2.0", "MARKET,2003-06-30,3.0"]
        shuffled = parse_prices(prices_io(rows[1], rows[2], rows[0]))
        assert shuffled == parse_prices(prices_io(*rows))
        assert list(shuffled["MARKET"].items()) == [(Quarter(2002, 4), 1.0), (Quarter(2003, 1), 2.0), (Quarter(2003, 2), 3.0)]

    def test_non_positive_value_fatal(self):
        with pytest.raises(DataError, match="> 0"):
            parse_prices(prices_io("MARKET,2002-12-31,0.0"))

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_value_fatal(self, level):
        with pytest.raises(DataError, match=f"line 3: index level must be finite and > 0, got {level}"):
            parse_prices(prices_io("MARKET,2002-12-31,1.0", f"MARKET,2003-03-31,{level}"))

    @pytest.mark.parametrize("text, value", NUMBER_CELLS)
    def test_level_is_an_ascii_number(self, text, value):
        rows = ("MARKET,2002-12-31,1.0", f"MARKET,2003-03-31,{text}")
        if value is None:
            with pytest.raises(DataError, match=f"^price file line 3: cannot parse index level {text!r}$"):
                parse_prices(prices_io(*rows))
        else:
            assert parse_prices(prices_io(*rows))["MARKET"][Quarter(2003, 1)] == value

    def test_missing_column_fatal(self):
        with pytest.raises(DataError, match="missing columns"):
            parse_prices(io.StringIO("index_name,when,value\n"))

    def test_repeated_column_fatal(self):
        with pytest.raises(DataError, match="^price file header repeats columns: value$"):
            parse_prices(io.StringIO("index_name,date,value,value\nMARKET,2002-12-31,100,200\n"))

    @pytest.mark.parametrize("row, column", [("MARKET,2002-12-31", "value"), ("MARKET", "date")])
    def test_short_row_names_its_missing_column(self, row, column):
        with pytest.raises(DataError, match=f"^price file line 2: row has no {column} cell$"):
            parse_prices(prices_io(row))


class TestRoundTrips:
    def test_deals_parse_serialize_parse_fixpoint(self):
        records = [
            DealRecord("a", "Alpha, Inc.", "Finance", date(2008, 2, 12), AumBucket.HIGH, None, "f1"),
            DealRecord("b", "Beta", "Utilities", date(2006, 10, 6), 3.25, 1.5, ""),
            DealRecord("c", "Gamma", "Retail Trade", date(2010, 1, 2), None, 2.3, "f2"),
            DealRecord("d", "Delta", "Energy Minerals", date(2011, 7, 9), AumBucket.LOW, 3.5),
        ]
        out = io.StringIO()
        write_deals(records, out)
        reparsed = parse_deals(io.StringIO(out.getvalue()))
        assert not reparsed.issues
        assert reparsed.records == records
        out2 = io.StringIO()
        write_deals(reparsed.records, out2)
        assert out2.getvalue() == out.getvalue()

    def test_prices_round_trip(self):
        series = parse_prices(
            prices_io("MARKET,2002-12-31,66.4317", "MARKET,2003-03-31,64.415")
        )
        out = io.StringIO()
        write_prices(series, out)
        assert parse_prices(io.StringIO(out.getvalue())) == series

    def test_custom_format_round_trip(self):
        fmt = PriceFileFormat(delimiter="|", index_name="idx", date="d", value="v")
        series = parse_prices(prices_io("MARKET,2002-12-31,66.4317"))
        out = io.StringIO()
        write_prices(series, out, fmt)
        assert out.getvalue().splitlines()[0] == "idx|d|v"
        assert parse_prices(io.StringIO(out.getvalue()), fmt) == series


# Cell text with the characters a CSV writer has to quote: commas,
# quotes and the other delimiters; parsers strip cells, so drawn text
# carries no outer whitespace.
cells = st.text(alphabet='ab Z9,;|"\'-.&', max_size=12).map(str.strip)
delimiters = st.sampled_from([",", ";", "|", "\t"])
deal_records = st.builds(
    DealRecord,
    company_id=cells.filter(bool),
    company_name=cells,
    sector=st.sampled_from(SECTOR_NAMES),
    investment_date=st.dates(date(1900, 1, 1), date(2100, 12, 31)),
    investor_aum=st.none()
    | st.sampled_from(AumBucket)
    | st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    investor_rank=st.none() | st.floats(min_value=1.0, max_value=4.0),
    investor=cells,
)
price_series = st.builds(
    lambda start, values: {start + k: v for k, v in enumerate(values)},
    st.builds(Quarter, st.integers(1900, 2100), st.integers(1, 4)),
    st.lists(
        st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
)


class TestRoundTripProperties:
    @given(st.lists(deal_records, max_size=8), delimiters)
    def test_deals(self, records, delimiter):
        fmt = DealFileFormat(delimiter=delimiter)
        out = io.StringIO()
        write_deals(records, out, fmt)
        parsed = parse_deals(io.StringIO(out.getvalue()), fmt)
        assert not parsed.issues
        assert parsed.records == records

    @given(st.dictionaries(cells.filter(bool), price_series, max_size=4), delimiters)
    def test_prices(self, series_by_index, delimiter):
        fmt = PriceFileFormat(delimiter=delimiter)
        out = io.StringIO()
        write_prices(series_by_index, out, fmt)
        assert parse_prices(io.StringIO(out.getvalue()), fmt) == series_by_index


# a name for each deal-file column, none repeated, with characters a header has to quote
column_names = st.lists(st.text(alphabet='ab_ ,;|"', min_size=1, max_size=5), min_size=7, max_size=7, unique=True)
# cells that fail a column's parser, or pass one column's and fail another's
bad_cells = cells | st.sampled_from(
    ["", "N/A", "Fintech", "Market", "2008-13-40", "Feb-30-08", "-1", "5", "nan", "inf", "aum<2", "Top Two Quartiles"]
)


class TestOneColumnTable:
    """parse_deals and write_deals read one column table; they must give
    what they gave while each listed the columns itself."""

    def test_default_header(self):
        out = io.StringIO()
        write_deals([], out)
        assert out.getvalue() == (
            "company_id,company_name,sector,first_investment_date,investor,investor_aum,investor_performance\n"
        )

    @given(st.data(), st.lists(deal_records, max_size=6), column_names, delimiters)
    def test_equals_the_listed_columns(self, data, records, names, delimiter):
        fmt = DealFileFormat(delimiter, *names)
        out, want = io.StringIO(), io.StringIO()
        write_deals(records, out, fmt)
        listed_write_deals(records, want, fmt)
        assert out.getvalue() == want.getvalue()
        # the file again with its columns shuffled, investor's perhaps
        # dropped, and some cells corrupted or rows cut short
        header, *rows = csv.reader(io.StringIO(out.getvalue()), delimiter=delimiter)
        order = data.draw(st.permutations(range(7)))
        if data.draw(st.booleans()):
            order.remove(header.index(fmt.investor))
        header, rows = [header[k] for k in order], [[row[k] for k in order] for row in rows]
        for row in rows:
            for k in data.draw(st.sets(st.integers(0, len(row) - 1), max_size=2)):
                row[k] = data.draw(bad_cells)
            cut = data.draw(st.none() | st.integers(0, len(row)))
            if cut is not None:
                del row[cut:]
        text = io.StringIO()
        csv.writer(text, delimiter=delimiter, lineterminator="\n").writerows([header, *rows])
        got = parse_deals(io.StringIO(text.getvalue()), fmt)
        assert got == listed_parse_deals(io.StringIO(text.getvalue()), fmt)
