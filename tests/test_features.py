"""Quarterly feature aggregation over first deals."""

import io
import math
import random
import re
import statistics
from datetime import date
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import feature_series
from pesignal.backtest import PREDICTION_COLUMNS, read_predictions
from pesignal.errors import DataError
from pesignal.features import (
    BROAD_FEATURES,
    BROAD_SCOPE,
    SECTOR_FEATURES,
    FeatureTable,
    Scope,
    _mean,
    aum_weight,
    build_feature_table,
    deals_by_quarter,
    feature_names,
    read_feature_table,
    write_feature_table,
)
from pesignal.ingest import AumBucket, DealRecord, SECTOR_NAMES
from pesignal.quarters import Quarter, quarter_range

Q = Quarter(2008, 1)


def deal(sector="Finance", when=date(2008, 2, 12), aum=None, rank=None, cid=None):
    if cid is None:
        cid = f"c{random.randrange(10**9)}"
    return DealRecord(cid, cid.upper(), sector, when, aum, rank)


# The per-quarter scan that build_feature_table replaced, kept as the
# oracle: every feature of every quarter scans the whole deal list.


def scan_deals(deals, scope: Scope, quarter: Quarter) -> list:
    return [
        d
        for d in deals
        if scope.matches(d) and Quarter.of_date(d.investment_date) == quarter
    ]


def deal_count(deals, scope: Scope, quarter: Quarter) -> int:
    return len(scan_deals(deals, scope, quarter))


def _usable_aums(deals, scope: Scope, quarter: Quarter) -> list:
    aums = [d.numeric_aum() for d in scan_deals(deals, scope, quarter)]
    return [a for a in aums if a is not None]


def avg_aum(deals, scope: Scope, quarter: Quarter) -> float | None:
    aums = _usable_aums(deals, scope, quarter)
    if not aums:
        return None
    return statistics.mean(aums)


def weighted_avg_aum(deals, scope: Scope, quarter: Quarter) -> float | None:
    aums = _usable_aums(deals, scope, quarter)
    if not aums:
        return None
    # in units of 2**e, e the exponent of the largest AUM, so that no
    # weighted term underflows (a lone 5e-324 AUM is its own mean) or
    # overflows (a 1.5e308 AUM times 1.5)
    e = math.frexp(max(map(abs, aums)))[1]
    weighted = math.fsum(aum_weight(a) * math.ldexp(a, -e) for a in aums)
    denom = math.fsum(aum_weight(a) for a in aums)
    return math.ldexp(weighted / denom, e)


def avg_fund_ranking(deals, quarter: Quarter) -> float | None:
    ranks = [
        d.investor_rank
        for d in scan_deals(deals, BROAD_SCOPE, quarter)
        if d.investor_rank is not None
    ]
    if not ranks:
        return None
    return statistics.mean(ranks)


def sector_count_pct(deals, sector: str, quarter: Quarter) -> float | None:
    total = deal_count(deals, BROAD_SCOPE, quarter)
    if total == 0:
        return None
    return 100.0 * deal_count(deals, Scope(sector), quarter) / total


def oracle_feature_table(deals, scope, first_quarter, last_quarter, market_pe, sector_pe=None):
    rows = []
    for quarter in quarter_range(first_quarter, last_quarter):
        values = dict(
            deal_count=deal_count(deals, scope, quarter),
            avg_aum=avg_aum(deals, scope, quarter),
            weighted_avg_aum=weighted_avg_aum(deals, scope, quarter),
            market_pe=market_pe.get(quarter),
            avg_fund_ranking=None if not scope.is_broad else avg_fund_ranking(deals, quarter),
            sector_count_pct=None if scope.is_broad else sector_count_pct(deals, scope.name, quarter),
            sector_pe=None if scope.is_broad else sector_pe.get(quarter),
        )
        rows.append(tuple(values[name] for name in feature_names(scope)))
    return FeatureTable(scope, first_quarter, feature_names(scope), tuple(rows))


def by_name(table, k):
    """Row k of a feature table as a {name: value} dict."""
    return dict(zip(table.names, table.rows[k]))


class TestScope:
    def test_broad(self):
        assert BROAD_SCOPE.is_broad
        assert BROAD_SCOPE.name == "Market"
        assert BROAD_SCOPE.matches(deal("Utilities"))

    def test_sector(self):
        scope = Scope("Finance")
        assert not scope.is_broad
        assert scope.name == "Finance"
        assert scope.matches(deal("Finance"))
        assert not scope.matches(deal("Utilities"))

    def test_unknown_sector_rejected(self):
        with pytest.raises(ValueError):
            Scope("Fintech")

    def test_feature_orders(self):
        assert feature_names(BROAD_SCOPE) == BROAD_FEATURES
        assert feature_names(Scope("Finance")) == SECTOR_FEATURES
        assert len(BROAD_FEATURES) == 5
        assert len(SECTOR_FEATURES) == 6


class TestAumWeight:
    def test_thresholds(self):
        assert aum_weight(1.99) == 0.1
        assert aum_weight(2.0) == 0.5
        assert aum_weight(10.0) == 0.5
        assert aum_weight(10.01) == 1.5

    def test_buckets_share_the_boundaries(self):
        assert AumBucket.of(1.99) is AumBucket.LOW
        assert AumBucket.of(2.0) is AumBucket.MID
        assert AumBucket.of(10.0) is AumBucket.MID
        assert AumBucket.of(10.01) is AumBucket.HIGH


class TestCounts:
    def test_scope_and_quarter_filters(self):
        deals = [
            deal("Finance", date(2008, 1, 15)),
            deal("Finance", date(2008, 3, 31)),
            deal("Utilities", date(2008, 2, 1)),
            deal("Finance", date(2008, 4, 1)),
        ]
        assert deal_count(deals, BROAD_SCOPE, Q) == 3
        assert deal_count(deals, Scope("Finance"), Q) == 2
        assert deal_count(deals, Scope("Utilities"), Q) == 1
        assert deal_count(deals, Scope("Energy Minerals"), Q) == 0
        assert deal_count([], BROAD_SCOPE, Q) == 0

    def test_sector_counts_sum_to_broad(self):
        rng = random.Random(5)
        deals = [
            deal(rng.choice(SECTOR_NAMES), date(2008, rng.randrange(1, 4), rng.randrange(1, 29)))
            for _ in range(300)
        ]
        total = deal_count(deals, BROAD_SCOPE, Q)
        assert total == sum(deal_count(deals, Scope(s), Q) for s in SECTOR_NAMES)

    def test_count_pct(self):
        deals = [deal("Finance"), deal("Finance"), deal("Utilities"), deal("Retail Trade")]
        assert sector_count_pct(deals, "Finance", Q) == 50.0
        assert sector_count_pct(deals, "Energy Minerals", Q) == 0.0
        assert sector_count_pct([deal("Finance")], "Finance", Q) == 100.0
        assert sector_count_pct([], "Finance", Q) is None

    def test_count_pct_matches_published_share(self):
        # 49 sector deals out of 301 give a 16.28 percent share at 2 d.p.
        deals = [deal("Commercial Services") for _ in range(49)]
        deals += [deal("Finance") for _ in range(301 - 49)]
        pct = sector_count_pct(deals, "Commercial Services", Q)
        assert abs(pct - 16.28) < 0.005

    def test_pcts_sum_to_hundred(self):
        rng = random.Random(6)
        deals = [deal(rng.choice(SECTOR_NAMES)) for _ in range(120)]
        total = sum(sector_count_pct(deals, s, Q) for s in SECTOR_NAMES)
        assert abs(total - 100.0) < 1e-9


class TestAumFeatures:
    def test_avg_plain(self):
        deals = [deal(aum=4.0), deal(aum=8.0)]
        assert avg_aum(deals, BROAD_SCOPE, Q) == 6.0

    def test_avg_empty(self):
        assert avg_aum([], BROAD_SCOPE, Q) is None
        assert avg_aum([deal(aum=None)], BROAD_SCOPE, Q) is None

    def test_avg_over_buckets(self):
        deals = [deal(aum=AumBucket.LOW), deal(aum=AumBucket.HIGH)]
        assert avg_aum(deals, BROAD_SCOPE, Q) == 8.0

    def test_avg_all_equal_exact(self):
        deals = [deal(aum=3.7) for _ in range(7)]
        assert avg_aum(deals, BROAD_SCOPE, Q) == 3.7

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
            st.lists(st.floats(max_value=1e-300, min_value=-1e-300), min_size=1),
            st.builds(lambda x, n: [x] * n, st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 50)),
        )
    )
    def test_mean_is_statistics_mean(self, values):
        # statistics loads fractions and decimal, so features computes
        # the same exact mean without it
        got, want = _mean(values), statistics.mean(values)
        assert type(got) is type(want)
        assert got.hex() == want.hex()

    def test_weighted_single(self):
        assert weighted_avg_aum([deal(aum=15.0)], BROAD_SCOPE, Q) == 15.0
        assert weighted_avg_aum([deal(aum=5.0)], BROAD_SCOPE, Q) == 5.0

    def test_weighted_mean_of_one_extreme_aum_is_itself(self):
        for aum in (5e-324, 1.5e308):
            table = build_feature_table(deals_by_quarter([deal(aum=aum)]), BROAD_SCOPE, Q, Q, pe_series(Q, 1))
            assert by_name(table, 0)["weighted_avg_aum"] == aum

    def test_weighted_pair(self):
        deals = [deal(aum=1.0), deal(aum=15.0)]
        value = weighted_avg_aum(deals, BROAD_SCOPE, Q)
        assert value == pytest.approx(14.125, abs=1e-12)
        displayed = Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        assert displayed == Decimal("14.13")

    def test_weighted_mean_bounds(self):
        rng = random.Random(9)
        for _ in range(50):
            aums = [rng.uniform(0.1, 20.0) for _ in range(rng.randrange(1, 9))]
            deals = [deal(aum=a) for a in aums]
            value = weighted_avg_aum(deals, BROAD_SCOPE, Q)
            assert min(aums) - 1e-12 <= value <= max(aums) + 1e-12

    def test_missing_aum_excluded_but_counted(self):
        deals = [deal(aum=4.0), deal(aum=None)]
        assert deal_count(deals, BROAD_SCOPE, Q) == 2
        assert avg_aum(deals, BROAD_SCOPE, Q) == 4.0
        assert weighted_avg_aum(deals, BROAD_SCOPE, Q) == 4.0


class TestFundRanking:
    def test_mean(self):
        deals = [deal(rank=1.5), deal(rank=3.5)]
        assert avg_fund_ranking(deals, Q) == 2.5

    def test_all_missing(self):
        assert avg_fund_ranking([deal(rank=None)], Q) is None

    def test_spans_sectors(self):
        deals = [deal("Finance", rank=1.0), deal("Utilities", rank=3.0)]
        assert avg_fund_ranking(deals, Q) == 2.0


def pe_series(start, n, base=15.0):
    return {start + k: base + 0.1 * k for k in range(n)}


class TestBuildFeatureTable:
    def test_broad_rows(self):
        deals = [deal("Finance", date(2008, 2, 1), aum=4.0, rank=1.5)]
        table = build_feature_table(
            deals_by_quarter(deals),
            BROAD_SCOPE,
            Quarter(2008, 1),
            Quarter(2008, 2),
            pe_series(Quarter(2008, 1), 2),
        )
        assert (table.scope, table.start, table.names, len(table.rows)) == (BROAD_SCOPE, Quarter(2008, 1), BROAD_FEATURES, 2)
        first, second = by_name(table, 0), by_name(table, 1)
        assert first["deal_count"] == 1
        assert first["avg_fund_ranking"] == 1.5
        assert "sector_count_pct" not in first and "sector_pe" not in first
        assert first["market_pe"] == 15.0
        assert second["deal_count"] == 0
        assert second["avg_aum"] is None

    def test_sector_rows(self):
        deals = [
            deal("Finance", date(2008, 2, 1), aum=4.0, rank=1.5),
            deal("Utilities", date(2008, 2, 1), aum=2.0),
        ]
        table = build_feature_table(
            deals_by_quarter(deals),
            Scope("Finance"),
            Quarter(2008, 1),
            Quarter(2008, 1),
            pe_series(Quarter(2008, 1), 1),
            sector_pe=pe_series(Quarter(2008, 1), 1, base=22.0),
        )
        assert table.names == SECTOR_FEATURES
        row = by_name(table, 0)
        assert row["deal_count"] == 1
        assert row["sector_count_pct"] == 50.0
        assert row["sector_pe"] == 22.0
        assert "avg_fund_ranking" not in row
        assert table.rows == ((1, 50.0, 4.0, 4.0, 22.0, 15.1 - 0.1),)

    def test_missing_market_pe_names_quarter(self):
        with pytest.raises(DataError, match="2008Q2"):
            build_feature_table(
                {}, BROAD_SCOPE, Quarter(2008, 1), Quarter(2008, 2), pe_series(Quarter(2008, 1), 1)
            )

    def test_sector_scope_needs_sector_pe(self):
        with pytest.raises(DataError, match="Finance"):
            build_feature_table(
                {}, Scope("Finance"), Quarter(2008, 1), Quarter(2008, 1), pe_series(Quarter(2008, 1), 1)
            )

    def test_sector_pe_that_ends_early_names_the_sector_and_quarter(self):
        first, last = Quarter(2008, 1), Quarter(2008, 2)
        with pytest.raises(DataError, match="^sector P/E series for Finance does not cover 2008Q2$"):
            build_feature_table({}, Scope("Finance"), first, last, pe_series(first, 2), pe_series(first, 1))

    def test_feature_series_round_trip(self):
        deals = [deal("Finance", date(2008, 2, 1), aum=4.0, rank=1.5)]
        table = build_feature_table(
            deals_by_quarter(deals),
            BROAD_SCOPE,
            Quarter(2008, 1),
            Quarter(2008, 3),
            pe_series(Quarter(2008, 1), 3),
        )
        series = feature_series(table)
        assert set(series) == set(BROAD_FEATURES)
        assert series["deal_count"] == (Quarter(2008, 1), (1.0, 0.0, 0.0))
        assert series["avg_aum"] == (Quarter(2008, 1), (4.0, None, None))
        assert series["market_pe"][1][1] == pytest.approx(15.1)

    def test_write_table(self):
        deals = [deal("Finance", date(2008, 2, 1), aum=4.0, rank=1.5)]
        table = build_feature_table(
            deals_by_quarter(deals),
            BROAD_SCOPE,
            Quarter(2008, 1),
            Quarter(2008, 2),
            pe_series(Quarter(2008, 1), 2),
        )
        out = io.StringIO()
        write_feature_table(table, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "scope,quarter_end," + ",".join(BROAD_FEATURES)
        assert lines[1] == "Market,2008-03-31,1,4.000000,4.000000,1.500000,15.000000"
        assert lines[2] == "Market,2008-06-30,0,NA,NA,NA,15.100000"

    def test_read_table_round_trip(self):
        deals = [
            deal("Finance", date(2008, 2, 1), aum=4.25, rank=1.5),
            deal("Utilities", date(2008, 5, 9), aum=AumBucket.HIGH),
        ]
        for scope in (BROAD_SCOPE, Scope("Finance")):
            table = build_feature_table(
                deals_by_quarter(deals),
                scope,
                Quarter(2008, 1),
                Quarter(2008, 2),
                pe_series(Quarter(2008, 1), 2),
                sector_pe=None if scope.is_broad else pe_series(Quarter(2008, 1), 2),
            )
            out = io.StringIO()
            write_feature_table(table, out)
            again = read_feature_table(io.StringIO(out.getvalue()))
            assert again == table

    MANGLED = [
        ("Market,2008-03-31,1", "line 2: expected 7 columns"),
        ("Market,2008-03-31,one,NA,NA,NA,15.000000", "line 2: deal_count is not a count: 'one'"),
        ("Market,2008-03-31,NA,NA,NA,NA,15.000000", "line 2: deal_count is not a count: 'NA'"),
        ("Market,2008-03-31,-1,NA,NA,NA,15.000000", "line 2: deal_count is not a count: '-1'"),
        # str.isdigit takes other scripts' digits, and int reads them
        ("Market,2008-03-31,\u0663,NA,NA,NA,15.000000", "line 2: deal_count is not a count: '\u0663'"),
        ("Market,2008-03-31,\uff13,NA,NA,NA,15.000000", "line 2: deal_count is not a count: '\uff13'"),
        ("Finance,2008-03-31,1,NA,NA,NA,15.000000", "line 2: columns .* do not fit scope Finance"),
        ("Market,2008-03-31,1,NA,NA,NA,15.0\nMarket,2008-09-3x,1,NA,NA,NA,15.0", "line 3: cannot parse quarter from '2008-09-3x'"),
        ("Market,2008-03-31,1,NA,NA,NA,15.0\nFinance,2008-06-30,1,NA,NA,NA,15.0", "line 3: scope Finance, but the table is Market's"),
        ("Market,2008-03-31,1,NA,NA,NA,15.0\nMarket,2008-09-30,1,NA,NA,NA,15.0", "line 3: quarter 2008Q3, but the row before is 2008Q1"),
        ("Market,2008-03-31,1,NA,NA,NA,15.0\nMarket,2008-03-31,1,NA,NA,NA,15.0", "line 3: quarter 2008Q1, but the row before is 2008Q1"),
        ("", "empty feature table"),
    ]

    def test_read_table_rejects_mangled_input(self):
        with pytest.raises(DataError, match="header"):
            read_feature_table(io.StringIO("quarter,stuff\n"))
        header = "scope,quarter_end," + ",".join(BROAD_FEATURES)
        for rows, error in self.MANGLED:
            with pytest.raises(DataError, match=error):
                read_feature_table(io.StringIO(header + "\n" + rows + "\n"))
        sector = "scope,quarter_end," + ",".join(SECTOR_FEATURES)
        with pytest.raises(DataError, match=r"line 2: sector_count_pct out of \[0, 100\]: 100.5"):
            read_feature_table(io.StringIO(sector + "\nFinance,2008-03-31,1,100.5,NA,NA,15.0,15.0\n"))


# both tables whose columns begin scope,quarter_end, each a header and two valid rows
SCOPED_TABLES = [
    pytest.param(
        read_feature_table, "feature table", "scope,quarter_end," + ",".join(BROAD_FEATURES),
        ["Market,2008-03-31,1,4.000000,4.000000,1.500000,15.000000", "Market,2008-06-30,0,NA,NA,NA,15.100000"],
        id="read_feature_table",
    ),
    pytest.param(
        read_predictions, "prediction table", ",".join(PREDICTION_COLUMNS),
        ["Market,2004-09-30,0.700000,UP,DOWN,0", "Market,2004-12-31,0.800000,UP,NA,NA"],
        id="read_predictions",
    ),
]


@pytest.mark.parametrize("reader, what, header, rows", SCOPED_TABLES)
def test_the_scoped_table_readers_share_one_framing(reader, what, header, rows):
    def read(*lines, end="\n"):
        return reader(io.StringIO("".join(line + end for line in lines)))

    want = read(header, *rows)
    assert read(header, *rows, end="\r\n") == want
    assert read(header, rows[0], "", rows[1], "") == want
    width = header.count(",") + 1
    for line in (rows[1].rsplit(",", 1)[0], rows[1] + ",1"):
        with pytest.raises(DataError, match=f"^{what} line 3: expected {width} columns$"):
            read(header, rows[0], line)
    with pytest.raises(DataError, match=f"^{what} line 3: scope Finance, but the table is Market's$"):
        read(header, rows[0], rows[1].replace("Market", "Finance"))
    with pytest.raises(DataError, match=f"^unexpected {what} header: 'index_name,date,value'$"):
        read("index_name,date,value", *rows)


# float() alone takes surrounding whitespace, "_" separators and other
# scripts' digits, none of which table_cell writes; repr writes an exponent
@pytest.mark.parametrize("text", [" 0.5", "0.000_5", "\u0660.\u0665", "1e-05"])
@pytest.mark.parametrize("reader, what, header, rows", SCOPED_TABLES)
def test_the_scoped_table_readers_take_only_ascii_number_cells(reader, what, header, rows, text):
    def read(cell):
        cells = rows[0].split(",")
        cells[3 if reader is read_feature_table else 2] = cell  # avg_aum, p_up
        return reader(io.StringIO(f"{header}\n{','.join(cells)}\n{rows[1]}\n"))

    if text == "1e-05":
        assert read(text) == read("0.000010")
    else:
        with pytest.raises(DataError, match=f"^{what} line 2: could not convert string to float: {re.escape(repr(text))}$"):
            read(text)


FIRST, LAST = Quarter(2008, 1), Quarter(2009, 4)

deal_records = st.builds(
    DealRecord,
    company_id=st.text("abc", min_size=1, max_size=4),
    company_name=st.just("Co"),
    sector=st.sampled_from(SECTOR_NAMES),
    # two years either side of the table's range, so some deals fall
    # outside; one crowded quarter gives means over many values
    investment_date=st.dates(date(2006, 1, 1), date(2011, 12, 31)) | st.just(date(2008, 5, 1)),
    investor_aum=st.none()
    | st.sampled_from(AumBucket)
    | st.sampled_from([0.0, 1.99, 2.0, 10.0, 10.01])
    | st.floats(0.0, 50.0),
    investor_rank=st.none() | st.floats(1.0, 4.0),
)


class TestGroupedAggregation:
    def test_buckets_keep_input_order_within_a_quarter(self):
        deals = [
            deal(cid="b", when=date(2008, 3, 1)),
            deal(cid="x", when=date(2008, 4, 1)),
            deal(cid="a", when=date(2008, 1, 2)),
        ]
        buckets = deals_by_quarter(deals)
        assert [d.company_id for d in buckets[Quarter(2008, 1)]] == ["b", "a"]
        assert [d.company_id for d in buckets[Quarter(2008, 2)]] == ["x"]
        assert deals_by_quarter([]) == {}

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(deal_records, max_size=40)
        | st.lists(deal_records.filter(lambda d: d.sector in SECTOR_NAMES[:2]), max_size=40)
    )
    def test_matches_per_quarter_scan_for_every_scope(self, deals):
        # one grouping serves Market and all 19 sectors, as in the CLI
        buckets = deals_by_quarter(deals)
        market_pe = pe_series(FIRST, 8)
        sector_pe = pe_series(FIRST, 8, base=22.0)
        for scope in [BROAD_SCOPE] + [Scope(name) for name in SECTOR_NAMES]:
            s_pe = None if scope.is_broad else sector_pe
            got = build_feature_table(buckets, scope, FIRST, LAST, market_pe, s_pe)
            want = oracle_feature_table(deals, scope, FIRST, LAST, market_pe, s_pe)
            assert repr(got) == repr(want)


def finite_or_na(name):
    if name == "deal_count":
        return st.integers(0, 10**9)
    if name == "sector_count_pct":
        return st.none() | st.floats(0.0, 100.0)
    return st.none() | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    scope=st.sampled_from([BROAD_SCOPE] + [Scope(name) for name in SECTOR_NAMES]),
    start=st.builds(Quarter, st.integers(1, 9990), st.integers(1, 4)),
    n=st.integers(1, 8),
    data=st.data(),
)
def test_written_table_reads_back_rounded_to_six_decimals(scope, start, n, data):
    names = feature_names(scope)
    rows = tuple(tuple(data.draw(finite_or_na(name)) for name in names) for _ in range(n))
    table = FeatureTable(scope, start, names, rows)
    out = io.StringIO()
    write_feature_table(table, out)
    rounded = tuple(tuple(v if v is None or isinstance(v, int) else round(v, 6) for v in row) for row in rows)
    # repr also tells an int deal_count from a float and -0.0 from 0.0
    assert repr(read_feature_table(io.StringIO(out.getvalue()))) == repr(table._replace(rows=rounded))
