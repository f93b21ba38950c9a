"""Quarter arithmetic and gap-free quarterly series."""

import random
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pesignal.errors import DataError
from pesignal.quarters import Quarter, quarter_count, quarter_range

quarters = st.builds(Quarter, st.integers(1000, 9000), st.integers(1, 4))


class TestQuarter:
    def test_end_dates(self):
        assert Quarter(2002, 4).end_date() == date(2002, 12, 31)
        assert Quarter(2003, 1).end_date() == date(2003, 3, 31)
        assert Quarter(2004, 3).end_date() == date(2004, 9, 30)
        assert Quarter(2016, 4).end_date() == date(2016, 12, 31)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Quarter(2004, 0)
        with pytest.raises(ValueError):
            Quarter(2004, 5)

    def test_ordering(self):
        assert Quarter(2004, 3) < Quarter(2004, 4)
        assert Quarter(2004, 4) < Quarter(2005, 1)
        assert Quarter(2004, 3) == Quarter(2004, 3)
        assert Quarter(2004, 3) <= Quarter(2004, 3)

    @given(quarters, st.integers(-3000, 3000))
    def test_add_sub_roundtrip(self, q, n):
        assert (q + n) - n == q
        assert (q + n) - q == n

    def test_year_wrap(self):
        assert Quarter(2000, 4) + 1 == Quarter(2001, 1)
        assert Quarter(2001, 1) - 1 == Quarter(2000, 4)
        assert Quarter(2000, 1) + 18 == Quarter(2004, 3)

    def test_of_date(self):
        assert Quarter.of_date(date(2004, 9, 30)) == Quarter(2004, 3)
        assert Quarter.of_date(date(2004, 7, 1)) == Quarter(2004, 3)
        assert Quarter.of_date(date(2004, 1, 1)) == Quarter(2004, 1)

    def test_parse(self):
        assert Quarter.parse("2004Q3") == Quarter(2004, 3)
        assert Quarter.parse("2004q3") == Quarter(2004, 3)
        assert Quarter.parse("2004-09-30") == Quarter(2004, 3)
        with pytest.raises(DataError):
            Quarter.parse("2004Q5")
        with pytest.raises(DataError):
            Quarter.parse("nonsense")
        # forms date.fromisoformat takes from Python 3.11 on, and years
        # in other scripts' digits, which a regex \\d takes
        for text in ("20040930", "2004-W39-4", "\uff12\uff10\uff10\uff14Q3", "\u0662\u0660\u0660\u0664Q3"):
            with pytest.raises(DataError, match="cannot parse quarter"):
                Quarter.parse(text)

    def test_str(self):
        assert str(Quarter(2004, 3)) == "2004Q3"

    @given(quarters)
    def test_str_parses_back(self, q):
        assert Quarter.parse(str(q)) == q

    @given(quarters)
    def test_end_date_lies_in_its_quarter(self, q):
        assert Quarter.of_date(q.end_date()) == q
        assert Quarter.parse(q.end_date().isoformat()) == q


class TestQuarterCount:
    def test_study_period(self):
        # 2000Q1 .. 2016Q4 spans 68 quarters.
        assert quarter_count(Quarter(2000, 1), Quarter(2016, 4)) == 68

    def test_prediction_span(self):
        # 2004Q3 .. 2016Q4 spans 50 quarters.
        assert quarter_count(Quarter(2004, 3), Quarter(2016, 4)) == 50

    def test_single_quarter(self):
        assert quarter_count(Quarter(2004, 3), Quarter(2004, 3)) == 1

    def test_reversed_range_rejected(self):
        with pytest.raises(DataError):
            quarter_count(Quarter(2005, 1), Quarter(2004, 4))

    def test_matches_stepping(self):
        rng = random.Random(11)
        for _ in range(100):
            q = Quarter(rng.randrange(1995, 2020), rng.randrange(1, 5))
            n = rng.randrange(0, 60)
            assert quarter_count(q, q + n) == n + 1

    def test_range_endpoints(self):
        qs = quarter_range(Quarter(2000, 3), Quarter(2001, 2))
        assert qs == [
            Quarter(2000, 3),
            Quarter(2000, 4),
            Quarter(2001, 1),
            Quarter(2001, 2),
        ]

