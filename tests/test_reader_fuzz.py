"""Every file reader ends in a value or a DataError, whatever text it is given.

The CLI turns a DataError into one named stderr line and exit code 2;
any other exception would end a command in a traceback. Each input goes
through the stream the CLI reads files with and through a plain StringIO,
which keeps a lone carriage return inside a line.
"""

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pesignal.backtest import PREDICTION_COLUMNS, read_predictions
from pesignal.errors import DataError
from pesignal.features import BROAD_FEATURES, read_feature_table
from pesignal.ingest import parse_deals, parse_prices

READERS = [
    pytest.param(
        parse_deals,
        "company_id,company_name,sector,first_investment_date,investor_aum,investor_performance,investor\n",
        id="parse_deals",
    ),
    pytest.param(parse_prices, "index_name,date,value\n", id="parse_prices"),
    pytest.param(read_feature_table, ",".join(("scope", "quarter_end", *BROAD_FEATURES)) + "\n", id="read_feature_table"),
    pytest.param(read_predictions, ",".join(PREDICTION_COLUMNS) + "\n", id="read_predictions"),
]

# the characters CSV parsing turns on, and enough of the cells' own to make dates, numbers and names
CSV_CHARS = ',;"\n\r \t\ufeff0123456789-.:eEQMarketFinUPDOWNnaif'


def _streams(text: str):
    # the first is how the CLI opens every input file
    yield io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8-sig", newline="")
    yield io.StringIO(text)


@pytest.mark.parametrize("reader, header", READERS)
@settings(max_examples=300, deadline=None)
@given(body=st.text(alphabet=CSV_CHARS, max_size=60), with_header=st.booleans())
@example(body="\r,", with_header=True)
@example(body="Market,2000-03-31," + "9" * 200_000 + "\n", with_header=True)
@example(body="x" * 200_000, with_header=False)
def test_a_reader_returns_or_raises_a_data_error(reader, header, body, with_header):
    for stream in _streams(header + body if with_header else body):
        try:
            reader(stream)
        except DataError:
            pass
