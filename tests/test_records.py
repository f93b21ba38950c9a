"""Records that check their fields check them on every construction
path: a call, _make and _replace. A record holds each fact once, and
what follows from its fields is derived as the stored copies were."""

import importlib
import inspect
import math
import pkgutil
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pesignal
from pesignal.backtest import BacktestConfig, PredictionRecord
from pesignal.evaluation import RocCurve, ScoreReport, roc
from pesignal.features import BROAD_FEATURES, BROAD_SCOPE, FeatureTable, Scope
from pesignal.ingest import BROAD_INDEX_NAME, SECTOR_NAMES, DealFileFormat, DealRecord, PriceFileFormat
from pesignal.logit import LogitParams
from pesignal.quarters import Quarter
from pesignal.response import Label
from pesignal.synthetic import SyntheticSpec

from oracles import stored_scores

Q = Quarter(2004, 3)

# a valid record of each checking class, and a field change it rejects
CASES = [
    (Q, {"index": 5}),
    (LogitParams((1.0, -2.0), 0.5), {"bias": math.inf}),
    (BacktestConfig(), {"learning_rate": 0.0}),
    (BacktestConfig(), {"threshold": 1.5}),
    (BacktestConfig(), {"max_iter": -1}),
    (PredictionRecord(BROAD_SCOPE, Q, 0.5, Label.UP, None), {"p_up": 1.5}),
    (Scope("Finance"), {"name": "Tulips"}),
    (FeatureTable(BROAD_SCOPE, Q, BROAD_FEATURES, ((3, None, None, None, 15.0),)), {"rows": ((3, math.inf, None, None, 15.0),)}),
    (RocCurve(((0.0, 0.0), (1.0, 1.0))), {"points": ((0.0, 0.0), (0.5, 0.5))}),
    (DealRecord("C1", "Co", "Finance", date(2008, 2, 12)), {"investor_rank": 5.0}),
    (DealFileFormat(), {"aum": "sector"}),
    (PriceFileFormat(), {"value": "date"}),
    (SyntheticSpec(), {"n_sectors": 0}),
]


@pytest.mark.parametrize("record, change", CASES, ids=[f"{type(r).__name__}.{next(iter(c))}" for r, c in CASES])
def test_replace_and_make_check_as_construction_does(record, change):
    cls = type(record)
    fields = {**record._asdict(), **change}
    with pytest.raises(ValueError) as built:
        cls(**fields)
    with pytest.raises(ValueError) as replaced:
        record._replace(**change)
    with pytest.raises(ValueError) as made:
        cls._make(fields.values())
    assert str(replaced.value) == str(made.value) == str(built.value)
    assert record._replace() == record == cls._make(record)


def test_every_checking_record_is_covered():
    checking = set()
    for info in pkgutil.iter_modules(pesignal.__path__, "pesignal."):
        if info.name == "pesignal.__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and hasattr(cls, "_check"):
                checking.add(cls)
    assert checking == {type(record) for record, _ in CASES}


def test_replace_normalizes_as_construction_does():
    params = LogitParams((1.0,), 0.0)._replace(weights=[2], bias=1)
    assert params.weights == (2.0,) and type(params.weights[0]) is float and type(params.bias) is float


# curves over scores on a coarse grid, so thresholds tie; one UP and one DOWN pair make both classes appear
curves = st.lists(st.tuples(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)), st.sampled_from(Label)), max_size=8).map(
    lambda pairs: roc([*pairs, (0.5, Label.UP), (0.5, Label.DOWN)])
)


@given(counts=st.tuples(*[st.integers(0, 20)] * 4), curve=st.none() | curves)
def test_scores_derive_as_they_were_stored(counts, curve):
    derived = ScoreReport("Market", 0, *counts, curve)
    want = stored_scores(*counts, curve)
    assert {name: getattr(derived, name) for name in want} == want


def test_a_scope_is_its_name():
    assert Scope() == BROAD_SCOPE == Scope(BROAD_INDEX_NAME)
    for name in (BROAD_INDEX_NAME, *SECTOR_NAMES):
        assert Scope(name).name == name
        assert Scope(name).is_broad == (name == BROAD_INDEX_NAME)
