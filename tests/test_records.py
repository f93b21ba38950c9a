"""Records that check their fields check them on every construction
path: a call, _make and _replace."""

import importlib
import inspect
import math
import pkgutil
from datetime import date

import pytest

import pesignal
from pesignal.backtest import BacktestConfig, PredictionRecord
from pesignal.evaluation import RocCurve, ScoreReport
from pesignal.features import BROAD_FEATURES, BROAD_SCOPE, FeatureTable, Scope
from pesignal.ingest import DealRecord
from pesignal.logit import LogitParams
from pesignal.quarters import Quarter, QuarterlySeries
from pesignal.response import Label
from pesignal.synthetic import SyntheticSpec

Q = Quarter(2004, 3)

# a valid record of each checking class, and a field change it rejects
CASES = [
    (Q, {"index": 5}),
    (QuarterlySeries(Q, (1.0, None)), {"values": (1.0, math.nan)}),
    (LogitParams((1.0, -2.0), 0.5), {"bias": math.inf}),
    (BacktestConfig(), {"learning_rate": 0.0}),
    (BacktestConfig(), {"threshold": 1.5}),
    (BacktestConfig(), {"max_iter": -1}),
    (PredictionRecord(BROAD_SCOPE, Q, 0.5, Label.UP, None), {"p_up": 1.5}),
    (Scope("Finance"), {"sector": "Tulips"}),
    (FeatureTable(BROAD_SCOPE, Q, BROAD_FEATURES, ((3, None, None, None, 15.0),)), {"rows": ((3, math.inf, None, None, 15.0),)}),
    (RocCurve(((0.0, 0.0), (1.0, 1.0)), 0.5), {"auc": 0.75}),
    (ScoreReport("Market", 1, 0, None, 0.0, None, None, 1, 0, 0, 0), {"tp": 2}),
    (DealRecord("C1", "Co", "Finance", date(2008, 2, 12)), {"investor_rank": 5.0}),
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
    series = QuarterlySeries(Q, (1.0,))._replace(values=[2.0, None])
    assert series.values == (2.0, None) and len(series.values) == 2
