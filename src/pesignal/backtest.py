"""Walk-forward orchestration: standardize, estimate, predict one ahead.

Quarters are identified by their end dates. The prediction for quarter
q is issued with information available at the end of q: the trailing
z-scores through q and the estimation labels y(t), t <= q-1, whose
forward returns settle by the end of q. Each window re-estimates from
zero; windows share no state.
"""

from __future__ import annotations

import math

from ._record import NamedTuple, checked
from .errors import InsufficientHistoryError, NumericalError
from .features import FeatureTable, Scope, read_table, table_cell, write_table
from .ingest import parse_float
from .logit import FitReport, LogitParams, classify, fit_windows, prob_up
from .logit import fit  # noqa: F401  (bench/test_bench.py checks the tracer wraps it here)
from .quarters import Quarter
from .response import Label
from .standardize import build_zscore_table


@checked
class BacktestConfig(NamedTuple):
    """The fit's settings, then the walk's; logit.fit takes it as is. Build by keyword."""

    learning_rate: float = 1e-3
    tolerance: float = 1e-6
    max_iter: int = 100_000
    std_window: int = 12
    est_window: int = 7
    threshold: float = 0.5

    def _check(self):
        if self.std_window < 2:
            raise ValueError("std_window must be at least 2 quarters")
        if self.est_window < 2:
            raise ValueError("est_window must be at least 2 quarters")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and >= 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@checked
class PredictionRecord(NamedTuple):
    """One out-of-sample prediction.

    actual is None when the trailing price needed to score the quarter
    does not exist. fit is None on records read back from disk.
    """

    scope: Scope
    quarter: Quarter
    p_up: float
    predicted: Label
    actual: Label | None
    fit: FitReport | None = None

    def _check(self):
        if not (math.isfinite(self.p_up) and 0.0 <= self.p_up <= 1.0):
            raise ValueError(f"p_up must lie in [0, 1], got {self.p_up!r}")

    @property
    def correct(self) -> bool | None:
        return None if self.actual is None else self.predicted is self.actual


class SkippedWindow(NamedTuple):
    quarter: Quarter
    reason: str


class BacktestResult(NamedTuple):
    """One scope's walk: windows holds every planned window in schedule
    order, a PredictionRecord if it was fitted, a SkippedWindow if not."""

    scope: Scope
    windows: tuple

    @property
    def records(self) -> tuple:
        return tuple(w for w in self.windows if isinstance(w, PredictionRecord))

    @property
    def skipped(self) -> tuple:
        return tuple(w for w in self.windows if isinstance(w, SkippedWindow))


def run(features: FeatureTable, labels, config: BacktestConfig = BacktestConfig()) -> BacktestResult:
    """Walk one-ahead windows over a single-scope feature table: run_scopes on one.

    labels maps quarters to the scope's Labels; estimation windows
    missing a z row or a label are skipped with a diagnostic, never
    imputed. The predicted quarter's own label may be absent, which
    leaves that record unscored.
    """
    (result,) = run_scopes([(features, labels)], config)
    return result


def run_scopes(scoped, config: BacktestConfig) -> list:
    """run on each (features, labels) pair: plan every scope, fit all
    windows in one fit_windows batch, zero-padded to the widest scope's
    features ahead of the bias, which changes no bit (see logit), and
    make each fitted window's outcome its _window, weights trimmed back."""
    import numpy as np

    plans = [_plan(features, labels, config) for features, labels in scoped]
    if not plans:
        return []
    width = max(p.z.shape[1] for p in plans)
    rows = [np.flatnonzero([isinstance(w, int) for w in p.windows])[:, None] + np.arange(config.est_window) for p in plans]
    z = np.concatenate([np.pad(p.z, ((0, 0), (0, width - p.z.shape[1])))[r] for p, r in zip(plans, rows)])
    y = np.concatenate([np.array([lab is Label.UP for lab in p.actual], dtype=float)[r] for p, r in zip(plans, rows)])
    fits = iter(fit_windows(z, y, config))
    walks = [[_window(p, w, next(fits), config) if isinstance(w, int) else w for w in p.windows] for p in plans]
    return [BacktestResult(p.table.scope, tuple(walk)) for p, walk in zip(plans, walks)]


class _Plan(NamedTuple):
    table: FeatureTable  # the z table
    z: object  # its rows as an array, NaN in a dropped row
    actual: list  # each row's Label or None
    windows: list  # each window's SkippedWindow, or the row it predicts when it is fitted


def _plan(features: FeatureTable, labels, config: BacktestConfig) -> _Plan:
    # The first std_window - 1 quarters only feed standardization, so
    # z-table row k is quarter table.start + k. Window j fits rows
    # j .. j+ne-1 and predicts row k = j+ne, which makes
    # quarter_count - std_window - est_window + 1 windows.
    import numpy as np

    table = build_zscore_table(features, config.std_window)
    z = np.array(table.rows, dtype=float)  # a dropped row's None reads as NaN
    ne = config.est_window
    if len(table.rows) <= ne:
        raise InsufficientHistoryError(
            f"walk-forward needs at least {config.std_window + ne} quarters"
            f" ({config.std_window} to standardize, {ne} to estimate,"
            f" predicting the one after), got {len(features.rows)}"
        )
    actual = [labels.get(table.start + k) for k in range(len(table.rows))]
    has_z = ~np.isnan(z).any(axis=1)
    usable = has_z & np.array([y is not None for y in actual])
    windows = []
    for k in range(ne, len(table.rows)):
        quarter = table.start + k
        gap = k - ne + int(np.argmin(usable[k - ne : k]))
        if has_z[k] and usable[gap]:
            windows.append(k)
        elif not has_z[k]:
            windows.append(SkippedWindow(quarter, f"no z-score row at predicted quarter {quarter}"))
        else:
            missing = "label" if has_z[gap] else "z-score row"
            windows.append(SkippedWindow(quarter, f"no {missing} at {table.start + gap} inside the estimation window"))
    return _Plan(table, z, actual, windows)


def _window(plan: _Plan, k: int, outcome, config: BacktestConfig):
    """The PredictionRecord of the window predicting row k, or its SkippedWindow if the fit failed."""
    if isinstance(outcome, NumericalError):
        return SkippedWindow(plan.table.start + k, f"estimation failed: {outcome}")
    params = LogitParams(outcome.params.weights[: plan.z.shape[1]], outcome.params.bias)
    p = prob_up(plan.z[k], params)
    return PredictionRecord(
        scope=plan.table.scope,
        quarter=plan.table.start + k,
        p_up=p,
        # classify the cell the table holds, which evaluate reads back
        predicted=classify(float(table_cell(p)), config.threshold),
        actual=plan.actual[k],
        fit=outcome._replace(params=params),
    )


PREDICTION_COLUMNS = ("scope", "quarter_end", "p_up", "predicted", "actual", "correct")


def prediction_row(rec: PredictionRecord) -> list:
    """A record's cells in PREDICTION_COLUMNS order: p_up a float, NA for unscored actual/correct."""
    actual = "NA" if rec.actual is None else rec.actual.value
    correct = "NA" if rec.correct is None else ("1" if rec.correct else "0")
    quarter_end = rec.quarter.end_date().isoformat()
    return [rec.scope.name, quarter_end, rec.p_up, rec.predicted.value, actual, correct]


def write_predictions(records, stream):
    """Prediction table: a PREDICTION_COLUMNS header, then one prediction_row per record."""
    write_table([PREDICTION_COLUMNS, *map(prediction_row, records)], stream)


def read_predictions(stream) -> list:
    """Parse one scope's prediction table back; fit comes back as None.

    A row that repeats a quarter, or has a correct cell its predicted
    and actual cells contradict, is a DataError naming its line.
    """
    seen = set()

    def record(names, scope, quarter, cells):
        p_up, predicted, actual, correct = cells
        rec = PredictionRecord(scope, quarter, parse_float(p_up), Label(predicted), None if actual == "NA" else Label(actual))
        if quarter in seen:
            raise ValueError(f"quarter {quarter} appears twice")
        if correct != prediction_row(rec)[-1]:
            raise ValueError(f"correct is {correct!r}, which predicted {predicted} and actual {actual} contradict")
        seen.add(quarter)
        return rec

    return read_table(stream, "prediction table", record, fits=lambda names: names == PREDICTION_COLUMNS[2:])[2]
