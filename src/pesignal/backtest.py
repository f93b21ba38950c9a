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
from .errors import DataError, InsufficientHistoryError, NumericalError
from .features import FeatureTable, Scope
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
    predicted: Quarter
    reason: str


class BacktestResult(NamedTuple):
    scope: Scope
    records: tuple
    skipped: tuple


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
    assemble each scope with its weights trimmed back to its features."""
    import numpy as np

    plans = [_plan(features, labels, config) for features, labels in scoped]
    if not plans:
        return []
    width = max(p.z.shape[1] for p in plans)
    z = np.concatenate([np.pad(p.z, ((0, 0), (0, width - p.z.shape[1])))[p.rows] for p in plans])
    y = np.concatenate([np.array([lab is Label.UP for lab in p.actual], dtype=float)[p.rows] for p in plans])
    outcomes = iter(fit_windows(z, y, config))
    return [_assemble(p, outcomes, config) for p in plans]


class _Plan(NamedTuple):
    table: FeatureTable  # the z table
    z: object  # its rows as an array, NaN in a dropped row
    actual: list  # each row's Label or None
    steps: list  # each window's skip reason, None when it is fitted
    rows: object  # each fitted window's rows


def _plan(features: FeatureTable, labels, config: BacktestConfig) -> _Plan:
    # The first std_window - 1 quarters only feed standardization, so
    # z-table row k is quarter table.start + k. Window k fits rows
    # k .. k+ne-1 and predicts row k+ne, which makes
    # quarter_count - std_window - est_window + 1 windows.
    import numpy as np

    table = build_zscore_table(features, config.std_window)
    z = np.array(table.rows, dtype=float)  # a dropped row's None reads as NaN
    ne = config.est_window
    windows = len(table.rows) - ne
    if windows <= 0:
        raise InsufficientHistoryError(
            f"walk-forward needs at least {config.std_window + ne} quarters"
            f" ({config.std_window} to standardize, {ne} to estimate,"
            f" predicting the one after), got {len(features.rows)}"
        )
    actual = [labels.get(table.start + k) for k in range(len(table.rows))]
    has_z = ~np.isnan(z).any(axis=1)
    usable = has_z & np.array([y is not None for y in actual])
    steps = []
    for k in range(windows):
        gap = k + int(np.argmin(usable[k : k + ne]))
        if not has_z[k + ne]:
            steps.append(f"no z-score row at predicted quarter {table.start + k + ne}")
        elif not usable[gap]:
            missing = "label" if has_z[gap] else "z-score row"
            steps.append(f"no {missing} at {table.start + gap} inside the estimation window")
        else:
            steps.append(None)
    rows = np.flatnonzero([step is None for step in steps])[:, None] + np.arange(ne)
    return _Plan(table, z, actual, steps, rows)


def _assemble(plan: _Plan, outcomes, config: BacktestConfig) -> BacktestResult:
    # records and skips in schedule order, taking each fitted window's outcome from the iterator
    ne = config.est_window
    records, skipped = [], []
    for k, step in enumerate(plan.steps):
        quarter = plan.table.start + k + ne
        outcome = next(outcomes) if step is None else step
        if isinstance(outcome, NumericalError):
            outcome = f"estimation failed: {outcome}"
        if isinstance(outcome, str):
            skipped.append(SkippedWindow(quarter, outcome))
            continue
        params = LogitParams(outcome.params.weights[: plan.z.shape[1]], outcome.params.bias)
        p = prob_up(plan.z[k + ne], params)
        records.append(
            PredictionRecord(
                scope=plan.table.scope,
                quarter=quarter,
                p_up=p,
                # classify the cell the table holds, which evaluate reads back
                predicted=classify(float(_p_up_cell(p)), config.threshold),
                actual=plan.actual[k + ne],
                fit=outcome._replace(params=params),
            )
        )
    return BacktestResult(plan.table.scope, tuple(records), tuple(skipped))


PREDICTION_COLUMNS = ("scope", "quarter_end", "p_up", "predicted", "actual", "correct")


def _p_up_cell(p: float) -> str:
    return f"{p:.6f}"


def prediction_row(rec: PredictionRecord) -> list:
    """A record's cells in PREDICTION_COLUMNS order: 6-decimal p_up, NA for unscored actual/correct."""
    actual = "NA" if rec.actual is None else rec.actual.value
    correct = "NA" if rec.correct is None else ("1" if rec.correct else "0")
    quarter_end = rec.quarter.end_date().isoformat()
    return [rec.scope.name, quarter_end, _p_up_cell(rec.p_up), rec.predicted.value, actual, correct]


def write_predictions(records, stream):
    """Prediction table: a PREDICTION_COLUMNS header, then one prediction_row per record."""
    for cells in [PREDICTION_COLUMNS, *map(prediction_row, records)]:
        stream.write(",".join(cells) + "\n")


def read_predictions(stream) -> list:
    """Parse one scope's prediction table back; fit comes back as None.

    A row that names another scope than the first row, repeats a
    quarter, or has a correct cell its predicted and actual cells
    contradict is a DataError naming its line.
    """
    header = stream.readline().rstrip("\n")
    if header != ",".join(PREDICTION_COLUMNS):
        raise DataError(f"unexpected prediction table header: {header!r}")
    records = []
    seen = set()
    for line_no, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise DataError(f"prediction table line {line_no}: expected 6 columns")
        scope_name, quarter_end, p_up, predicted, actual, correct = parts
        try:
            rec = PredictionRecord(
                scope=Scope.of_name(scope_name),
                quarter=Quarter.parse(quarter_end),
                p_up=float(p_up),
                predicted=Label(predicted),
                actual=None if actual == "NA" else Label(actual),
            )
            if records and rec.scope != records[0].scope:
                raise ValueError(f"scope {rec.scope.name}, but the table is {records[0].scope.name}'s")
            if rec.quarter in seen:
                raise ValueError(f"quarter {rec.quarter} appears twice")
            if correct != prediction_row(rec)[-1]:
                raise ValueError(f"correct is {correct!r}, which predicted {predicted} and actual {actual} contradict")
        except (ValueError, DataError) as exc:
            raise DataError(f"prediction table line {line_no}: {exc}") from None
        records.append(rec)
        seen.add(rec.quarter)
    return records
