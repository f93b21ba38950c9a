"""Scoring of prediction tables: ROC/AUC, F1, confusion counts.

The confusion counts tally the labels the backtest predicted. The ROC
sweeps the classification threshold down the distinct scores,
classifying UP at or above it. The trapezoid area under that curve
equals the rank statistic (probability a random UP outscores a random
DOWN, ties at half), which the tests exploit as an independent oracle.
"""

from __future__ import annotations

import math
from collections import Counter

from ._record import NamedTuple, checked
from .backtest import PREDICTION_COLUMNS, prediction_row
from .errors import DataError
from .features import table_cell, write_table
from .response import Label


def scored_pairs(records) -> list:
    """(p_up, actual) for the records whose actual label exists."""
    return [(rec.p_up, rec.actual) for rec in records if rec.actual is not None]


def _trapezoid(points) -> float:
    return math.fsum(
        (x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:])
    )


@checked
class RocCurve(NamedTuple):
    """Threshold-sweep curve from (0,0) to (1,1), fpr non-decreasing."""

    points: tuple

    def _check(self):
        if not self.points or self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise ValueError("ROC must run from (0,0) to (1,1)")
        for (x0, _), (x1, _) in zip(self.points, self.points[1:]):
            if x1 < x0:
                raise ValueError("fpr must be non-decreasing along the curve")

    @property
    def auc(self) -> float:
        """The trapezoid area under the points."""
        return _trapezoid(self.points)


def roc(pairs) -> RocCurve:
    """ROC over (p_up, actual) pairs; both classes must appear.

    One sort, then one walk down the ranked scores that emits a point
    after each distinct score (Fawcett 2006, Algorithm 1), so the curve
    runs from (0,0), nothing UP, to (1,1), everything UP.
    """
    n_pos = sum(1 for _, y in pairs if y is Label.UP)
    n_neg = sum(1 for _, y in pairs if y is Label.DOWN)
    if not n_pos or not n_neg:
        raise DataError("AUC undefined: need at least one UP and one DOWN outcome")
    ranked = sorted(pairs, key=lambda pair: pair[0], reverse=True)
    points = [(0.0, 0.0)]
    tp = fp = 0
    for k, (p, y) in enumerate(ranked):
        tp += y is Label.UP
        fp += y is Label.DOWN
        if k + 1 == len(ranked) or ranked[k + 1][0] != p:
            points.append((fp / n_neg, tp / n_pos))
    return RocCurve(tuple(points))


def confusion(records) -> tuple:
    """(tp, fp, tn, fn) of the scored records' (predicted, actual) pairs."""
    counts = Counter((rec.predicted, rec.actual) for rec in records if rec.actual is not None)
    up, down = Label.UP, Label.DOWN
    return counts[up, up], counts[up, down], counts[down, down], counts[down, up]


class ScoreReport(NamedTuple):
    """Scored-record summary for one scope (or the pooled 'ALL'): its
    confusion counts and, when both outcome classes appear, its ROC
    curve, from which every score follows.

    auc is None without a curve; degenerate F1 and missing AUC are named
    in flags so sweeps over many sectors stay total.
    """

    scope_name: str
    unscored: int
    tp: int
    fp: int
    tn: int
    fn: int
    curve: RocCurve | None = None

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def auc(self) -> float | None:
        return None if self.curve is None else self.curve.auc

    @property
    def precision(self) -> float | None:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else None

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else None

    @property
    def f1(self) -> float:
        """0 when degenerate, which is exactly when tp is 0: one true
        positive makes precision and recall both positive."""
        if not self.tp:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)

    @property
    def flags(self) -> tuple:
        flags = ()
        if self.curve is None:
            flags += ("single_class_auc" if self.n else "no_scored_records",)
        if not self.tp:
            flags += ("degenerate_f1",)
        return flags


def report(records, scope_name: str | None = None) -> ScoreReport:
    """Score a record list: its confusion counts and ROC curve; total on degenerate input."""
    if scope_name is None:
        if not records:
            raise DataError("cannot infer a scope name from no records")
        scope_name = records[0].scope.name
    pairs = scored_pairs(records)
    try:
        curve = roc(pairs)
    except DataError:
        curve = None
    return ScoreReport(scope_name, len(records) - len(pairs), *confusion(records), curve)


def _json_number(value) -> str:
    return "null" if value is None else table_cell(value)


def score_report_json(rep: ScoreReport) -> str:
    """One JSON object per report, floats at fixed 6 decimals."""
    flags = ", ".join(f'"{flag}"' for flag in rep.flags)
    return (
        "{"
        f'"scope": "{rep.scope_name}", "n": {rep.n}, "unscored": {rep.unscored}, '
        f'"auc": {_json_number(rep.auc)}, "f1": {_json_number(rep.f1)}, '
        f'"precision": {_json_number(rep.precision)}, "recall": {_json_number(rep.recall)}, '
        f'"tp": {rep.tp}, "fp": {rep.fp}, "tn": {rep.tn}, "fn": {rep.fn}, '
        f'"flags": [{flags}]'
        "}"
    )


def write_score_reports(reports, stream):
    for rep in reports:
        stream.write(score_report_json(rep) + "\n")


def write_roc_points(curve: RocCurve, stream):
    write_table([("fpr", "tpr"), *curve.points], stream)


def write_scatter(records, stream):
    """Per-quarter dots for plotting: the prediction table without p_up."""
    write_table([cells[:2] + cells[3:] for cells in [PREDICTION_COLUMNS, *map(prediction_row, records)]], stream)
