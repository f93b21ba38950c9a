"""ROC/AUC against the pairwise rank oracle, F1, and score reports."""

import io
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pesignal.backtest import PredictionRecord
from pesignal.errors import DataError
from pesignal.evaluation import (
    RocCurve,
    _trapezoid,
    confusion,
    report,
    roc,
    score_report_json,
    scored_pairs,
    write_roc_points,
    write_scatter,
    write_score_reports,
)
from pesignal.features import BROAD_SCOPE
from pesignal.logit import classify
from pesignal.quarters import Quarter
from pesignal.response import Label

from oracles import threshold_confusion

UP, DOWN = Label.UP, Label.DOWN


def concordance_auc(pairs):
    """Brute force: P(random UP outscores random DOWN), ties at half."""
    pos = [p for p, y in pairs if y is UP]
    neg = [p for p, y in pairs if y is DOWN]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def sweep_roc(pairs):
    """The quadratic sweep roc() replaced: every threshold counts every score."""
    pos = [p for p, y in pairs if y is UP]
    neg = [p for p, y in pairs if y is DOWN]
    above_one = math.nextafter(1.0, 2.0)
    thresholds = sorted({0.0, above_one} | {p for p, _ in pairs}, reverse=True)
    points = []
    for theta in thresholds:
        tpr = sum(1 for p in pos if p >= theta) / len(pos)
        fpr = sum(1 for p in neg if p >= theta) / len(neg)
        if not points or points[-1] != (fpr, tpr):
            points.append((fpr, tpr))
    return tuple(points), _trapezoid(points)


def random_pairs(rng, n=20, tie_heavy=False):
    pairs = []
    for _ in range(n):
        p = rng.random()
        if tie_heavy:
            p = round(p, 1)
        pairs.append((p, UP if rng.random() < 0.5 else DOWN))
    if not any(y is UP for _, y in pairs):
        pairs[0] = (pairs[0][0], UP)
    if not any(y is DOWN for _, y in pairs):
        pairs[-1] = (pairs[-1][0], DOWN)
    return pairs


class TestRoc:
    def test_perfect_ranking(self):
        pairs = [(0.9, UP), (0.8, UP), (0.3, DOWN), (0.1, DOWN)]
        assert roc(pairs).auc == 1.0

    def test_uninformative_scores(self):
        pairs = [(0.5, UP), (0.5, DOWN), (0.5, UP), (0.5, DOWN)]
        curve = roc(pairs)
        assert curve.auc == 0.5
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_matches_rank_oracle(self):
        rng = random.Random(71)
        for k in range(50):
            pairs = random_pairs(rng, n=rng.randint(5, 30), tie_heavy=k % 2 == 0)
            assert roc(pairs).auc == pytest.approx(concordance_auc(pairs), abs=1e-9)

    def test_label_flip_complements(self):
        rng = random.Random(73)
        pairs = random_pairs(rng, 25)
        flipped = [(p, DOWN if y is UP else UP) for p, y in pairs]
        assert roc(flipped).auc == pytest.approx(1.0 - roc(pairs).auc, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = random.Random(79)
        pairs = random_pairs(rng, 25)
        squared = [(p * p, y) for p, y in pairs]
        assert roc(squared).auc == pytest.approx(roc(pairs).auc, abs=1e-12)

    def test_curve_shape(self):
        rng = random.Random(83)
        curve = roc(random_pairs(rng, 30))
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert all(b[0] >= a[0] for a, b in zip(curve.points, curve.points[1:]))
        assert 0.0 <= curve.auc <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 4000),
        seed=st.integers(0, 2**32 - 1),
        tie_share=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(n=4000, seed=0, tie_share=0.0)
    @example(n=4000, seed=1, tie_share=0.5)
    def test_sort_and_sweep_matches_quadratic_sweep(self, n, seed, tie_share):
        rng = random.Random(seed)
        # grid scores tie with each other; 0.0 and 1.0 meet the sentinels
        pairs = [
            (
                rng.choice((0.0, 0.25, 0.5, 1.0)) if rng.random() < tie_share else rng.random(),
                UP if rng.random() < 0.5 else DOWN,
            )
            for _ in range(n)
        ]
        pairs[0], pairs[-1] = (pairs[0][0], UP), (pairs[-1][0], DOWN)
        curve = roc(pairs)
        assert (curve.points, curve.auc) == sweep_roc(pairs)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="AUC undefined"):
            roc([(0.7, UP), (0.4, UP)])

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RocCurve(((0.0, 0.0), (0.5, 0.5)))
        with pytest.raises(ValueError, match="fpr must be non-decreasing"):
            RocCurve(((0.0, 0.0), (0.5, 0.5), (0.25, 1.0), (1.0, 1.0)))


class TestPooledRoc:
    """The pooled ALL report scores the concatenated pairs of its scopes."""

    def test_duplicated_sector_invariance(self):
        rng = random.Random(89)
        pairs = random_pairs(rng, 20)
        assert roc(pairs + pairs).auc == pytest.approx(roc(pairs).auc, abs=1e-12)

    def test_pooling_is_concatenation(self):
        perfect = [(0.9, UP), (0.1, DOWN)]
        inverted = [(0.1, UP), (0.9, DOWN)]
        pooled = roc(perfect + inverted)
        assert pooled.auc == pytest.approx(concordance_auc(perfect + inverted), abs=1e-9)
        assert 0.0 < pooled.auc < 1.0


def classified(pairs, threshold):
    """Records carrying these (p_up, actual) pairs, predicted as backtest classifies them."""
    return [
        PredictionRecord(BROAD_SCOPE, Quarter(2004, 3) + k, p, classify(p, threshold), actual)
        for k, (p, actual) in enumerate(pairs)
    ]


def f1(pairs, threshold):
    """The F1 that report gives for records carrying these (p_up, actual) pairs."""
    return report(classified(pairs, threshold), scope_name="Market").f1


class TestF1:
    def test_perfect(self):
        pairs = [(0.9, UP), (0.8, UP), (0.1, DOWN)]
        assert f1(pairs, 0.5) == 1.0

    def test_hand_worked_counts(self):
        pairs = (
            [(0.9, UP)] * 3          # tp
            + [(0.8, DOWN)]          # fp
            + [(0.1, UP)] * 2        # fn
        )
        assert confusion(classified(pairs, 0.5)) == (3, 1, 0, 2)
        assert f1(pairs, 0.5) == pytest.approx(2 / 3, abs=1e-12)

    def test_degenerate_zero(self):
        assert f1([(0.1, DOWN), (0.2, DOWN)], 0.5) == 0.0
        assert f1([(0.1, UP)], 0.5) == 0.0
        assert f1([], 0.5) == 0.0

    def test_one_iff_clean_confusion(self):
        rng = random.Random(97)
        for _ in range(200):
            pairs = random_pairs(rng, rng.randint(2, 12))
            tp, fp, _, fn = confusion(classified(pairs, 0.5))
            value = f1(pairs, 0.5)
            assert 0.0 <= value <= 1.0
            assert (value == 1.0) == (fp == 0 and fn == 0 and tp > 0)
            # the harmonic mean of precision and recall is 2tp / (2tp + fp + fn)
            assert value == pytest.approx(2 * tp / (2 * tp + fp + fn) if tp else 0.0, abs=1e-12)

    def test_threshold_boundary_counts_up(self):
        assert confusion(classified([(0.5, UP)], 0.5)) == (1, 0, 0, 0)


def record(quarter_offset, p, actual, predicted=None):
    if predicted is None:
        predicted = UP if p >= 0.5 else DOWN
    return PredictionRecord(
        BROAD_SCOPE, Quarter(2004, 3) + quarter_offset, p, predicted, actual
    )


class TestReport:
    def test_counts_and_auc(self):
        records = [
            record(0, 0.9, UP),
            record(1, 0.6, DOWN),
            record(2, 0.4, UP),
            record(3, 0.2, DOWN),
            record(4, 0.8, None),
        ]
        rep = report(records)
        assert rep.scope_name == "Market"
        assert rep.n == 4
        assert rep.unscored == 1
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (1, 1, 1, 1)
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.auc == pytest.approx(concordance_auc(scored_pairs(records)), abs=1e-9)
        assert rep.flags == ()

    def test_single_class_flagged(self):
        records = [record(0, 0.9, UP), record(1, 0.4, UP)]
        rep = report(records)
        assert rep.auc is None
        assert "single_class_auc" in rep.flags

    def test_degenerate_f1_flagged(self):
        records = [record(0, 0.1, DOWN), record(1, 0.2, DOWN)]
        rep = report(records)
        assert rep.f1 == 0.0
        assert "degenerate_f1" in rep.flags

    def test_json_line(self):
        records = [record(0, 0.9, UP), record(1, 0.2, DOWN)]
        line = score_report_json(report(records))
        parsed = json.loads(line)
        assert parsed["scope"] == "Market"
        assert parsed["auc"] == 1.0
        assert parsed["n"] == 2
        assert parsed["flags"] == []

    def test_json_null_auc(self):
        parsed = json.loads(score_report_json(report([record(0, 0.9, UP)])))
        assert parsed["auc"] is None

    def test_no_records_and_no_scope_name_is_a_data_error(self):
        with pytest.raises(DataError, match="cannot infer a scope name from no records"):
            report([])

    def test_explicit_scope_name(self):
        rep = report([record(0, 0.9, UP), record(1, 0.2, DOWN)], scope_name="ALL")
        assert rep.scope_name == "ALL"

    def test_counts_the_predicted_labels_not_p_up(self):
        # a table backtest wrote at threshold 0.3 holds UP below 0.5
        records = [
            record(0, 0.4, UP, predicted=UP),
            record(1, 0.35, DOWN, predicted=UP),
            record(2, 0.9, UP, predicted=DOWN),
        ]
        rep = report(records)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (1, 1, 0, 1)


scores = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.3, 0.5, 1.0]))


@settings(max_examples=200, deadline=None)
@given(drawn=st.lists(st.tuples(scores, st.sampled_from([UP, DOWN, None])), max_size=30), theta=scores)
@example(drawn=[(0.4999996, DOWN), (0.5, UP), (0.4999994, UP)], theta=0.5)
def test_report_counts_as_the_threshold_walk_at_the_backtest_threshold(drawn, theta):
    # backtest classifies the 6-decimal p_up its table holds
    records = classified([(float(f"{p:.6f}"), actual) for p, actual in drawn], theta)
    rep = report(records, scope_name="Market")
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == threshold_confusion(scored_pairs(records), theta)


class TestEmissions:
    def test_roc_points_file(self):
        out = io.StringIO()
        write_roc_points(roc([(0.9, UP), (0.1, DOWN)]), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0.000000,0.000000"
        assert lines[-1] == "1.000000,1.000000"

    def test_scatter_file(self):
        out = io.StringIO()
        write_scatter([record(0, 0.9, UP), record(1, 0.4, None)], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "scope,quarter_end,predicted,actual,correct"
        assert lines[1] == "Market,2004-09-30,UP,UP,1"
        assert lines[2] == "Market,2004-12-31,DOWN,NA,NA"

    def test_reports_file(self):
        out = io.StringIO()
        reports = [
            report([record(0, 0.9, UP), record(1, 0.2, DOWN)]),
            report([record(0, 0.9, UP), record(1, 0.2, DOWN)], scope_name="ALL"),
        ]
        write_score_reports(reports, out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["scope"] == "ALL"
