"""Test oracles for the logit likelihood, the planted law and the
series-based standardization.

The library's batched fit kernel never evaluates the likelihood or its
gradient at a given point on its own, so those evaluations live here,
for the tests: gradient must match finite differences of log_likelihood
(acceptance criterion 4), and the fit must lower the initial gradient
norm (criterion 5). Both take one window, features z (n, d) and 0/1
labels y (n,), and use the stable sigmoid and softplus below, which the
sequential fit oracles in tests/test_fit_kernel.py share.

planted_samples draws standard-normal features and labels from a
planted logit law, for weight recovery (acceptance criterion 7).

series_zscore_table is the z table as built before standardization
worked on the columns of a FeatureTable: one (start, values) series
per feature (feature_series), each standardized on its own
(series_zscore, with the library's window statistic
standardize._window_z) and zipped back into rows. build_zscore_table
must equal it.

unscaled_window_z restates standardize._window_z without the
power-of-two scaling, squaring each deviation by multiplication as
the library does; the two must agree wherever the restatement neither
overflows nor underflows.

numpy_generate_deals is synthetic.generate_deals as it was while it
indexed the AUM and rank paths as numpy scalars and clipped ranks with
np.clip; the library, which now works on Python floats, must equal it.

stored_scores is the arithmetic evaluation.report ran while a
ScoreReport stored its scores beside the confusion counts and curve
they come from, and a RocCurve its area beside its points; the scores
the report now derives must equal it, flag order included.

threshold_confusion is evaluation.confusion as it was while evaluate
classified each (p_up, actual) pair again at its own threshold; the
counts of the predicted labels backtest writes must equal it at the
backtest's threshold.

listed_parse_deals and listed_write_deals are ingest.parse_deals and
ingest.write_deals as they were while each listed the deal file's
columns itself, one field of DealFileFormat at a time; the library's
readers and writers of its one column table must equal them, text,
records and row issues alike, for any column names and delimiter.

staged_generate_dataset is synthetic.generate_dataset as it was while
it walked the scopes three times: every P/E path (staged_generate_pe),
then every feature and z table (staged_generate_features), then the
labels. It returns the fields of that dataset by name, spec and
ztables included; each field the library's one-pass dataset keeps must
equal it.
"""

import csv
import math
from datetime import timedelta

import numpy as np

from pesignal.errors import DataError, InsufficientHistoryError
from pesignal.features import FeatureTable, build_feature_table, deals_by_quarter
from pesignal.ingest import (
    SECTOR_NAMES,
    AumBucket,
    DealRecord,
    ParsedDeals,
    RowIssue,
    _company_id,
    _csv_rows,
    _sector,
    format_aum,
    format_rank,
    parse_aum,
    parse_date,
    parse_rank,
)
from pesignal.logit import LogitParams, prob_up
from pesignal.response import Label
from pesignal.standardize import _window_z, build_zscore_table
from pesignal.synthetic import (
    _P_DEALS,
    _stream,
    _stream_index,
    aum_level_path,
    generate_deals,
    generate_labels,
    pe_path,
    planted_params,
    quarter_deal_counts,
    rank_level_path,
)


def _sigmoid(s):
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(s):
    return np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))


def _loglik(z, y, w, b) -> float:
    # overflow to inf/nan is the caller's to detect
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ w + b
        return float(np.sum(y * s) - np.sum(_softplus(s)))


def _grad(z, y, w, b):
    with np.errstate(over="ignore", invalid="ignore"):
        resid = y - _sigmoid(z @ w + b)
        return z.T @ resid, float(resid.sum())


def _window(z, y, params: LogitParams):
    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    if z.ndim != 2 or y.shape != z.shape[:1] or not len(y):
        raise ValueError(f"need n >= 1 feature rows and n labels, got z {z.shape} and y {y.shape}")
    if z.shape[1] != params.dim:
        raise ValueError(f"feature dimension {z.shape[1]} != model dimension {params.dim}")
    return z, y


def log_likelihood(z, y, params: LogitParams) -> float:
    """Exact log-likelihood of the 0/1 labels y of the rows of z under
    the model, always <= 0."""
    z, y = _window(z, y, params)
    return _loglik(z, y, np.array(params.weights), params.bias)


def gradient(z, y, params: LogitParams) -> tuple:
    """Analytic gradient of log_likelihood: (dW, db).

    dW_i = sum over rows of (y - P(UP|z)) z_i, and db is the same sum
    without the feature factor.
    """
    z, y = _window(z, y, params)
    dw, db = _grad(z, y, np.array(params.weights), params.bias)
    return tuple(dw.tolist()), db


def planted_samples(params: LogitParams, n: int, seed: int) -> tuple:
    """n standard-normal feature draws z (n, d) and their 0/1 labels y
    (n,), 1 for UP, drawn from the planted law."""
    # the key pesignal.synthetic's streams would give purpose 6, so the
    # draws are those the tests were written against
    rng = np.random.Generator(np.random.Philox(key=[seed, 6 << 32]))
    z = rng.normal(size=(n, params.dim))
    u = rng.random(n)
    y = np.array([coin < prob_up(row, params) for row, coin in zip(z, u)], dtype=float)
    return z, y


def feature_series(table: FeatureTable) -> dict:
    """Per-feature (start, values) series of a feature table: values[k]
    belongs to start + k, as a float, or None where the cell is missing."""
    if not table.rows:
        raise DataError("empty feature table")
    return {
        name: (table.start, tuple(None if v is None else float(v) for v in column))
        for name, column in zip(table.names, zip(*table.rows))
    }


def series_zscore(x: tuple, window: int) -> tuple:
    """((start, z values) covering the (start, values) series x from its
    window-th quarter on, the quarters where sigma was 0 and z was set
    to 0)."""
    start, series = x
    if window < 2:
        raise ValueError(f"window must be at least 2 quarters, got {window}")
    if len(series) < window:
        raise InsufficientHistoryError(
            f"standardization needs {window} quarters, series has {len(series)}"
        )
    out = []
    flagged = []
    for k in range(window - 1, len(series)):
        values = series[k - window + 1 : k + 1]
        if any(v is None for v in values):
            out.append(None)
            continue
        z = _window_z(values)
        if z is None:
            out.append(0.0)
            flagged.append(start + k)
        else:
            out.append(z)
    return (start + (window - 1), tuple(out)), tuple(flagged)


def series_zscore_table(table: FeatureTable, window: int) -> FeatureTable:
    series = feature_series(table)
    standardized = {name: series_zscore(series[name], window) for name in table.names}
    zero_variance = tuple(
        (quarter, name) for name in table.names for quarter in standardized[name][1]
    )
    start = table.start + (window - 1)
    rows = zip(*(standardized[name][0][1] for name in table.names))
    z = tuple((None,) * len(table.names) if None in row else row for row in rows)
    return FeatureTable(table.scope, start, tuple(f"z_{n}" for n in table.names), z, zero_variance)


def unscaled_window_z(window):
    """z of the window's last value from the unscaled values, None when
    the window's variance is 0."""
    mu = math.fsum(window) / len(window)
    sigma = math.sqrt(math.fsum((v - mu) * (v - mu) for v in window) / (len(window) - 1))
    return (window[-1] - mu) / sigma if sigma else None


def stored_scores(tp: int, fp: int, tn: int, fn: int, curve) -> dict:
    """n, auc, precision, recall, f1 and flags of the counts and the
    curve (a RocCurve or None) as report computed and stored them."""
    flags = []
    if curve is None:
        flags.append("single_class_auc" if tp + fp + tn + fn else "no_scored_records")
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = 0.0
        flags.append("degenerate_f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    if curve is None:
        auc = None
    else:
        points = curve.points
        auc = math.fsum((x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(points, points[1:]))
    return {"n": tp + fp + tn + fn, "auc": auc, "precision": precision, "recall": recall, "f1": f1, "flags": tuple(flags)}


def threshold_confusion(pairs, threshold: float) -> tuple:
    """(tp, fp, tn, fn) classifying UP at p_up >= threshold."""
    tp = fp = tn = fn = 0
    for p, actual in pairs:
        predicted_up = p >= threshold
        if predicted_up and actual is Label.UP:
            tp += 1
        elif predicted_up:
            fp += 1
        elif actual is Label.DOWN:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def numpy_generate_deals(spec) -> list:
    deals = []
    for s, sector in enumerate(SECTOR_NAMES[: spec.n_sectors]):
        counts = quarter_deal_counts(spec, s)
        aum_level = aum_level_path(spec, s)
        rank_level = rank_level_path(spec, s)
        rng = _stream(spec.seed, _P_DEALS, s)
        for k in range(spec.n_quarters):
            quarter_start = (spec.start + k).end_date() - timedelta(days=89)
            for j in range(counts[k]):
                name = f"Synthetic Co {s}-{k}-{j}"
                if j % 3 == 0:
                    name += ", Inc."
                aum = float(aum_level[k])
                rank = float(np.clip(rank_level[k], 1.0, 4.0))
                if spec.noise_scale > 0:
                    u_bucket, u_missing, g_aum, u_rank, g_rank = (
                        rng.random(),
                        rng.random(),
                        rng.normal(),
                        rng.random(),
                        rng.normal(),
                    )
                    value = float(aum_level[k]) * math.exp(0.3 * spec.noise_scale * g_aum)
                    if j > 0 and u_missing < 0.05:
                        aum = None
                    elif u_bucket < 0.25:
                        aum = AumBucket.of(value)
                    else:
                        aum = value
                    if j > 0 and u_rank < 0.2:
                        rank = None
                    else:
                        rank = float(np.clip(rank_level[k] + 0.4 * g_rank, 1.0, 4.0))
                deals.append(
                    DealRecord(
                        company_id=f"SYN-{s:02d}-{k:03d}-{j:03d}",
                        company_name=name,
                        sector=sector,
                        investment_date=quarter_start + timedelta(days=(j * 7) % 85),
                        investor_aum=aum,
                        investor_rank=rank,
                        investor=f"Fund {(j + s) % 9:02d}",
                    )
                )
    return deals


def listed_parse_deals(stream, fmt) -> ParsedDeals:
    fields = (
        ("company_id", fmt.company_id, _company_id),
        ("company_name", fmt.company_name, str.strip),
        ("sector", fmt.sector, _sector),
        ("investment_date", fmt.date, parse_date),
        ("investor_aum", fmt.aum, parse_aum),
        ("investor_rank", fmt.rank, parse_rank),
        ("investor", fmt.investor, str.strip),
    )
    result = ParsedDeals([], [])
    columns = [column for _, column, _ in fields]
    for line, row, short in _csv_rows(stream, fmt.delimiter, columns, "deal file", optional=[fmt.investor]):
        if short is not None:
            result.issues.append(RowIssue(line, short, f"row has no {short} cell"))
            continue
        values = {}
        for field, column, parser in fields:
            try:
                values[field] = parser(row.get(column, ""))
            except DataError as exc:
                result.issues.append(RowIssue(line, column, str(exc)))
                break
        else:
            result.records.append(DealRecord(**values))
    return result


def listed_write_deals(records, stream, fmt):
    writer = csv.writer(stream, delimiter=fmt.delimiter, lineterminator="\n")
    writer.writerow([fmt.company_id, fmt.company_name, fmt.sector, fmt.date, fmt.investor, fmt.aum, fmt.rank])
    for rec in records:
        writer.writerow(
            [
                rec.company_id,
                rec.company_name,
                rec.sector,
                rec.investment_date.isoformat(),
                rec.investor,
                format_aum(rec.investor_aum),
                format_rank(rec.investor_rank),
            ]
        )


def staged_generate_pe(spec) -> dict:
    series = {}
    for scope in spec.scopes():
        index = _stream_index(scope)
        path = pe_path(spec, index, 7 if scope.is_broad else index)
        series[scope.name] = {spec.start + k: float(v) for k, v in enumerate(path)}
    return series


def staged_generate_features(spec, deals, pe) -> tuple:
    buckets = deals_by_quarter(deals)
    features = {}
    ztables = {}
    for scope in spec.scopes():
        features[scope.name] = build_feature_table(buckets, scope, spec.start, spec.last, pe)
        ztables[scope.name] = build_zscore_table(features[scope.name], spec.std_window)
    return features, ztables


def staged_generate_dataset(spec) -> dict:
    deals = generate_deals(spec)
    pe = staged_generate_pe(spec)
    features, ztables = staged_generate_features(spec, deals, pe)
    prices = {}
    labels = {}
    for scope in spec.scopes():
        labels[scope.name], prices[scope.name] = generate_labels(
            ztables[scope.name], planted_params(spec, scope), spec, scope, prices
        )
    return {
        "spec": spec, "deals": deals, "prices": prices, "pe": pe,
        "features": features, "ztables": ztables, "labels": labels,
    }
