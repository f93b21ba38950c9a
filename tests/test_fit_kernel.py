"""The batched fit kernel against sequential one-window fits.

oracle_fit is a sequential gradient-ascent loop in the kernel's own
order, with the bias as a trailing feature of ones: a score adds the
features, then the bias, and a gradient adds the rows, one slice at a
time in index order. It takes one window as features z (n, d) and 0/1
labels y (n,), starting at zero as the kernel does. Every window the
kernel fits must report exactly (==, not approx) what the oracle
reports for that window alone, and what the kernel reports for it alone
or inside any other batch.

blas_fit is the loop the kernel replaced, scores ``z @ w + b`` and
gradient ``z.T @ resid``, whose order is the BLAS build's. The CLI's
pinned outputs were made with it; at the default learning rate the
kernel stays within a stated rounding bound of it.

Given a list as trace, the fits also append the log-likelihood at every
step for the likelihood-ascent tests to read; the kernel keeps no trace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _sigmoid, _softplus
from pesignal.errors import NumericalError
from pesignal.backtest import BacktestConfig
from pesignal.logit import FitReport, LogitParams, fit, fit_windows


def _explicit_order(zb):
    def score(wb):
        s = zb[:, 0] * wb[0]
        for j in range(1, len(wb)):
            s = s + zb[:, j] * wb[j]
        return s

    def grad(resid):
        g = zb[0] * resid[0]
        for i in range(1, len(zb)):
            g = g + zb[i] * resid[i]
        return g

    return score, grad


def _blas_order(zb):
    z = zb[:, :-1]
    return lambda wb: z @ wb[:-1] + wb[-1], lambda resid: np.append(z.T @ resid, resid.sum())


def _ascent(order, z, y, config, trace) -> FitReport:
    zb = np.column_stack([z, np.ones(len(z))])
    score, grad = order(zb)
    wb = np.zeros(zb.shape[1])
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            s = score(wb)
            ll = float(np.sum(y * s) - np.sum(_softplus(s)))
            g = grad(y - _sigmoid(s))
            # a finite score gives a finite softplus, so the kernel, like
            # this loop, checks the scores in place of the likelihood
            if not (np.isfinite(s).all() and np.isfinite(g).all()):
                raise NumericalError(f"non-finite likelihood or gradient after {iterations} iterations")
            if trace is not None:
                trace.append(ll)
            grad_norm = float(np.abs(g).max())
            converged = grad_norm <= config.tolerance
            if converged or iterations >= config.max_iter:
                break
            wb = wb + config.learning_rate * g
            iterations += 1
    return FitReport(
        params=LogitParams(tuple(float(v) for v in wb[:-1]), float(wb[-1])),
        iterations=iterations,
        final_gradient_norm=grad_norm,
        final_log_likelihood=ll,
        converged=converged,
    )


def oracle_fit(z, y, config: BacktestConfig = BacktestConfig(), trace: list | None = None) -> FitReport:
    return _ascent(_explicit_order, z, y, config, trace)


def blas_fit(z, y, config: BacktestConfig = BacktestConfig()) -> FitReport:
    return _ascent(_blas_order, z, y, config, None)


def oracle_outcome(z, y, config):
    try:
        return oracle_fit(z, y, config)
    except NumericalError as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, NumericalError):
        assert isinstance(got, NumericalError), got
        assert str(got) == str(want)
    else:
        assert isinstance(got, FitReport), got
        assert got.params == want.params
        assert got.iterations == want.iterations
        assert got.final_gradient_norm == want.final_gradient_norm
        assert got.final_log_likelihood == want.final_log_likelihood
        assert got.converged == want.converged


def draw_windows(rng, count, n, dim, coarse):
    """count windows of n points: z (count, n, dim) and 0/1 labels y
    (count, n). Coarse draws repeat points, which leaves many windows
    non-separable so they converge at different iterations instead of
    all running to the cap."""
    if coarse:
        z = rng.integers(-2, 3, size=(count, n, dim)).astype(float)
    else:
        z = rng.normal(0.0, 1.5, size=(count, n, dim))
    return z, (rng.random((count, n)) < 0.5).astype(float)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 60),
    dim=st.integers(0, 10),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    learning_rate=st.sampled_from([1e-3, 0.05, 0.5]),
    tolerance=st.sampled_from([0.0, 1e-6, 0.05, 0.3, 1.0]),
    max_iter=st.integers(0, 120),
    poison=st.one_of(st.none(), st.tuples(st.integers(0, 59), st.sampled_from([1e200, 1e300]))),
)
def test_every_window_matches_the_sequential_oracle(
    count, dim, n, seed, coarse, learning_rate, tolerance, max_iter, poison
):
    rng = np.random.default_rng(seed)
    z, y = draw_windows(rng, count, n, dim, coarse)
    if poison is not None:
        # huge features overflow the scores after one step; only this
        # window may fail
        k, scale = poison
        z[k % count] *= scale
    config = BacktestConfig(learning_rate=learning_rate, tolerance=tolerance, max_iter=max_iter)
    got = fit_windows(z, y, config)
    assert len(got) == count
    for k, outcome in enumerate(got):
        assert_same(outcome, oracle_outcome(z[k], y[k], config))


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 12),
    dim=st.integers(0, 10),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    learning_rate=st.sampled_from([1e-3, 0.05, 0.5]),
    tolerance=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    max_iter=st.integers(0, 150),
    poison=st.one_of(st.none(), st.integers(0, 11)),
)
def test_each_window_fits_alike_alone_and_in_any_batch(
    count, dim, n, seed, coarse, learning_rate, tolerance, max_iter, poison
):
    # the reduced axes reach 8 and more, where numpy may sum in blocks; a
    # lone window (alone, or the last one left) has n = 1 or d = 0 in some
    # draws; and windows stop at different iterations, so the batch shrinks
    rng = np.random.default_rng(seed)
    z, y = draw_windows(rng, count, n, dim, coarse)
    if poison is not None:
        z[poison % count] *= 1e200
    config = BacktestConfig(learning_rate=learning_rate, tolerance=tolerance, max_iter=max_iter)
    got = fit_windows(z, y, config)
    subset = rng.permutation(count)[: rng.integers(1, count + 1)]
    for k, outcome in zip(subset, fit_windows(z[subset], y[subset], config)):
        assert_same(outcome, got[k])
    for k in range(count):
        assert_same(fit_windows(z[k : k + 1], y[k : k + 1], config)[0], got[k])


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=12),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    learning_rate=st.sampled_from([1e-3, 0.05, 0.5]),
    tolerance=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    max_iter=st.integers(0, 150),
    poison=st.one_of(st.none(), st.integers(0, 11)),
)
def test_zero_padded_features_change_no_bit(dims, n, seed, coarse, learning_rate, tolerance, max_iter, poison):
    # windows of mixed d share one batch, zero-padded to the widest d
    # ahead of the bias, as backtest pools the scopes
    rng = np.random.default_rng(seed)
    windows = [draw_windows(rng, 1, n, d, coarse) for d in dims]
    if poison is not None:
        windows[poison % len(dims)][0][:] *= 1e200
    z = np.zeros((len(dims), n, max(dims)))
    for k, (zk, _) in enumerate(windows):
        z[k, :, : dims[k]] = zk[0]
    y = np.concatenate([yk for _, yk in windows])
    config = BacktestConfig(learning_rate=learning_rate, tolerance=tolerance, max_iter=max_iter)
    for d, (zk, yk), got in zip(dims, windows, fit_windows(z, y, config)):
        (alone,) = fit_windows(zk, yk, config)
        if isinstance(alone, NumericalError):
            assert_same(got, alone)
            continue
        padded = got.params.weights[d:]
        assert all(w == 0.0 and math.copysign(1.0, w) == 1.0 for w in padded), padded
        assert got._replace(params=LogitParams(got.params.weights[:d], got.params.bias)) == alone


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 20),
    dim=st.integers(0, 10),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    tolerance=st.sampled_from([0.0, 1e-6, 0.05, 0.3, 1.0]),
    max_iter=st.integers(0, 300),
)
def test_blas_order_fit_agrees_within_rounding(count, dim, n, seed, coarse, tolerance, max_iter):
    # only at the paper's learning rate: at a large one (0.5, say) the two
    # orders can stop at different iterations, and their weights then part
    rng = np.random.default_rng(seed)
    z, y = draw_windows(rng, count, n, dim, coarse)
    config = BacktestConfig(learning_rate=1e-3, tolerance=tolerance, max_iter=max_iter)
    for k, got in enumerate(fit_windows(z, y, config)):
        want = blas_fit(z[k], y[k], config)
        wb_got = np.array(got.params.weights + (got.params.bias,))
        wb_want = np.array(want.params.weights + (want.params.bias,))
        gap = np.abs(wb_got - wb_want).max() / max(1.0, np.abs(wb_want).max())
        assert gap <= 1e-13, (k, gap)


def test_windows_stop_at_their_own_iterations():
    rng = np.random.default_rng(3)
    z, y = draw_windows(rng, 40, 12, 3, coarse=True)
    config = BacktestConfig(learning_rate=0.5, tolerance=0.05, max_iter=200)
    got = fit_windows(z, y, config)
    assert len({report.iterations for report in got}) > 3
    for k, outcome in enumerate(got):
        assert_same(outcome, oracle_fit(z[k], y[k], config))


def test_poisoned_window_fails_alone():
    rng = np.random.default_rng(5)
    z, y = draw_windows(rng, 8, 7, 5, coarse=False)
    z[2] *= 1e200
    config = BacktestConfig(max_iter=50)
    got = fit_windows(z, y, config)
    assert [isinstance(outcome, NumericalError) for outcome in got] == [k == 2 for k in range(8)]
    for k, outcome in enumerate(got):
        assert_same(outcome, oracle_outcome(z[k], y[k], config))


def test_gradient_overflow_on_finite_scores_fails_at_once():
    # the scores start at 0 but the first gradient sums past the largest
    # float, so the window fails before its first step
    z = np.full((2, 7, 3), 1e308)
    z[1] = np.random.default_rng(7).normal(size=(7, 3))
    y = np.ones((2, 7))
    config = BacktestConfig(max_iter=50)
    got = fit_windows(z, y, config)
    assert str(got[0]) == "non-finite likelihood or gradient after 0 iterations"
    for k, outcome in enumerate(got):
        assert_same(outcome, oracle_outcome(z[k], y[k], config))


def test_single_fit_is_the_batch_of_one():
    rng = np.random.default_rng(13)
    z, y = draw_windows(rng, 1, 7, 5, coarse=False)
    config = BacktestConfig(max_iter=500)
    assert fit(z[0], y[0], config) == oracle_fit(z[0], y[0], config)


def test_empty_batch_and_mismatched_windows():
    assert fit_windows(np.empty((0, 7, 5)), np.empty((0, 7)), BacktestConfig()) == []
    rng = np.random.default_rng(17)
    z, y = draw_windows(rng, 3, 4, 2, False)
    for bad_z, bad_y in ((z, y[:, :3]), (z, y[:2]), (z[0], y[0]), (z[:, :0], y[:, :0])):
        with pytest.raises(ValueError):
            fit_windows(bad_z, bad_y, BacktestConfig())


def test_non_finite_features_rejected():
    rng = np.random.default_rng(19)
    z, y = draw_windows(rng, 3, 4, 2, False)
    for poison in (np.nan, np.inf):
        poisoned = z.copy()
        poisoned[1, 2, 0] = poison
        with pytest.raises(ValueError, match="finite"):
            fit_windows(poisoned, y, BacktestConfig())


@pytest.mark.parametrize("coding", ["plus_minus_1", "zero_two", "nan"])
def test_labels_other_than_0_and_1_rejected(coding):
    z, y = draw_windows(np.random.default_rng(23), 3, 4, 2, False)
    bad = {"plus_minus_1": 2 * y - 1, "zero_two": 2 * y, "nan": np.where(y > 0, np.nan, y)}[coding]
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        fit_windows(z, bad, BacktestConfig())
