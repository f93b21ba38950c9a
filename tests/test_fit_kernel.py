"""The batched fit kernel against the sequential one-window fit it replaced.

oracle_fit is that sequential gradient-ascent loop, kept here with the
helpers it used and its start fixed at zero as the kernel's is, so the kernel is checked against the
implementation whose outputs the CLI's byte-identical tables pin. It
takes one window as features z (n, d) and 0/1 labels y (n,). Every
window the kernel fits must report exactly (==, not approx) what the
oracle reports for that window alone.

Given a list as trace, oracle_fit also appends the log-likelihood at
every step for the likelihood-ascent tests to read; the kernel keeps
no trace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesignal.errors import NumericalError
from pesignal.backtest import BacktestConfig
from pesignal.logit import FitReport, LogitParams, fit, fit_windows


def _sigmoid(s):
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(s):
    return np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))


def _loglik(z, y, w, b) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ w + b
        return float(np.sum(y * s) - np.sum(_softplus(s)))


def _max_norm(dw, db) -> float:
    head = float(np.max(np.abs(dw))) if dw.size else 0.0
    return max(head, abs(db))


def oracle_fit(z, y, config: BacktestConfig = BacktestConfig(), trace: list | None = None) -> FitReport:
    w = np.zeros(z.shape[1])
    b = 0.0
    eta = config.learning_rate
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            s = z @ w + b
            if trace is not None:
                ll = float(np.sum(y * s) - np.sum(_softplus(s)))
                healthy = math.isfinite(ll)
            else:
                ll = None
                healthy = bool(np.isfinite(s).all())
            resid = y - _sigmoid(s)
            dw = z.T @ resid
            db = float(resid.sum())
            if not (healthy and math.isfinite(db) and np.all(np.isfinite(dw))):
                raise NumericalError(
                    f"non-finite likelihood or gradient after {iterations} iterations"
                )
            if trace is not None:
                trace.append(ll)
            grad_norm = _max_norm(dw, db)
            if grad_norm <= config.tolerance:
                converged = True
                break
            if iterations >= config.max_iter:
                converged = False
                break
            w = w + eta * dw
            b = b + eta * db
            iterations += 1
    if ll is None:
        ll = _loglik(z, y, w, b)
    return FitReport(
        params=LogitParams(tuple(float(v) for v in w), float(b)),
        iterations=iterations,
        final_gradient_norm=grad_norm,
        final_log_likelihood=ll,
        converged=converged,
    )


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
    dim=st.integers(1, 6),
    n=st.integers(2, 20),
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
        # huge features overflow the scores after one step (1e200) or the
        # gradient at once (1e300); only this window may fail
        k, scale = poison
        z[k % count] *= scale
    config = BacktestConfig(learning_rate=learning_rate, tolerance=tolerance, max_iter=max_iter)
    got = fit_windows(z, y, config)
    assert len(got) == count
    for k, outcome in enumerate(got):
        assert_same(outcome, oracle_outcome(z[k], y[k], config))


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
