"""Test oracles for the logit likelihood and the planted law.

The library's batched fit kernel never evaluates the likelihood or its
gradient at a given point on its own, so those evaluations live here,
for the tests: gradient must match finite differences of log_likelihood
(acceptance criterion 4), and the fit must lower the initial gradient
norm (criterion 5). Both take one window, features z (n, d) and 0/1
labels y (n,), and use pesignal.logit's stable sigmoid and likelihood.

planted_samples draws standard-normal features and labels from a
planted logit law, for weight recovery (acceptance criterion 7).
"""

import numpy as np

from pesignal.logit import LogitParams, _loglik, _sigmoid, prob_up


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
