"""Binary logit classifier estimated by plain gradient ascent.

P(UP | z) is the logistic of W.z + b. Estimation maximizes the exact
log-likelihood with a fixed learning rate and no regularization; an
iteration cap bounds the separable case, where the unpenalized MLE
diverges. All probability and likelihood arithmetic stays in log space
so saturated scores never overflow.

A training window is a (n, d) float array of z-scored features with a
(n,) vector of 0/1 labels, 1 for UP. One kernel fits a whole stack of
windows at once, z of shape (W, n, d) with y of shape (W, n), and a
single fit is the batch of one. Each window's result is bit-identical
to fitting it alone with ``z @ w + b`` and ``z.T @ resid``, and that
rests on the exact operations the kernel uses: scores are
``np.matmul(z, w[:, :, None])[:, :, 0] + b[:, None]``, the weight
gradient is ``np.matmul(z.transpose(0, 2, 1), resid[:, :, None])[:, :, 0]``
on the transposed view, and the bias gradient is ``resid.sum(axis=1)``.
Equivalent-looking rewrites change the summation order and with it the
last bits: ``einsum``, ``(z * w).sum(-1)`` and a contiguous copy of the
transpose all do. ``np.matvec``/``np.vecmat`` would match but need numpy
2.2, above this package's floor.
"""

from __future__ import annotations

import math

from ._numpy import np
from ._record import NamedTuple, checked
from .errors import NumericalError
from .response import Label


@checked
class LogitParams(NamedTuple):
    weights: tuple
    bias: float

    def _check(self):
        weights, bias = tuple(float(w) for w in self.weights), float(self.bias)
        if not all(math.isfinite(w) for w in weights) or not math.isfinite(bias):
            raise ValueError("logit parameters must be finite")
        return weights, bias

    @property
    def dim(self) -> int:
        return len(self.weights)


class FitReport(NamedTuple):
    """Estimation outcome; converged means the gradient max-norm reached
    tolerance before the iteration cap."""

    params: LogitParams
    iterations: int
    final_gradient_norm: float
    final_log_likelihood: float
    converged: bool


def _sigmoid(s):
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(s):
    return np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))


def prob_up(z, params: LogitParams) -> float:
    """P(UP | z): logistic of the linear score, stable at saturation."""
    if len(z) != params.dim:
        raise ValueError(f"feature dimension {len(z)} != model dimension {params.dim}")
    score = math.fsum(w * v for w, v in zip(params.weights, z)) + params.bias
    if score >= 0.0:
        return 1.0 / (1.0 + math.exp(-score))
    e = math.exp(score)
    return e / (1.0 + e)


def _loglik(z, y, w, b) -> float:
    # overflow to inf/nan is detected by the callers, so the default
    # numpy warning is pure noise here
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ w + b
        return float(np.sum(y * s) - np.sum(_softplus(s)))


def fit(z, y, config) -> FitReport:
    """Gradient ascent on one window, z (n, d) and 0/1 labels y (n,):
    the batch-of-one case of fit_windows, with the same config.

    Raises the window's NumericalError instead of returning it.
    """
    (outcome,) = fit_windows([z], [y], config)
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


def fit_windows(z, y, config) -> list:
    """Gradient ascent on every window at once, each from zero weights
    and bias.

    z is a (W, n, d) stack of feature windows and y the (W, n) stack of
    their 0/1 labels; config is a backtest.BacktestConfig. Each window
    stops on its own when its gradient max-norm falls to config.tolerance
    or after config.max_iter updates of step config.learning_rate.
    Non-finite likelihood or gradient marks data pathology, never a
    stopping state: that window's entry is a NumericalError while the
    others carry on. Returns one FitReport or NumericalError per window,
    in order; each equals, bit for bit, what a fit of that window alone
    gives.
    """
    # the kernel's op order pins its bits for C-ordered windows
    z, y = np.ascontiguousarray(z, dtype=float), np.asarray(y, dtype=float)
    if z.ndim != 3 or y.shape != z.shape[:2] or not z.shape[1]:
        raise ValueError(f"need windows of n >= 1 feature rows and n labels, got z {z.shape} and y {y.shape}")
    if not len(z):
        return []  # _ascend never stops on zero windows
    if not np.isfinite(z).all():
        raise ValueError("training features must be finite")
    return _ascend(z, y, np.zeros((len(z), z.shape[2])), np.zeros(len(z)), config)


def _ascend(z, y, w, b, config) -> list:
    """The fit kernel on stacked windows: z (W, n, d), y (W, n), w (W, d),
    b (W,).

    Windows advance in lockstep, so they share the iteration count; a
    window that stops leaves the active arrays, which shrink only on
    iterations where some window stopped.
    """
    eta = config.learning_rate
    outcomes = [None] * len(b)
    active = np.arange(len(b))
    zt = z.transpose(0, 2, 1)
    iterations = 0
    # the errstate wraps the whole loop because non-finite values are
    # detected explicitly below; score finiteness stands in for the
    # likelihood's, since the stable softplus cannot overflow on finite
    # scores, so the likelihood is computed only for stopped windows
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            s = np.matmul(z, w[:, :, None])[:, :, 0] + b[:, None]
            resid = y - _sigmoid(s)
            dw = np.matmul(zt, resid[:, :, None])[:, :, 0]
            db = resid.sum(axis=1)
            # NaN propagates through max, so a finite norm means a finite gradient
            norm = np.maximum(np.abs(dw).max(axis=1, initial=0.0), np.abs(db))
            healthy = np.isfinite(s).all(axis=1) & np.isfinite(norm)
            converged = norm <= config.tolerance
            stop = ~healthy | converged
            if iterations >= config.max_iter:
                stop[:] = True
            if stop.any():
                for row in np.flatnonzero(stop):
                    k = active[row]
                    if not healthy[row]:
                        outcomes[k] = NumericalError(
                            f"non-finite likelihood or gradient after {iterations} iterations"
                        )
                        continue
                    outcomes[k] = FitReport(
                        params=LogitParams(w[row], b[row]),
                        iterations=iterations,
                        final_gradient_norm=float(norm[row]),
                        final_log_likelihood=_loglik(z[row], y[row], w[row], b[row]),
                        converged=bool(converged[row]),
                    )
                keep = ~stop
                if not keep.any():
                    return outcomes
                active, z, y, w, b, dw, db = (a[keep] for a in (active, z, y, w, b, dw, db))
                zt = z.transpose(0, 2, 1)
            w = w + eta * dw
            b = b + eta * db
            iterations += 1


def classify(p_up: float, threshold: float) -> Label:
    """UP iff p_up >= threshold; the boundary itself counts as UP."""
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up must lie in [0, 1], got {p_up!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold!r}")
    return Label.UP if p_up >= threshold else Label.DOWN


def fit_report_line(report: FitReport) -> str:
    """One-line log record of an estimation."""
    weights = "|".join(f"{w:.6g}" for w in report.params.weights)
    return (
        f"converged={'yes' if report.converged else 'no'}"
        f" iterations={report.iterations}"
        f" grad_norm={report.final_gradient_norm:.6g}"
        f" log_likelihood={report.final_log_likelihood:.6g}"
        f" bias={report.params.bias:.6g}"
        f" weights={weights}"
    )
