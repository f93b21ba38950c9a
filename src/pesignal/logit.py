"""Binary logit classifier estimated by plain gradient ascent.

P(UP | z) is the logistic of W.z + b. Estimation maximizes the exact
log-likelihood with a fixed learning rate and no regularization; an
iteration cap bounds the separable case, where the unpenalized MLE
diverges. All probability and likelihood arithmetic stays in log space
so saturated scores never overflow.

A training window is a (n, d) float array of z-scored features with a
(n,) vector of 0/1 labels, 1 for UP. One kernel fits a whole stack of
windows at once, z of shape (W, n, d) with y of shape (W, n), and a
single fit is the batch of one. The kernel lays the stack out window
last, with the bias as a trailing feature of ones, and reduces only
over a leading axis of a C-ordered copy, so numpy adds one slice at a
time in index order: a score sums the features, then the bias; a
gradient sums the rows. No BLAS product is left, so the bits do not
depend on the BLAS build, and a window's result does not depend on the
batch around it, nor on zero features padded in ahead of the bias: their
weights stay +0.0 and add nothing to a score. Two limits remain: ``np.exp`` dispatches by CPU, so
its last bits may still differ between machines; and this order rounds
differently from the stacked ``np.matmul`` kernel it replaced, which is
harmless at the default learning rate (relative weight gaps near 1e-16)
but at a large one (0.5, say) can move the iteration where a window
stops. No pinned output uses such a rate.
"""

from __future__ import annotations

import math

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


def prob_up(z, params: LogitParams) -> float:
    """P(UP | z): logistic of the linear score, stable at saturation."""
    if len(z) != params.dim:
        raise ValueError(f"feature dimension {len(z)} != model dimension {params.dim}")
    score = math.fsum(w * v for w, v in zip(params.weights, z)) + params.bias
    if score >= 0.0:
        return 1.0 / (1.0 + math.exp(-score))
    e = math.exp(score)
    return e / (1.0 + e)


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

    Windows advance in lockstep, so they share the iteration count; a
    window that stops leaves the active arrays, which shrink only on
    iterations where some window stopped.
    """
    import numpy as np

    z, y = np.asarray(z, dtype=float), np.asarray(y, dtype=float)
    if z.ndim != 3 or y.shape != z.shape[:2] or not z.shape[1]:
        raise ValueError(f"need windows of n >= 1 feature rows and n labels, got z {z.shape} and y {y.shape}")
    if not np.isfinite(z).all():
        raise ValueError("training features must be finite")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("training labels must be 0 or 1")
    if not len(z):
        return []  # the loop never stops on zero windows
    eta, tol, cap, d = config.learning_rate, config.tolerance, config.max_iter, z.shape[2]
    outcomes = [None] * len(z)
    zb = np.concatenate([z, np.ones(z.shape[:2] + (1,))], axis=2)  # the bias is feature d
    # zs (d+1, n, W) gives the scores, zg (n, d+1, W) the gradients
    everything = np.arange(len(z))
    active, zs, zg, y = _columns(everything, (everything, zb.T, zb.transpose(1, 2, 0), y.T))
    wb = np.zeros((d + 1, zs.shape[-1]))
    iterations = 0
    # non-finite values are detected explicitly below; score finiteness
    # stands in for the likelihood's, since the stable softplus cannot
    # overflow on finite scores
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            s = np.add.reduce(zs * wb[:, None, :], axis=0)
            a = np.abs(s)
            e = np.exp(-a)
            # 1 / (1 + e) where s >= 0 and e / (1 + e) below, since e <= 1;
            # cheaper than np.where(s >= 0, 1, e), with the same bits
            resid = y - np.maximum(e, np.sign(s)) / (1.0 + e)
            g = np.add.reduce(zg * resid[:, None, :], axis=0)
            # ufunc reduces skip the array methods' Python wrapper; NaN
            # propagates through max, so a finite norm means a finite gradient
            norm = np.maximum.reduce(np.abs(g), axis=0)
            finite = np.maximum.reduce(norm) < math.inf and np.maximum.reduce(a, axis=None) < math.inf
            if not (iterations < cap and tol < np.minimum.reduce(norm) and finite):
                healthy = np.isfinite(s).all(axis=0) & np.isfinite(norm)
                converged = norm <= tol
                stop = ~healthy | converged | (iterations >= cap)
                for row in np.flatnonzero(stop):
                    if not healthy[row]:
                        outcomes[active[row]] = NumericalError(
                            f"non-finite likelihood or gradient after {iterations} iterations"
                        )
                        continue
                    sk = s[:, row]
                    loglik = np.sum(y[:, row] * sk) - np.sum(np.maximum(sk, 0.0) + np.log1p(e[:, row]))
                    outcomes[active[row]] = FitReport(
                        params=LogitParams(wb[:d, row], wb[d, row]),
                        iterations=iterations,
                        final_gradient_norm=float(norm[row]),
                        final_log_likelihood=float(loglik),
                        converged=bool(converged[row]),
                    )
                cols = np.flatnonzero(~stop)
                if not len(cols):
                    return outcomes
                active, zs, zg, y, wb, g = _columns(cols, (active, zs, zg, y, wb, g))
            wb += eta * g
            iterations += 1


def _columns(cols, arrays) -> list:
    # C-ordered copies of the given windows; numpy sums a reduced axis
    # pairwise, not in order, once every other axis has length 1, so a
    # lone window rides with a copy of itself
    cols = cols.repeat(2) if len(cols) == 1 else cols
    return [a.take(cols, axis=-1) for a in arrays]


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
