"""Logit probability, likelihood, gradient, and gradient-ascent fit."""

import math
import random

import numpy as np
import pytest

from pesignal.backtest import BacktestConfig
from pesignal.errors import NumericalError
from pesignal.logit import (
    LogitParams,
    classify,
    fit,
    prob_up,
)
from pesignal.response import Label
from oracles import gradient, log_likelihood
from test_fit_kernel import oracle_fit


def sample(z, up):
    return tuple(float(v) for v in z), bool(up)


def arrays(samples):
    """A window's features z (n, d) and 0/1 labels y (n,)."""
    return np.array([z for z, _ in samples], dtype=float), np.array([up for _, up in samples], dtype=float)


def zeros(dim):
    return LogitParams((0.0,) * dim, 0.0)


def random_instance(rng, dim=None, n=None, forced_tie=False):
    dim = dim if dim is not None else rng.randint(1, 8)
    n = n if n is not None else rng.randint(2, 64)
    samples = [
        sample([rng.gauss(0, 1.5) for _ in range(dim)], rng.random() < 0.5) for _ in range(n)
    ]
    if forced_tie:
        z = tuple(rng.gauss(0, 1.5) for _ in range(dim))
        samples += [sample(z, True), sample(z, False)]
    params = LogitParams(tuple(rng.gauss(0, 1.0) for _ in range(dim)), rng.gauss(0, 1.0))
    return samples, params


class TestProbUp:
    def test_zero_score(self):
        params = LogitParams((0.0, 0.0), 0.0)
        assert prob_up((3.0, -7.0), params) == 0.5

    def test_known_value(self):
        params = LogitParams((1.0, -1.0), 0.5)
        p = prob_up((0.3, 0.1), params)
        assert p == pytest.approx(0.6681877721681661, abs=1e-15)
        assert f"{p:.5f}" == "0.66819"

    def test_saturation_no_overflow(self):
        assert prob_up((), LogitParams((), 50.0)) >= 1.0 - 1e-15
        for bias in (700.0, 800.0, -700.0, -800.0):
            p = prob_up((), LogitParams((), bias))
            assert 0.0 <= p <= 1.0
            assert math.isfinite(p)

    def test_negation_symmetry(self):
        rng = random.Random(43)
        for _ in range(100):
            w = tuple(rng.gauss(0, 2) for _ in range(3))
            b = rng.gauss(0, 2)
            z = tuple(rng.gauss(0, 2) for _ in range(3))
            total = prob_up(z, LogitParams(w, b)) + prob_up(z, LogitParams(tuple(-x for x in w), -b))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            prob_up((1.0,), LogitParams((1.0, 2.0), 0.0))

    @pytest.mark.parametrize(
        "z, weights, bias",
        [
            pytest.param((1.0, 1.0), (1e308, 1e308), 0.0, id="fsum-intermediate-overflow"),
            pytest.param((2.0, -2.0), (1e308, 1e308), 0.0, id="fsum-inf-minus-inf"),
            pytest.param((2.0,), (1e308,), 0.0, id="product-overflow"),
            pytest.param((1.0,), (1e308,), 1e308, id="bias-overflow"),
        ],
    )
    def test_score_past_the_float_range_is_a_numerical_error(self, z, weights, bias):
        with pytest.raises(NumericalError, match="logit score past the float range"):
            prob_up(z, LogitParams(weights, bias))

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            LogitParams((float("nan"),), 0.0)
        with pytest.raises(ValueError):
            LogitParams((1.0,), float("inf"))


class TestLogLikelihood:
    def test_single_sample_at_zero(self):
        ll = log_likelihood(*arrays([sample((1.0, 2.0), True)]), zeros(2))
        assert ll == pytest.approx(math.log(0.5), abs=1e-15)

    def test_additivity_at_zero(self):
        samples = [sample((float(k),), k % 2 == 0) for k in range(9)]
        ll = log_likelihood(*arrays(samples), zeros(1))
        assert ll == pytest.approx(-9 * math.log(2.0), abs=1e-12)

    def test_matches_naive_summation(self):
        # moderate scores keep the naive log(1-p) form itself accurate
        rng = random.Random(47)
        for _ in range(20):
            dim = rng.randint(1, 8)
            samples = [
                sample([rng.uniform(-1, 1) for _ in range(dim)], rng.random() < 0.5)
                for _ in range(10)
            ]
            params = LogitParams(
                tuple(rng.uniform(-0.6, 0.6) for _ in range(dim)), rng.uniform(-0.5, 0.5)
            )
            naive = 0.0
            for z, up in samples:
                p = prob_up(z, params)
                naive += math.log(p) if up else math.log(1.0 - p)
            assert log_likelihood(*arrays(samples), params) == pytest.approx(naive, abs=1e-12)

    def test_matches_scalar_log_space_summation(self):
        # wild scores: compare against a per-sample scalar log-space form
        rng = random.Random(49)
        for _ in range(20):
            samples, params = random_instance(rng, n=10)
            total = 0.0
            for z, up in samples:
                score = math.fsum(w * v for w, v in zip(params.weights, z)) + params.bias
                softplus = max(score, 0.0) + math.log1p(math.exp(-abs(score)))
                total += (score if up else 0.0) - softplus
            assert log_likelihood(*arrays(samples), params) == pytest.approx(total, abs=1e-12)

    def test_never_positive(self):
        rng = random.Random(53)
        for _ in range(50):
            samples, params = random_instance(rng)
            assert log_likelihood(*arrays(samples), params) <= 0.0

    def test_stable_at_saturation(self):
        samples = [sample((1.0,), False)]
        ll = log_likelihood(*arrays(samples), LogitParams((500.0,), 0.0))
        assert math.isfinite(ll)
        assert ll == pytest.approx(-500.0, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(np.empty((0, 1)), np.empty(0), zeros(1))


def finite_difference(samples, params, step=1e-6):
    base = list(params.weights) + [params.bias]
    grads = []
    for k in range(len(base)):
        hi = base.copy()
        lo = base.copy()
        hi[k] += step
        lo[k] -= step
        ll_hi = log_likelihood(*arrays(samples), LogitParams(tuple(hi[:-1]), hi[-1]))
        ll_lo = log_likelihood(*arrays(samples), LogitParams(tuple(lo[:-1]), lo[-1]))
        grads.append((ll_hi - ll_lo) / (2 * step))
    return grads[:-1], grads[-1]


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


class TestGradient:
    def test_symmetric_data_zero_gradient(self):
        samples = []
        for z in ((1.0, 2.0), (-3.0, 0.5)):
            samples.append(sample(z, True))
            samples.append(sample(z, False))
        dw, db = gradient(*arrays(samples), zeros(2))
        assert dw == (0.0, 0.0)
        assert db == 0.0

    def test_single_sample_closed_form(self):
        dw, db = gradient(*arrays([sample((1.0, 0.0, 0.0), True)]), zeros(3))
        assert dw == (0.5, 0.0, 0.0)
        assert db == 0.5

    def test_matches_finite_differences(self):
        rng = random.Random(59)
        for _ in range(25):
            samples, params = random_instance(rng)
            dw, db = gradient(*arrays(samples), params)
            fd_w, fd_b = finite_difference(samples, params)
            for a, f in zip(list(dw) + [db], fd_w + [fd_b]):
                assert relative_error(a, f) < 1e-5


class TestFit:
    def test_repeated_point_matches_class_fraction(self):
        z = (0.5, -0.2)
        samples = [sample(z, True)] * 7 + [sample(z, False)] * 3
        report = fit(*arrays(samples), BacktestConfig())
        assert report.converged
        assert prob_up(z, report.params) == pytest.approx(0.7, abs=1e-3)

    def test_separable_hits_cap_with_full_accuracy(self):
        samples = [sample((1.0,), True)] * 3 + [sample((-1.0,), False)] * 3
        report = fit(*arrays(samples), BacktestConfig(max_iter=300))
        assert not report.converged
        assert report.iterations == 300
        for z, up in samples:
            predicted = classify(prob_up(z, report.params), 0.5)
            assert predicted is (Label.UP if up else Label.DOWN)

    def test_monotone_ascent_non_separable(self):
        rng = random.Random(61)
        for _ in range(10):
            samples, _ = random_instance(rng, dim=rng.randint(1, 3), n=rng.randint(6, 20), forced_tie=True)
            config = BacktestConfig(max_iter=400)
            trace = []
            report = fit(*arrays(samples), config)
            assert report == oracle_fit(*arrays(samples), config, trace)
            assert all(b - a >= -1e-10 for a, b in zip(trace, trace[1:]))
            dw0, db0 = gradient(*arrays(samples), zeros(len(samples[0][0])))
            initial_norm = max(max(abs(v) for v in dw0), abs(db0))
            assert report.final_gradient_norm < initial_norm

    def test_zero_iterations_returns_zeros(self):
        samples = [sample((1.0, 2.0), True), sample((-1.0, 0.5), False)]
        report = fit(*arrays(samples), BacktestConfig(max_iter=0))
        assert report.params == zeros(2)
        assert report.iterations == 0
        assert not report.converged

    def test_converged_meets_tolerance(self):
        z = (1.0,)
        samples = [sample(z, True), sample(z, False)]
        config = BacktestConfig(tolerance=1e-8)
        report = fit(*arrays(samples), config)
        assert report.converged
        assert report.final_gradient_norm <= config.tolerance

    def test_planted_direction_recovered(self):
        rng = np.random.default_rng(67)
        planted_w = np.array([2.0, -1.5, 1.0])
        z = rng.normal(size=(600, 3))
        p = 1.0 / (1.0 + np.exp(-(z @ planted_w + 0.3)))
        ups = rng.random(600) < p
        report = fit(z, ups.astype(float), BacktestConfig(max_iter=4000))
        w = np.array(report.params.weights)
        cosine = float(w @ planted_w / (np.linalg.norm(w) * np.linalg.norm(planted_w)))
        assert cosine > 0.9

    def test_non_finite_raises_numerical_error(self):
        samples = [sample((1e200,), True), sample((-1e200,), False)]
        with pytest.raises(NumericalError):
            fit(*arrays(samples), BacktestConfig(max_iter=5))


class TestClassify:
    def test_boundary_is_up(self):
        assert classify(0.5, 0.5) is Label.UP

    def test_below_threshold_down(self):
        assert classify(0.4999, 0.5) is Label.DOWN

    def test_extremes(self):
        assert classify(1.0, 0.0) is Label.UP
        assert classify(0.0, 1.0) is Label.DOWN
        assert classify(1.0, 1.0) is Label.UP

    def test_range_validation(self):
        with pytest.raises(ValueError):
            classify(1.5, 0.5)
        with pytest.raises(ValueError):
            classify(0.5, -0.1)


class TestFitSettingsValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            BacktestConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BacktestConfig(tolerance=-1e-9)
        with pytest.raises(ValueError):
            BacktestConfig(max_iter=-1)
