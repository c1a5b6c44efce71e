"""Distribution families: densities, sampling, and weighted ML updates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import logsumexp

from hetmix import (Categorical, EstimationError, Gaussian, InflatedGamma,
                    QuantizedGaussian, VariableKind, default_params,
                    family_for, weighted_mle)
from hetmix.distributions import DEFAULT_FLOORS, log_sum_exp


class TestGaussian:
    def test_matches_scipy(self):
        g = Gaussian(1.3, 2.7)
        xs = np.linspace(-5, 7, 13)
        expected = stats.norm.logpdf(xs, loc=1.3, scale=math.sqrt(2.7))
        assert np.allclose(g.log_density(xs), expected, rtol=1e-12)

    def test_integrates_to_one(self):
        g = Gaussian(-2.0, 0.7)
        total, _ = integrate.quad(lambda x: math.exp(g.log_density(x)), -30, 30)
        assert abs(total - 1.0) < 1e-9

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, float("inf"))


class TestInflatedGamma:
    def test_frozen_value(self):
        # zero_prob 0, shape 1, scale 2 is exponential(1/2): log f(2) = log(1/2) - 1
        assert math.isclose(InflatedGamma(0.0, 1.0, 2.0).log_density(2.0),
                            -1.6931471805599452, rel_tol=1e-15)

    def test_zero_mass(self):
        d = InflatedGamma(0.25, 2.0, 1.0)
        assert math.isclose(d.log_density(0.0), math.log(0.25))
        assert InflatedGamma(0.0, 2.0, 1.0).log_density(0.0) == -math.inf
        assert InflatedGamma(1.0, 2.0, 1.0).log_density(3.0) == -math.inf

    def test_positive_branch_matches_scipy(self):
        d = InflatedGamma(0.3, 2.5, 1.7)
        xs = np.array([0.1, 1.0, 4.0, 9.0])
        expected = math.log(0.7) + stats.gamma.logpdf(xs, a=2.5, scale=1.7)
        assert np.allclose(d.log_density(xs), expected, rtol=1e-12)

    def test_total_mass_is_one(self):
        d = InflatedGamma(0.3, 2.5, 1.7)
        cont, _ = integrate.quad(lambda x: math.exp(d.log_density(x)), 1e-12, 60)
        assert abs(cont + 0.3 - 1.0) < 1e-6

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            InflatedGamma(0.1, 1.0, 1.0).log_density(-1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            InflatedGamma(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            InflatedGamma(0.5, -1.0, 1.0)


class TestQuantizedGaussian:
    def test_frozen_masses(self):
        q = QuantizedGaussian(2.0, 2.0, (1, 2, 3))
        assert np.allclose(q.masses,
                           [0.304504342420284, 0.39099131515943186, 0.304504342420284],
                           rtol=1e-14)

    @given(mean=st.floats(-10, 10), variance=st.floats(0.01, 50),
           width=st.integers(2, 9), start=st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_normalized_for_any_params(self, mean, variance, width, start):
        q = QuantizedGaussian(mean, variance, tuple(range(start, start + width)))
        assert abs(q.masses.sum() - 1.0) < 1e-12
        assert np.isfinite(q.log_masses).all()

    def test_tiny_variance_stays_finite_in_log(self):
        q = QuantizedGaussian(2.0, 1e-8, (1, 2, 3))
        assert not np.isnan(q.log_masses).any()
        assert q.masses[1] == pytest.approx(1.0)

    def test_log_density_out_of_domain(self):
        with pytest.raises(ValueError):
            QuantizedGaussian(2.0, 1.0, (1, 2, 3)).log_density(4)


class TestCategorical:
    def test_mass_table(self):
        c = Categorical((0.2, 0.8), ("a", "b"))
        assert c.log_density("b") == math.log(0.8)
        assert c.masses.tolist() == [0.2, 0.8]

    def test_zero_probability_symbol(self):
        c = Categorical((0.0, 1.0), ("a", "b"))
        assert c.log_density("a") == -math.inf

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Categorical((0.2, 0.7), ("a", "b"))

    def test_n_parameters(self):
        assert Gaussian(0, 1).n_parameters == 2
        assert InflatedGamma(0.1, 1, 1).n_parameters == 3
        assert QuantizedGaussian(0, 1, (0, 1)).n_parameters == 2
        assert Categorical((0.5, 0.3, 0.2), ("a", "b", "c")).n_parameters == 2


def test_family_for():
    assert family_for(VariableKind.REAL) is Gaussian
    assert family_for("nonnegative") is InflatedGamma
    assert family_for("ordinal") is QuantizedGaussian
    assert family_for("categorical") is Categorical


def test_sampling_is_deterministic():
    for params in (Gaussian(1.0, 2.0), InflatedGamma(0.4, 2.0, 1.0),
                   QuantizedGaussian(2.0, 1.0, (1, 2, 3)),
                   Categorical((0.3, 0.7), ("a", "b"))):
        a = params.sample(np.random.default_rng(5), size=20)
        b = params.sample(np.random.default_rng(5), size=20)
        assert list(a) == list(b)


class TestWeightedMle:
    def test_gaussian_closed_form(self, rng):
        x = rng.normal(2.0, 3.0, size=400)
        w = rng.uniform(0.1, 1.0, size=400)
        got = weighted_mle(VariableKind.REAL, x, w)
        mean = np.average(x, weights=w)
        var = np.average((x - mean) ** 2, weights=w)
        assert math.isclose(got.mean, mean, rel_tol=1e-12)
        assert math.isclose(got.variance, var, rel_tol=1e-12)

    def test_variance_floor(self):
        got = weighted_mle(VariableKind.REAL, [5.0, 5.0, 5.0], [1, 1, 1], scale=10.0)
        assert got.variance == DEFAULT_FLOORS.rel_variance * 100.0

    def test_quantized_frozen(self):
        got = weighted_mle(VariableKind.ORDINAL, [1, 2, 3], [1.0, 1.0, 1.0],
                           domain=(1, 2, 3))
        assert got.mean == 2.0
        assert math.isclose(got.variance, 2.0 / 3.0, rel_tol=1e-12)
        assert got.domain == (1, 2, 3)

    def test_categorical_counts_and_pseudo_mass(self):
        got = weighted_mle(VariableKind.CATEGORICAL, ["a", "b", "b"],
                           [1.0, 1.0, 2.0], domain=("a", "b", "c"))
        assert math.isclose(sum(got.probs), 1.0, abs_tol=1e-15)
        assert got.probs[2] > 0  # unseen symbol keeps pseudo mass
        assert got.probs[1] > got.probs[0] > got.probs[2]
        # integer inputs are treated as precomputed domain codes
        again = weighted_mle(VariableKind.CATEGORICAL, np.array([0, 1, 1]),
                             [1.0, 1.0, 2.0], domain=("a", "b", "c"))
        assert again == got

    def test_gamma_zero_handling(self):
        got = weighted_mle(VariableKind.NONNEGATIVE,
                           [0.0, 0.0, 2.0, 4.0], [1.0, 3.0, 1.0, 1.0])
        assert math.isclose(got.zero_prob, 4.0 / 6.0, rel_tol=1e-12)
        # positive part: mean 3, moments over the nonzero samples only
        assert math.isclose(got.shape * got.scale, 3.0, rel_tol=1e-12)

    def test_gamma_recovery_within_five_percent(self):
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, 3.0, size=20000)
        got = weighted_mle(VariableKind.NONNEGATIVE, x, np.ones_like(x))
        assert abs(got.shape - 2.0) / 2.0 < 0.05
        assert abs(got.scale - 3.0) / 3.0 < 0.05
        assert got.zero_prob == 0.0

    def test_all_zero_gamma(self):
        got = weighted_mle(VariableKind.NONNEGATIVE, [0.0, 0.0], [1.0, 1.0])
        assert got.zero_prob == 1.0
        assert got.log_density(1.0) == -math.inf  # no mass on the positive line

    def test_zero_total_weight(self):
        with pytest.raises(EstimationError):
            weighted_mle(VariableKind.REAL, [1.0, 2.0], [0.0, 0.0])
        with pytest.raises(EstimationError):
            weighted_mle(VariableKind.REAL, [], [])

    def test_shape_bounds_clamped(self):
        # near-constant positive values push the shape estimate sky high
        got = weighted_mle(VariableKind.NONNEGATIVE,
                           [1.0, 1.0 + 1e-13, 1.0 - 1e-13], [1.0, 1.0, 1.0])
        assert got.shape <= DEFAULT_FLOORS.shape_max


def test_default_params_are_valid():
    assert default_params(VariableKind.REAL).variance > 0
    assert default_params(VariableKind.NONNEGATIVE).scale > 0
    q = default_params(VariableKind.ORDINAL, domain=(1, 2, 3, 4))
    assert q.mean == 2.5
    c = default_params(VariableKind.CATEGORICAL, domain=("a", "b"))
    assert c.probs == (0.5, 0.5)


def _no_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args, **kwargs)


@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 8), n_cols=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_log_sum_exp_matches_scipy(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_rows, n_cols)) * rng.choice([1.0, 30.0, 700.0], size=(n_rows, 1))
    a[rng.random(a.shape) < 0.2] = -np.inf            # single -inf entries
    a[rng.random(n_rows) < 0.2] = -np.inf             # all -inf rows
    a[rng.random(n_rows) < 0.2] -= 1e5                # rows near -1e5
    for x, axis in ((a, 1), (a, 0), (a[0], -1)):
        got = _no_warnings(log_sum_exp, x, axis=axis)
        want = logsumexp(x, axis=axis)
        assert got.shape == want.shape
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.allclose(got, want, rtol=1e-13, atol=0)
    # the weighted form: adding log(b) to a, zero weights giving -inf
    b = rng.dirichlet(np.ones(n_cols), size=n_rows)
    b[rng.random(b.shape) < 0.3] = 0.0
    with np.errstate(divide="ignore"):
        log_b = np.log(b)
    got = _no_warnings(log_sum_exp, a + log_b, axis=1)
    # a row with no weighted mass sums nothing: -inf (scipy gives NaN for some)
    empty = ~((b > 0) & (a > -np.inf)).any(axis=1)
    assert np.isneginf(got[empty]).all()
    want = logsumexp(a[~empty], axis=1, b=b[~empty])
    assert np.allclose(got[~empty], want, rtol=1e-13, atol=1e-13)
