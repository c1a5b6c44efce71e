"""Distribution families: densities, sampling, and weighted ML updates."""

import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammaln, logsumexp

import oracles
from conftest import m_step_alone
from hetmix import (IGNORE_MISSING, Categorical, Dataset, Gaussian, InflatedGamma,
                    MixtureModel, QuantizedGaussian, VariableKind, VariableSchema,
                    component_log_likelihoods, family_for, parameter_count)
from hetmix.distributions import (REL_VARIANCE_FLOOR, SHAPE_LIMIT, SHAPE_MAX, SHAPE_MIN,
                                  _log_mass_table, log_sum_exp)


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

    @pytest.mark.parametrize("mean, variance, x", [
        (0.0, 1.0, 1e200), (0.0, 1.0, -1e200), (0.0, 1e-300, 1e10), (1e308, 1.0, -1e308)])
    def test_a_value_far_from_the_mean_has_zero_density(self, mean, variance, x):
        """(x - mean)^2 / variance past the float range: a log density of -inf, and no
        overflow warning; the other values of the array keep theirs."""
        g = Gaussian(mean, variance)
        assert g.log_density(x) == -math.inf
        assert g.log_density(np.array([x, mean])).tolist() == [-math.inf, g.log_density(mean)]

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

    # the M-step's shape range, lgamma's roots 1 and 2 and the floats next to them
    SHAPES = np.concatenate([np.geomspace(SHAPE_MIN, SHAPE_MAX, 29),
                             [np.nextafter(root, side) for root in (1.0, 2.0) for side in (0, 3)],
                             [1.0, 2.0, 2.5, 0.999, 1.001, 1.999, 2.001]])
    SCALES = (0.05, 1.7)
    XS = np.array([1e-3, 0.1, 1.0, 4.0, 9.0, 40.0])

    def test_positive_branch_matches_scipy(self):
        """Cells and a block through component_log_likelihoods, against SciPy.

        Not ==: the log normalizer is math.lgamma (CPython's Lanczos sum) where
        SciPy uses cephes, and the two differ in the last bits, next to lgamma's
        roots (lgamma ~ 1e-16 there) by a large relative but a tiny absolute
        amount. So each error is bounded relative to the sum of the magnitudes
        of the log density's terms: 1e-14, some 45 ulps (7e-16 measured).
        """
        shape, scale = (a.ravel() for a in np.meshgrid(self.SHAPES, self.SCALES))
        xs = self.XS[:, None]
        expected = math.log(0.7) + stats.gamma.logpdf(xs, a=shape, scale=scale)
        terms = (-math.log(0.7) + abs((shape - 1) * np.log(xs)) + xs / scale
                 + abs(shape * np.log(scale)) + abs(gammaln(shape)))
        cells = [InflatedGamma(0.3, a, s) for a, s in zip(shape.tolist(), scale.tolist())]
        schemas = (VariableSchema("y", "nonnegative"),)
        model = MixtureModel((1.0 / len(cells),) * len(cells), tuple((c,) for c in cells),
                             [[0.1]] * len(cells), schemas)
        block = (component_log_likelihoods(model, Dataset(schemas, self.XS[:, None].tolist()),
                                           IGNORE_MISSING) - np.log(model.weights))
        by_cell = np.array([[c.log_density(float(x)) for c in cells] for x in self.XS])
        for got in (by_cell, block):
            assert (abs(got - expected) <= 1e-14 * terms).all()
        assert np.allclose(cells[0].log_density(self.XS), by_cell[:, 0], rtol=1e-15)

    def test_extreme_shapes(self):
        """Shapes at or past SHAPE_LIMIT (1e300) are refused, by a cell and by a
        model's block alike: lgamma overflows past ~2.6e305, and just below that
        (shape - 1) log x or shape log scale can overflow against it. The largest
        shape below the limit has a finite density; the least subnormal one too,
        where lgamma(a) ~ -log(a)."""
        schemas = (VariableSchema("y", "nonnegative"),)
        for shape in (1e300, 2.55e305, 1e306, math.inf):
            with pytest.raises(ValueError, match="shape must be positive and below 1e"):
                InflatedGamma(0.1, shape, 1.0)
            with pytest.raises(ValueError, match="shape must be positive and below 1e"):
                MixtureModel._from_blocks((0.5, 0.5), ((np.array([0.1, 0.1]),
                                                        np.array([1.0, shape]),
                                                        np.array([1.0, 1.0])),),
                                          [[0.1]] * 2, schemas)
        largest = math.nextafter(SHAPE_LIMIT, 0.0)
        want = math.log(0.9) + (largest - 1.0) * math.log(3.0) - 3.0 - math.lgamma(largest)
        assert InflatedGamma(0.1, largest, 1.0).log_density(3.0) == want
        assert math.isfinite(want)
        tiny = math.log(0.9) - math.log(3.0) - 3.0 + math.log(5e-324)
        assert InflatedGamma(0.1, 5e-324, 1.0).log_density(3.0) == pytest.approx(tiny, rel=1e-15)
        model = MixtureModel((0.5, 0.5), ((InflatedGamma(0.1, largest, 1.0),),
                                          (InflatedGamma(0.1, 5e-324, 1.0),)),
                             [[0.1]] * 2, schemas)
        block = component_log_likelihoods(model, Dataset(schemas, [[0.0], [3.0]]),
                                          IGNORE_MISSING) - math.log(0.5)
        assert block[0].tolist() == pytest.approx([math.log(0.1)] * 2, rel=1e-15)
        assert block[1, 0] == want and block[1, 1] == pytest.approx(tiny, rel=1e-15)

    def test_huge_shapes_with_extreme_scales(self):
        """Below SHAPE_LIMIT a huge shape gives the plain formula's value, bit for
        bit, with no warning, even where x / scale overflows (to a density of 0).
        Shapes of about 1.2e305-2.6e305, where an overflowing term would meet a
        finite lgamma(shape), are refused."""
        xs = np.array([0.0, 3.0, 1e6, 1e300])
        for shape in (1e299, math.nextafter(SHAPE_LIMIT, 0.0)):
            for scale in (1e-300, 1.0, 1e300):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = InflatedGamma(0.1, shape, scale).log_density(xs)
                assert got[0] == math.log(0.1) and not np.isnan(got).any()
                with np.errstate(over="ignore"):
                    plain = (np.log1p(-0.1) + (shape - 1.0) * np.log(xs[1:]) - xs[1:] / scale
                             - shape * np.log(scale) - math.lgamma(shape))
                assert np.array_equal(got[1:], plain)
        for shape, scale in ((2.55e305, 0.1), (2.5e305, 5e-324), (1e306, 1e-300)):
            with pytest.raises(ValueError):
                InflatedGamma(0.1, shape, scale)

    def test_no_in_domain_density_is_nan(self):
        """Over shapes up to the largest below SHAPE_LIMIT, scales down to the
        least subnormal and x up to 1e308, every log density is finite or -inf,
        with no warning."""
        shapes = np.array([5e-324, 1e-300, 0.5, 1.0, 2.0, 1e10, 1e200, 1e299,
                           math.nextafter(SHAPE_LIMIT, 0.0)])
        scales = np.array([5e-324, 1e-300, 1e-5, 1.0, 1e5, 1e300, 1.7e308])
        xs = np.array([0.0, 5e-324, 1e-300, 1e-5, 1.0, 3.0, 1e5, 1e300, 1e308])
        for zero_prob in (0.0, 0.1, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for shape in shapes.tolist():
                    for scale in scales.tolist():
                        got = InflatedGamma(zero_prob, shape, scale).log_density(xs)
                        assert not np.isnan(got).any() and (got < np.inf).all(), (shape, scale)
                schemas = (VariableSchema("y", "nonnegative"),)
                grid = np.meshgrid(shapes, scales)
                cells = [(InflatedGamma(zero_prob, a, s),)
                         for a, s in zip(grid[0].ravel().tolist(), grid[1].ravel().tolist())]
                model = MixtureModel(np.full(len(cells), 1.0 / len(cells)), cells,
                                     [[0.5]] * len(cells), schemas)
                block = component_log_likelihoods(model, Dataset(schemas, xs[:, None].tolist()),
                                                  IGNORE_MISSING)
                assert not np.isnan(block).any() and (block < np.inf).all()

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

    def test_extreme_means_and_variances_stay_finite_in_log(self):
        """Each level scores against the level nearest the mean, so the squares
        that overflowed for a mean of -1e300 are never formed: the nearest level
        gets log mass 0, the others finite or -inf values, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert QuantizedGaussian(-1e300, 1.0, (1, 2, 3)).log_masses.tolist() == \
                [0.0, -1e300, -2e300]
            assert QuantizedGaussian(1e300, 1.0, (1, 2, 3)).log_masses.tolist() == \
                [-2e300, -1e300, 0.0]
            assert QuantizedGaussian(2.2, 5e-324, (1, 2, 3)).log_masses.tolist() == \
                [-math.inf, 0.0, -math.inf]
            for mean in (-1.7e308, -1e300, 1.5, 1e300, 1.7e308):
                for variance in (5e-324, 1e-300, 1.0, 1e300, 1.7e308):
                    log_masses = QuantizedGaussian(mean, variance, (-1000, 0, 7, 10 ** 6)).log_masses
                    assert not np.isnan(log_masses).any() and (log_masses <= 0).all()
                    assert log_sum_exp(log_masses) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n_levels", [*range(2, 13), 30])
    def test_mass_table_is_the_row_formula_bit_for_bit(self, n_levels):
        """``_log_mass_table`` reduces across components, and still gives the bits of the
        row-by-row formula (``oracles.log_mass_table``) as a C-contiguous (Z, K) table:
        for 1, 3 and 1440 components of random means (on, between and beyond the levels)
        and variances, and for every pair of the extreme means and variances above."""
        rng = np.random.default_rng(n_levels)
        domain = tuple(range(-3, n_levels - 3)) if n_levels < 30 else tuple(range(0, 90, 3))
        extremes = np.array([(m, v) for m in (-1.7e308, -1e300, 1.5, 1e300, 1.7e308)
                             for v in (5e-324, 1e-300, 1.0, 1e300, 1.7e308)])
        blocks = [(rng.choice([*domain, domain[0] + 0.5, domain[-1] - 0.5, rng.uniform(-50, 50)],
                              size=z) + rng.uniform(-1, 1, size=z) * (z > 3),
                   np.exp(rng.uniform(-10, 8, size=z))) for z in (1, 3, 1440)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mean, variance in [*blocks, tuple(extremes.T)]:
                got = _log_mass_table(VariableKind.ORDINAL, domain, (mean, variance))
                assert got.flags.c_contiguous and got.shape == (mean.size, len(domain))
                assert got.tobytes() == oracles.log_mass_table(domain, mean, variance).tobytes()

    def test_log_density_out_of_domain(self):
        with pytest.raises(ValueError):
            QuantizedGaussian(2.0, 1.0, (1, 2, 3)).log_density(4)

    @pytest.mark.parametrize("level", [2.5, 2.0, True, False, "2", None])
    def test_log_density_rejects_non_integer_levels(self, level):
        # schema.validate_value rejects each of these for an ordinal variable
        with pytest.raises(ValueError):
            QuantizedGaussian(2.0, 1.0, (0, 1, 2, 3)).log_density(level)

    def test_log_density_of_integer_levels(self):
        q = QuantizedGaussian(2.0, 1.0, (1, 2, 3))
        assert q.log_density(2) == q.log_density(np.int64(2)) == float(q.log_masses[1])

    def test_expectation_is_the_mean_level(self):
        assert QuantizedGaussian(2.0, 0.5, (1, 2, 3)).expectation == pytest.approx(2.0, abs=1e-15)
        # pulled towards the inside of the domain, 1.5 * mass(2) + 3 * mass(3) above 1
        q = QuantizedGaussian(0.0, 1.0, (1, 2, 3))
        assert q.expectation == pytest.approx(1.0 + q.masses[1] + 2.0 * q.masses[2], rel=1e-15)


class TestCategorical:
    def test_mass_table(self):
        c = Categorical((0.2, 0.8), ("a", "b"))
        assert c.log_density("b") == math.log(0.8)
        assert c.probs == (0.2, 0.8)

    def test_zero_probability_symbol(self):
        c = Categorical((0.0, 1.0), ("a", "b"))
        assert c.log_density("a") == -math.inf

    def test_log_density_of_an_unknown_symbol(self):
        with pytest.raises(ValueError, match=r"^symbol 'c' not in domain \('a', 'b'\)$"):
            Categorical((0.2, 0.8), ("a", "b")).log_density("c")

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Categorical((0.2, 0.7), ("a", "b"))

    def test_n_parameters(self):
        def free(kind, cell, domain=()):
            # one component and one variable add one missing probability
            schemas = (VariableSchema("x", kind, domain),)
            return parameter_count(MixtureModel((1.0,), ((cell,),), [[0.1]], schemas)) - 1

        assert free("real", Gaussian(0, 1)) == 2
        assert free("nonnegative", InflatedGamma(0.1, 1, 1)) == 3
        assert free("ordinal", QuantizedGaussian(0, 1, (0, 1)), (0, 1)) == 2
        assert free("categorical", Categorical((0.5, 0.3, 0.2), ("a", "b", "c")),
                    ("a", "b", "c")) == 2


def test_family_for():
    assert family_for(VariableKind.REAL) is Gaussian
    assert family_for("nonnegative") is InflatedGamma
    assert family_for("ordinal") is QuantizedGaussian
    assert family_for("categorical") is Categorical


def test_cells_evaluate_any_number_the_checks_take():
    """A cell stores each checked numeric field as a float, so a Decimal or a
    Fraction field evaluates as its float does; text stays a TypeError."""
    assert Gaussian(0.5, Decimal("1.0")).log_density(0.3) == Gaussian(0.5, 1.0).log_density(0.3)
    assert (InflatedGamma(Decimal("0.5"), 1.0, 1.0).log_density(0.3)
            == InflatedGamma(0.5, 1.0, 1.0).log_density(0.3))
    assert (QuantizedGaussian(Decimal("2"), 1.0, (1, 2, 3)).log_density(1)
            == QuantizedGaussian(2.0, 1.0, (1, 2, 3)).log_density(1))
    cell = Gaussian(Fraction(1, 2), Decimal("2"))
    assert cell == Gaussian(0.5, 2.0)
    assert type(cell.mean) is type(cell.variance) is float
    table = Categorical((Decimal("0.25"), Fraction(3, 4)), ("a", "b"))
    assert table == Categorical((0.25, 0.75), ("a", "b"))
    assert all(type(p) is float for p in table.probs)
    with pytest.raises(TypeError):
        InflatedGamma(0.5, "1.0", 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: QuantizedGaussian(2.0, 1.0, (1, 3, 2)), "strictly increasing"),
    (lambda: QuantizedGaussian(2.0, 1.0, (1, 1, 2)), "strictly increasing"),
    (lambda: QuantizedGaussian(2.0, 1.0, (2,)), "at least 2 values"),
    (lambda: QuantizedGaussian(2.0, 1.0, (1.5, 2, 3)), "must be integers"),
    (lambda: QuantizedGaussian(2.0, 1.0, (True, 2, 3)), "must be integers"),
    (lambda: QuantizedGaussian(2.0, 1.0, ("1", "2")), "must be integers"),
    (lambda: QuantizedGaussian(2.0**60, 1.0, (2**60, 2**60 + 1, 2**60 + 2)), "distinct floats"),
    (lambda: QuantizedGaussian(2.0**53, 1.0, (2**53, 2**53 + 1)), "distinct floats"),
    (lambda: QuantizedGaussian(-2.0**70, 1.0, (-2**70 - 1, -2**70)), "distinct floats"),
    (lambda: QuantizedGaussian(2.0, 1.0, (0, 2**600)), r"below 2\*\*480"),
    (lambda: QuantizedGaussian(2.0, 1.0, (0, 2**511)), r"below 2\*\*480"),
    (lambda: QuantizedGaussian(-2.0, 1.0, (-2**481, 0)), r"below 2\*\*480"),
    (lambda: QuantizedGaussian(2.0, 1.0, (0, 10**400)), r"below 2\*\*480"),
    (lambda: QuantizedGaussian(2.0, 1.0, (-10**308, 10**308)), r"below 2\*\*480"),
    (lambda: Categorical((0.5, 0.5), ("a", "b", "c")), "lengths differ"),
    (lambda: Categorical((1.0,), ("a",)), "at least 2 values"),
    (lambda: Categorical((0.5, 0.5), ("a", "a")), "duplicates"),
])
def test_bad_domains_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_sampling_is_deterministic():
    for params in (Gaussian(1.0, 2.0), InflatedGamma(0.4, 2.0, 1.0),
                   QuantizedGaussian(2.0, 1.0, (1, 2, 3)),
                   Categorical((0.3, 0.7), ("a", "b"))):
        a = params.sample(np.random.default_rng(5), size=20)
        b = params.sample(np.random.default_rng(5), size=20)
        assert list(a) == list(b)


@pytest.mark.parametrize("cell, kind", [(QuantizedGaussian(2.0, 1.0, (1, 2, 3)), int),
                                        (Categorical((0.3, 0.7), ("a", "b")), str),
                                        (QuantizedGaussian(2.0**69, 2.0**140, (0, 2**70)), int)])
def test_one_draw_is_a_domain_value(cell, kind):
    """Without a size, a finite cell draws one plain level or symbol: the first of
    the draws that the same generator gives with a size. Those draws are domain
    values too, levels past int64 included (the domain rule admits up to 2**480)."""
    draws = cell.sample(np.random.default_rng(5), size=4)
    one = cell.sample(np.random.default_rng(5))
    assert type(one) is kind and one in cell.domain and one == draws[0]
    assert all(type(d) is kind and d in cell.domain for d in draws.tolist())


def _update(kind, values, weights, domain=()):
    """The M-step's cell for one component with ``weights`` on a one-column
    cohort of ``values`` (``conftest.m_step_alone``)."""
    dataset = Dataset((VariableSchema("v", kind, domain),), [(v,) for v in values])
    model, _ = m_step_alone(dataset, np.asarray(weights, dtype=float)[:, None])
    return model.params[0][0]


class TestWeightedMle:
    """The M-step's closed-form weighted maximum-likelihood updates, one family at a time."""

    def test_gaussian_closed_form(self, rng):
        x = rng.normal(2.0, 3.0, size=400)
        w = rng.uniform(0.1, 1.0, size=400)
        got = _update(VariableKind.REAL, x, w)
        mean = np.average(x, weights=w)
        var = np.average((x - mean) ** 2, weights=w)
        assert math.isclose(got.mean, mean, rel_tol=1e-12)
        assert math.isclose(got.variance, var, rel_tol=1e-12)

    def test_variance_floor(self):
        # the zero-weight row 10 away sets the column's scale, not the component's mean
        got = _update(VariableKind.REAL, [5.0, 5.0, 5.0, 15.0], [1.0, 1.0, 1.0, 0.0])
        assert got.mean == 5.0
        assert got.variance == REL_VARIANCE_FLOOR * 100.0

    @pytest.mark.parametrize("domain, values, floor", [
        # the weight falls on level 2 alone: the floor reads the domain's span, not the kept levels'
        ((1, 2, 3, 4, 5), [2, 2, 3], 1.6e-05),
        # the integer span rounded once; float(2**54 + 1) - 3.0 rounds twice, to 2**54 - 4
        ((3, 2**54 + 1), [3, 3, 2**54 + 1], 3.2451855365842664e+26)])
    def test_ordinal_variance_floor(self, domain, values, floor):
        got = _update(VariableKind.ORDINAL, values, [1.0, 1.0, 0.0], domain=domain)
        assert got.mean == values[0]
        assert got.variance == floor == REL_VARIANCE_FLOOR * float(domain[-1] - domain[0]) ** 2

    def test_quantized_frozen(self):
        got = _update(VariableKind.ORDINAL, [1, 2, 3], [1.0, 1.0, 1.0], domain=(1, 2, 3))
        assert got.mean == 2.0
        assert math.isclose(got.variance, 2.0 / 3.0, rel_tol=1e-12)
        assert got.domain == (1, 2, 3)

    def test_categorical_counts_and_pseudo_mass(self):
        got = _update(VariableKind.CATEGORICAL, ["a", "b", "b"], [1.0, 1.0, 2.0],
                      domain=("a", "b", "c"))
        assert math.isclose(sum(got.probs), 1.0, abs_tol=1e-15)
        assert got.probs[2] > 0  # unseen symbol keeps pseudo mass
        assert got.probs[1] > got.probs[0] > got.probs[2]
        assert np.allclose(got.probs, (0.25, 0.75, 0.0), rtol=0, atol=1e-8)

    def test_gamma_zero_handling(self):
        got = _update(VariableKind.NONNEGATIVE, [0.0, 0.0, 2.0, 4.0], [1.0, 3.0, 1.0, 1.0])
        assert math.isclose(got.zero_prob, 4.0 / 6.0, rel_tol=1e-12)
        # positive part: mean 3, moments over the nonzero samples only
        assert math.isclose(got.shape * got.scale, 3.0, rel_tol=1e-12)

    def test_gamma_recovery_within_five_percent(self):
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, 3.0, size=20000)
        got = _update(VariableKind.NONNEGATIVE, x, np.ones_like(x))
        assert abs(got.shape - 2.0) / 2.0 < 0.05
        assert abs(got.scale - 3.0) / 3.0 < 0.05
        assert got.zero_prob == 0.0

    def test_all_zero_gamma(self):
        got = _update(VariableKind.NONNEGATIVE, [0.0, 0.0], [1.0, 1.0])
        assert got.zero_prob == 1.0
        assert got.log_density(1.0) == -math.inf  # no mass on the positive line

    def test_shape_bounds_clamped(self):
        # near-constant positive values push the shape estimate sky high
        got = _update(VariableKind.NONNEGATIVE, [1.0, 1.0 + 1e-13, 1.0 - 1e-13], [1.0, 1.0, 1.0])
        assert got.shape <= SHAPE_MAX


def test_default_block_is_valid():
    """The cells of ``_default_block`` pass their family's checks."""
    assert oracles.default_cell(VariableKind.REAL, (), 1.0).variance > 0
    assert oracles.default_cell(VariableKind.NONNEGATIVE, (), 1.0).scale > 0
    q = oracles.default_cell(VariableKind.ORDINAL, (1, 2, 3, 4), 1.0)
    assert q.mean == 2.5
    c = oracles.default_cell(VariableKind.CATEGORICAL, ("a", "b"), 1.0)
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


def _log_sum_exp_of_a_where(a, axis=-1):
    """``log_sum_exp`` with the rest summed from ``np.where`` of the shifted
    exponent, two input-sized temporaries: the bits it must keep."""
    a = np.asarray(a, dtype=float)
    peak = a.max(axis=axis, keepdims=True)
    top = a == peak
    count = top.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.where(top, 0.0, np.exp(a - peak)).sum(axis=axis, keepdims=True)
        return (np.log1p(rest / count) + np.log(count) + peak).squeeze(axis)


@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(7,), (4, 5), (3, 4, 6), (240, 3, 120), (2, 6, 1000)]))
@settings(max_examples=60, deadline=None)
def test_log_sum_exp_keeps_the_bits_of_the_where(seed, shape):
    """All -inf slices, +inf, NaN, ties, ±0, ±1e308 and subnormals, along every
    axis (EM's shapes along axis 1) of C- and Fortran-ordered inputs: the same
    bits as the ``np.where`` form. With negative NaNs in the input only a NaN
    result's sign may differ, so the bits are compared where it is not NaN."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 10.0, shape)
    for value, share in ((-np.inf, 0.2), (np.inf, 0.03), (np.nan, 0.03), (3.0, 0.1),
                         (0.0, 0.03), (-0.0, 0.03), (1e308, 0.02), (-1e308, 0.02),
                         (5e-324, 0.02), (-2.5e-310, 0.02)):
        a[rng.random(shape) < share] = value
    a[0] = -np.inf
    signed = a.copy()
    signed[rng.random(shape) < 0.03] = signed.flat[-1] = -np.nan
    assert np.signbit(signed.flat[-1])
    for x, y in ((a, signed), (a.T, signed.T), (np.asfortranarray(a), np.asfortranarray(signed))):
        for axis in (1,) if a.size > 1000 else range(a.ndim):  # EM's components axis
            got = _no_warnings(log_sum_exp, x, axis=axis)
            assert got.tobytes() == _log_sum_exp_of_a_where(x, axis=axis).tobytes()
            got, want = _no_warnings(log_sum_exp, y, axis=axis), _log_sum_exp_of_a_where(y, axis=axis)
            nan = np.isnan(want)
            assert (np.isnan(got) == nan).all()
            assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_log_sum_exp_bits_do_not_depend_on_layout(seed):
    """Along an axis of 8-13 terms, which NumPy sums in one order when it is contiguous
    and in another when it is strided, with all -inf slices, ±inf, NaN, ties, ±0 and
    subnormals mixed in: C-ordered, Fortran-ordered and transposed inputs give the bytes
    of the same values laid out with that axis last and contiguous."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        shape = [int(k) for k in rng.integers(1, 6, size=rng.integers(0, 3))]
        shape.insert(int(rng.integers(len(shape) + 1)), int(rng.integers(8, 14)))
        a = rng.normal(0.0, 1.0, shape)
        for value, share in ((-np.inf, 0.2), (np.inf, 0.03), (np.nan, 0.03), (3.0, 0.1),
                             (0.0, 0.03), (-0.0, 0.03), (5e-324, 0.02), (-2.5e-310, 0.02)):
            a[rng.random(shape) < share] = value
        a.reshape(-1, a.shape[-1])[0] = -np.inf
        for x in (a, a.T, np.asfortranarray(a)):
            for axis in range(x.ndim):
                got = _no_warnings(log_sum_exp, x, axis=axis)
                want = log_sum_exp(np.ascontiguousarray(np.moveaxis(x, axis, -1)))
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(240, 3, 120), (2, 6, 10 ** 4)])
def test_log_sum_exp_holds_one_input_sized_temporary(shape):
    """The call's peak traced memory, over the input's bytes, along axis 1: one float
    scratch, the peaks' mask and the sums. The ``np.where`` form held 2.80 and 2.46
    times the input on these shapes; this one holds 2.13 and 1.63."""
    a = np.random.default_rng(0).normal(size=shape)
    log_sum_exp(a, axis=1)
    tracemalloc.start()
    try:
        log_sum_exp(a, axis=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * a.nbytes
