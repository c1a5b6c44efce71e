"""Mixture kernel: joint likelihoods, posteriors, sampling, parameter counts."""

import hashlib
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import KINDS, random_cell_params, random_model, random_row, random_schema
from hetmix import (IGNORE_MISSING, MISSING, MODEL_MISSING, Categorical,
                    Dataset, Gaussian, InflatedGamma, MixtureModel, QuantizedGaussian,
                    SchemaError, SchemaViolationError, VariableSchema,
                    ZeroLikelihoodError, component_log_likelihoods,
                    evidence_log_likelihoods, joint_log_likelihood, latent_posterior,
                    parameter_count, row_log_likelihoods, sample_cohort,
                    training_confidence_scores, validate_dataset)
from hetmix.demo import demo_model, small_demo_model
from hetmix.inference import predict_batch
from hetmix.distributions import _BLOCK_FIELDS, _check_params, log_sum_exp
from hetmix.model import _parameter_count
from hetmix.io import model_to_dict, read_data_csv, write_data_csv


def _single_gaussian_model():
    schemas = (VariableSchema("x", "real"),)
    return MixtureModel((1.0,), ((Gaussian(0.0, 1.0),),), [[0.25]], schemas)


def _two_comp_model():
    schemas = (VariableSchema("x", "real"),
               VariableSchema("s", "categorical", ("a", "b")))
    params = ((Gaussian(-2.0, 1.0), Categorical((0.9, 0.1), ("a", "b"))),
              (Gaussian(2.0, 1.0), Categorical((0.1, 0.9), ("a", "b"))))
    return MixtureModel((0.6, 0.4), params, [[0.1, 0.2], [0.3, 0.4]], schemas)


class TestMixtureModel:
    def test_validation(self):
        schemas = (VariableSchema("x", "real"),)
        with pytest.raises(ValueError):
            MixtureModel((0.5, 0.6), ((Gaussian(0, 1),), (Gaussian(1, 1),)),
                         [[0.1], [0.1]], schemas)
        with pytest.raises(ValueError):
            MixtureModel((1.0,), ((Gaussian(0, 1),),), [[1.5]], schemas)
        with pytest.raises(ValueError):
            MixtureModel((1.0,), ((Gaussian(0, 1), Gaussian(0, 1)),), [[0.1]], schemas)
        with pytest.raises(ValueError, match=r"missing_probs must have shape \(1, 1\)"):
            MixtureModel((1.0,), ((Gaussian(0, 1),),), [0.1], schemas)

    def test_duplicate_variable_names_refused(self):
        """Two variables of one name are refused as the model is built, with the text a
        Dataset gives them; a name the model lacks gets a Dataset's text too."""
        with pytest.raises(SchemaError, match=r"^duplicate variable names: \['x'\]$"):
            MixtureModel((1.0,), ((Gaussian(0, 1), Gaussian(5, 1)),), [[0.1, 0.1]],
                         (VariableSchema("x", "real"),) * 2)
        with pytest.raises(SchemaError, match=r"^no variable named 'y'$"):
            _single_gaussian_model().column_index("y")

    def test_immutable(self):
        model = _single_gaussian_model()
        with pytest.raises(AttributeError, match="immutable; cannot set 'weights'"):
            model.weights = np.array([1.0])

    def test_stacked_weights_refused(self):
        """A (Z, 1) weight array whose every row sums to 1 is not a weight vector."""
        schemas = (VariableSchema("x", "real"),)
        with pytest.raises(ValueError, match="non-empty vector"):
            MixtureModel([[1.0], [1.0]], ((Gaussian(0, 1),), (Gaussian(1, 1),)),
                         [[0.1], [0.1]], schemas)

    @pytest.mark.parametrize("weights", [None, 1.0, ()])
    def test_weights_checked_before_the_cells(self, weights):
        """A weight that is no vector is named as such, not blamed on the cells."""
        with pytest.raises(ValueError, match="^weights must be a non-empty vector$"):
            MixtureModel(weights, ((Gaussian(0, 1),),), [[0.1]], (VariableSchema("x", "real"),))

    @pytest.mark.parametrize("weights, missing", [
        ((math.nan, 1.0), [[0.1], [0.1]]),
        ((0.5, math.nan), [[0.1], [0.1]]),
        ((0.5, 0.5), [[math.nan], [0.1]]),
    ])
    def test_non_finite_weights_or_missing_rejected(self, weights, missing):
        schemas = (VariableSchema("x", "real"),)
        with pytest.raises(ValueError):
            MixtureModel(weights, ((Gaussian(0, 1),), (Gaussian(1, 1),)), missing, schemas)

    @pytest.mark.parametrize("make", [
        lambda: Gaussian(math.nan, 1.0),
        lambda: Gaussian(math.inf, 1.0),
        lambda: QuantizedGaussian(math.nan, 1.0, (1, 2, 3)),
        lambda: QuantizedGaussian(-math.inf, 1.0, (1, 2, 3)),
        lambda: InflatedGamma(0.1, math.inf, 1.0),
        lambda: InflatedGamma(0.1, 1.0, math.inf),
        lambda: Categorical((math.nan, 0.5), ("a", "b")),
    ])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_blocks_must_match_their_schemas(self):
        schemas = (VariableSchema("g", "ordinal", (1, 2, 3)),
                   VariableSchema("s", "categorical", ("a", "b")))
        good = (QuantizedGaussian(2, 1, (1, 2, 3)), Categorical((0.5, 0.5), ("a", "b")))
        MixtureModel((1.0,), (good,), [[0.1, 0.1]], schemas)
        wrong_family = (Gaussian(2, 1), good[1])
        wrong_ordinal_domain = (QuantizedGaussian(2, 1, (1, 2, 4)), good[1])
        wrong_symbols = (good[0], Categorical((0.5, 0.5), ("a", "c")))
        for row in (wrong_family, wrong_ordinal_domain, wrong_symbols):
            with pytest.raises(ValueError):
                MixtureModel((1.0,), (row,), [[0.1, 0.1]], schemas)

    def test_parameter_count_does_not_build_the_grid(self):
        schemas = (VariableSchema("x", "real"),)
        model = MixtureModel._from_blocks((1.0,), ((np.array([0.0]), np.array([1.0])),),
                                          [[0.25]], schemas)
        assert parameter_count(model) == 3
        assert model._params is None
        assert model.params == ((Gaussian(0.0, 1.0),),)

    def test_parameter_count_frozen(self):
        assert parameter_count(_single_gaussian_model()) == 3  # 0 + 1 + 2
        # 2 components, 2 vars: 1 weight + 4 q + 2*(2 gaussian + 1 categorical)
        assert parameter_count(_two_comp_model()) == 11

    def test_parameter_count_all_families(self):
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("g", "nonnegative"),
                   VariableSchema("s", "ordinal", (1, 2, 3)),
                   VariableSchema("c", "categorical", ("a", "b", "c", "d")))
        row = (Gaussian(0, 1), InflatedGamma(0.1, 1, 1), QuantizedGaussian(2, 1, (1, 2, 3)),
               Categorical((0.25,) * 4, ("a", "b", "c", "d")))
        model = MixtureModel((0.5, 0.5), (row, row), np.full((2, 4), 0.1), schemas)
        # 1 + 8 + 2*(2 + 3 + 2 + 3) = 29
        assert parameter_count(model) == 29

    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_count_depends_on_schemas_and_order_alone(self, kind, rng):
        """select_order counts each order's parameters before it builds any model: for
        every kind, the count of the schemas and the order is the model's, the size of
        its parameter arrays less one weight and one probability per categorical row."""
        for order in (1, 2, 4):
            schemas = (random_schema("a", kind, rng), random_schema("b", kind, rng))
            params = [[random_cell_params(s, rng) for s in schemas] for _ in range(order)]
            model = MixtureModel(np.full(order, 1 / order), params, np.full((order, 2), 0.1),
                                 schemas)
            free = order - 1 + model.missing_probs.size + sum(
                sum(a.size for a in block) - order * (s.kind == "categorical")
                for s, block in zip(schemas, model._blocks))
            assert parameter_count(model) == _parameter_count(schemas, order) == free


_NAN, _INF = math.nan, math.inf
# family -> (schema of its variable, valid values of its block fields, in order)
_BLOCK_CASES = {
    Gaussian: (VariableSchema("x", "real"), (0.5, 2.0)),
    InflatedGamma: (VariableSchema("c", "nonnegative"), (0.2, 1.5, 2.0)),
    QuantizedGaussian: (VariableSchema("g", "ordinal", (1, 2, 3)), (2.0, 1.0)),
    Categorical: (VariableSchema("s", "categorical", ("a", "b", "c")), ((0.2, 0.3, 0.5),)),
}
_MEAN = (_NAN, _INF, -_INF, -1e6, 0.0)
_POSITIVE = (0.0, -1.0, _NAN, _INF, -_INF, 1e-300)


@pytest.mark.parametrize("family, field, value", [
    *[(f, 0, v) for f in (Gaussian, QuantizedGaussian) for v in _MEAN],
    *[(f, 1, v) for f in (Gaussian, QuantizedGaussian) for v in _POSITIVE],
    *[(InflatedGamma, 0, v) for v in (-1e-12, 1.0 + 1e-12, _NAN, _INF, 0.0, 1.0)],
    *[(InflatedGamma, j, v) for j in (1, 2) for v in _POSITIVE],
    *[(Categorical, 0, row) for row in (
        (-0.1, 0.6, 0.5), (_NAN, 0.5, 0.5), (_INF, 0.0, 0.0), (0.2, 0.3, 0.5 + 1e-9),
        (0.2, 0.3, 0.5 - 1e-9), (0.2, 0.3, 0.5 + 1e-13), (0.0, 0.0, 1.0))],
    *[(f, 0, -1e300) for f in (Gaussian, QuantizedGaussian)],  # no mass table overflows
])
def test_block_checks_match_the_cell_checks(family, field, value):
    """A model built from blocks refuses a block exactly when the family's
    constructor refuses the bad cell in it."""
    schema, good = _BLOCK_CASES[family]
    bad = list(good)
    bad[field] = value
    domain = (schema.domain,) if schema.domain else ()
    try:
        family(*bad, *domain)
        cell_ok = True
    except ValueError:
        cell_ok = False
    block = tuple(np.array([g, b], dtype=float) for g, b in zip(good, bad))
    try:
        MixtureModel._from_blocks((0.5, 0.5), (block,), [[0.1], [0.1]], (schema,))
        block_ok = True
    except ValueError:
        block_ok = False
    assert block_ok == cell_ok


def test_cell_fields_take_any_number_float_takes():
    """A cell field, a probability row, a weight or a missing probability may
    be any number ``float`` converts, not text."""
    schemas = (VariableSchema("x", "real"), VariableSchema("c", "nonnegative"),
               VariableSchema("s", "categorical", ("a", "b")))
    row = (Gaussian(Fraction(1, 2), Decimal("2")), InflatedGamma(0.5, 2 ** 70, 1.0),
           Categorical((Decimal("0.25"), Fraction(3, 4)), ("a", "b")))
    model = MixtureModel((Decimal("0.5"), Fraction(1, 2)), (row, row),
                         [[Decimal("0.1"), Fraction(1, 10), 0]] * 2, schemas)
    assert model._cells(0) == (Gaussian(0.5, 2.0),) * 2
    assert model._blocks[1][1].tolist() == [2.0 ** 70] * 2
    assert model._cells(2) == (Categorical((0.25, 0.75), ("a", "b")),) * 2
    assert model.weights.tolist() == [0.5, 0.5]
    assert model.missing_probs.tolist() == [[0.1, 0.1, 0.0]] * 2
    with pytest.raises(TypeError):
        Gaussian("0.5", 1.0)


_CELLS = ((Gaussian(0.0, 1.0),), (Gaussian(1.0, 1.0),))
_X_SCHEMAS = (VariableSchema("x", "real"),)


@pytest.mark.parametrize("field, make", [
    ("missing_probs", lambda: MixtureModel([0.7, 0.3], _CELLS, [[0.1], [True]], _X_SCHEMAS)),
    ("weights", lambda: MixtureModel(["0.7", "0.3"], _CELLS, [[0.1], [0.1]], _X_SCHEMAS)),
    ("mean", lambda: Gaussian(True, 1.0)),
    ("zero_prob", lambda: InflatedGamma(False, 1.0, 1.0)),
    ("probs", lambda: Categorical((True, False), ("a", "b"))),
    ("probs", lambda: Categorical(("0.5", "0.5"), ("a", "b"))),
    ("weights", lambda: MixtureModel([0.0, True], _CELLS, [[0.1], [0.1]], _X_SCHEMAS)),
    ("weights", lambda: MixtureModel(np.array([True, False]), _CELLS, [[0.1], [0.1]], _X_SCHEMAS)),
    ("missing_probs", lambda: MixtureModel([0.5, 0.5], _CELLS, [[0.1], [np.bool_(0)]], _X_SCHEMAS)),
    ("variance", lambda: Gaussian(0.0, None)),
    ("weights", lambda: MixtureModel([0.5, None], _CELLS, [[0.1], [0.1]], _X_SCHEMAS)),
    ("shape", lambda: InflatedGamma(0.5, 10 ** 400, 1.0)),
], ids=["bool-missing-prob", "string-weights", "bool-mean", "bool-zero-prob", "bool-probs",
        "string-probs", "mixed-list", "numpy-bool-weights", "numpy-bool-missing-prob",
        "none-variance", "none-weight", "int-past-float"])
def test_non_numbers_refused(field, make):
    """A bool, text or None where a parameter number belongs, or a number
    ``float`` refuses, is a TypeError naming the field, never converted."""
    with pytest.raises(TypeError, match=rf"^{field} must be numbers \(not bools or text\)"):
        make()


@pytest.mark.parametrize("family, field, value", [
    (Gaussian, 0, [0.0, 1.0]),
    (QuantizedGaussian, 1, np.ones(2)),
    (InflatedGamma, 0, np.array([[0.2]])),
    (InflatedGamma, 1, [1.0, 2.0]),
    (Categorical, 0, ((0.2, 0.3, 0.5),) * 3),
])
def test_cells_and_blocks_refuse_extra_axes(family, field, value):
    """A cell field holding an array is refused (TypeError), and so is a block
    array with one axis too many (ValueError), never broadcast."""
    schema, good = _BLOCK_CASES[family]
    bad = list(good)
    bad[field] = value
    domain = (schema.domain,) if schema.domain else ()
    with pytest.raises(TypeError):
        family(*bad, *domain)
    block = [np.array([g, g], dtype=float) for g in good]
    block[field] = block[field][..., None]
    with pytest.raises(ValueError):
        MixtureModel._from_blocks((0.5, 0.5), (tuple(block),), [[0.1], [0.1]], (schema,))
    name = _BLOCK_FIELDS[schema.kind][field]
    _check_params({name: block[field][..., 0]}, 1)
    with pytest.raises(TypeError):
        _check_params({name: block[field]}, 1)


class TestJointLikelihood:
    def test_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            model = random_model(rng)
            row = random_row(model, rng)
            payload = model_to_dict(model)
            evidence = {s.name: (None if v is MISSING else v)
                        for s, v in zip(model.schemas, row)}
            for mode in (MODEL_MISSING, IGNORE_MISSING):
                want = math.log(oracles.joint_likelihood(payload, evidence, mode))
                got = joint_log_likelihood(model, row, mode)
                assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)

    def test_component_permutation_invariance(self):
        model = _two_comp_model()
        flipped = MixtureModel(model.weights[::-1],
                               (model.params[1], model.params[0]),
                               model.missing_probs[::-1], model.schemas)
        for row in [(-1.5, "a"), (MISSING, "b"), (2.0, MISSING)]:
            a = joint_log_likelihood(model, row, MODEL_MISSING)
            b = joint_log_likelihood(flipped, row, MODEL_MISSING)
            assert math.isclose(a, b, rel_tol=1e-12)

    def test_modes_on_all_missing_row(self):
        model = _two_comp_model()
        row = (MISSING, MISSING)
        assert joint_log_likelihood(model, row, IGNORE_MISSING) == pytest.approx(0.0)
        want = math.log(0.6 * 0.1 * 0.2 + 0.4 * 0.3 * 0.4)
        assert joint_log_likelihood(model, row, MODEL_MISSING) == pytest.approx(want)

    def test_invalid_row_rejected(self):
        model = _two_comp_model()
        with pytest.raises(SchemaViolationError):
            joint_log_likelihood(model, (1.0,), MODEL_MISSING)
        with pytest.raises(SchemaViolationError):
            joint_log_likelihood(model, (1.0, "z"), MODEL_MISSING)

    def test_bad_cell_reported_at_row_zero(self):
        model = _two_comp_model()
        with pytest.raises(SchemaViolationError) as err:
            joint_log_likelihood(model, ("oops", "z"), MODEL_MISSING)
        assert [(v.row, v.column) for v in err.value.violations] == [(0, "x"), (0, "s")]

    def test_bad_evidence_value_has_no_row(self):
        model = _two_comp_model()
        with pytest.raises(SchemaViolationError) as err:
            evidence_log_likelihoods(model, {"s": "z", "x": "oops"}, MODEL_MISSING)
        # one violation per bad value, in evidence order
        assert [(v.row, v.column) for v in err.value.violations] == [(None, "s"), (None, "x")]

    def test_schema_mismatch_rejected(self):
        model = _two_comp_model()
        other = Dataset((VariableSchema("y", "real"),), [(1.0,)])
        with pytest.raises(SchemaError):
            row_log_likelihoods(model, other, MODEL_MISSING)

    def test_bad_column_subset_rejected(self):
        """Scoring refuses a repeated, negative, out-of-range or non-integer column
        index with the text ``Dataset`` gives it: [1, 1] would count column 1 twice,
        [-1] would mean the last column, [True] column 1."""
        model = small_demo_model()
        cohort, _ = sample_cohort(model, 4, np.random.default_rng(0))
        last = model.n_variables - 1
        for columns, message in (([1, 1], "column index 1 is repeated"),
                                 ([-1], f"column index -1 is not in 0..{last}"),
                                 ([99], f"column index 99 is not in 0..{last}"),
                                 ([True], "column index True is not an integer")):
            for score in (component_log_likelihoods, row_log_likelihoods,
                          training_confidence_scores):
                with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                    score(model, cohort, MODEL_MISSING, columns)

    @pytest.mark.parametrize("n_comp", [1, 3, 8, 12])
    def test_row_log_likelihoods_is_the_row_log_sum_exp(self, n_comp):
        """``row_log_likelihoods`` reduces the (Z, N) log joint across components and
        has the bits of ``log_sum_exp`` along the rows of ``component_log_likelihoods``,
        in both modes, over every column and over a subset."""
        rng = np.random.default_rng(n_comp)
        schemas = tuple(random_schema(f"v{j}", kind, rng) for j, kind in enumerate(KINDS * 2))
        params = tuple(tuple(random_cell_params(s, rng) for s in schemas) for _ in range(n_comp))
        model = MixtureModel(rng.dirichlet(np.ones(n_comp)), params,
                             rng.uniform(0.05, 0.6, size=(n_comp, len(schemas))), schemas)
        cohort, _ = sample_cohort(model, 40, rng)
        for mode in (MODEL_MISSING, IGNORE_MISSING):
            for columns in (None, [0, 3, 5]):
                want = log_sum_exp(component_log_likelihoods(model, cohort, mode, columns), axis=1)
                got = row_log_likelihoods(model, cohort, mode, columns)
                assert got.tobytes() == want.tobytes()


class TestPosterior:
    def test_single_component_is_certain(self):
        model = _single_gaussian_model()
        assert latent_posterior(model, (0.3,), MODEL_MISSING).tolist() == [1.0]
        assert latent_posterior(model, (MISSING,), MODEL_MISSING).tolist() == [1.0]

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng)
            row = random_row(model, rng)
            post = latent_posterior(model, row, MODEL_MISSING)
            assert abs(post.sum() - 1.0) < 1e-12
            assert (post >= 0).all()

    def test_impossible_row_raises(self):
        schemas = (VariableSchema("s", "categorical", ("a", "b")),)
        model = MixtureModel((1.0,), ((Categorical((1.0, 0.0), ("a", "b")),),),
                             [[0.1]], schemas)
        with pytest.raises(ZeroLikelihoodError,
                           match="^subject 0 has zero likelihood under every component$"):
            latent_posterior(model, ("b",), MODEL_MISSING)

    def test_observation_under_always_missing_component(self):
        schemas = (VariableSchema("x", "real"),)
        model = MixtureModel((1.0,), ((Gaussian(0, 1),),), [[1.0]], schemas)
        with pytest.raises(ZeroLikelihoodError):
            latent_posterior(model, (0.5,), MODEL_MISSING)


class TestRecordScorer:
    """Each single-record query equals the batch routine on the same one-row Dataset,
    bit for bit: one record scorer serves all three."""

    @staticmethod
    def _draws(seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            model = random_model(rng, max_components=4, max_variables=4)
            row = random_row(model, rng)
            columns = rng.permutation(model.n_variables)[:rng.integers(0, model.n_variables + 1)]
            yield model, row, Dataset(model.schemas, [row]), columns.tolist()

    def test_joint_log_likelihood_is_row_log_likelihoods(self):
        for model, row, ds, _ in self._draws(31):
            for mode in (MODEL_MISSING, IGNORE_MISSING):
                got = joint_log_likelihood(model, row, mode)
                assert type(got) is float
                want = row_log_likelihoods(model, ds, mode)
                assert np.float64(got).tobytes() == want[:1].tobytes()

    def test_latent_posterior_is_predict_batch(self):
        for model, row, ds, _ in self._draws(32):
            for mode in (MODEL_MISSING, IGNORE_MISSING):
                predicted, zero = predict_batch({}, component_log_likelihoods(model, ds, mode))
                assert zero == {}
                assert latent_posterior(model, row, mode).tobytes() == \
                    predicted.posteriors[0].tobytes()

    def test_evidence_log_likelihoods_is_component_log_likelihoods(self):
        for model, row, ds, columns in self._draws(33):
            evidence = {model.schemas[j].name: row[j] for j in columns}
            for mode in (MODEL_MISSING, IGNORE_MISSING):
                want = component_log_likelihoods(model, ds, mode, columns)[0]
                assert evidence_log_likelihoods(model, evidence, mode).tobytes() == want.tobytes()


class TestSampleCohort:
    def test_deterministic(self):
        model = _two_comp_model()
        a, la = sample_cohort(model, 50, np.random.default_rng(9))
        b, lb = sample_cohort(model, 50, np.random.default_rng(9))
        assert la.tolist() == lb.tolist()
        assert all(a.row(i) == b.row(i) for i in range(50))

    def test_cells_are_plain_python_values(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, max_components=2, max_variables=3)
        ds, labels = sample_cohort(model, 40, rng)
        for i in range(ds.n_subjects):
            for value in ds.row(i):
                assert value is MISSING or type(value) in (float, int, str)

    def test_label_and_missing_frequencies(self):
        model = _two_comp_model()
        ds, labels = sample_cohort(model, 20000, np.random.default_rng(4))
        assert abs(labels.mean() - 0.4) < 0.02
        frac_missing_x = ds.missing_mask(0)[labels == 0].mean()
        assert abs(frac_missing_x - 0.1) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_cohort(_two_comp_model(), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [True, 2.0, -1, "3"])
    def test_n_must_be_an_integer_at_least_one(self, n):
        """The rule ``EmConfig`` follows: a bool or a float is refused by name, not
        passed to numpy."""
        with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {n!r}$"):
            sample_cohort(_two_comp_model(), n, np.random.default_rng(0))

    def test_levels_past_int64_round_trip_through_a_cohort_file(self, tmp_path):
        """Draws too large for int64 take ``_encode_plain``'s cell-by-cell path, are
        written as their ints and read back as the same cells, with no violation."""
        schemas = (VariableSchema("g", "ordinal", (0, 2**70)), VariableSchema("x", "real"))
        cells = (QuantizedGaussian(2.0**69, 2.0**140, (0, 2**70)), Gaussian(0.0, 1.0))
        model = MixtureModel((1.0,), (cells,), [[0.2, 0.1]], schemas)
        got, _ = sample_cohort(model, 40, np.random.default_rng(3))
        write_data_csv(got, tmp_path / "cohort.csv")
        back = read_data_csv(tmp_path / "cohort.csv", schemas)
        assert [back.row(i) for i in range(40)] == [got.row(i) for i in range(40)]
        assert {got.row(i)[0] for i in range(40)} == {0, 2**70, MISSING}
        assert validate_dataset(back) == []

    @pytest.mark.parametrize("make", [small_demo_model, demo_model])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_columns_equal_the_row_built_dataset(self, make, seed, tmp_path):
        """``sample_cohort`` hands its draws to the dataset as columns; the
        ``Dataset(schemas, rows)`` of the same draws (the same RNG calls, in the
        same order) is the same table, down to its CSV bytes."""
        model, n = make(), 300
        got, labels = sample_cohort(model, n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want_labels = rng.choice(model.n_components, size=n, p=model.weights)
        columns = []
        for v in range(model.n_variables):
            make_missing = rng.random(n) < model.missing_probs[want_labels, v]
            column = np.empty(n, dtype=object)
            for z in range(model.n_components):
                rows = np.flatnonzero(want_labels == z)
                if rows.size:
                    column[rows] = model.params[z][v].sample(rng, size=rows.size).tolist()
            column[make_missing] = MISSING
            columns.append(column)
        want = Dataset(model.schemas, zip(*columns))
        assert np.array_equal(labels, want_labels)
        for v in range(model.n_variables):
            assert np.array_equal(got.missing_mask(v), want.missing_mask(v))
        assert np.array_equal(got._values, want._values, equal_nan=True)
        write_data_csv(got, tmp_path / "got.csv")
        write_data_csv(want, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("make, digest", [
    (small_demo_model, "ac1241023bcb528bd0f071ae74def74596f7c248d5116be167eaccf5209f343d"),
    (demo_model, "23dc13f2b2e938d7d6d467926bfb1007cfd821022bfa9ad537535e58f239aec7"),
])
def test_bundled_generators_frozen(make, digest):
    text = json.dumps(model_to_dict(make()), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
