"""Mixture kernel: joint likelihoods, posteriors, sampling, parameter counts."""

import math

import numpy as np
import pytest

import oracles
from conftest import random_model, random_row
from hetmix import (IGNORE_MISSING, MISSING, MODEL_MISSING, Categorical,
                    Dataset, Gaussian, MixtureModel, QuantizedGaussian,
                    SchemaError, SchemaViolationError, VariableSchema,
                    ZeroLikelihoodError, evidence_log_likelihoods,
                    joint_log_likelihood, latent_posterior,
                    parameter_count, row_log_likelihoods, sample_cohort,
                    total_log_likelihood)
from hetmix.io import model_to_dict


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

    def test_parameter_count_frozen(self):
        assert parameter_count(_single_gaussian_model()) == 3  # 0 + 1 + 2
        # 2 components, 2 vars: 1 weight + 4 q + 2*(2 gaussian + 1 categorical)
        assert parameter_count(_two_comp_model()) == 11

    def test_parameter_count_all_families(self):
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("s", "ordinal", (1, 2, 3)),
                   VariableSchema("c", "categorical", ("a", "b", "c", "d")))
        row = (Gaussian(0, 1), QuantizedGaussian(2, 1, (1, 2, 3)),
               Categorical((0.25,) * 4, ("a", "b", "c", "d")))
        model = MixtureModel((0.5, 0.5), (row, row), np.full((2, 3), 0.1), schemas)
        # 1 + 6 + 2*(2 + 2 + 3) = 21
        assert parameter_count(model) == 21


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
        with pytest.raises(ZeroLikelihoodError):
            latent_posterior(model, ("b",), MODEL_MISSING)

    def test_observation_under_always_missing_component(self):
        schemas = (VariableSchema("x", "real"),)
        model = MixtureModel((1.0,), ((Gaussian(0, 1),),), [[1.0]], schemas)
        with pytest.raises(ZeroLikelihoodError):
            latent_posterior(model, (0.5,), MODEL_MISSING)


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


def test_total_log_likelihood_adds_rows():
    model = _two_comp_model()
    ds, _ = sample_cohort(model, 30, np.random.default_rng(2))
    rows = row_log_likelihoods(model, ds, MODEL_MISSING)
    assert math.isclose(total_log_likelihood(model, ds, MODEL_MISSING),
                        float(rows.sum()), rel_tol=1e-15)
