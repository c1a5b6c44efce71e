"""Conditional inference: predictive vectors, mixtures, and evidence handling."""

import math

import numpy as np
import pytest

import oracles
from conftest import random_model, random_row
from hetmix import (IGNORE_MISSING, MISSING, MODEL_MISSING, Categorical,
                    Dataset, FinitePrediction, Gaussian, InferenceRequest,
                    InflatedGamma, MixtureModel, MixturePrediction,
                    QuantizedGaussian, SchemaError, VariableSchema,
                    ZeroLikelihoodError, component_log_likelihoods, infer,
                    infer_many, point_predict, predict_batch, rank_outcomes,
                    sample_cohort, target_tables)
from hetmix.demo import demo_model
from hetmix.distributions import log_sum_exp
from hetmix.io import model_to_dict


def _model(q_by_component=((0.1, 0.2, 0.3), (0.3, 0.1, 0.2))):
    schemas = (VariableSchema("x", "real"),
               VariableSchema("grade", "ordinal", (1, 2, 3), role="outcome"),
               VariableSchema("site", "categorical", ("a", "b")))
    params = ((Gaussian(-2.0, 1.0), QuantizedGaussian(1.0, 0.5, (1, 2, 3)),
               Categorical((0.9, 0.1), ("a", "b"))),
              (Gaussian(2.0, 1.0), QuantizedGaussian(3.0, 0.5, (1, 2, 3)),
               Categorical((0.2, 0.8), ("a", "b"))))
    return MixtureModel((0.5, 0.5), params, q_by_component, schemas)


class TestInferenceRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest({}, (), MODEL_MISSING)
        with pytest.raises(ValueError):
            InferenceRequest({"x": 1.0}, ("x",), MODEL_MISSING)
        with pytest.raises(ValueError):
            InferenceRequest({}, ("grade", "grade"), MODEL_MISSING)
        with pytest.raises(ValueError):
            InferenceRequest({}, ("grade",), "sometimes")

    def test_single_target_string(self):
        request = InferenceRequest({}, "grade", MODEL_MISSING)
        assert request.targets == ("grade",)


class TestInfer:
    def test_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 20:
            model = random_model(rng, max_components=3, max_variables=3)
            finite = [s.name for s in model.schemas if s.kind.is_finite]
            if not finite:
                continue
            target = finite[0]
            row = random_row(model, rng)
            evidence = {s.name: v for s, v in zip(model.schemas, row)
                        if s.name != target}
            oracle_evidence = {k: (None if v is MISSING else v)
                               for k, v in evidence.items()}
            payload = model_to_dict(model)
            for mode in (MODEL_MISSING, IGNORE_MISSING):
                got = infer(model, InferenceRequest(evidence, (target,), mode))
                want = oracles.conditional(payload, oracle_evidence, target, mode)
                assert np.allclose(got[target].probabilities, want,
                                   rtol=1e-10, atol=1e-10)
            checked += 1

    def test_finite_prediction_normalized(self):
        model = _model()
        got = infer(model, InferenceRequest({"x": -1.0}, ("grade", "site"),
                                            MODEL_MISSING))
        for name in ("grade", "site"):
            probs = got[name].probabilities
            assert abs(probs.sum() - 1.0) < 1e-10
            assert (probs >= 0).all()

    def test_evidence_moves_the_posterior(self):
        model = _model()
        low = infer(model, InferenceRequest({"x": -3.0}, ("grade",), MODEL_MISSING))
        high = infer(model, InferenceRequest({"x": 3.0}, ("grade",), MODEL_MISSING))
        assert low.posterior[0] > 0.99
        assert high.posterior[1] > 0.99
        assert low["grade"].probabilities[0] > high["grade"].probabilities[0]

    def test_single_component_ignores_evidence(self):
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("grade", "ordinal", (1, 2, 3), role="outcome"))
        model = MixtureModel((1.0,), ((Gaussian(0, 1),
                                       QuantizedGaussian(2, 1, (1, 2, 3))),),
                             [[0.1, 0.1]], schemas)
        a = infer(model, InferenceRequest({"x": -4.0}, ("grade",), MODEL_MISSING))
        b = infer(model, InferenceRequest({"x": 4.0}, ("grade",), MODEL_MISSING))
        c = infer(model, InferenceRequest({}, ("grade",), MODEL_MISSING))
        assert a["grade"].probabilities.tolist() == b["grade"].probabilities.tolist()
        assert a["grade"].probabilities.tolist() == c["grade"].probabilities.tolist()

    def test_mode_equivalence_with_uniform_q(self):
        # all components share each variable's q, and the evidence has no
        # missing cells: both modes must yield the same conditional
        model = _model(q_by_component=((0.2, 0.3, 0.4), (0.2, 0.3, 0.4)))
        evidence = {"x": 0.7, "site": "b"}
        a = infer(model, InferenceRequest(evidence, ("grade",), MODEL_MISSING))
        b = infer(model, InferenceRequest(evidence, ("grade",), IGNORE_MISSING))
        assert np.allclose(a["grade"].probabilities, b["grade"].probabilities,
                           atol=1e-12)

    def test_uninformative_variable_leaves_posterior_fixed(self):
        # both components agree on x entirely, so observing it changes nothing
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("grade", "ordinal", (1, 2, 3), role="outcome"))
        params = ((Gaussian(0.0, 1.0), QuantizedGaussian(1.0, 0.5, (1, 2, 3))),
                  (Gaussian(0.0, 1.0), QuantizedGaussian(3.0, 0.5, (1, 2, 3))))
        model = MixtureModel((0.7, 0.3), params, [[0.2, 0.1], [0.2, 0.1]], schemas)
        without = infer(model, InferenceRequest({}, ("grade",), MODEL_MISSING))
        given = infer(model, InferenceRequest({"x": 1.3}, ("grade",), MODEL_MISSING))
        assert np.allclose(without.posterior, given.posterior, atol=1e-12)

    def test_explicit_missing_versus_absent(self):
        model = _model()
        absent = infer(model, InferenceRequest({}, ("grade",), MODEL_MISSING))
        explicit = infer(model, InferenceRequest({"x": MISSING}, ("grade",),
                                                 MODEL_MISSING))
        # q differs across components, so an explicit missing x is informative
        assert not np.allclose(absent.posterior, explicit.posterior, atol=1e-6)
        ignored = infer(model, InferenceRequest({"x": MISSING}, ("grade",),
                                                IGNORE_MISSING))
        assert np.allclose(absent.posterior, ignored.posterior, atol=1e-15)

    def test_continuous_target(self):
        model = _model()
        got = infer(model, InferenceRequest({"site": "a"}, ("x",), MODEL_MISSING))
        pred = got["x"]
        assert isinstance(pred, MixturePrediction)
        want = float(np.dot(got.posterior, [-2.0, 2.0]))
        assert math.isclose(pred.expectation, want, rel_tol=1e-12)
        # mixture log-density agrees with a manual two-term sum
        x = 0.8
        manual = math.log(sum(w * math.exp(Gaussian(m, 1.0).log_density(x))
                              for w, m in zip(got.posterior, (-2.0, 2.0))))
        assert math.isclose(pred.log_density(x), manual, rel_tol=1e-12)
        with pytest.raises(TypeError):
            rank_outcomes(pred)

    def test_impossible_evidence(self):
        schemas = (VariableSchema("site", "categorical", ("a", "b")),
                   VariableSchema("grade", "ordinal", (1, 2), role="outcome"))
        model = MixtureModel((1.0,),
                             ((Categorical((1.0, 0.0), ("a", "b")),
                               QuantizedGaussian(1, 1, (1, 2))),),
                             [[0.1, 0.1]], schemas)
        with pytest.raises(ZeroLikelihoodError):
            infer(model, InferenceRequest({"site": "b"}, ("grade",), MODEL_MISSING))

    def test_unknown_names_rejected(self):
        model = _model()
        with pytest.raises(SchemaError):
            infer(model, InferenceRequest({"bogus": 1.0}, ("grade",), MODEL_MISSING))
        with pytest.raises(SchemaError):
            infer(model, InferenceRequest({}, ("bogus",), MODEL_MISSING))

    def test_invalid_evidence_value_rejected(self):
        from hetmix import SchemaViolationError
        model = _model()
        with pytest.raises(SchemaViolationError) as err:
            infer(model, InferenceRequest({"site": "zzz"}, ("grade",), MODEL_MISSING))
        assert [(v.row, v.column) for v in err.value.violations] == [(None, "site")]


def _tie_model():
    """Every component gives "a" and "b" of ``site`` the same mass, so every
    record's ``site`` prediction ties between them."""
    schemas = (VariableSchema("x", "real"),
               VariableSchema("grade", "ordinal", (1, 2, 3), role="outcome"),
               VariableSchema("site", "categorical", ("a", "b", "c"), role="outcome"),
               VariableSchema("dose", "nonnegative", role="outcome"))
    params = ((Gaussian(-2.0, 1.0), QuantizedGaussian(1.0, 0.5, (1, 2, 3)),
               Categorical((0.4, 0.4, 0.2), ("a", "b", "c")), InflatedGamma(0.2, 2.0, 1.5)),
              (Gaussian(2.0, 1.0), QuantizedGaussian(3.0, 0.5, (1, 2, 3)),
               Categorical((0.4, 0.4, 0.2), ("a", "b", "c")), InflatedGamma(0.1, 3.0, 0.5)),
              (Gaussian(0.0, 2.0), QuantizedGaussian(2.0, 0.7, (1, 2, 3)),
               Categorical((0.4, 0.4, 0.2), ("a", "b", "c")), InflatedGamma(0.3, 1.0, 4.0)))
    return MixtureModel((0.3, 0.3, 0.4), params, [[0.1] * 4] * 3, schemas)


class TestPredictBatch:
    """Each row of the batched matrices is what one record's posterior gives alone."""

    @pytest.mark.parametrize("model, n, tied", [(demo_model(), 3000, None),
                                                (_tie_model(), 200, "site")])
    def test_rows_equal_the_per_record_products(self, model, n, tied):
        cohort, _ = sample_cohort(model, n, np.random.default_rng(0))
        targets = [s.name for s in model.schemas if s.role == "outcome"]
        inputs = [j for j in range(model.n_variables) if model.schemas[j].name not in targets]
        log_joint = component_log_likelihoods(model, cohort, MODEL_MISSING, inputs)
        predicted, zero = predict_batch(target_tables(model, targets), log_joint)
        assert zero == {}
        totals = log_sum_exp(log_joint, axis=1)
        assert np.array_equal(predicted.posteriors, np.exp(log_joint - totals[:, None]))
        for name, (schema, table) in target_tables(model, targets).items():
            for r, posterior in enumerate(predicted.posteriors):
                if schema.kind.is_finite:
                    probs = posterior @ table
                    assert np.array_equal(predicted.probabilities[name][r], probs)
                    assert predicted.points[name][r] == np.argmax(probs)
                else:
                    want = np.dot(posterior, [c.expectation for c in table])
                    assert predicted.points[name][r] == want
        if tied:  # every row ties: the first tied symbol wins
            assert set(predicted.points[tied].tolist()) == {0}

    def test_zero_likelihood_record_among_good_ones(self):
        schemas = (VariableSchema("x", "real"),
                   VariableSchema("site", "categorical", ("a", "b")),
                   VariableSchema("grade", "ordinal", (1, 2, 3), role="outcome"))
        params = tuple((Gaussian(m, 1.0), Categorical((1.0, 0.0), ("a", "b")),
                        QuantizedGaussian(g, 0.5, (1, 2, 3))) for m, g in ((-2.0, 1.0), (2.0, 3.0)))
        model = MixtureModel((0.5, 0.5), params, [[0.1, 0.1, 0.1]] * 2, schemas)
        rows = [(-1.0, "a"), (0.3, "a"), (0.5, "b"), (2.0, "a"), (-4.0, "a")]
        columns = [0, 1]

        def run(rows):
            return infer_many(model, Dataset(schemas, rows, columns), columns,
                              ("grade",), MODEL_MISSING)

        predicted, errors = run(rows)
        clean, none = run(rows[:2] + rows[3:])
        assert list(errors) == [2] and none == {}
        with pytest.raises(ZeroLikelihoodError) as caught:
            infer(model, InferenceRequest({"x": 0.5, "site": "b"}, ("grade",), MODEL_MISSING))
        assert str(errors[2]) == str(caught.value)
        assert (predicted.posteriors == clean.posteriors).all()
        assert (predicted.probabilities["grade"] == clean.probabilities["grade"]).all()


class TestPointPredict:
    def test_argmax_and_tie_breaking(self):
        pred = FinitePrediction((1, 2, 3), np.array([0.2, 0.6, 0.2]))
        assert point_predict(pred) == 2
        tie = FinitePrediction((2, 3), np.array([0.5, 0.5]))
        assert point_predict(tie) == 2  # first index, smallest level

    def test_continuous_uses_expectation(self):
        pred = MixturePrediction(np.array([0.25, 0.75]),
                                 (Gaussian(0.0, 1.0), Gaussian(4.0, 1.0)))
        assert point_predict(pred) == pytest.approx(3.0)

    def test_rank_outcomes_stable_descending(self):
        pred = FinitePrediction(("a", "b", "c"), np.array([0.3, 0.4, 0.3]))
        assert rank_outcomes(pred) == [("b", 0.4), ("a", 0.3), ("c", 0.3)]
