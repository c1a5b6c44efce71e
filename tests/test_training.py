"""EM fitting: M-step math, monotone traces, restarts, BIC selection."""

import math

import numpy as np
import pytest

from conftest import random_model, recovery_model
from hetmix import (MODEL_MISSING, ComponentCollapseError, Dataset, EmConfig,
                    MixtureModel, SchemaViolationError, TrainingError,
                    VariableSchema, bic_score, fit, m_step,
                    parameter_count, posterior_matrix, sample_cohort, select_order,
                    total_log_likelihood, weighted_mle)
from hetmix.io import model_to_dict
from hetmix.schema import MISSING
from hetmix.training import MONOTONE_SLACK


def _cohort(n=300, seed=0):
    model = recovery_model()
    ds, labels = sample_cohort(model, n, np.random.default_rng(seed))
    return model, ds, labels


class TestEmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(max_iterations=0)
        with pytest.raises(ValueError):
            EmConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            EmConfig(restarts=0)


class TestMStep:
    def test_order_one_reproduces_column_mles(self):
        _, ds, _ = _cohort(n=250)
        alpha = np.ones((ds.n_subjects, 1))
        model = m_step(ds, alpha)
        assert model.weights.tolist() == [1.0]
        for j, schema in enumerate(ds.schemas):
            obs = ~ds.missing_mask(j)
            assert math.isclose(model.missing_probs[0, j],
                                1.0 - obs.mean(), rel_tol=1e-12)
            if schema.kind.value == "categorical":
                values = ds.column_codes(j)[obs]
            else:
                values = ds.column_numeric(j)[obs]
            want = weighted_mle(schema.kind, values, np.ones(obs.sum()),
                                domain=schema.domain or None,
                                scale=None if schema.kind.value == "categorical"
                                else ds.column_scale(j))
            assert model.params[0][j] == want

    def test_collapsed_component_raises(self):
        _, ds, _ = _cohort(n=50)
        alpha = np.ones((50, 2))
        alpha[:, 1] = 0.0
        with pytest.raises(ComponentCollapseError):
            m_step(ds, alpha)

    def test_responsibilities_with_missing_cells(self):
        schemas = (VariableSchema("x", "real"),)
        ds = Dataset(schemas, [(1.0,), (MISSING,), (3.0,), (MISSING,)])
        alpha = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        model = m_step(ds, alpha)
        # component 1 never observes x, so q -> 1 and params fall back to defaults
        assert model.missing_probs[0, 0] == 0.0
        assert model.missing_probs[1, 0] == 1.0
        assert model.params[0][0].mean == 2.0


class TestFit:
    def test_order_one_is_a_single_pass(self):
        _, ds, _ = _cohort(n=200)
        model, trace = fit(ds, 1, EmConfig(restarts=1, seed=3))
        assert trace.converged
        # the first M-step already lands on the optimum; NLL is flat afterwards
        assert trace.iterations <= 3
        assert math.isclose(trace.nll_per_iteration[0], trace.final_nll,
                            rel_tol=1e-9)

    def test_monotone_trace_and_final_model_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            gen = random_model(rng, max_components=2, max_variables=3)
            ds, _ = sample_cohort(gen, int(rng.integers(40, 120)), rng)
            from hetmix import validate_dataset
            if validate_dataset(ds):
                continue  # tiny cohorts can produce constant columns; skip those
            order = int(rng.integers(1, 4))
            model, trace = fit(ds, order, EmConfig(restarts=2, seed=int(rng.integers(1e6)),
                                                   max_iterations=60))
            nlls = np.asarray(trace.nll_per_iteration)
            assert (np.diff(nlls) <= MONOTONE_SLACK).all()
            assert math.isclose(-total_log_likelihood(model, ds, MODEL_MISSING),
                                trace.final_nll, rel_tol=1e-9)

    def test_deterministic(self):
        _, ds, _ = _cohort(n=150)
        config = EmConfig(restarts=2, seed=11, max_iterations=80)
        a, trace_a = fit(ds, 2, config)
        b, trace_b = fit(ds, 2, config)
        assert model_to_dict(a) == model_to_dict(b)
        assert trace_a == trace_b

    def test_recovers_generating_nll(self):
        gen, ds, _ = _cohort(n=2000, seed=5)
        model, trace = fit(ds, 2, EmConfig(restarts=2, seed=1))
        gen_nll = -total_log_likelihood(gen, ds, MODEL_MISSING)
        assert trace.final_nll <= gen_nll + 0.005 * abs(gen_nll)

    def test_rejects_invalid_dataset(self):
        ds = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                     [(1.0, 2.0), (1.0, 3.0)])  # x is constant
        with pytest.raises(SchemaViolationError):
            fit(ds, 1, EmConfig())

    def test_rejects_bad_cell(self):
        ds = Dataset((VariableSchema("x", "real"), VariableSchema("y", "real")),
                     [(1.0, 2.0), (-1.0, "oops"), (0.5, 3.0)])
        with pytest.raises(SchemaViolationError) as err:
            fit(ds, 1, EmConfig())
        assert [(v.row, v.column) for v in err.value.violations] == [(1, "y")]

    def test_rejects_bad_order(self):
        _, ds, _ = _cohort(n=30)
        with pytest.raises(ValueError):
            fit(ds, 0, EmConfig())


class TestBic:
    def test_formula(self):
        _, ds, _ = _cohort(n=100)
        model, _ = fit(ds, 1, EmConfig(restarts=1))
        nll = -total_log_likelihood(model, ds, MODEL_MISSING)
        want = 0.5 * parameter_count(model) * math.log(100) + nll
        assert math.isclose(bic_score(model, ds), want, rel_tol=1e-15)

    def test_frozen_arithmetic(self):
        # 0.5 * 10 * ln(100) + 500
        assert math.isclose(0.5 * 10 * math.log(100) + 500.0,
                            523.0258509299405, rel_tol=1e-15)


class TestSelectOrder:
    def test_picks_true_order_on_separated_cohort(self):
        _, ds, _ = _cohort(n=800, seed=9)
        selection = select_order(ds, range(1, 4), EmConfig(restarts=2, seed=2))
        assert selection.best_order == 2
        assert [s.order for s in selection.scores] == [1, 2, 3]
        bics = [s.bic for s in selection.scores]
        assert min(bics) == selection.scores[1].bic

    def test_failed_orders_are_recorded(self, monkeypatch):
        _, ds, _ = _cohort(n=120)
        import hetmix.training as training

        real_fit = training.fit

        def flaky_fit(dataset, order, config=EmConfig(), **kw):
            if order == 3:
                raise TrainingError("synthetic failure")
            return real_fit(dataset, order, config, **kw)

        monkeypatch.setattr(training, "fit", flaky_fit)
        with pytest.warns(UserWarning):
            selection = training.select_order(ds, [1, 3], EmConfig(restarts=1))
        assert selection.best_order == 1
        row = selection.scores[1]
        assert row.order == 3 and row.error == "synthetic failure"
        assert row.bic is None

    def test_all_orders_failing_raises(self, monkeypatch):
        _, ds, _ = _cohort(n=40)
        import hetmix.training as training
        monkeypatch.setattr(training, "fit",
                            lambda *a, **k: (_ for _ in ()).throw(TrainingError("no")))
        with pytest.warns(UserWarning), pytest.raises(TrainingError):
            training.select_order(ds, [1, 2], EmConfig())

    def test_rejects_empty_or_bad_orders(self):
        _, ds, _ = _cohort(n=30)
        with pytest.raises(ValueError):
            select_order(ds, [], EmConfig())
        with pytest.raises(ValueError):
            select_order(ds, [0, 1], EmConfig())


def test_e_step_rows_sum_to_one():
    gen, ds, _ = _cohort(n=60)
    alpha = posterior_matrix(gen, ds, MODEL_MISSING)
    assert alpha.shape == (60, 2)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
