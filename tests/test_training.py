"""EM fitting: M-step math, monotone traces, restarts, BIC selection."""

import math

import numpy as np
import pytest

import oracles
from conftest import m_step_alone, random_model, recovery_model
from hetmix import (MODEL_MISSING, ComponentCollapseError, Dataset, EmConfig,
                    EstimationError, MixtureModel, SchemaViolationError, TrainingError,
                    VariableSchema, bic_score, component_log_likelihoods, fit,
                    parameter_count, row_log_likelihoods, sample_cohort, select_order)
from hetmix.distributions import log_sum_exp
from hetmix.io import model_to_dict
from hetmix.schema import MISSING
from hetmix.training import MONOTONE_SLACK, _em_batch, _scales

# EM's final NLL comes from its E-step, a matrix product with the sufficient
# statistics; rescoring sums each row's factors. They agree to rounding: over 40
# ``recovery_model`` cohorts (n 300, order 2, 3 iterations) 9 differed, by at
# most 2.2e-16 relative, and over 120 fits run to tolerance (orders 1-3) 49
# differed, by at most 2.4e-16.
RESCORED_REL_TOL = 1e-13


def _nll(model, ds):
    """The model's NLL on ``ds``, rescored row by row."""
    return -float(row_log_likelihoods(model, ds, MODEL_MISSING).sum())


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

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 2.5), ("max_iterations", "3"), ("restarts", 2.5),
        ("restarts", True), ("seed", -1), ("seed", 1.0), ("seed", None)])
    def test_counts_and_seed_must_be_integers(self, field, value):
        """Refused when built, not truncated or failing later inside fit."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            EmConfig(**{field: value})
        assert EmConfig(**{field: np.int64(3)}).__dict__[field] == 3

    @pytest.mark.parametrize("value", [True, "1e-6", math.nan, -1e-6])
    def test_rel_tol_must_be_a_positive_number(self, value):
        with pytest.raises(ValueError, match=f"^rel_tol must be a number > 0, got {value!r}$"):
            EmConfig(rel_tol=value)
        assert EmConfig(rel_tol=np.float64(1e-3)).rel_tol == 1e-3


class TestMStep:
    def test_order_one_reproduces_column_mles(self):
        _, ds, _ = _cohort(n=250)
        alpha = np.ones((ds.n_subjects, 1))
        model, failed = m_step_alone(ds, alpha)
        assert not failed
        assert model.weights.tolist() == [1.0]
        for j, schema in enumerate(ds.schemas):
            obs = ~ds.missing_mask(j)
            assert math.isclose(model.missing_probs[0, j],
                                1.0 - obs.mean(), rel_tol=1e-12)
            if schema.kind.value == "categorical":
                values, scale = ds.column_codes(j)[obs], 1.0
            else:
                values, scale = ds.column_numeric(j)[obs], ds.column_scale(j)
            want = oracles._moments(schema.kind, values, np.ones(obs.sum()), schema.domain, scale)
            # the M-step sums statistics over all rows, the oracle takes
            # two-pass moments on the observed ones: equal to rounding
            # (measured: 3.2e-15 relative)
            got = model.params[0][j]
            assert type(got) is type(want) and getattr(got, "domain", 0) == getattr(want, "domain", 0)
            for name in ("mean", "variance", "zero_prob", "shape", "scale", "probs"):
                if hasattr(want, name):
                    assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0)

    def test_collapsed_component_raises(self):
        _, ds, _ = _cohort(n=50)
        alpha = np.ones((50, 2))
        alpha[:, 1] = 0.0
        model, failed = m_step_alone(ds, alpha)
        assert model is None and list(failed) == [0]
        assert isinstance(failed[0], ComponentCollapseError)
        assert str(failed[0]) == "component 1 collapsed (total responsibility 0.000e+00)"

    @pytest.mark.parametrize("bad", [math.nan, -0.25])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        """NaN or negative responsibilities raise EstimationError, whether given
        to one M-step or as the starts of a batch of EM runs."""
        _, ds, _ = _cohort(n=50)
        alpha = np.full((50, 2), 0.5)
        alpha[7, 1] = bad
        with pytest.raises(EstimationError, match="^weights must be finite and nonnegative$"):
            m_step_alone(ds, alpha)
        inits = np.stack([np.full((2, 50), 0.5), np.ascontiguousarray(alpha.T)])
        with pytest.raises(EstimationError, match="^weights must be finite and nonnegative$"):
            _em_batch(ds, np.repeat(_scales(ds), 2, 0), None, inits, EmConfig())

    def test_responsibilities_with_missing_cells(self):
        schemas = (VariableSchema("x", "real"),)
        ds = Dataset(schemas, [(1.0,), (MISSING,), (3.0,), (MISSING,)])
        alpha = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        model, _ = m_step_alone(ds, alpha)
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
            assert math.isclose(_nll(model, ds), trace.final_nll, rel_tol=1e-9)

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
        gen_nll = _nll(gen, ds)
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

    def test_every_restart_collapsing_raises(self, collapsing_starts):
        _, ds, _ = _cohort(n=40)
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        with pytest.raises(TrainingError) as caught:
            fit(ds, 2, EmConfig(restarts=2))
        assert str(caught.value) == (f"all 2 restart(s) failed for order 2: "
                                     f"restart 0: {collapsed}; restart 1: {collapsed}")

    def test_rejects_bad_order(self):
        _, ds, _ = _cohort(n=30)
        with pytest.raises(ValueError):
            fit(ds, 0, EmConfig())
        for order in (2.5, True, "2", None):
            with pytest.raises(ValueError, match="^orders must be integers"):
                fit(ds, order, EmConfig())


class TestStopRule:
    """One rule: revert a rise beyond MONOTONE_SLACK, stop at rel_tol
    (converged) or after max_iterations M-steps beyond the first."""

    def _counting_m_step(self, monkeypatch, worse_on_call=None):
        """Record each batched M-step's (stacked model, fits it holds, failures);
        call ``worse_on_call`` gets uniform responsibilities instead."""
        import hetmix.training as training
        real = training._m_step_batch
        produced = []

        def counted(data, scales, responsibilities, fits):
            if len(produced) + 1 == worse_on_call:
                # every component the same: the order-1 fit, far worse here
                responsibilities = np.full_like(responsibilities,
                                                1.0 / responsibilities.shape[-1])
            produced.append(real(data, scales, responsibilities, fits))
            return produced[-1]

        monkeypatch.setattr(training, "_m_step_batch", counted)
        return produced

    def test_worse_model_is_dropped_for_the_previous_one(self, monkeypatch):
        _, ds, _ = _cohort(n=300)
        produced = self._counting_m_step(monkeypatch, worse_on_call=4)
        model, trace = fit(ds, 2, EmConfig(restarts=1, seed=1, rel_tol=1e-12))
        assert len(produced) == 4
        assert model is produced[2][0]  # a batch of one fit is that fit's model
        assert trace.iterations == 3
        assert not trace.converged
        assert math.isclose(trace.final_nll, _nll(model, ds), rel_tol=RESCORED_REL_TOL)

    def test_cap_without_tolerance_is_not_converged(self):
        _, ds, _ = _cohort(n=300)
        _, trace = fit(ds, 2, EmConfig(max_iterations=1, restarts=1, seed=1,
                                       rel_tol=1e-12))
        assert trace.iterations == 2
        assert not trace.converged

    def test_tolerance_met_on_the_last_allowed_scoring_is_converged(self):
        _, ds, _ = _cohort(n=300)
        config = EmConfig(restarts=1, seed=2, rel_tol=1e-4)
        _, free = fit(ds, 2, config)
        assert free.converged and free.iterations >= 3
        capped_config = EmConfig(max_iterations=free.iterations - 1, restarts=1,
                                 seed=2, rel_tol=1e-4)
        _, capped = fit(ds, 2, capped_config)
        assert capped == free

    def test_m_steps_per_restart(self, monkeypatch):
        _, ds, _ = _cohort(n=300)
        produced = self._counting_m_step(monkeypatch)
        _, trace = fit(ds, 3, EmConfig(max_iterations=4, restarts=2, seed=1,
                                       rel_tol=1e-12))
        # the two restarts step in lockstep: 4 + 1 batched M-steps of 2 fits each
        assert len(produced) == 4 + 1
        assert sum(len(fits) + len(failed) for _, fits, failed in produced) == 2 * (4 + 1)
        assert trace.iterations == 4 + 1 and not trace.converged


class TestBic:
    def test_formula(self):
        _, ds, _ = _cohort(n=100)
        model, trace = fit(ds, 1, EmConfig(restarts=1))
        assert math.isclose(trace.final_nll, _nll(model, ds), rel_tol=RESCORED_REL_TOL)
        want = 0.5 * parameter_count(model) * math.log(100) + trace.final_nll
        assert math.isclose(bic_score(model, 100, trace.final_nll), want, rel_tol=1e-15)

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

    def test_checks_the_cohort_once(self, monkeypatch):
        """A Dataset never changes, so ``validate_dataset`` finds its violations
        once, however many orders are fitted; each call returns a new list."""
        import hetmix.schema as schema
        _, ds, _ = _cohort(n=60)
        calls = []
        column_findings = schema._column_findings

        def counted(dataset, column, *kept):
            calls.append(column)
            return column_findings(dataset, column, *kept)

        monkeypatch.setattr(schema, "_column_findings", counted)
        select_order(ds, [1, 2, 3], EmConfig(max_iterations=3, restarts=1))
        assert calls == list(range(ds.n_variables))
        first = schema.validate_dataset(ds)
        first.append("changed")
        assert schema.validate_dataset(ds) == [] and calls == list(range(ds.n_variables))

    def test_rejects_empty_or_bad_orders(self):
        _, ds, _ = _cohort(n=30)
        with pytest.raises(ValueError):
            select_order(ds, [], EmConfig())
        with pytest.raises(ValueError):
            select_order(ds, [0, 1], EmConfig())
        # a non-integer order is refused, not fitted as int(order)
        with pytest.raises(ValueError, match=r"^orders must be integers, got \[2.5\]$"):
            select_order(ds, [2.5], EmConfig())


def test_e_step_rows_sum_to_one():
    gen, ds, _ = _cohort(n=60)
    log_joint = component_log_likelihoods(gen, ds, MODEL_MISSING)
    alpha = np.exp(log_joint - log_sum_exp(log_joint, axis=1)[:, None])
    assert alpha.shape == (60, 2)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
