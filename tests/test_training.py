"""EM fitting: M-step math, monotone traces, restarts, BIC selection."""

import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import em_batch, m_step_alone, random_model, recovery_model
import hetmix
from hetmix import (MODEL_MISSING, ComponentCollapseError, Dataset, EmConfig,
                    EstimationError, MixtureModel, SchemaViolationError, TrainingError,
                    VariableSchema, bic_score, component_log_likelihoods, fit,
                    parameter_count, row_log_likelihoods, sample_cohort, select_order)
from hetmix.distributions import log_sum_exp
from hetmix.io import model_to_dict
from hetmix.schema import MISSING, _kept_ranges
from hetmix.training import MONOTONE_SLACK

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
                values, scale = ds.column_numeric(j)[obs], oracles.column_scale(ds, j)
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
            em_batch(ds, np.ones((2, 50), dtype=bool), np.repeat(_kept_ranges(ds)[3], 2, 0),
                     [inits], EmConfig())

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
    def test_fit_loads_no_numpy_ma(self, tmp_path):
        """A real column's centre is taken without ``np.median``'s NaN check, and an
        ``evaluate`` run's density bandwidth without ``np.unique``: the first call of either
        imports ``numpy.ma`` (~18 ms). A NumPy that imports it eagerly passes too."""
        code = ("import sys\n"
                "import numpy as np\n"
                "from hetmix import EmConfig, fit, sample_cohort\n"
                "from hetmix.cli import main\n"
                "from hetmix.demo import small_demo_model\n"
                "from hetmix.io import save_schemas, write_data_csv\n"
                "before = 'numpy.ma' in sys.modules\n"
                "cohort, _ = sample_cohort(small_demo_model(), 40, np.random.default_rng(0))\n"
                "fit(cohort, 2, EmConfig(max_iterations=5, restarts=1))\n"
                "fitted = 'numpy.ma' in sys.modules\n"
                "write_data_csv(cohort, sys.argv[1] + '/cohort.csv')\n"
                "save_schemas(cohort.schemas, sys.argv[1] + '/schema.json')\n"
                "assert main(['evaluate', '--data', sys.argv[1] + '/cohort.csv', '--schema',\n"
                "             sys.argv[1] + '/schema.json', '--orders', '1-2', '--restarts', '1',\n"
                "             '--max-iterations', '5', '--mode', 'model_missing',\n"
                "             '--out-dir', sys.argv[1] + '/evaluate']) == 0\n"
                "print(before, fitted, 'numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hetmix.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        before, fitted, evaluated = done.stdout.splitlines()[-1].split()
        assert fitted == evaluated == before
        assert (tmp_path / "evaluate" / "error_density.csv").read_text().count("\n") > 1

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

    def test_ordinal_levels_just_below_the_limit_fit(self):
        """A 20,000-row cohort of the two levels 0 and 2**479, the widest span an ordinal
        domain may have: its weighted level sums and squared deviations stay finite."""
        schemas = (VariableSchema("g", "ordinal", (0, 2**479)), VariableSchema("x", "real"))
        rng = np.random.default_rng(0)
        ds = Dataset(schemas, [((0, 2**479)[i % 2], float(x))
                               for i, x in enumerate(rng.normal(size=20_000))])
        model, trace = fit(ds, 1, EmConfig(restarts=1))
        assert math.isfinite(trace.final_nll)
        assert model.params[0][0].variance == pytest.approx(2.0**956, rel=1e-9)

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

    @pytest.mark.parametrize("order", [31, 10**15])
    def test_order_above_the_subjects_refused_before_em(self, monkeypatch, order):
        """30 rows take at most 30 components; 10**15 would size EM's posteriors at
        10**15 x 30 floats."""
        import hetmix.training as training
        monkeypatch.setattr(training, "_em_batch", lambda *a, **k: pytest.fail("EM ran"))
        _, ds, _ = _cohort(n=30)
        message = rf"^order {order} exceeds the 30 subject\(s\) a fit trains on$"
        with pytest.raises(ValueError, match=message):
            fit(ds, order, EmConfig(restarts=1))

    def test_order_bound_is_inclusive(self):
        from hetmix.training import _checked_orders
        assert _checked_orders([3, 1, 3], 3) == [1, 3]
        with pytest.raises(ValueError, match="^order 4 exceeds the 3 subject"):
            _checked_orders([1, 4], 3)


class TestStopRule:
    """One rule: revert a rise beyond MONOTONE_SLACK, stop at rel_tol
    (converged) or after max_iterations M-steps beyond the first."""

    def _counting_m_step(self, monkeypatch, worse_on_call=None):
        """Record each batched M-step's stacked model; call ``worse_on_call`` of a
        fit of one order gets the sums of uniform responsibilities instead."""
        import hetmix.training as training
        real_sums, real = training._weighted_sums, training._m_step_batch
        produced = []

        def sums(data, responsibilities):
            if len(produced) + 1 == worse_on_call:
                # every component the same: the order-1 fit, far worse here
                responsibilities = np.full_like(responsibilities,
                                                1.0 / responsibilities.shape[-1])
            return real_sums(data, responsibilities)

        def counted(*args):
            produced.append(real(*args))
            return produced[-1]

        monkeypatch.setattr(training, "_weighted_sums", sums)
        monkeypatch.setattr(training, "_m_step_batch", counted)
        return produced

    def test_worse_model_is_dropped_for_the_previous_one(self, monkeypatch):
        _, ds, _ = _cohort(n=300)
        produced = self._counting_m_step(monkeypatch, worse_on_call=4)
        model, trace = fit(ds, 2, EmConfig(restarts=1, seed=1, rel_tol=1e-12))
        assert len(produced) == 4
        # the fit's parameters are the third M-step's, bit for bit, gathered from EM's rows
        for got, want in zip(model._fits()[0], produced[2]._fits()[0], strict=True):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert trace.iterations == 3
        assert trace.stop_reason == "revert" and not trace.converged
        assert math.isclose(trace.final_nll, _nll(model, ds), rel_tol=RESCORED_REL_TOL)

    def test_no_m_step_model_outlives_em(self, monkeypatch):
        """Once EM returns, every model an M-step built is gone: the runs that ended
        (converged, capped, reverted or collapsed) keep their rows in EM's arrays, not
        a model of the iteration they ended in."""
        import hetmix.training as training
        real, built = training._m_step_batch, []

        def recorded(*args):
            model = real(*args)
            built.append(weakref.ref(model))
            return model

        monkeypatch.setattr(training, "_m_step_batch", recorded)
        _, ds, _ = _cohort(n=300)
        inits = np.random.default_rng(0).dirichlet(np.ones(2), size=(4, 300)).transpose(0, 2, 1)
        inits[3, 1] = 0.0  # collapses before its first M-step
        (params, traces, endings), = em_batch(
            ds, np.ones((4, 300), dtype=bool), np.repeat(_kept_ranges(ds)[3], 4, 0),
            [inits], EmConfig(max_iterations=6, rel_tol=1e-3))
        assert len(built) > 1 and all(ref() is None for ref in built)
        assert isinstance(endings[3], ComponentCollapseError) and len(traces[3]) == 0
        assert [a.shape[:2] for a in params] == [(4, 2)] * len(params)
        built.clear()
        model, _ = fit(ds, 2, EmConfig(restarts=2, seed=1))
        assert len(built) > 1 and all(ref() is None for ref in built)

    def test_cap_without_tolerance_is_not_converged(self):
        _, ds, _ = _cohort(n=300)
        _, trace = fit(ds, 2, EmConfig(max_iterations=1, restarts=1, seed=1,
                                       rel_tol=1e-12))
        assert trace.iterations == 2
        assert trace.stop_reason == "max_iterations" and not trace.converged

    def test_tolerance_met_on_the_last_allowed_scoring_is_converged(self):
        _, ds, _ = _cohort(n=300)
        config = EmConfig(restarts=1, seed=2, rel_tol=1e-4)
        _, free = fit(ds, 2, config)
        assert free.stop_reason == "tol" and free.converged and free.iterations >= 3
        capped_config = EmConfig(max_iterations=free.iterations - 1, restarts=1,
                                 seed=2, rel_tol=1e-4)
        _, capped = fit(ds, 2, capped_config)
        assert capped == free

    @pytest.mark.parametrize("rel_tol", [1e308, math.inf])
    def test_a_bound_past_the_float_range_stops_at_the_second_e_step(self, rel_tol):
        """rel_tol * |NLL| past the float range is an infinite bound, which every decrease
        meets: EM ends on "tol" after its second E-step, and warns nothing. The first
        E-step, with no previous NLL, is accepted and not converged."""
        _, ds, _ = _cohort(n=300)
        _, trace = fit(ds, 2, EmConfig(restarts=1, seed=1, rel_tol=rel_tol))
        assert trace.stop_reason == "tol" and trace.iterations == 2

    def test_m_steps_per_restart(self, monkeypatch):
        _, ds, _ = _cohort(n=300)
        produced = self._counting_m_step(monkeypatch)
        _, trace = fit(ds, 3, EmConfig(max_iterations=4, restarts=2, seed=1,
                                       rel_tol=1e-12))
        # the two restarts step in lockstep: 4 + 1 batched M-steps of 2 fits each
        assert len(produced) == 4 + 1
        assert sum(model.n_components // 3 for model in produced) == 2 * (4 + 1)
        assert trace.iterations == 4 + 1
        assert trace.stop_reason == "max_iterations" and not trace.converged


class TestBic:
    def test_formula(self):
        _, ds, _ = _cohort(n=100)
        model, trace = fit(ds, 1, EmConfig(restarts=1))
        assert math.isclose(trace.final_nll, _nll(model, ds), rel_tol=RESCORED_REL_TOL)
        want = 0.5 * parameter_count(model) * math.log(100) + trace.final_nll
        assert math.isclose(bic_score(model, 100, trace.final_nll), want, rel_tol=1e-15)

    @pytest.mark.parametrize("n_subjects", [0, -5, 2.5, 100.0, True, None])
    def test_subjects_must_be_a_positive_integer(self, n_subjects):
        """ln N of no subjects is -inf (a divide warning), of fewer NaN: refused by name."""
        model = MixtureModel._from_blocks((1.0,), ((np.array([0.0]), np.array([1.0])),),
                                          [[0.25]], (VariableSchema("x", "real"),))
        with pytest.raises(ValueError,
                           match=f"^n_subjects must be an integer >= 1, got {n_subjects!r}$"):
            bic_score(model, n_subjects, 10.0)

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

    def test_failed_orders_are_recorded(self, collapsing_order):
        _, ds, _ = _cohort(n=120)
        collapsing_order(3)  # every restart of order 3 collapses; order 1 trains
        with pytest.warns(UserWarning, match="^order 3 failed: "):
            selection = select_order(ds, [1, 3], EmConfig(restarts=1))
        assert selection.best_order == 1
        row = selection.scores[1]
        collapsed = "component 0 collapsed (total responsibility 0.000e+00)"
        assert row.order == 3 and row.error == ("all 1 restart(s) failed for order 3: "
                                                f"restart 0: {collapsed}")
        assert row.bic is None

    def test_all_orders_failing_raises(self, collapsing_starts):
        _, ds, _ = _cohort(n=40)
        with pytest.warns(UserWarning), pytest.raises(TrainingError):
            select_order(ds, [1, 2], EmConfig())

    def test_checks_the_cohort_once(self, monkeypatch):
        """A Dataset never changes, so ``validate_dataset`` makes its column check
        once, however many orders are fitted; each call returns a new list."""
        import hetmix.schema as schema
        _, ds, _ = _cohort(n=60)
        calls = []
        no_information = schema._no_information

        def counted(dataset, ranges, kept=None):
            calls.append((dataset, kept))
            return no_information(dataset, ranges, kept)

        monkeypatch.setattr(schema, "_no_information", counted)
        select_order(ds, [1, 2, 3], EmConfig(max_iterations=3, restarts=1))
        assert calls == [(ds, None)]
        first = schema.validate_dataset(ds)
        first.append("changed")
        assert schema.validate_dataset(ds) == [] and calls == [(ds, None)]

    def test_rejects_empty_or_bad_orders(self):
        _, ds, _ = _cohort(n=30)
        with pytest.raises(ValueError):
            select_order(ds, [], EmConfig())
        with pytest.raises(ValueError):
            select_order(ds, [0, 1], EmConfig())
        # a non-integer order is refused, not fitted as int(order)
        with pytest.raises(ValueError, match=r"^orders must be integers, got \[2.5\]$"):
            select_order(ds, [2.5], EmConfig())

    def test_order_above_the_subjects_refused_before_em(self, monkeypatch):
        import hetmix.training as training
        monkeypatch.setattr(training, "_em_batch", lambda *a, **k: pytest.fail("EM ran"))
        _, ds, _ = _cohort(n=30)
        for orders in ([1, 31], [31], [2, 10**15]):
            with pytest.raises(ValueError, match="^order [0-9]+ exceeds the 30 subject"):
                select_order(ds, orders, EmConfig(restarts=1))

    def test_orders_are_bounded_before_they_are_listed(self, monkeypatch):
        """Any iterable, a range too, is refused at its first order past the subjects, and
        nothing after it is read: range(1, 10**12) (8 TB as a list) never becomes a list,
        nor does range(-10**12, 5), refused at its first order."""
        import hetmix.evaluation as evaluation
        import hetmix.training as training
        monkeypatch.setattr(training, "_em_batch", lambda *a, **k: pytest.fail("EM ran"))
        monkeypatch.setattr(evaluation, "_evaluate_folds", lambda *a, **k: pytest.fail("fold"))
        _, ds, _ = _cohort(n=30)
        message = r"^order 31 exceeds the 30 subject\(s\) a fit trains on$"
        with pytest.raises(ValueError, match=message):
            select_order(ds, range(1, 10**12), EmConfig(restarts=1))
        with pytest.raises(ValueError, match=rf"^order {10**12} exceeds the 30 subject"):
            select_order(ds, range(10**12, 0, -1), EmConfig(restarts=1))

        def orders():
            yield from (2, 1, 31)
            pytest.fail("read past order 31")

        with pytest.raises(ValueError, match=r"^order 31 exceeds the 30 subject\(s\)"):
            select_order(ds, orders(), EmConfig(restarts=1))
        with pytest.raises(ValueError, match=r"^order 31 exceeds the 29 subject\(s\)"):
            evaluation.loo_evaluate(ds, orders(), ("c_scale",), MODEL_MISSING, EmConfig())
        # a range below 1 is refused at its first order
        for orders in (range(0, 10**12), range(-10**12, 5)):
            with pytest.raises(ValueError, match="^orders must be >= 1$"):
                select_order(ds, orders, EmConfig(restarts=1))
        assert training._checked_orders(range(5, 0, -2), 30) == [1, 3, 5]


def test_e_step_rows_sum_to_one():
    gen, ds, _ = _cohort(n=60)
    log_joint = component_log_likelihoods(gen, ds, MODEL_MISSING)
    alpha = np.exp(log_joint - log_sum_exp(log_joint, axis=1)[:, None])
    assert alpha.shape == (60, 2)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
