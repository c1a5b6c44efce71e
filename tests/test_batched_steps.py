"""Edge cases of the E- and M-steps, which handle all components of a variable at once.

The E-step is checked cell by cell against the plain-arithmetic oracle, the
M-step component by component against ``oracles._moments`` /
``oracles.default_cell``. The cohorts carry all-missing rows, components with
no observed weight on a variable, zero-only nonnegative cells, zero-weight
categorical symbols and values far in the tails, where joint likelihoods
underflow.
"""

import dataclasses
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import m_step_alone
from hetmix import (IGNORE_MISSING, MISSING, MODEL_MISSING, Categorical,
                    Dataset, EmConfig, Gaussian, InflatedGamma, MixtureModel,
                    QuantizedGaussian, VariableKind, VariableSchema, component_log_likelihoods,
                    fit, sample_cohort)
from hetmix.demo import demo_model, small_demo_model
from hetmix.distributions import _LOG_PDF, REL_VARIANCE_FLOOR, SHAPE_MAX
from hetmix.inference import target_tables
from hetmix.io import model_to_dict, save_model
from hetmix.model import _em_log_joint, _log_joint
from hetmix.training import COLLAPSE_EPS, ZERO_WEIGHT_EPS, _em_batch, _scales

SCHEMAS = (VariableSchema("x", "real"),
           VariableSchema("conc", "nonnegative"),
           VariableSchema("grade", "ordinal", (1, 2, 3, 4, 5)),
           VariableSchema("site", "categorical", ("a", "b", "c")))
X, CONC, GRADE, SITE = range(4)

seeds = st.integers(0, 2 ** 32 - 1)


def _cohort(rng, n) -> Dataset:
    """n rows of SCHEMAS with ~30% missing cells, zeros in ``conc`` and two
    all-missing rows."""
    rows = []
    for _ in range(n):
        conc = 0.0 if rng.random() < 0.3 else float(rng.gamma(2.0, 2.0))
        row = [float(rng.normal()), conc, int(rng.integers(1, 6)),
               str(rng.choice(["a", "b", "c"]))]
        rows.append(tuple(MISSING if rng.random() < 0.3 else v for v in row))
    rows[1] = rows[-1] = (MISSING,) * len(SCHEMAS)
    return Dataset(SCHEMAS, rows)


def _model(rng, n_comp) -> MixtureModel:
    params = []
    for _ in range(n_comp):
        probs = rng.dirichlet(np.ones(3)) + 0.01
        params.append((Gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0))),
                       InflatedGamma(float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.5, 6.0)),
                                     float(rng.uniform(0.3, 3.0))),
                       QuantizedGaussian(float(rng.uniform(1.0, 5.0)),
                                         float(rng.uniform(0.3, 4.0)), (1, 2, 3, 4, 5)),
                       Categorical(tuple(probs / probs.sum()), ("a", "b", "c"))))
    weights = rng.dirichlet(np.ones(n_comp)) + 0.05
    missing = rng.uniform(0.05, 0.9, size=(n_comp, len(SCHEMAS)))
    return MixtureModel(weights / weights.sum(), params, missing, SCHEMAS)


def _oracle_log_joint(model, dataset, mode, columns):
    """(N, Z) log w_z + sum over ``columns`` of log(oracle factor), per cell in
    linear space, so only the joint (never a single cell) can underflow."""
    payload = model_to_dict(model)
    out = np.empty((dataset.n_subjects, model.n_components))
    for i in range(dataset.n_subjects):
        for z in range(model.n_components):
            total = math.log(payload["weights"][z])
            for j in columns:
                value = dataset.value(i, j)
                total += math.log(oracles.factor(
                    payload["components"][z][j], payload["missing_probs"][z][j],
                    None if value is MISSING else value, mode))
            out[i, z] = total
    return out


@given(seed=seeds, n_comp=st.integers(1, 4),
       mode=st.sampled_from([MODEL_MISSING, IGNORE_MISSING]),
       columns=st.sampled_from([None, (X, GRADE), (CONC, SITE), (SITE, X, CONC)]))
@settings(max_examples=60, deadline=None)
def test_e_step_matches_oracle_per_cell(seed, n_comp, mode, columns):
    rng = np.random.default_rng(seed)
    dataset = _cohort(rng, int(rng.integers(4, 12)))
    model = _model(rng, n_comp)
    used = range(len(SCHEMAS)) if columns is None else columns
    got = component_log_likelihoods(model, dataset, mode, columns)
    assert got.flags.c_contiguous  # a reduction over its rows then sums as the oracles' do
    assert np.allclose(got, _oracle_log_joint(model, dataset, mode, used),
                       rtol=1e-12, atol=1e-9)
    # an all-missing row keeps only the weights and, when modeled, the log q terms
    expected = np.log(model.weights) + (np.log(model.missing_probs[:, list(used)]).sum(axis=1)
                                        if mode == MODEL_MISSING else 0.0)
    assert np.allclose(got[1], expected, rtol=1e-13, atol=0)


@given(seed=seeds, n_comp=st.integers(1, 7),
       mode=st.sampled_from([MODEL_MISSING, IGNORE_MISSING]),
       columns=st.sampled_from([None, (X, GRADE), (CONC, SITE), (SITE, X, CONC)]))
@settings(max_examples=60, deadline=None)
def test_e_step_matches_the_subject_major_one_bitwise(seed, n_comp, mode, columns):
    """The component-major E-step gives the bits of the (N, Z) broadcast one it
    replaced, -inf factors included: q = 0 or 1 cells and zero_prob = 0 components."""
    rng = np.random.default_rng(seed)
    dataset = _cohort(rng, int(rng.integers(4, 12)))
    model = _model(rng, n_comp)
    missing = np.array(model.missing_probs)
    missing[rng.random(missing.shape) < 0.2] = 0.0
    missing[rng.random(missing.shape) < 0.1] = 1.0
    params = [list(row) for row in model.params]
    for row in params[::2]:
        row[CONC] = InflatedGamma(0.0, row[CONC].shape, row[CONC].scale)
    model = MixtureModel(model.weights, params, missing, SCHEMAS)
    got = component_log_likelihoods(model, dataset, mode, columns)
    assert got.flags.c_contiguous
    assert np.array_equal(got, oracles.component_log_likelihoods(model, dataset, mode, columns))


@given(seed=seeds, n_comp=st.integers(1, 3), n_real=st.integers(5, 7),
       mode=st.sampled_from([MODEL_MISSING, IGNORE_MISSING]))
@settings(max_examples=40, deadline=None)
def test_e_step_underflow_scale(seed, n_comp, n_real, mode):
    # real cells 19-25 from their means, variances in [0.5, 1]: each factor is
    # between ~1e-272 and ~1e-78, and the joint of 5+ such cells underflows in
    # linear space; the ordinal's narrow components put ~1e-50 on its far levels
    rng = np.random.default_rng(seed)
    schemas = tuple(VariableSchema(f"r{j}", "real") for j in range(n_real)) + (SCHEMAS[GRADE],)
    params = [tuple(Gaussian(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.0)))
                    for _ in range(n_real))
              + (QuantizedGaussian(float(rng.uniform(1, 2)), 0.05, (1, 2, 3, 4, 5)),)
              for _ in range(n_comp)]
    model = MixtureModel(np.full(n_comp, 1.0 / n_comp), params,
                         rng.uniform(0.05, 0.5, size=(n_comp, n_real + 1)), schemas)
    rows = [tuple(float(rng.choice([-1, 1]) * rng.uniform(20, 24)) for _ in range(n_real))
            + (int(rng.integers(4, 6)),) for _ in range(5)]
    dataset = Dataset(schemas, rows + [(MISSING,) * (n_real + 1)])
    got = component_log_likelihoods(model, dataset, mode)
    want = _oracle_log_joint(model, dataset, mode, range(n_real + 1))
    assert np.isfinite(got).all()
    assert (np.exp(got[:-1]) == 0).all()
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def _oracle_grid(dataset, alpha):
    """The Z x V cells an M-step on ``alpha`` should give, one ``oracles._moments``
    or ``oracles.default_cell`` call per (component, variable)."""
    columns = []
    for j, schema in enumerate(dataset.schemas):
        obs = ~dataset.missing_mask(j)
        if schema.kind is VariableKind.CATEGORICAL:
            values, scale = dataset.column_codes(j)[obs], 1.0
        else:
            values, scale = dataset.column_numeric(j)[obs], dataset.column_scale(j)
        column = []
        for z in range(alpha.shape[1]):
            w = alpha[obs, z]
            column.append(oracles.default_cell(schema.kind, schema.domain, scale)
                          if w.sum() <= ZERO_WEIGHT_EPS else
                          oracles._moments(schema.kind, values, w, schema.domain, scale))
        columns.append(column)
    return tuple(zip(*columns))


# The M-step sums standardized statistics over every row in BLAS order;
# ``oracles._moments`` takes two-pass moments on the raw observed values. Gamma
# shape and scale come from g = log(mean) - mean(log), which cancels more as the
# shape grows: over 9,000 cases of the test below (``_cohort`` seeds 0-2999, 2-4
# components) they differed by up to 7.0e-12 relative (at shape 7,910). A real
# variance differed by up to 3.8e-12 relative where it was small (4.1e-5, so
# 1.6e-16 absolute, inside the 1e-14 bound); every other variance, zero_prob and
# probs by up to 7.0e-16, and means by up to 2.2e-15 absolute.
_REL_TOL = dict(shape=1e-10, scale=1e-10)


def _same_params(got, want):
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        name, value, other = field.name, getattr(want, field.name), getattr(got, field.name)
        if isinstance(value, float):
            assert math.isclose(other, value, rel_tol=_REL_TOL.get(name, 1e-12),
                                abs_tol=1e-14), (name, other, value)
        elif name == "probs":
            assert np.allclose(other, value, rtol=1e-12, atol=0), (other, value)
        else:
            assert other == value


@given(seed=seeds, n_comp=st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_m_step_matches_per_component_updates(seed, n_comp):
    rng = np.random.default_rng(seed)
    dataset = _cohort(rng, int(rng.integers(10, 30)))
    alpha = rng.dirichlet(np.ones(n_comp), size=dataset.n_subjects)
    observed = {j: ~dataset.missing_mask(j) for j in range(len(SCHEMAS))}
    # component 0 sees no observed weight on x: its x block is the default
    alpha[observed[X], 0] = 0.0
    # component 1 weighs only the zero cells of conc: InflatedGamma(zp, 1, 1)
    alpha[observed[CONC] & (np.nan_to_num(dataset.column_numeric(CONC)) > 0), 1] = 0.0
    # the last component gives symbol "b" zero weight
    alpha[dataset.column_codes(SITE) == 1, n_comp - 1] = 0.0
    totals = alpha.sum(axis=0)
    if totals.min() < COLLAPSE_EPS:
        return  # a collapse is another path; nothing to compare
    model, _ = m_step_alone(dataset, alpha)

    assert np.allclose(model.weights, totals / totals.sum(), rtol=1e-12, atol=0)
    want = _oracle_grid(dataset, alpha)
    for j in range(len(SCHEMAS)):
        obs = observed[j]
        assert np.allclose(model.missing_probs[:, j], alpha[~obs].sum(axis=0) / totals,
                           rtol=1e-12, atol=1e-300)
        for z in range(n_comp):
            _same_params(model.params[z][j], want[z][j])
    assert model.params[0][X] == oracles.default_cell(VariableKind.REAL, (),
                                                      dataset.column_scale(X))
    conc_1 = model.params[1][CONC]
    if (alpha[observed[CONC], 1] > 0).any():
        assert (conc_1.shape, conc_1.scale) == (1.0, 1.0)


@given(seed=seeds, n_comp=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_m_step_model_builds_its_grid_lazily(seed, n_comp):
    rng = np.random.default_rng(seed)
    dataset = _cohort(rng, int(rng.integers(10, 30)))
    alpha = rng.dirichlet(np.ones(n_comp), size=dataset.n_subjects)
    alpha[~dataset.missing_mask(X), 0] = 0.0  # component 0 takes x's defaults
    if alpha.sum(axis=0).min() < COLLAPSE_EPS:
        return
    model, _ = m_step_alone(dataset, alpha)
    assert model._params is None
    again = pickle.loads(pickle.dumps(model))
    assert again._params is None
    want = _oracle_grid(dataset, alpha)
    # a continuous target's table is its column alone; the grid stays unbuilt
    column = target_tables(model, ["x"])["x"][1]
    assert model._params is None
    # the M-step and oracles._moments agree to rounding (see _same_params)
    for got, cell in zip(column, (row[X] for row in want), strict=True):
        _same_params(got, cell)
    for got_row, want_row in zip(model.params, want, strict=True):
        for got, cell in zip(got_row, want_row, strict=True):
            _same_params(got, cell)
    assert column == tuple(row[X] for row in model.params)
    assert again.params == model.params
    assert np.array_equal(component_log_likelihoods(again, dataset, MODEL_MISSING),
                          component_log_likelihoods(model, dataset, MODEL_MISSING))


def test_m_step_model_file_matches_the_grid_built_model(tmp_path):
    rng = np.random.default_rng(3)
    dataset = _cohort(rng, 40)
    model, _ = m_step_alone(dataset, rng.dirichlet(np.ones(3), size=dataset.n_subjects))
    save_model(model, tmp_path / "blocks.json")
    rebuilt = MixtureModel(model.weights, model.params, model.missing_probs, model.schemas)
    save_model(rebuilt, tmp_path / "grid.json")
    assert (tmp_path / "blocks.json").read_bytes() == (tmp_path / "grid.json").read_bytes()


def test_fit_reads_each_column_scale_once(monkeypatch):
    import hetmix.schema as schema
    import hetmix.training as training
    calls = []
    real = schema._kept_ranges

    def counted(dataset, kept):
        calls.append(kept.shape)
        return real(dataset, kept)

    steps = []
    real_m_step = training._m_step_batch

    def counted_m_step(data, scales, responsibilities, fits):
        steps.append(1)
        return real_m_step(data, scales, responsibilities, fits)

    dataset = _cohort(np.random.default_rng(5), 60)
    monkeypatch.setattr(schema, "_kept_ranges", counted)
    monkeypatch.setattr(training, "_m_step_batch", counted_m_step)
    fit(dataset, 2, EmConfig(max_iterations=5, restarts=2, seed=0, rel_tol=1e-12))
    assert len(steps) > 2
    assert calls == [(1, dataset.n_subjects)]  # one pass over the columns for both restarts


def test_em_builds_no_parameter_cell(monkeypatch):
    """A component that sees only an all-missing row takes every variable's
    defaults as blocks (q = 1): an M-step, an EM run that keeps it so and
    ``fit`` build no parameter cell, and the defaults are ``oracles.default_cell``'s."""
    dataset = _cohort(np.random.default_rng(1), 30)
    alpha = np.random.default_rng(2).dirichlet(np.ones(3), size=dataset.n_subjects)
    alpha[:, 0] = 0.0
    alpha[1] = (1.0, 0.0, 0.0)  # row 1 is all missing
    config = EmConfig(max_iterations=5, restarts=2, seed=0)

    def refuse(cell):
        raise AssertionError(f"EM built a {type(cell).__name__} cell")

    with monkeypatch.context() as patch:
        for family in (Gaussian, InflatedGamma, QuantizedGaussian, Categorical):
            patch.setattr(family, "__post_init__", refuse)
        models = [m_step_alone(dataset, alpha)[0]]
        outcome, = _em_batch(dataset, _scales(dataset), None,
                             np.ascontiguousarray(alpha.T)[None], config)
        models.append(outcome[0])
        fit(dataset, 3, config)
    for model in models:
        assert (model.missing_probs[0] == 1.0).all()
        for v, schema in enumerate(SCHEMAS):
            scale = 1.0 if v == SITE else dataset.column_scale(v)
            assert model.params[0][v] == oracles.default_cell(schema.kind, schema.domain, scale)


# EM's E-step (``model._em_log_joint``) takes each continuous column as a product
# of natural parameters with standardized statistics, which rounds to about eps
# times its terms; a component whose terms could reach EM_TERM_LIMIT (1e3), or
# are infinite (a -inf coefficient on a statistic some row has), takes the
# density instead, so the product loses ~1e-13 per column. Over 1,600 stacks
# like the test's below (400 cohorts of 20-150 rows, orders 1-7, after 1-30
# iterations) it differed from ``_log_joint`` by at most 4.1e-14 relative (to
# max(|value|, 1)).
_EM_E_STEP_RTOL = _EM_E_STEP_ATOL = 1e-12


def _assert_em_e_step_matches(model, dataset, n_fits):
    got = _em_log_joint(model, dataset, n_fits)
    want = _log_joint(model, dataset, MODEL_MISSING).reshape(got.shape)
    assert not np.isnan(got).any()
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=_EM_E_STEP_RTOL, atol=_EM_E_STEP_ATOL)
    return got


@given(seed=seeds, order=st.integers(1, 7), n_fits=st.integers(1, 3), folds=st.booleans(),
       small=st.booleans(), max_iterations=st.sampled_from([1, 3, 10, 30]))
@settings(max_examples=40, deadline=None)
def test_em_e_step_matches_log_joint_on_m_step_models(seed, order, n_fits, folds, small,
                                                      max_iterations):
    """The models a batch of EM runs ends with (restarts or leave-one-out folds),
    stacked, score alike under EM's E-step and ``_log_joint``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 150))
    dataset, _ = sample_cohort(small_demo_model() if small else demo_model(), n, rng)
    held_out = rng.integers(n, size=n_fits) if folds else None
    kept = np.arange(n) != np.full(n_fits, -1 if held_out is None else held_out)[:, None]
    inits = rng.dirichlet(np.ones(order), size=(n_fits, n)).transpose(0, 2, 1) * kept[:, None]
    outcomes = _em_batch(dataset, _scales(dataset, kept), held_out,
                         np.ascontiguousarray(inits), EmConfig(max_iterations=max_iterations))
    models = [o[0] for o in outcomes if not isinstance(o, Exception)]
    if models:
        _assert_em_e_step_matches(MixtureModel._stack(models), dataset, len(models))


def _counted_densities():
    """A patch of ``_LOG_PDF`` whose densities log (kind, components) per call
    to the list it returns with it."""
    calls = []

    def counting(kind, density):
        def count(x, *block):
            calls.append((kind, block[0].shape[0]))
            return density(x, *block)
        return count

    return mock.patch.dict(_LOG_PDF, {k: counting(k, f) for k, f in _LOG_PDF.items()}), calls


def test_em_e_step_masks_infinite_coefficients():
    """q = 0 with a missing cell, q = 1 with an observed one, zero_prob = 0 with
    a zero and zero_prob = 1 with a positive value each give -inf in EM's E-step
    exactly where ``_log_joint`` gives it, with no NaN, in a stack of two fits:
    the components with such a coefficient take the density on that column. So
    does q = 0 on a finite column with a missing cell: that component keeps its
    table gather, the one read of the column's codes."""
    rng = np.random.default_rng(0)
    dataset = _cohort(rng, 12)
    missing_x, missing_grade = dataset.missing_mask(X), dataset.missing_mask(GRADE)
    conc = dataset.column_numeric(CONC)
    zeros, positive = conc == 0, conc > 0
    assert missing_x.any() and (~missing_x).any() and zeros.any() and positive.any()
    models = []
    for q, zero_prob in (((0.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (1.0, 0.0))):
        model = _model(rng, 3)
        missing = np.array(model.missing_probs)
        missing[:2, X] = q
        missing[0, GRADE] = 0.0
        params = [list(row) for row in model.params]
        for z, p in enumerate(zero_prob):
            params[z][CONC] = InflatedGamma(p, params[z][CONC].shape, params[z][CONC].scale)
        models.append(MixtureModel(model.weights, params, missing, SCHEMAS))
    patch, calls = _counted_densities()
    dataset._stats  # built: from here on only a table gather reads codes
    with patch, mock.patch.object(dataset, "column_codes", wraps=dataset.column_codes) as codes:
        _em_log_joint(MixtureModel._stack(models), dataset, 2)
    # components 0 and 1 of each fit, rows 0, 1, 3 and 4 of the stack
    assert calls == [(VariableKind.REAL, 4), (VariableKind.NONNEGATIVE, 4)]
    assert codes.call_args_list == [mock.call(GRADE)]
    got = _assert_em_e_step_matches(MixtureModel._stack(models), dataset, 2)
    # fit 0: component 0 (q = 0, zero_prob = 0), component 1 (q = 1, zero_prob = 1)
    assert np.isneginf(got[0, 0, missing_x | zeros | missing_grade]).all()
    assert np.isneginf(got[0, 1, ~missing_x | positive]).all()
    assert np.isneginf(got[1, 1, missing_x | zeros]).all()
    assert np.isneginf(got[1, 0, ~missing_x | positive | missing_grade]).all()
    assert np.isfinite(got[:, 2]).all()
    assert np.isfinite(got[0, 0, ~missing_x & ~zeros & ~missing_grade]).all()


def test_em_keeps_the_product_for_infinite_coefficients_on_absent_statistics():
    """On a cohort with no missing cell and no zero, q = 0 and zero_prob = 0
    weigh statistics that are 0 on every row: EM's E-step keeps its product
    there and matches ``_log_joint``, and ``fit`` (whose M-steps give q = 0 and
    zero_prob = 0 exactly) evaluates no density. With ``site`` all missing, its
    q = 1 puts -inf on level slots that no row has: the product again, with no
    table gather and no RuntimeWarning."""
    rng = np.random.default_rng(3)
    rows = [(float(rng.normal()), float(rng.gamma(2.0, 2.0)), int(rng.integers(1, 6)),
             str(rng.choice(["a", "b", "c"]))) for _ in range(40)]
    dataset = Dataset(SCHEMAS, rows)
    no_site = Dataset(SCHEMAS, [row[:SITE] + (MISSING,) for row in rows])
    model = _model(rng, 3)
    params = [list(row) for row in model.params]
    params[0][CONC] = InflatedGamma(0.0, params[0][CONC].shape, params[0][CONC].scale)
    missing = np.zeros_like(model.missing_probs)
    model = MixtureModel(model.weights, params, missing, SCHEMAS)
    missing[:, SITE] = 1.0
    site_missed = MixtureModel(model.weights, params, missing, SCHEMAS)
    patch, calls = _counted_densities()
    no_site._stats  # built: from here on only a table gather reads codes
    with patch, mock.patch.object(no_site, "column_codes") as codes, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _em_log_joint(model, dataset, 1)
        _em_log_joint(site_missed, no_site, 1)
        fitted, trace = fit(dataset, 2, EmConfig(max_iterations=5, restarts=2, seed=0))
    assert calls == [] and not codes.called
    _assert_em_e_step_matches(model, dataset, 1)
    _assert_em_e_step_matches(site_missed, no_site, 1)
    assert (fitted.missing_probs == 0).all() and (fitted._blocks[CONC][0] == 0).all()
    assert np.isfinite(trace.final_nll)


def test_em_e_step_keeps_densities_where_the_product_would_round():
    """A component whose product terms on a column could reach EM_TERM_LIMIT (a
    real variance at its floor, far from the column's centre; a Gamma at its
    shape cap) takes that column's density: only it is evaluated there, and the
    E-step matches ``_log_joint`` to rounding."""
    rng = np.random.default_rng(0)
    dataset = _cohort(rng, 40)
    x, conc = dataset.column_numeric(X), dataset.column_numeric(CONC)
    model = _model(rng, 3)
    params = [list(row) for row in model.params]
    top = float(np.nanmax(x))
    params[1][X] = Gaussian(top, REL_VARIANCE_FLOOR * (top - float(np.nanmin(x))) ** 2)
    params[2][CONC] = InflatedGamma(0.1, SHAPE_MAX, float(conc[conc > 0].mean()) / SHAPE_MAX)
    model = MixtureModel(model.weights, params, model.missing_probs, SCHEMAS)
    patch, calls = _counted_densities()
    with patch:
        _em_log_joint(model, dataset, 1)
    assert calls == [(VariableKind.REAL, 1), (VariableKind.NONNEGATIVE, 1)]
    _assert_em_e_step_matches(model, dataset, 1)


def test_em_evaluates_no_continuous_density(monkeypatch):
    """EM's E-step reads the cohort's statistics matrix: on a cohort whose
    components keep their product terms below EM_TERM_LIMIT, with every
    continuous density made to raise, ``fit`` runs, and so does ``loo_evaluate``
    while its EM runs (its held-out rows are scored with the densities)."""
    import hetmix.training as training
    from hetmix.evaluation import loo_evaluate

    def refuse(*args):
        raise AssertionError("EM evaluated a continuous density")

    no_densities = dict.fromkeys(_LOG_PDF, refuse)
    dataset = _cohort(np.random.default_rng(5), 40)
    config = EmConfig(max_iterations=5, restarts=2, seed=0)
    with mock.patch.dict(_LOG_PDF, no_densities):
        model, trace = fit(dataset, 3, config)
        with pytest.raises(AssertionError, match="density"):  # scoring reads them
            component_log_likelihoods(model, dataset, MODEL_MISSING)
    assert np.isfinite(trace.final_nll)
    em_batch = training._em_batch

    def em_without_densities(*args):
        with mock.patch.dict(_LOG_PDF, no_densities):
            return em_batch(*args)

    monkeypatch.setattr(training, "_em_batch", em_without_densities)
    result = loo_evaluate(dataset, (1, 2), ("grade",), MODEL_MISSING, config)
    assert result.orders == (0, 1, 2) and len(result.failures) < 4
