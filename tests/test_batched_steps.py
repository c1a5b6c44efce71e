"""Edge cases of the E- and M-steps, which handle all components of a variable at once.

The E-step is checked cell by cell against the plain-arithmetic oracle, the
M-step component by component against ``weighted_mle`` / ``default_params``.
The cohorts carry
all-missing rows, components with no observed weight on a variable, zero-only
nonnegative cells, zero-weight categorical symbols and values far in the
tails, where joint likelihoods underflow.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hetmix import (IGNORE_MISSING, MISSING, MODEL_MISSING, Categorical,
                    Dataset, Gaussian, InflatedGamma, MixtureModel,
                    QuantizedGaussian, VariableSchema, component_log_likelihoods,
                    default_params, m_step, weighted_mle)
from hetmix.io import model_to_dict
from hetmix.training import COLLAPSE_EPS, ZERO_WEIGHT_EPS

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
    assert np.allclose(got, _oracle_log_joint(model, dataset, mode, used),
                       rtol=1e-12, atol=1e-9)
    # an all-missing row keeps only the weights and, when modeled, the log q terms
    expected = np.log(model.weights) + (np.log(model.missing_probs[:, list(used)]).sum(axis=1)
                                        if mode == MODEL_MISSING else 0.0)
    assert np.allclose(got[1], expected, rtol=1e-13, atol=0)


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


def _same_params(got, want):
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        name, value, other = field.name, getattr(want, field.name), getattr(got, field.name)
        if isinstance(value, float):
            assert math.isclose(other, value, rel_tol=1e-12), (name, other, value)
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
    model = m_step(dataset, alpha)

    assert np.allclose(model.weights, totals / totals.sum(), rtol=1e-12, atol=0)
    for j, schema in enumerate(SCHEMAS):
        obs = observed[j]
        assert np.allclose(model.missing_probs[:, j], alpha[~obs].sum(axis=0) / totals,
                           rtol=1e-12, atol=1e-300)
        if schema.kind.value == "categorical":
            values, scale = dataset.column_codes(j)[obs], None
        else:
            values, scale = dataset.column_numeric(j)[obs], dataset.column_scale(j)
        domain = schema.domain or None
        for z in range(n_comp):
            w = alpha[obs, z]
            if w.sum() <= ZERO_WEIGHT_EPS:
                want = default_params(schema.kind, domain=domain,
                                      scale=scale if scale is not None else 1.0)
            else:
                want = weighted_mle(schema.kind, values, w, domain=domain, scale=scale)
            _same_params(model.params[z][j], want)
    assert model.params[0][X] == default_params("real", scale=dataset.column_scale(X))
    conc_1 = model.params[1][CONC]
    if (alpha[observed[CONC], 1] > 0).any():
        assert (conc_1.shape, conc_1.scale) == (1.0, 1.0)
