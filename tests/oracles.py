"""Plain-arithmetic reference implementations used to cross-check the library.

Everything here but the EM references below works on the JSON-dict form of a
model (io.model_to_dict) and uses only the math module: explicit sums and products
in linear space, no arrays, no log-sum-exp. Sizes must stay tiny; the point is
an independent derivation of the same quantities, not performance. Missing
cells are represented by None; variables absent from an evidence dict
contribute nothing.

``em_once`` and ``m_step`` are the sequential EM loop of one restart on its
own rows and its M-step: plain weighted moments per component and variable,
two-pass on the raw values, with the library's floors and defaults. The
batched EM, which sums sufficient statistics over the whole cohort instead,
must match them to rounding. ``component_log_likelihoods`` is their E-step,
subject-major over (N, Z) as the library ran it before it went
component-major. They share the densities and the model checks with the
library.
"""

import math

import numpy as np

from hetmix import Categorical, Gaussian, InflatedGamma, QuantizedGaussian, VariableKind
from hetmix.distributions import (_LOG_PDF, CATEGORICAL_PSEUDO, REL_VARIANCE_FLOOR, SCALE_MIN,
                                  SHAPE_MAX, SHAPE_MIN, _cells_of, _default_block, family_for,
                                  log_sum_exp)
from hetmix.model import MODEL_MISSING, MixtureModel
from hetmix.training import (COLLAPSE_EPS, MONOTONE_SLACK, ZERO_WEIGHT_EPS,
                             ComponentCollapseError)

MODEL_MISSING = "model_missing"
IGNORE_MISSING = "ignore_missing"


def density(entry, x):
    """Density or mass of one observed value under one distribution dict."""
    family = entry["family"]
    if family == "gaussian":
        m, v = entry["mean"], entry["variance"]
        return math.exp(-(x - m) ** 2 / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    if family == "inflated_gamma":
        t, k, s = entry["zero_prob"], entry["shape"], entry["scale"]
        if x == 0:
            return t
        return (1.0 - t) * x ** (k - 1.0) * math.exp(-x / s) / (s ** k * math.gamma(k))
    if family == "quantized_gaussian":
        m, v = entry["mean"], entry["variance"]
        weights = [math.exp(-(d - m) ** 2 / (2.0 * v)) for d in entry["domain"]]
        return weights[entry["domain"].index(x)] / sum(weights)
    if family == "categorical":
        return entry["probs"][entry["domain"].index(x)]
    raise ValueError(family)


def factor(entry, q, value, mode):
    """One variable's contribution to a component's likelihood."""
    if value is None:
        return q if mode == MODEL_MISSING else 1.0
    f = density(entry, value)
    return (1.0 - q) * f if mode == MODEL_MISSING else f


def component_terms(model, evidence, mode):
    """Per-component joint terms w_z * prod_v factor over the evidence variables."""
    names = [var["name"] for var in model["variables"]]
    terms = []
    for z, w in enumerate(model["weights"]):
        term = w
        for j, name in enumerate(names):
            if name not in evidence:
                continue
            term *= factor(model["components"][z][j], model["missing_probs"][z][j],
                           evidence[name], mode)
        terms.append(term)
    return terms


def joint_likelihood(model, evidence, mode):
    return sum(component_terms(model, evidence, mode))


def posterior(model, evidence, mode):
    terms = component_terms(model, evidence, mode)
    total = sum(terms)
    return [t / total for t in terms]


def conditional(model, evidence, target, mode):
    """Predictive vector over the finite domain of one target variable."""
    post = posterior(model, evidence, mode)
    names = [var["name"] for var in model["variables"]]
    j = names.index(target)
    domain = model["variables"][j]["domain"]
    return [sum(post[z] * density(model["components"][z][j], d)
                for z in range(len(post)))
            for d in domain]


def confidence(model, evidence, mode):
    """Evidence likelihood c (linear space); evidence maps names to values/None."""
    return joint_likelihood(model, evidence, mode)


def component_log_likelihoods(model, dataset, mode, columns=None):
    """(N, Z) log w_z plus the log factors of ``columns``, each variable broadcast
    over (N, Z): a finite one's rows gathered from a (K + 1, Z) table by code."""
    cols = range(model.n_variables) if columns is None else columns
    with np.errstate(divide="ignore"):
        out = np.tile(np.log(model.weights), (dataset.n_subjects, 1))
        if mode == MODEL_MISSING:
            log_missed = np.log(model.missing_probs).T
            log_kept = np.log1p(-model.missing_probs).T
        for v in cols:
            missed, kept = (log_missed[v], log_kept[v]) if mode == MODEL_MISSING else (0.0, 0.0)
            kind = model.schemas[v].kind
            if kind.is_finite:
                log_masses = model._log_masses[v].T
                table = np.empty((log_masses.shape[0] + 1, model.n_components))
                table[:-1] = kept + log_masses
                table[-1] = missed  # picked by the missing code, -1
                out += table[dataset.column_codes(v)]
            else:
                densities = _LOG_PDF[kind](dataset.column_numeric(v)[:, None], *model._blocks[v])
                out += np.where(dataset.missing_mask(v)[:, None], missed, kept + densities)
    return out


def _moments(kind, values, weights, domain, scale):
    """One component's cell from its weights on a column's observed values,
    two-pass weighted moments on the raw values (ordinal levels, categorical
    codes)."""
    total = weights.sum()
    if kind is VariableKind.CATEGORICAL:
        probs = np.array([weights[values == k].sum() for k in range(len(domain))]) / total
        probs += CATEGORICAL_PSEUDO
        return Categorical(tuple(probs / probs.sum()), domain)
    if kind is not VariableKind.NONNEGATIVE:
        mean = (weights * values).sum() / total
        variance = max((weights * (values - mean) ** 2).sum() / total,
                       REL_VARIANCE_FLOOR * scale ** 2)
        if kind is VariableKind.ORDINAL:
            return QuantizedGaussian(mean, variance, domain)
        return Gaussian(mean, variance)
    positive = values > 0
    zero_prob = min(weights[~positive].sum() / total, 1.0)
    w, x = weights[positive], values[positive]
    if w.sum() == 0:
        return InflatedGamma(zero_prob, 1.0, 1.0)
    mean = (w * x).sum() / w.sum()
    gap = max((math.log(mean) if mean > 0 else -math.inf) - (w * np.log(x)).sum() / w.sum(), 1e-12)
    shape = (3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap)
    shape = min(max(shape, SHAPE_MIN), SHAPE_MAX)
    return InflatedGamma(zero_prob, shape, max(mean / shape, SCALE_MIN))


def default_cell(kind, domain, scale):
    """The cell of neutral parameters the M-step gives a component with no
    observed weight on a variable: one cell of the library's ``_default_block``."""
    return _cells_of(family_for(kind), _default_block(kind, domain, [scale]), domain)[0]


def column_scale(dataset, v):
    """The scale that column v's variance floor and default parameters read: an
    ordinal's domain span, 1.0 for a categorical, else the span of the observed
    values, 1.0 if that span is 0 or nothing is observed."""
    schema = dataset.schemas[v]
    if schema.kind is VariableKind.ORDINAL:
        return float(schema.domain[-1] - schema.domain[0])
    if schema.kind is VariableKind.CATEGORICAL:
        return 1.0
    values = [x for x in dataset.column_numeric(v).tolist() if not math.isnan(x)]
    span = max(values) - min(values) if values else 0.0
    return span if span > 0 else 1.0


def m_step(dataset, responsibilities):
    """One fit's M-step, component by component and variable by variable, from
    its (N, Z) responsibilities."""
    alpha = np.asarray(responsibilities, dtype=float)
    n_subjects, n_comp = alpha.shape
    totals = alpha.sum(axis=0)
    if totals.min() < COLLAPSE_EPS:
        z = int(np.argmin(totals))
        raise ComponentCollapseError(
            f"component {z} collapsed (total responsibility {totals[z]:.3e})")
    grid = [[None] * dataset.n_variables for _ in range(n_comp)]
    missing_probs = np.empty((n_comp, dataset.n_variables))
    for v, schema in enumerate(dataset.schemas):
        missed = dataset.missing_mask(v)
        categorical = schema.kind is VariableKind.CATEGORICAL
        values = (dataset.column_codes(v) if categorical else dataset.column_numeric(v))[~missed]
        scale = column_scale(dataset, v)
        for z in range(n_comp):
            missing_probs[z, v] = min(alpha[missed, z].sum() / totals[z], 1.0)
            weights = alpha[~missed, z]
            grid[z][v] = (default_cell(schema.kind, schema.domain, scale)
                          if weights.sum() <= ZERO_WEIGHT_EPS else
                          _moments(schema.kind, values, weights, schema.domain, scale))
    return MixtureModel(totals / totals.sum(), grid, missing_probs, dataset.schemas)


def em_once(dataset, order, config, rng):
    """One restart: random responsibilities, M-step, then EM scoring each model once.

    A rise over MONOTONE_SLACK (approximate M-steps overshoot) keeps the previous
    model ("revert"); else EM stops at a relative decrease <= rel_tol ("tol") or after
    max_iterations more M-steps ("max_iterations"). Returns (model, NLLs, reason)."""
    model = m_step(dataset, rng.dirichlet(np.ones(order), size=dataset.n_subjects))
    nlls: list[float] = []
    while True:
        log_joint = component_log_likelihoods(model, dataset, MODEL_MISSING)
        totals = log_sum_exp(log_joint, axis=1)
        posteriors = np.exp(log_joint - totals[:, None])
        nll = float(-totals.sum())
        if nlls and nll > nlls[-1] + MONOTONE_SLACK:
            return previous_model, nlls, "revert"
        nlls.append(nll)
        if len(nlls) > 1 and nlls[-2] - nll <= config.rel_tol * abs(nlls[-2]):
            return model, nlls, "tol"
        if len(nlls) > config.max_iterations:
            return model, nlls, "max_iterations"
        previous_model = model
        model = m_step(dataset, posteriors)


def log_mass_table(domain, mean, variance):
    """(Z, K) ordinal log masses as ``distributions._log_mass_table`` computed them
    in the (Z, K) layout, one row-wise ``log_sum_exp`` of the scores: the reference
    that its layout across components keeps bit for bit."""
    mean, variance = (np.asarray(a, dtype=float)[:, None] for a in (mean, variance))
    levels = np.asarray(domain, dtype=float)
    nearest = levels[np.abs(levels - np.clip(mean, levels[0], levels[-1])).argmin(axis=1)][:, None]
    with np.errstate(over="ignore"):
        scores = -((levels - nearest) * ((levels - mean) / 2 + (nearest - mean) / 2)) / variance
    return scores - log_sum_exp(scores)[:, None]
