"""Plain-arithmetic reference implementations used to cross-check the library.

Everything here but the EM references below works on the JSON-dict form of a
model (io.model_to_dict) and uses only the math module: explicit sums and products
in linear space, no arrays, no log-sum-exp. Sizes must stay tiny; the point is
an independent derivation of the same quantities, not performance. Missing
cells are represented by None; variables absent from an evidence dict
contribute nothing.

``em_once`` and ``m_step`` are the sequential EM loop of one restart and its
M-step, as the library ran them before restarts and folds ran as one batch:
the reference the batched EM must match bit for bit. ``component_log_likelihoods``
is their E-step, subject-major over (N, Z) as the library ran it before it went
component-major. They share the densities, the weighted block update and the
model checks with the library.
"""

import math

import numpy as np

from hetmix.distributions import (_LOG_PDF, _block_of, _variance_floor, _weighted_block,
                                  default_params)
from hetmix.model import MODEL_MISSING, MixtureModel, normalize_log_joint
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


def m_step(dataset, responsibilities):
    """One fit's M-step, variable by variable, from its (N, Z) responsibilities."""
    alpha = np.asarray(responsibilities, dtype=float)
    n_subjects, n_comp = alpha.shape
    totals = alpha.sum(axis=0)
    if totals.min() < COLLAPSE_EPS:
        z = int(np.argmin(totals))
        raise ComponentCollapseError(
            f"component {z} collapsed (total responsibility {totals[z]:.3e})")
    weights = totals / totals.sum()
    by_component = np.ascontiguousarray(alpha.T)
    missing_probs = np.empty((n_comp, dataset.n_variables))
    blocks = []
    for v, (schema, (missed, rows, observed, scale)) in enumerate(
            zip(dataset.schemas, dataset._observed)):
        missing_probs[:, v] = alpha.take(missed, axis=0).sum(axis=0) / totals
        observed_weights = by_component.take(rows, axis=1)
        fitted = observed_weights.sum(axis=1) > ZERO_WEIGHT_EPS
        block = _weighted_block(schema.kind, observed[None], observed_weights[fitted],
                                schema.domain, _variance_floor(scale or 1.0))
        if not fitted.all():
            default = default_params(schema.kind, domain=schema.domain, scale=scale or 1.0)
            partial, block = block, _block_of(schema, [default] * n_comp)
            for full, part in zip(block, partial):
                full[fitted] = part
        blocks.append(block)
    return MixtureModel._from_blocks(weights, tuple(blocks), missing_probs, dataset.schemas)


def em_once(dataset, order, config, rng):
    """One restart: random responsibilities, M-step, then EM scoring each model once.

    A rise over MONOTONE_SLACK (approximate M-steps overshoot) keeps the previous
    model; else EM stops at a relative decrease <= rel_tol (converged) or after
    max_iterations more M-steps."""
    model = m_step(dataset, rng.dirichlet(np.ones(order), size=dataset.n_subjects))
    nlls: list[float] = []
    while True:
        posteriors, totals = normalize_log_joint(
            component_log_likelihoods(model, dataset, MODEL_MISSING))
        nll = float(-totals.sum())
        if nlls and nll > nlls[-1] + MONOTONE_SLACK:
            return previous_model, nlls, False
        nlls.append(nll)
        if len(nlls) > 1 and nlls[-2] - nll <= config.rel_tol * abs(nlls[-2]):
            return model, nlls, True
        if len(nlls) > config.max_iterations:
            return model, nlls, False
        previous_model = model
        model = m_step(dataset, posteriors)
