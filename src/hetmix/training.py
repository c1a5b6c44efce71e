"""EM training, restarts, and BIC-based order selection.

Fitting maximizes the ``model_missing`` likelihood: the E-step computes
latent posteriors (responsibilities), the M-step re-estimates weights, the
per-cell missing probabilities, and the per-family parameters from
responsibility-weighted observed cells. Restarts draw independent random
responsibility matrices from a single seed; the best final negative
log-likelihood wins. Order selection fits a range of component counts and
scores each with BIC(d) = 0.5 * T_d * ln N + NLL.

The M-step turns the (N, Z) responsibilities once into component-major
(Z, N) rows and fits one parameter block per variable for all components:
no per-component loop and no parameter cell. What it reads of a cohort is
worked out once per ``Dataset`` (``Dataset._observed``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (EstimationError, _block_of, _weighted_block,
                            default_params)
from .model import (MODEL_MISSING, MixtureModel, ZeroLikelihoodError,
                    component_log_likelihoods, normalize_log_joint,
                    parameter_count)
from .schema import Dataset, SchemaViolationError, validate_dataset

COLLAPSE_EPS = 1e-8       # minimum total responsibility per component
MONOTONE_SLACK = 1e-8     # tolerated NLL increase before reverting
ZERO_WEIGHT_EPS = 1e-12   # observed responsibility below this uses default params


class ComponentCollapseError(RuntimeError):
    """A component's total responsibility fell below the collapse threshold."""


class TrainingError(RuntimeError):
    """No restart produced a usable model."""


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one EM run: iteration cap, tolerance, restarts, seed."""

    max_iterations: int = 500
    rel_tol: float = 1e-6
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration NLL of the winning restart, each <= previous + MONOTONE_SLACK."""

    nll_per_iteration: tuple
    restart_index: int
    converged: bool  # True only when the rel_tol test stopped EM

    @property
    def iterations(self) -> int:
        return len(self.nll_per_iteration)

    @property
    def final_nll(self) -> float:
        return self.nll_per_iteration[-1]


def m_step(dataset: Dataset, responsibilities: np.ndarray) -> MixtureModel:
    """Weighted ML updates for weights, missing probs, and family params.

    Raises ComponentCollapseError if any component's total responsibility is
    below COLLAPSE_EPS, and EstimationError unless every responsibility is
    finite and nonnegative. Family parameters use observed cells only: one
    block per variable is fitted for the components with observed
    responsibility; a component with effectively none on a variable gets
    neutral defaults (``default_params``; its missing probability is ~1
    there, so they never carry likelihood weight).
    """
    alpha = np.asarray(responsibilities, dtype=float)
    n_subjects, n_comp = alpha.shape
    if n_subjects != dataset.n_subjects:
        raise ValueError("responsibility rows do not match the dataset")
    totals = alpha.sum(axis=0)
    if totals.min() < COLLAPSE_EPS:
        z = int(np.argmin(totals))
        raise ComponentCollapseError(
            f"component {z} collapsed (total responsibility {totals[z]:.3e})")
    if not np.isfinite(alpha).all() or (alpha < 0).any():
        raise EstimationError("weights must be finite and nonnegative")
    weights = totals / totals.sum()
    by_component = np.ascontiguousarray(alpha.T)

    missing_probs = np.empty((n_comp, dataset.n_variables))
    blocks = []
    for v, (schema, (missed, rows, observed, scale)) in enumerate(
            zip(dataset.schemas, dataset._observed)):
        # summed in row order, like totals: an all-missing column gives q == 1 exactly
        missing_probs[:, v] = alpha.take(missed, axis=0).sum(axis=0) / totals
        # take, not a boolean mask: it keeps each component's row contiguous
        observed_weights = by_component.take(rows, axis=1)
        fitted = observed_weights.sum(axis=1) > ZERO_WEIGHT_EPS
        block = _weighted_block(schema.kind, observed, observed_weights[fitted],
                                schema.domain, scale)
        if not fitted.all():
            default = default_params(schema.kind, domain=schema.domain, scale=scale or 1.0)
            partial, block = block, _block_of(schema, [default] * n_comp)
            for full, part in zip(block, partial):
                full[fitted] = part
        blocks.append(block)
    return MixtureModel._from_blocks(weights, tuple(blocks), missing_probs, dataset.schemas)


def _em_once(dataset: Dataset, order: int, config: EmConfig, rng):
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


def fit(dataset: Dataset, order: int,
        config: EmConfig = EmConfig()) -> tuple[MixtureModel, TrainingTrace]:
    """Fit a mixture of ``order`` components; returns the best restart.

    The dataset must pass validation (no bad cells, no zero-variability
    columns). Restart seeds are spawned deterministically from config.seed, so
    identical inputs give an identical model. Restarts whose components
    collapse are skipped; if all collapse, TrainingError is raised.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    violations = validate_dataset(dataset)
    if violations:
        raise SchemaViolationError(violations)
    best = None
    failures = []
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(child)
        try:
            model, nlls, converged = _em_once(dataset, order, config, rng)
        except (ComponentCollapseError, ZeroLikelihoodError) as err:
            failures.append(f"restart {r}: {err}")
            continue
        if best is None or nlls[-1] < best[1].final_nll:
            best = (model, TrainingTrace(tuple(nlls), r, converged))
    if best is None:
        raise TrainingError(
            f"all {config.restarts} restart(s) failed for order {order}: "
            + "; ".join(failures))
    return best


def bic_score(model: MixtureModel, n_subjects: int, nll: float) -> float:
    """0.5 * T_d * ln N + NLL, for the model's NLL under the model_missing
    likelihood on N subjects (``TrainingTrace.final_nll`` of its fit)."""
    return 0.5 * parameter_count(model) * np.log(n_subjects) + nll


@dataclass(frozen=True)
class OrderScore:
    """One row of the order-selection table."""

    order: int
    n_params: int | None
    nll: float | None
    bic: float | None
    converged: bool | None
    error: str | None = None


@dataclass(frozen=True)
class OrderSelection:
    """Winning order/model plus the full score table (ascending order)."""

    best_order: int
    best_model: MixtureModel
    best_trace: TrainingTrace
    scores: tuple


def select_order(dataset: Dataset, orders,
                 config: EmConfig = EmConfig()) -> OrderSelection:
    """Fit every requested order and pick the lowest BIC (ties: fewer components).

    Orders that fail to train are recorded in the table with their error and
    skipped; at least one order must succeed.
    """
    orders = sorted(set(int(k) for k in orders))
    if not orders:
        raise ValueError("no orders requested")
    if orders[0] < 1:
        raise ValueError("orders must be >= 1")
    scores = []
    best = None
    for order in orders:
        try:
            model, trace = fit(dataset, order, config)
        except TrainingError as err:
            warnings.warn(f"order {order} failed: {err}")
            scores.append(OrderScore(order, None, None, None, None, str(err)))
            continue
        bic = bic_score(model, dataset.n_subjects, trace.final_nll)
        scores.append(OrderScore(order, parameter_count(model),
                                 trace.final_nll, float(bic), trace.converged))
        if best is None or bic < best[0]:
            best = (bic, order, model, trace)
    if best is None:
        raise TrainingError("every requested order failed to train")
    _, order, model, trace = best
    return OrderSelection(order, model, trace, tuple(scores))
