"""EM training, restarts, and BIC-based order selection.

Fitting maximizes the ``model_missing`` likelihood: the E-step computes
latent posteriors (responsibilities), the M-step re-estimates weights, the
per-cell missing probabilities, and the per-family parameters from
responsibility-weighted observed cells. Restarts draw independent random
responsibility matrices from a single seed; the best final negative
log-likelihood wins. Order selection fits a range of component counts and
scores each with BIC(d) = 0.5 * T_d * ln N + NLL.

The restarts of a fit, and all folds x restarts of a leave-one-out order, run
as one batch (``_em_batch``): an E-step is one likelihood pass for all their
components, an M-step one parameter block per variable for all of them, and
each fit's arithmetic is exactly what it does alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (_BLOCK_FIELDS, EstimationError, _block_of, _variance_floor,
                            _weighted_block, default_params, log_sum_exp)
from .model import (MODEL_MISSING, MixtureModel, ZeroLikelihoodError, _log_joint,
                    normalize_log_joint, parameter_count)
from .schema import Dataset, SchemaViolationError, VariableKind, validate_dataset

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
    there, so they never carry likelihood weight). One fit of the batched M-step.
    """
    alpha = np.asarray(responsibilities, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] != dataset.n_subjects:
        raise ValueError("responsibility rows do not match the dataset")
    model, _, failed = _m_step_batch(_plan([dataset]), alpha.T[None], np.arange(1))
    if failed:
        raise failed[0]
    return model


def _plan(subsets) -> tuple:
    """Per variable, (schema, groups): what the M-step reads of fit b's training
    set ``subsets[b]`` (its ``Dataset._observed``), the fits grouped by the sizes
    of their index sets. A group is (its fits, each one's training set, then
    stacked over its distinct training sets: missed rows, observed rows, values,
    scales, variance floors). A fit's sums thus run over its own cells, in
    order, unpadded: batched, it is bit for bit the fit run alone."""
    plan = []
    for v, schema in enumerate(subsets[0].schemas):
        groups = {}
        for b, subset in enumerate(subsets):
            missed, rows, observed, scale = subset._observed[v]
            zeros = schema.kind is VariableKind.NONNEGATIVE and np.count_nonzero(observed == 0)
            members, which, sets = groups.setdefault((missed.size, rows.size, zeros), ([], [], {}))
            members.append(b)
            which.append(sets.setdefault(id(subset), (len(sets), (
                missed, rows, observed, scale or 1.0, _variance_floor(scale or 1.0))))[0])
        # one training set stays a view of its arrays; more are stacked
        stack = lambda arrays: np.asarray(arrays[0])[None] if len(arrays) == 1 else np.array(arrays)
        plan.append((schema, [(np.array(members), np.array(which),
                               *map(stack, zip(*(entry for _, entry in sets.values()))))
                              for members, which, sets in groups.values()]))
    return tuple(plan)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums of (..., Z, M) ``a`` over its last axis, in the order NumPy sums the
    M rows of the (M, Z) responsibilities of one fit: pairwise along one
    contiguous run when Z == 1, one row after another when Z >= 2 (the last
    running total of ``cumsum``). Component totals and missed-cell sums then
    equal the sequential M-step's bit for bit; a plain ``sum`` would not."""
    if a.shape[-2] == 1 or not a.shape[-1]:
        return a.sum(axis=-1)
    return np.cumsum(a, axis=-1)[..., -1]


def _m_step_batch(plan, alpha: np.ndarray, fits: np.ndarray) -> tuple:
    """The M-step of the fits ``fits`` (ascending, of ``plan``) from their (B, Z, M)
    responsibilities: per variable and group, one ``_weighted_block`` call on
    their (B, Z, M) weights. Returns (stacked model, ``MixtureModel._from_blocks``;
    the fits it holds; {fit: ComponentCollapseError}, fits that left the batch)."""
    totals = _row_sums(alpha)
    low = totals.min(axis=1) < COLLAPSE_EPS
    failed = {int(fits[i]): ComponentCollapseError(
        f"component {z} collapsed (total responsibility {totals[i, z]:.3e})")
        for i, z in zip(np.flatnonzero(low), np.argmin(totals[low], axis=1).tolist())}
    if low.any():
        alpha, totals, fits = alpha[~low], totals[~low], fits[~low]
        if not fits.size:
            return None, fits, failed
    if not np.isfinite(alpha).all() or (alpha < 0).any():
        raise EstimationError("weights must be finite and nonnegative")
    n_fits, n_comp, _ = alpha.shape
    active = np.zeros(sum(group[0].size for group in plan[0][1]), dtype=bool)
    active[fits] = True
    missing_probs = np.empty((n_fits, n_comp, len(plan)))
    blocks = []
    for v, (schema, groups) in enumerate(plan):
        width = (len(schema.domain),) if schema.kind is VariableKind.CATEGORICAL else ()
        block = tuple(np.empty((n_fits * n_comp, *width)) for _ in _BLOCK_FIELDS[schema.kind])
        for members, which, missed, rows, observed, scales, floors in groups:
            keep = active[members]
            if not keep.any():
                continue
            at, sets = np.searchsorted(fits, members[keep]), which[keep]
            # missed weights summed in row order, like totals: an all-missing
            # column gives q == 1 exactly
            if len(rows) == 1:  # one training set (restarts of one fit): gather by take
                fitted = alpha if at.size == n_fits else alpha[at]
                missed_rows = fitted.take(missed[0], axis=2)
                weights = fitted.take(rows[0], axis=2)
            else:
                lanes = at[:, None, None], np.arange(n_comp)[:, None]
                missed_rows = alpha[(*lanes, missed[sets][:, None, :])]
                weights = alpha[(*lanes, rows[sets][:, None, :])]
                observed, floors = observed[sets], floors[sets]
            missing_probs[at, :, v] = _row_sums(missed_rows) / totals[at]
            slots = (at[:, None] * n_comp + np.arange(n_comp)).ravel()
            unfitted = np.flatnonzero(weights.sum(axis=-1).ravel() <= ZERO_WEIGHT_EPS)
            with np.errstate(divide="ignore", invalid="ignore"):  # unfitted rows: defaults below
                part = _weighted_block(schema.kind, observed[:, None], weights, schema.domain,
                                       floors[:, None])
            for full, values in zip(block, part):
                full[slots] = values.reshape(slots.size, *width)
            for slot in unfitted:
                default = default_params(schema.kind, domain=schema.domain,
                                         scale=scales[sets[slot // n_comp]])
                for full, values in zip(block, _block_of(schema, [default])):
                    full[slots[slot]] = values[0]
        blocks.append(block)
    model = MixtureModel._from_blocks((totals / totals.sum(axis=1, keepdims=True)).ravel(),
                                      blocks, missing_probs.reshape(n_fits * n_comp, -1),
                                      [schema for schema, _ in plan], n_fits)
    return model, fits, failed


def _em_batch(dataset: Dataset, subsets, rows: np.ndarray, inits: np.ndarray,
              config: EmConfig) -> list:
    """B EM runs in lockstep, run b on the rows ``rows[b]`` of ``dataset`` (all
    rows if None), which make the subset ``subsets[b]``, from the (M, Z)
    responsibilities ``inits[b]``. Per run: (model, NLL trace, converged), or
    the ComponentCollapseError / ZeroLikelihoodError that ended it.

    An E-step is one likelihood pass for all B * Z components, component-major:
    (B, Z, M), each run's rows gathered along the last axis, so the
    log-sum-exp, the posteriors and the M-step's weights run along subjects.
    A rise over MONOTONE_SLACK (approximate M-steps overshoot) keeps the
    previous model; else a run stops at a relative decrease <= rel_tol
    (converged) or after max_iterations more M-steps, and leaves the batch."""
    n_runs, _, n_comp = inits.shape
    plan = _plan(subsets)
    traces = [[] for _ in range(n_runs)]
    outcomes = [None] * n_runs
    model, fits, failed = _m_step_batch(plan, inits.transpose(0, 2, 1), np.arange(n_runs))
    while True:
        for b, err in failed.items():
            outcomes[b] = err
        if not fits.size:
            return outcomes
        log_joint = _log_joint(model, dataset, MODEL_MISSING).reshape(fits.size, n_comp, -1)
        if rows is not None:
            log_joint = np.take_along_axis(log_joint, rows[fits][:, None], axis=2)
        totals = log_sum_exp(log_joint, axis=1)
        nlls = -totals.sum(axis=1)
        go = np.isfinite(totals).all(axis=1)
        for i, b in enumerate(fits.tolist()):
            trace, nll = traces[b], float(nlls[i])
            if not go[i]:
                try:
                    normalize_log_joint(log_joint[i].T)
                except ZeroLikelihoodError as err:
                    outcomes[b] = err
            elif trace and nll > trace[-1] + MONOTONE_SLACK:
                back = int(np.searchsorted(previous_fits, b))
                outcomes[b] = (previous._fit_of(back, previous_fits.size), trace, False)
                go[i] = False
            else:
                trace.append(nll)
                converged = len(trace) > 1 and trace[-2] - nll <= config.rel_tol * abs(trace[-2])
                if converged or len(trace) > config.max_iterations:
                    outcomes[b] = (model._fit_of(i, fits.size), trace, converged)
                    go[i] = False
        if not go.any():
            return outcomes
        if not go.all():
            log_joint, totals = log_joint[go], totals[go]
        # in place: the log-joint's memory becomes the posteriors
        posteriors = np.exp(np.subtract(log_joint, totals[:, None], out=log_joint), out=log_joint)
        previous, previous_fits = model, fits
        model, fits, failed = _m_step_batch(plan, posteriors, fits[go])


def _fit_many(dataset: Dataset, subsets, rows, seeds, order: int, config: EmConfig) -> list:
    """Fit ``order`` components to each subset ``subsets[i]`` (the rows ``rows[i]``
    of ``dataset``; all if ``rows`` is None), restarts seeded from ``seeds[i]``,
    as one batch. Per fit: the best (model, TrainingTrace), or a TrainingError
    if every restart failed."""
    starts = [(subset, np.random.default_rng(child)) for subset, seed in zip(subsets, seeds)
              for child in np.random.SeedSequence(seed).spawn(config.restarts)]
    outcomes = _em_batch(dataset, [subset for subset, _ in starts],
                         None if rows is None else np.repeat(rows, config.restarts, axis=0),
                         np.array([rng.dirichlet(np.ones(order), size=subset.n_subjects)
                                   for subset, rng in starts]), config)
    out = []
    for first in range(0, len(outcomes), config.restarts):
        best, failures = None, []
        for r, outcome in enumerate(outcomes[first:first + config.restarts]):
            if isinstance(outcome, Exception):
                failures.append(f"restart {r}: {outcome}")
            elif best is None or outcome[1][-1] < best[1].final_nll:
                best = (outcome[0], TrainingTrace(tuple(outcome[1]), r, outcome[2]))
        out.append(best or TrainingError(f"all {config.restarts} restart(s) failed for "
                                         f"order {order}: " + "; ".join(failures)))
    return out


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
    best = _fit_many(dataset, [dataset], None, [config.seed], order, config)[0]
    if isinstance(best, TrainingError):
        raise best
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
