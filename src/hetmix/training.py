"""EM training, restarts, and BIC-based order selection.

Fitting maximizes the ``model_missing`` likelihood: the E-step computes
latent posteriors (responsibilities), the M-step re-estimates weights, the
per-cell missing probabilities, and the per-family parameters from
responsibility-weighted observed cells. Restarts draw independent random
responsibility matrices from a single seed; the best final negative
log-likelihood wins. Order selection fits a range of component counts and
scores each with BIC(d) = 0.5 * T_d * ln N + NLL.

The restarts of a fit, and all folds x restarts of a leave-one-out order, run
as one batch (``_em_batch``) over every row of the cohort; a fold gives its
held-out row weight 0. Both steps read the cohort's sufficient statistics
(``Dataset._stats``: the continuous columns' and the finite columns' one-hot,
multiplied in fixed row chunks). An E-step is their product with every
component's natural parameters (``model._em_log_joint``); an M-step is their
product with the weights, then one closed-form ``_weighted_block`` (q and
block) per variable. A fit ends converged, at the
cap, on a revert or on a collapse; batched, bit for bit as run alone.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import EstimationError, _default_block, _weighted_block, log_sum_exp
from .model import MixtureModel, _em_log_joint, parameter_count
from .schema import Dataset, SchemaViolationError, _is_int, _scales, validate_dataset

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
        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            if not (_is_int(value := getattr(self, name)) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        rel_tol = self.rel_tol
        if isinstance(rel_tol, bool) or not (isinstance(rel_tol, numbers.Real) and rel_tol > 0):
            raise ValueError(f"rel_tol must be a number > 0, got {rel_tol!r}")


def _checked_orders(orders) -> list:
    """``orders`` ascending, each once, as ints; ValueError unless there is
    one and each is an integer (not a bool) >= 1."""
    if not (orders := list(orders)):
        raise ValueError("no orders requested")
    if not all(map(_is_int, orders)):
        raise ValueError(f"orders must be integers, got {orders}")
    if min(orders) < 1:
        raise ValueError("orders must be >= 1")
    return sorted(set(map(int, orders)))


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


def _m_step_batch(dataset: Dataset, scales: np.ndarray, alpha: np.ndarray,
                  fits: np.ndarray) -> tuple:
    """The M-step of the fits ``fits`` (ascending) from their (B, Z, N)
    responsibilities over the rows of ``dataset`` (0 on a row a fit leaves
    out), fit b with the column scales ``scales[b]``: its sums are one product
    with ``Dataset._stats``' statistics plus one with its one-hot (missed
    weight and level counts) summed over the row chunks in order, each
    variable's whole to ``_weighted_block`` (q and block); rows with observed
    weight <= ZERO_WEIGHT_EPS take its ``_default_block``, no cell built. Returns
    (stacked model, ``_from_blocks``; the fits it holds; {fit:
    ComponentCollapseError}, fits that left the batch)."""
    totals = alpha.sum(axis=-1)
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
    matrix, onehot, layout, _ = dataset._stats
    # one product per fit, so a fit's sums do not depend on the batch it is in
    counts = np.zeros((n_fits, n_comp, onehot.shape[1]))
    for rows, chunk in dataset._onehot_chunks():
        counts += np.matmul(alpha[..., rows], chunk)
    stats = np.concatenate([np.matmul(alpha, matrix), counts], axis=-1).reshape(n_fits * n_comp, -1)
    missing_probs = np.empty((n_fits * n_comp, len(layout)))
    blocks = []
    for v, (schema, (cols, unit)) in enumerate(zip(dataset.schemas, layout)):
        fit_scales = np.repeat(scales[fits, v], n_comp)
        with np.errstate(divide="ignore", invalid="ignore"):  # unfitted rows: defaults below
            missing_probs[:, v], observed, block = _weighted_block(
                schema.kind, stats[:, cols], schema.domain, fit_scales, unit)
        if (unfitted := observed <= ZERO_WEIGHT_EPS).any():
            defaults = _default_block(schema.kind, schema.domain, fit_scales)
            for fitted, default in zip(block, defaults):
                fitted[unfitted] = default[unfitted]
        blocks.append(block)
    model = MixtureModel._from_blocks((totals / totals.sum(axis=1, keepdims=True)).ravel(),
                                      blocks, missing_probs, dataset.schemas, n_fits)
    return model, fits, failed


def _em_batch(dataset: Dataset, scales: np.ndarray, held_out, inits: np.ndarray,
              config: EmConfig) -> list:
    """B EM runs in lockstep on the rows of ``dataset``, run b from the (Z, N)
    responsibilities ``inits[b]`` (C-contiguous) with the column scales
    ``scales[b]`` (``_scales`` of its training rows), leaving out the row
    ``held_out[b]`` (none if ``held_out`` is None): weight 0 in ``inits[b]``, no
    part in its NLL and posteriors. Per run: (model, NLL trace, converged), or
    the ComponentCollapseError that ended it.

    An E-step is one ``_em_log_joint`` for all B * Z components, component-major:
    (B, Z, N). A rise over MONOTONE_SLACK (approximate M-steps overshoot)
    keeps the previous model; else a run stops at a relative decrease <=
    rel_tol (converged) or after max_iterations more M-steps, and leaves the
    batch. Precondition (``_fit_many`` meets it, posteriors keep it): each kept
    row's responsibilities sum to 1. Its largest, >= 1/Z, keeps that component's
    q, zero_prob, masses and floored densities positive and finite for the row,
    so its likelihood is; a zero one would stop the batch at the next M-step's
    finite-weights check (EstimationError), not end one run."""
    n_runs, _, n_rows = inits.shape
    kept = np.arange(n_rows) != np.full(n_runs, -1 if held_out is None else held_out)[:, None]
    traces = [[] for _ in range(n_runs)]
    outcomes = [None] * n_runs
    model, fits, failed = _m_step_batch(dataset, scales, inits, np.arange(n_runs))
    while True:
        for b, err in failed.items():
            outcomes[b] = err
        if not fits.size:
            return outcomes
        log_joint = _em_log_joint(model, dataset, fits.size)
        # a held-out row: posteriors exp(-inf - 0) = 0, NLL term 0
        np.copyto(log_joint, -np.inf, where=~kept[fits][:, None])
        totals = np.where(kept[fits], log_sum_exp(log_joint, axis=1), 0.0)
        nlls = -totals.sum(axis=1)
        for i, b in enumerate(fits.tolist()):
            trace, nll = traces[b], float(nlls[i])
            if trace and nll > trace[-1] + MONOTONE_SLACK:
                back = int(np.searchsorted(previous_fits, b))
                outcomes[b] = (previous._fit_of(back, previous_fits.size), trace, False)
                continue
            trace.append(nll)
            converged = len(trace) > 1 and trace[-2] - nll <= config.rel_tol * abs(trace[-2])
            if converged or len(trace) > config.max_iterations:
                outcomes[b] = (model._fit_of(i, fits.size), trace, converged)
        go = np.array([outcomes[b] is None for b in fits.tolist()])
        if not go.any():
            return outcomes
        if not go.all():
            log_joint, totals = log_joint[go], totals[go]
        # in place: the log-joint's memory becomes the posteriors
        posteriors = np.exp(np.subtract(log_joint, totals[:, None], out=log_joint), out=log_joint)
        previous, previous_fits = model, fits
        model, fits, failed = _m_step_batch(dataset, scales, posteriors, fits[go])


def _fit_many(dataset: Dataset, held_out, seeds, order: int, config: EmConfig) -> list:
    """Fit ``order`` components to all rows of ``dataset`` but ``held_out[i]``
    (all if ``held_out`` is None; a fold is its held-out row: the kept rows size
    its starts and give its scales), restarts seeded from ``seeds[i]``, as one
    batch, each kept row's start summing to 1 (``_em_batch``'s precondition).
    Per fit: the best (model, TrainingTrace), or a TrainingError if every restart collapsed."""
    n = dataset.n_subjects
    kept = np.arange(n) != np.full(len(seeds), -1 if held_out is None else held_out)[:, None]
    inits = np.zeros((len(seeds), config.restarts, order, n))
    for i, seed in enumerate(seeds):
        for r, child in enumerate(np.random.SeedSequence(seed).spawn(config.restarts)):
            inits[i, r][:, kept[i]] = np.random.default_rng(child).dirichlet(
                np.ones(order), size=int(kept[i].sum())).T
    outcomes = _em_batch(dataset, np.repeat(_scales(dataset, kept), config.restarts, 0),
                         None if held_out is None else np.repeat(held_out, config.restarts),
                         inits.reshape(-1, order, n), config)
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
    order, = _checked_orders([order])
    violations = validate_dataset(dataset)
    if violations:
        raise SchemaViolationError(violations)
    best = _fit_many(dataset, None, [config.seed], order, config)[0]
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
    orders = _checked_orders(orders)
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
