"""EM training, restarts, and BIC-based order selection.

Fitting maximizes the ``model_missing`` likelihood: the E-step computes
latent posteriors (responsibilities), the M-step re-estimates weights, the
per-cell missing probabilities, and the per-family parameters from
responsibility-weighted observed cells. Restarts draw independent random
responsibility matrices from a single seed; the best final negative
log-likelihood wins. Order selection fits a range of component counts and
scores each with BIC(d) = 0.5 * T_d * ln N + NLL.

All of EM is here. The restarts of a fit, and all folds x restarts of a
leave-one-out order, run as one batch (``_em_batch``) over every row of the
cohort. Each fit is a mask of the rows it keeps and their column scales; a row
it leaves out has weight 0. Both steps read the cohort's sufficient statistics
(``Dataset._stats``: the continuous columns' and the finite columns' one-hot,
which ``_onehot_chunks`` casts a row chunk at a time). An E-step
(``_em_log_joint``) is their product with every component's natural
parameters; an M-step (``_m_step_batch``) their product with the weights, then
one closed-form ``_weighted_block`` (q and block) per variable. ``_em_batch``
alone ends a fit, and hands back one stack of (B, Z, ...) arrays, from which
``_fit_many`` gathers each fit's best restart once into one checked model.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (EstimationError, _default_block, _natural_params, _weighted_block,
                            log_sum_exp)
from .model import MixtureModel, _factors, parameter_count
from .schema import Dataset, SchemaViolationError, _is_int, _kept_ranges, validate_dataset

COLLAPSE_EPS = 1e-8       # minimum total responsibility per component
MONOTONE_SLACK = 1e-8     # tolerated NLL increase before reverting
ZERO_WEIGHT_EPS = 1e-12   # observed responsibility below this uses default params
EM_TERM_LIMIT = 1e3       # an E-step product term that could reach this takes _factors
_CHUNK_ROWS = 2048        # one-hot rows cast to float64 at a time: one chunk's memory


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


def _onehot_chunks(dataset: Dataset):
    """(rows, their float64 one-hot) for every _CHUNK_ROWS rows of the
    ``Dataset._stats`` one-hot, in order: the boundaries depend on N alone.
    The chunks share one buffer, so each holds until the next is drawn."""
    onehot = dataset._stats[1]
    buffer = np.empty((min(dataset.n_subjects, _CHUNK_ROWS), onehot.shape[1]))
    for start in range(0, dataset.n_subjects, _CHUNK_ROWS):
        rows = onehot[start:start + _CHUNK_ROWS]
        chunk = buffer[:len(rows)]
        np.copyto(chunk, rows)
        yield slice(start, start + len(rows)), chunk


def _em_log_joint(model: MixtureModel, dataset: Dataset, n_fits: int, out) -> np.ndarray:
    """``out``, the (n_fits, Z, N) ``model._log_joint`` under ``model_missing`` of a
    stack of n_fits models: log w plus, per fit (batched or not, the same bits),
    one product of the ``_natural_params`` with ``Dataset._stats``' statistics and
    one with its one-hot, a row chunk at a time. The product rounds to a few eps
    times its terms, bounded by |theta| @ ``reach`` (a statistic or slot that is
    0 on every row left out). A component takes the scoring routine
    ``model._factors`` instead on a column where that bound reaches
    EM_TERM_LIMIT: a variance near its floor far from the column's centre
    (terms ~ (x - centre)^2 / variance), a Gamma near its shape cap (lgamma(shape)
    ~ 1e5), a far level's log mass, or a -inf (q or zero_prob at 0 or 1, or a
    mass at 0, on a statistic some row has), which the product would make NaN.
    So it stays within ~1e-13 per column of ``_log_joint``."""
    matrix, _, layout, reach = dataset._stats
    theta = np.zeros((model.n_components, reach.size))
    dense = []
    for v, (schema, (cols, unit)) in enumerate(zip(model.schemas, layout)):
        finite = schema.kind.is_finite
        block = _natural_params(schema.kind, model._log_masses[v] if finite else model._blocks[v],
                                unit, model.missing_probs[:, v])
        block[:, reach[cols] == 0] = 0.0  # 0 on every row: adds nothing, -inf or not
        with np.errstate(over="ignore"):
            wide = np.abs(block) @ reach[cols] >= EM_TERM_LIMIT
        theta[~wide, cols] = block[~wide]
        if wide.any():
            dense.append((v, np.flatnonzero(wide)))
    shape = (n_fits, model.n_components // n_fits, -1)
    np.matmul(theta[:, :matrix.shape[1]].reshape(shape), matrix.T, out=out)
    slots = theta[:, matrix.shape[1]:].reshape(shape)
    for rows, chunk in _onehot_chunks(dataset):
        out[..., rows] += np.matmul(slots, chunk.T)
    flat = out.reshape(model.n_components, -1)
    with np.errstate(divide="ignore"):
        flat += np.log(model.weights)[:, None]
        for v, rows in dense:
            q = model.missing_probs[rows, v, None]
            flat[rows] += _factors(model, dataset, v, rows, np.log(q), np.log1p(-q))
    return out


def _m_step_batch(dataset: Dataset, scales: np.ndarray, alpha: np.ndarray,
                  totals: np.ndarray) -> MixtureModel:
    """The M-step of B fits from their (B, Z, N) responsibilities ``alpha`` over
    the rows of ``dataset`` (0 on a row a fit leaves out) and its (B, Z) sums
    ``totals``, fit b with the column scales ``scales[b]``: its sums are one
    product with ``Dataset._stats``' statistics plus one with its one-hot
    (missed weight and level counts) summed over the row chunks in order, each
    variable's whole to ``_weighted_block`` (q and block); rows with observed
    weight <= ZERO_WEIGHT_EPS take its ``_default_block``, no cell built.
    Returns the stacked model of the B fits (``_from_blocks``)."""
    if not np.isfinite(alpha).all() or (alpha < 0).any():
        raise EstimationError("weights must be finite and nonnegative")
    n_fits, n_comp, _ = alpha.shape
    matrix, onehot, layout, _ = dataset._stats
    # one product per fit, so a fit's sums do not depend on the batch it is in
    counts = np.zeros((n_fits, n_comp, onehot.shape[1]))
    for rows, chunk in _onehot_chunks(dataset):
        counts += np.matmul(alpha[..., rows], chunk)
    stats = np.concatenate([np.matmul(alpha, matrix), counts], axis=-1).reshape(n_fits * n_comp, -1)
    missing_probs = np.empty((n_fits * n_comp, len(layout)))
    blocks = []
    for v, (schema, (cols, unit)) in enumerate(zip(dataset.schemas, layout)):
        fit_scales = np.repeat(scales[:, v], n_comp)
        with np.errstate(divide="ignore", invalid="ignore"):  # unfitted rows: defaults below
            missing_probs[:, v], observed, block = _weighted_block(
                schema.kind, stats[:, cols], schema.domain, fit_scales, unit)
        if (unfitted := observed <= ZERO_WEIGHT_EPS).any():
            defaults = _default_block(schema.kind, schema.domain, fit_scales)
            for fitted, default in zip(block, defaults):
                fitted[unfitted] = default[unfitted]
        blocks.append(block)
    return MixtureModel._from_blocks((totals / totals.sum(axis=1, keepdims=True)).ravel(),
                                     blocks, missing_probs, dataset.schemas, n_fits)


def _em_batch(dataset: Dataset, kept: np.ndarray, scales: np.ndarray, inits: np.ndarray,
              config: EmConfig) -> tuple:
    """B EM runs in lockstep on the rows of ``dataset``, run b on the rows that the
    (B, N) mask ``kept[b]`` keeps, from the (Z, N) responsibilities ``inits[b]``
    (C-contiguous) with the column scales ``scales[b]`` (``_kept_ranges`` of those
    rows); a row it leaves out has weight 0 in ``inits[b]``, no part in its NLL
    and posteriors. EM owns ``inits``: it is the batch's one (B, Z, N) buffer, which
    each E-step overwrites. Returns (params, traces, endings), per run b: row b of the
    (B, Z, ...) arrays of ``MixtureModel._fits``, its last accepted M-step (params is
    None if no run reached one); its NLL per accepted M-step; and True (converged),
    False (the cap or a revert) or the ComponentCollapseError that ended it.

    Every ending is decided here. Before each M-step, a run with a component of
    total responsibility below COLLAPSE_EPS collapses. An E-step is one
    ``_em_log_joint`` for all B * Z components, component-major: (B, Z, N), written
    over the responsibilities that the M-step has read, and the posteriors then
    replace the log joint. A rise over MONOTONE_SLACK (approximate M-steps
    overshoot) ends a run, its rows left as they are; else its rows take the M-step,
    and it stops at a relative decrease <= rel_tol (converged) or after
    max_iterations more M-steps. The runs that go on move to the buffer's front.
    Precondition (``_fit_many`` meets it, posteriors keep it): each kept row's
    responsibilities sum to 1. Its largest, >= 1/Z, keeps that component's q,
    zero_prob, masses and floored densities positive and finite for the row, so
    its likelihood is; a zero one would stop the batch at the next M-step's
    finite-weights check (EstimationError), not end one run."""
    traces, endings, params = [[] for _ in inits], [None] * len(inits), None
    alpha, fits, go = inits, np.arange(len(inits)), np.ones(len(inits), dtype=bool)
    while True:
        totals = alpha.sum(axis=-1)
        low = go & (totals.min(axis=1) < COLLAPSE_EPS)
        for i, z in zip(np.flatnonzero(low), np.argmin(totals[low], axis=1).tolist()):
            endings[fits[i]] = ComponentCollapseError(
                f"component {z} collapsed (total responsibility {totals[i, z]:.3e})")
        if not (go := go & ~low).all():
            index = np.flatnonzero(go)  # the runs that go on move to the buffer's front
            alpha[:index.size] = alpha[index]
            alpha, totals, fits = alpha[:index.size], totals[go], fits[go]
            if not fits.size:
                return params, traces, endings
        model = _m_step_batch(dataset, scales[fits], alpha, totals)
        log_joint, live = _em_log_joint(model, dataset, fits.size, alpha), kept[fits]
        # a row left out: posteriors exp(-inf - 0) = 0, NLL term 0
        np.copyto(log_joint, -np.inf, where=~live[:, None])
        ll = np.where(live, log_sum_exp(log_joint, axis=1), 0.0)
        nlls = -ll.sum(axis=1)
        accepted = []
        for i, b in enumerate(fits.tolist()):
            trace, nll = traces[b], float(nlls[i])
            if trace and nll > trace[-1] + MONOTONE_SLACK:
                endings[b] = False
                continue
            trace.append(nll)
            accepted.append(i)
            converged = len(trace) > 1 and trace[-2] - nll <= config.rel_tol * abs(trace[-2])
            if converged or len(trace) > config.max_iterations:
                endings[b] = converged
        stacked, accepted = model._fits(fits.size), np.array(accepted, dtype=np.intp)
        params = params or tuple(np.zeros((len(kept), *a[0].shape)) for a in stacked)
        rows = fits[accepted]
        for stored, a in zip(params, stacked):  # every run accepted: no gather
            stored[rows] = a if rows.size == fits.size else a[accepted]
        if not (go := np.array([endings[b] is None for b in fits.tolist()])).any():
            return params, traces, endings
        # in place: the log-joint's memory becomes the posteriors (of ended runs too, unread)
        alpha = np.exp(np.subtract(log_joint, ll[:, None], out=log_joint), out=log_joint)


def _fit_many(dataset: Dataset, kept: np.ndarray, scales: np.ndarray, children, order: int,
              config: EmConfig) -> tuple:
    """Fit ``order`` components to the rows of ``dataset`` that the (F, N) mask
    ``kept[i]`` keeps, with the column scales ``scales[i]``, restart r drawn from the
    ``SeedSequence`` ``children[i][r]``, as one batch, each kept row's start summing to
    1 (``_em_batch``'s precondition). Returns (stack, fits): the best restarts (the
    first of equal final NLLs) of the fits that trained, in order, as one checked
    model (``MixtureModel._from_fits``; None if none trained), and per fit its best
    restart's TrainingTrace, or a TrainingError if every restart collapsed."""
    n, restarts = dataset.n_subjects, config.restarts
    inits = np.zeros((len(children) * restarts, order, n))
    for i, spawned in enumerate(children):
        for r, child in enumerate(spawned):
            inits[i * restarts + r][:, kept[i]] = np.random.default_rng(child).dirichlet(
                np.ones(order), size=int(kept[i].sum())).T
    params, traces, endings = _em_batch(dataset, np.repeat(kept, restarts, 0),
                                        np.repeat(scales, restarts, 0), inits, config)
    best, fits = [], []
    for first in range(0, len(endings), restarts):
        runs = range(first, first + restarts)
        if trained := [b for b in runs if not isinstance(endings[b], Exception)]:
            best.append(pick := min(trained, key=lambda b: traces[b][-1]))
            fits.append(TrainingTrace(tuple(traces[pick]), pick - first, endings[pick]))
        else:
            failures = "; ".join(f"restart {b - first}: {endings[b]}" for b in runs)
            fits.append(TrainingError(f"all {restarts} restart(s) failed for order {order}: "
                                      f"{failures}"))
    return (MixtureModel._from_fits([a[best] for a in params], dataset.schemas)
            if best else None), fits


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
    kept = np.ones((1, dataset.n_subjects), dtype=bool)
    model, (trace,) = _fit_many(dataset, kept, _kept_ranges(dataset, kept)[3],
                                [np.random.SeedSequence(config.seed).spawn(config.restarts)],
                                order, config)
    if isinstance(trace, TrainingError):
        raise trace
    return model, trace


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
