"""EM training, restarts, and BIC-based order selection.

Fitting maximizes the ``model_missing`` likelihood: the E-step computes
latent posteriors (responsibilities), the M-step re-estimates weights, the
per-cell missing probabilities, and the per-family parameters from
responsibility-weighted observed cells. Restarts draw independent random
responsibility matrices from a single seed; the best final negative
log-likelihood wins. Order selection fits a range of component counts and
scores each with BIC(d) = 0.5 * T_d * ln N + NLL.

All of EM is one loop (``_em_batch``) over every row of the cohort: the restarts
of every order ``select_order`` (or ``fit``) asks for, or all folds x restarts x
orders of a leave-one-out fold batch. A fit is a mask of the rows it keeps (a row
left out has weight 0) and their column scales, and carries its parameters from
one iteration to the next. Both steps read the cohort's sufficient statistics, one
float64 matrix (``Dataset._stats``: an ordinal's are its levels' missing, observed,
d~ and d~^2, a categorical's its one-hot slots), _CHUNK_ROWS rows at a time: per fit,
an E-step is their product with its ``_natural_coefficients`` and its sums their
product with its posteriors (``_weighted_sums``), and one M-step (``_m_step_batch``)
per iteration takes the sums of every fit of every order through one closed-form
``_weighted_block`` (q and block) per variable.
"""

from __future__ import annotations

import itertools
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import EstimationError, _default_block, _natural_params, _weighted_block
from .model import MODEL_MISSING, MixtureModel, _factors, _parameter_count, parameter_count
from .schema import Dataset, SchemaViolationError, _is_int, _kept_ranges, validate_dataset

COLLAPSE_EPS = 1e-8       # minimum total responsibility per component
MONOTONE_SLACK = 1e-8     # tolerated NLL increase before reverting
ZERO_WEIGHT_EPS = 1e-12   # observed responsibility below this uses default params
EM_TERM_LIMIT = 1e3       # an E-step product term that could reach this takes _factors
_CHUNK_ROWS = 256         # statistics rows per product: a chunk's slice stays in cache


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


def _checked_orders(orders, limit: int) -> list:
    """``orders`` ascending, each once, as ints; ValueError unless there is one and each is
    an integer (not a bool) >= 1 and <= ``limit``, the number of subjects a fit trains on
    (N for ``fit`` and ``select_order``, N - 1 for a leave-one-out fold): so no EM buffer
    of restarts x largest order x N floats is sized by an order past the cohort. Neither is
    a list sized by one: any iterable is refused at its first order that is not such an
    integer, the rest unread."""
    listed = []
    for order in orders:
        listed.append(order)
        if not _is_int(order):
            raise ValueError(f"orders must be integers, got {listed}")
        if order < 1:
            raise ValueError("orders must be >= 1")
        if order > limit:
            raise ValueError(f"order {order} exceeds the {limit} subject(s) a fit trains on")
    if not listed:
        raise ValueError("no orders requested")
    return sorted(set(map(int, listed)))


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration NLL of the winning restart, each <= previous + MONOTONE_SLACK,
    its index, and why its EM stopped (``_em_batch``'s reason)."""

    nll_per_iteration: tuple
    restart_index: int
    stop_reason: str  # what ended EM: "tol", "max_iterations" or "revert"

    @property
    def converged(self) -> bool:
        """True only when the rel_tol test stopped EM."""
        return self.stop_reason == "tol"

    @property
    def iterations(self) -> int:
        return len(self.nll_per_iteration)

    @property
    def final_nll(self) -> float:
        return self.nll_per_iteration[-1]


def _natural_coefficients(model: MixtureModel, dataset: Dataset) -> tuple:
    """(theta, dense): the ``_natural_params`` of a stack's components on the statistics
    of ``Dataset._stats``, and per variable (v, the components that take the scoring
    routine ``model._factors`` on it). A product with theta rounds to a few eps times
    its terms, bounded by |theta| @ ``reach`` (0 on a statistic no row has). A component
    goes dense where that bound reaches EM_TERM_LIMIT: a variance near its floor far from
    the column's centre, a Gamma near its shape cap (lgamma(shape) ~ 1e5), a level far
    from an ordinal's mean, or a -inf (q or zero_prob at 0 or 1, or a mass at 0), which
    the product would make NaN. So ``_em_log_joint`` stays within ~1e-13 per column of
    ``_log_joint``."""
    _, layout, reach = dataset._stats
    theta = np.zeros((model.n_components, reach.size))
    dense, (missed, kept) = [], model._log_missing[MODEL_MISSING]
    for v, (schema, (cols, unit)) in enumerate(zip(model.schemas, layout)):
        block = _natural_params(schema.kind, model._blocks[v], model._log_masses[v],
                                schema.domain, unit, missed[:, v], kept[:, v])
        block[:, reach[cols] == 0] = 0.0  # 0 on every row: adds nothing, -inf or not
        with np.errstate(over="ignore"):
            wide = np.abs(block) @ reach[cols] >= EM_TERM_LIMIT
        theta[:, cols] = block
        theta[wide, cols] = 0.0
        if wide.any():
            dense.append((v, np.flatnonzero(wide)))
    return theta, dense


def _em_log_joint(model: MixtureModel, dataset: Dataset, coefficients, first, out) -> np.ndarray:
    """``out``, the (F, Z, N) ``model._log_joint`` under ``model_missing`` of the fits
    whose rows of the stack start at ``first``: log w, per fit and per _CHUNK_ROWS rows
    (the same bits batched or not) its ``coefficients``' product with the statistics,
    and ``_factors``."""
    (theta, dense), matrix = coefficients, dataset._stats[0]
    stop = first + out.shape[0] * out.shape[1]
    group = theta[first:stop].reshape(*out.shape[:2], -1)
    for start in range(0, dataset.n_subjects, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        np.matmul(group, matrix[rows].T, out=out[..., rows])
    flat = out.reshape(stop - first, -1)
    flat += model._log_weights[first:stop, None]
    for v, rows in dense:
        if (rows := rows[(first <= rows) & (rows < stop)]).size:
            flat[rows - first] += _factors(model, dataset, v, rows, MODEL_MISSING)
    return out


def _weighted_sums(dataset: Dataset, alpha: np.ndarray) -> np.ndarray:
    """The (B * Z, S) sums of B fits' (B, Z, N) responsibilities ``alpha`` (0 on a row
    a fit leaves out) over ``Dataset._stats``' statistics: per fit one product per
    _CHUNK_ROWS rows, summed in row order."""
    if not np.isfinite(alpha).all() or (alpha < 0).any():
        raise EstimationError("weights must be finite and nonnegative")
    n_fits, n_comp, _ = alpha.shape
    matrix = dataset._stats[0]
    # one product per fit, so a fit's sums do not depend on the batch it is in
    sums = np.zeros((n_fits, n_comp, matrix.shape[1]))
    for start in range(0, dataset.n_subjects, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        sums += np.matmul(alpha[..., rows], matrix[rows])
    return sums.reshape(n_fits * n_comp, -1)


def _m_step_batch(dataset: Dataset, sums, weights, scales, groups) -> MixtureModel:
    """The stack (``_from_blocks``' (F, Z) ``groups``) whose components have the mixture
    ``weights``, their fits' (rows, V) column ``scales``, and the ``_weighted_sums``
    ``sums``: each variable's whole to ``_weighted_block`` (q and block), and rows with
    observed weight <= ZERO_WEIGHT_EPS to its ``_default_block``, no cell built."""
    layout = dataset._stats[1]
    missing_probs = np.empty((len(sums), len(layout)))
    blocks = []
    for v, (schema, (cols, unit)) in enumerate(zip(dataset.schemas, layout)):
        with np.errstate(divide="ignore", invalid="ignore"):  # unfitted rows: defaults below
            missing_probs[:, v], observed, block = _weighted_block(
                schema.kind, sums[:, cols], schema.domain, scales[:, v], unit)
        if (unfitted := observed <= ZERO_WEIGHT_EPS).any():
            defaults = _default_block(schema.kind, schema.domain, scales[:, v])
            for fitted, default in zip(block, defaults):
                fitted[unfitted] = default[unfitted]
        blocks.append(block)
    return MixtureModel._from_blocks(weights, blocks, missing_probs, dataset.schemas, groups)


def _posteriors(log_joint: np.ndarray, on: np.ndarray) -> np.ndarray:
    """The (B, N) log-likelihoods of the rows of B fits' (B, Z, N) ``log_joint``, which
    becomes their posteriors in place; a row that the (B, N) mask ``on`` leaves out has 0 and
    posteriors 0, a kept row of all -inf -inf and NaN. One exp per cell: a row's terms are
    exp(log joint - its peak), its log-likelihood the peak + log of their sum (within a few
    ulp of ``log_sum_exp``), summed across the strided component axis, so in one order
    whether a fit is batched or alone; its posteriors are the terms over that sum."""
    np.copyto(log_joint, -np.inf, where=~on[:, None])
    peak = log_joint.max(axis=1)
    peak[peak == -np.inf] = 0.0  # a row left out: terms exp(-inf) = 0, over a total of 1
    terms = np.exp(np.subtract(log_joint, peak[:, None], out=log_joint), out=log_joint)
    total = terms.sum(axis=1)
    total[~on] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a kept row of all -inf: log 0, 0 / 0
        np.divide(terms, total[:, None], out=terms)
        return peak + np.log(total)


def _em_batch(dataset: Dataset, kept: np.ndarray, scales: np.ndarray, orders, starts,
              config: EmConfig) -> list:
    """B EM runs per order of ``orders`` (an order group), all in lockstep on the rows
    of ``dataset``: run b on the rows that the (B, N) mask ``kept[b]`` keeps, with the
    column scales ``scales[b]`` (``_kept_ranges`` of those rows), from the starts that
    ``starts(order, out)`` writes into the group's (B, order, N) ``out`` (0 on a row
    left out, which then has no part in its NLL and posteriors). Returns per order
    (params, traces, endings), per run b: row b of the (B, Z, ...) arrays of
    ``MixtureModel._fits``, its last accepted M-step (params is None if no run
    reached one); its NLL per accepted M-step; and its stop reason, "tol" (converged),
    "max_iterations" or "revert", or the ComponentCollapseError that ended it.

    Every ending is decided here. A run carries its parameters to the next iteration, so one
    (B, Z, N) buffer, of the largest order, serves the groups in turn: their starts, then per
    iteration their E-steps (``_em_log_joint``) and ``_posteriors``. A rise over MONOTONE_SLACK
    (approximate M-steps overshoot) ends a run ("revert"), its rows left as they are; else its
    rows take the M-step, and it stops at a relative decrease <= rel_tol ("tol") or after
    max_iterations more M-steps. A first E-step has no previous NLL (NaN: every comparison with
    it is False), so it is accepted and not converged. A run stays live only while each of its
    E-steps is accepted, so all live runs, of every order, have accepted as many (``steps``).
    Before each M-step, a run with a component of total responsibility below COLLAPSE_EPS
    collapses; the others move to the buffer's front and give their ``_weighted_sums``, and one
    ``_m_step_batch`` serves every group. Precondition (``_fit_many`` meets it, posteriors keep
    it): each kept row's responsibilities sum to 1. Its largest, >= 1/Z, keeps that component's
    q, zero_prob, masses and floored densities positive and finite for the row, so its likelihood
    is; a zero one would stop the batch at the next M-step's weights check (EstimationError)."""
    n, n_runs = dataset.n_subjects, len(kept)
    buffer = np.empty(n_runs * max(orders, default=0) * n)
    traces, endings = [[[] for _ in kept] for _ in orders], [[None] * n_runs for _ in orders]
    params, live, stacks = [None] * len(orders), [np.arange(n_runs)] * len(orders), {}
    lasts = np.full((len(orders), n_runs), np.nan)  # per order and run: the last accepted NLL
    for steps in itertools.count(-1):  # E-steps accepted by every live run; -1: the starts
        sums, weights, groups = [], [], {}
        for g, (order, fits) in enumerate(zip(orders, live)):
            if not fits.size:
                continue
            alpha = buffer[:fits.size * order * n].reshape(fits.size, order, n)
            if not stacks:  # the first iteration
                starts(order, alpha)
                go = np.ones(n_runs, dtype=bool)
            else:
                (first, stacked), on = stacks[g], kept[fits]
                # in place: the posteriors (of ended runs too, unread)
                ll = _posteriors(_em_log_joint(model, dataset, coefficients, first, alpha), on)
                nlls, last = -ll.sum(axis=1), lasts[g, fits]
                # inf - inf: NaN, no decrease; rel_tol * |last| past the float range: inf, a stop
                with np.errstate(invalid="ignore", over="ignore"):
                    accept = ~(nlls > last + MONOTONE_SLACK)
                    converged = accept & (last - nlls <= float(config.rel_tol) * np.abs(last))
                go = accept & ~converged & (steps < config.max_iterations)
                reasons = np.where(converged, "tol", np.where(accept, "max_iterations", "revert"))
                for b, reason in zip(fits[~go].tolist(), reasons[~go].tolist()):
                    endings[g][b] = reason
                accepted = np.flatnonzero(accept)
                for b, nll in zip(fits[accepted].tolist(), nlls[accepted].tolist()):
                    traces[g][b].append(nll)
                lasts[g, fits[accepted]] = nlls[accepted]
                params[g] = params[g] or tuple(np.zeros((n_runs, *a[0].shape)) for a in stacked)
                for stored, a in zip(params[g], stacked):  # every run accepted: no gather
                    stored[fits[accepted]] = a if accepted.size == fits.size else a[accepted]
            totals = alpha.sum(axis=-1)
            low = go & (totals.min(axis=1) < COLLAPSE_EPS)
            for i, z in zip(np.flatnonzero(low), np.argmin(totals[low], axis=1).tolist()):
                endings[g][fits[i]] = ComponentCollapseError(
                    f"component {z} collapsed (total responsibility {totals[i, z]:.3e})")
            if not (go := go & ~low).all():
                index = np.flatnonzero(go)  # the runs that go on move to the buffer's front
                alpha[:index.size] = alpha[index]
                alpha, totals, live[g] = alpha[:index.size], totals[go], fits[go]
            if live[g].size:
                sums.append(_weighted_sums(dataset, alpha))
                weights.append((totals / totals.sum(axis=1, keepdims=True)).ravel())
                groups[g] = (live[g].size, order)
        if not groups:
            return list(zip(params, traces, endings))
        sizes = list(groups.values())
        model = coefficients = stacks = None  # the last stack is read no more: free it first
        rows = np.concatenate([np.repeat(live[g], order) for g, (_, order) in groups.items()])
        model = _m_step_batch(dataset, np.concatenate(sums), np.concatenate(weights), scales[rows],
                              sizes)
        coefficients = _natural_coefficients(model, dataset)
        firsts = np.cumsum([0, *(f * z for f, z in sizes)]).tolist()
        stacks = dict(zip(groups, zip(firsts, model._fits(sizes))))


def _dirichlet_rows(streams, counts, order: int) -> np.ndarray:
    """Every run's start at ``order``, stacked: run b's first counts[b] * order standard
    exponentials ``streams[b]`` as rows, each times the reciprocal of its left-to-right sum,
    the arithmetic of ``Generator.dirichlet(np.ones(order), counts[b])``: its draws, bit for bit."""
    draws = np.concatenate([s[:c * order].reshape(c, order) for s, c in zip(streams, counts)])
    total = draws[:, 0].copy()
    for column in draws.T[1:]:
        total += column
    draws *= (1.0 / total)[:, None]
    return draws


def _fit_many(dataset: Dataset, kept: np.ndarray, scales: np.ndarray, seeds, orders,
              config: EmConfig) -> list:
    """Fit each of ``orders`` components to the rows of ``dataset`` that the (F, N) mask
    ``kept[i]`` keeps, with the column scales ``scales[i]``, restart r of every order from
    child r of ``SeedSequence(seeds[i]).spawn(restarts)``, spawned once the runs' arrays are
    sized (its kept rows x largest order standard exponentials, drawn once at the first start;
    ``_dirichlet_rows`` per order), as one ``_em_batch``. Returns
    per order (params, fits): the (F', Z, ...) arrays (``MixtureModel._fits``' layout) of
    the best restarts (the first of equal final NLLs) of the fits that trained, None if
    none did; and per fit its best TrainingTrace, or TrainingError if all collapsed."""
    restarts, kept_runs = config.restarts, np.repeat(kept, config.restarts, 0)
    counts, streams = kept_runs.sum(axis=1).tolist(), []

    def starts(order, out):
        if not streams:  # the first order
            children = (np.random.SeedSequence(seed).spawn(restarts) for seed in seeds)
            streams.extend(np.random.default_rng(child).standard_exponential(c * max(orders))
                           for child, c in zip(itertools.chain(*children), counts))
        out.fill(0.0)
        out.transpose(0, 2, 1)[kept_runs] = _dirichlet_rows(streams, counts, order)
        if order == max(orders):
            streams.clear()

    results = []
    for order, (params, traces, endings) in zip(orders, _em_batch(
            dataset, kept_runs, np.repeat(scales, restarts, 0), orders, starts, config)):
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
        results.append(([a[best] for a in params] if best else None, fits))
    return results


def _fit_cohort(dataset: Dataset, orders, config: EmConfig) -> list:
    """Per order, (params, trace) of the best restart of the fit to every row of
    ``dataset``, validated: its (1, Z, ...) arrays (``MixtureModel._from_fits``' layout)
    and TrainingTrace, or (None, TrainingError): one ``_fit_many``, seeded by config.seed."""
    if violations := validate_dataset(dataset):
        raise SchemaViolationError(violations)
    kept = np.ones((1, dataset.n_subjects), dtype=bool)
    return [(params, trace) for params, (trace,) in _fit_many(
        dataset, kept, _kept_ranges(dataset, kept)[3], [config.seed], orders, config)]


def fit(dataset: Dataset, order: int,
        config: EmConfig = EmConfig()) -> tuple[MixtureModel, TrainingTrace]:
    """Fit a mixture of ``order`` components, 1 to N; returns the best restart.

    The dataset must pass validation (no bad cells, no zero-variability
    columns). Restart seeds are spawned deterministically from config.seed, so
    identical inputs give an identical model. Restarts whose components
    collapse are skipped; if all collapse, TrainingError is raised.
    """
    (params, trace), = _fit_cohort(dataset, _checked_orders([order], dataset.n_subjects), config)
    if isinstance(trace, TrainingError):
        raise trace
    return MixtureModel._from_fits(params, dataset.schemas), trace


def bic_score(model: MixtureModel, n_subjects: int, nll: float) -> float:
    """0.5 * T_d * ln N + NLL, for the model's NLL under the model_missing
    likelihood on N subjects (``TrainingTrace.final_nll`` of its fit), N an integer >= 1."""
    if not (_is_int(n_subjects) and n_subjects >= 1):
        raise ValueError(f"n_subjects must be an integer >= 1, got {n_subjects!r}")
    return _bic(parameter_count(model), n_subjects, nll)


def _bic(n_params: int, n_subjects: int, nll: float) -> float:
    return 0.5 * n_params * np.log(n_subjects) + nll


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

    Every order (1 to N) trains in one batched EM, each as ``fit`` trains it. Orders that fail
    to train are recorded in the table with their error and skipped; at least one
    order must succeed.
    """
    orders = _checked_orders(orders, dataset.n_subjects)
    scores = []
    best = None
    for order, (params, trace) in zip(orders, _fit_cohort(dataset, orders, config)):
        if isinstance(trace, TrainingError):
            warnings.warn(f"order {order} failed: {trace}")
            scores.append(OrderScore(order, None, None, None, None, str(trace)))
            continue
        n_params = _parameter_count(dataset.schemas, order)
        bic = _bic(n_params, dataset.n_subjects, trace.final_nll)
        scores.append(OrderScore(order, n_params, trace.final_nll, float(bic), trace.converged))
        if best is None or bic < best[0]:
            best = (bic, order, params, trace)
    if best is None:
        raise TrainingError("every requested order failed to train")
    _, order, params, trace = best
    return OrderSelection(order, MixtureModel._from_fits(params, dataset.schemas), trace,
                          tuple(scores))
