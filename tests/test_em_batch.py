"""The batched EM: each fit equals itself run alone, bit for bit, and the
sequential reference to rounding.

``training._em_batch`` runs B fits in lockstep over every row of the cohort:
one likelihood pass for all of them per E-step, one batched M-step, whose
sums are one product of the weights with the cohort's sufficient statistics.
A leave-one-out fold is the cohort with weight 0 on its held-out row. Each
fit must come out exactly as ``_em_batch`` run on that fit alone gives it,
and as ``oracles.em_once`` (the sequential loop of one restart on its own
rows, with plain two-pass weighted moments) gives it to rounding: the same
failure text, or NLL traces and parameter blocks within NLL_RTOL and
PARAM_RTOL. The cohorts carry all-missing rows and columns that a fold can
lose the variability of; the fits include collapsing starts and restarts
that stop on a revert.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import m_step_alone
from hetmix import (MISSING, MODEL_MISSING, Dataset, EmConfig, MixtureModel, sample_cohort,
                    validate_dataset)
from hetmix.demo import small_demo_model
from hetmix.model import _em_log_joint, _log_joint
from hetmix.schema import _CHUNK_ROWS
from hetmix.training import ComponentCollapseError, _em_batch, _m_step_batch, _scales

# The batch sums over all N rows in BLAS order and takes real variances in one
# pass from standardized sums; the oracle sums each fit's own rows, two-pass.
# Over 9,000 fits of the cohorts below (up to 12 iterations, orders 1-7, 5-24
# rows) the NLL traces differed by at most 2.0e-10 relative and the parameters
# by 8.4e-10 relative beyond 1e-12 absolute: EM on a few rows carries a
# last-bit change on.
NLL_RTOL = 1e-8
PARAM_RTOL, PARAM_ATOL = 1e-8, 1e-12


class _Start:
    """Stands in for a generator: ``em_once`` draws its start from ``dirichlet``."""

    def __init__(self, responsibilities):
        self.responsibilities = responsibilities

    def dirichlet(self, alpha, size):
        assert self.responsibilities.shape == (size, len(alpha))
        return self.responsibilities


def _cohort(rng, n, blank_rows, lone_site) -> Dataset:
    cohort, _ = sample_cohort(small_demo_model(), n, rng)
    rows = [list(cohort.row(i)) for i in range(n)]
    for i in blank_rows:
        rows[i] = [MISSING] * cohort.n_variables
    if lone_site is not None:  # the fold of subject lone_site loses "site"
        for i, row in enumerate(rows):
            row[cohort.column_index("site")] = "beta" if i == lone_site else "alpha"
    return Dataset(cohort.schemas, rows)


def _array_pairs(model, other):
    """The two models' parameter arrays, side by side; a nonnegative variable's
    shape and scale only in components with positive mass in both (zero_prob
    below 1 - 1e-12), since elsewhere they carry no likelihood and EM leaves
    them where rounding puts them: one model may end a component at zero_prob
    1.0 exactly, with default shape and scale, and the other a rounding below."""
    out = [(model.weights, other.weights), (model.missing_probs, other.missing_probs)]
    for schema, block, block_b in zip(model.schemas, model._blocks, other._blocks, strict=True):
        if schema.kind.value == "nonnegative":
            live = (block[0] < 1.0 - 1e-12) & (block_b[0] < 1.0 - 1e-12)
            block, block_b = ((b[0], b[1][live], b[2][live]) for b in (block, block_b))
        out.extend(zip(block, block_b, strict=True))
    return out


def _state(outcome):
    """Everything a fit's outcome holds, as exactly comparable values."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    model, nlls, converged = outcome
    arrays = [model.weights, model.missing_probs] + [a for block in model._blocks for a in block]
    return [a.tobytes() for a in arrays], [a.shape for a in arrays], list(nlls), converged


def _assert_close(got, reference):
    """``got`` is ``reference`` to rounding: the same failure, or NLL traces
    within NLL_RTOL up to the shorter one. A last-bit change may flip a stop at
    rel_tol or MONOTONE_SLACK; when both end after the same iteration, they end
    alike and their parameters agree within PARAM_RTOL / PARAM_ATOL."""
    if isinstance(got, Exception) or isinstance(reference, Exception):
        assert _state(got) == _state(reference)
        return
    (model, nlls, converged), (want, want_nlls, want_converged) = got, reference
    n = min(len(nlls), len(want_nlls))
    assert np.allclose(nlls[:n], want_nlls[:n], rtol=NLL_RTOL, atol=0)
    if len(nlls) == len(want_nlls):
        assert converged == want_converged
        for a, b in _array_pairs(model, want):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=PARAM_RTOL, atol=PARAM_ATOL)


def _batch(dataset, held_out, starts):
    """(subsets, column scales, (B, Z, N) starts) of fits that leave out
    ``held_out[b]`` (none if None), from their (M, Z) starts over their own rows."""
    subsets = ([dataset] * len(starts) if held_out is None else
               [dataset.drop_subject(int(s)) for s in held_out])
    inits = [start if held_out is None else np.insert(start, held_out[b], 0.0, axis=0)
             for b, start in enumerate(starts)]
    return (subsets, np.concatenate([_scales(s) for s in subsets]),
            np.ascontiguousarray(np.array(inits).transpose(0, 2, 1)))


def _oracle(subset, start, config):
    """``oracles.em_once`` on a fit's own rows."""
    try:
        return oracles.em_once(subset, start.shape[1], config, _Start(start))
    except ComponentCollapseError as err:
        return err


def _run_all_three(dataset, held_out, starts, config):
    """(reference, alone, batched) outcomes of every fit: the sequential
    oracle, the batch of one, the whole batch."""
    subsets, scales, inits = _batch(dataset, held_out, starts)
    batched = _em_batch(dataset, scales, held_out, inits, config)
    out = []
    for b, subset in enumerate(subsets):
        alone = _em_batch(dataset, scales[b:b + 1], None if held_out is None else held_out[b:b + 1],
                          inits[b:b + 1], config)[0]
        out.append((_oracle(subset, starts[b], config), alone, batched[b]))
    return out, batched


# orders up to 7: below 8 components NumPy sums a log-sum-exp's terms one after
# another over (B, Z, N) and over the oracle's (M, Z) alike; 9 is tested below
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 24), order=st.integers(1, 7),
       n_fits=st.integers(1, 5), folds=st.booleans(), max_iterations=st.integers(1, 12),
       rel_tol=st.sampled_from([1e-12, 1e-6, 1e-3]), collapse=st.booleans(),
       lone=st.booleans())
@settings(max_examples=80, deadline=None)
# a weighted positive mean that underflows to 0: the oracle takes its log as -inf
@example(seed=284640657, n=19, order=7, n_fits=4, folds=False, max_iterations=7, rel_tol=1e-3,
         collapse=False, lone=True)
# a Gamma component the batch ends at zero_prob 1.0 exactly, the oracle at 1 - 4.6e-12
@example(seed=2162568554, n=21, order=3, n_fits=5, folds=False, max_iterations=10,
         rel_tol=1e-12, collapse=False, lone=True)
def test_batch_equals_sequential_fits(seed, n, order, n_fits, folds, max_iterations,
                                      rel_tol, collapse, lone):
    rng = np.random.default_rng(seed)
    blank = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
    dataset = _cohort(rng, n, blank, int(rng.integers(n)) if lone else None)
    # leave-one-out folds (every row but one) or restarts (every row)
    held_out = rng.integers(n, size=n_fits) if folds else None
    starts = [rng.dirichlet(np.ones(order), size=n - folds) for _ in range(n_fits)]
    if collapse:  # one fit starts with a component that holds no responsibility
        starts[int(rng.integers(n_fits))][:, int(rng.integers(order))] = 0.0
    config = EmConfig(max_iterations=max_iterations, rel_tol=rel_tol)
    states, _ = _run_all_three(dataset, held_out, starts, config)
    for reference, alone, batched in states:
        assert _state(alone) == _state(batched)
        _assert_close(batched, reference)


def test_order_nine_matches_the_sequential_fit_to_rounding():
    """From 8 components on, NumPy sums the oracle's (M, Z) log-sum-exp along Z
    pairwise but the batch's (B, Z, N) one row after another; the batch still
    equals the batch of one exactly, and the oracle within the module's
    tolerances (measured over 12 iterations on this cohort: 2.0e-14 NLL,
    8.4e-12 parameters, relative)."""
    rng = np.random.default_rng(0)
    dataset = _cohort(rng, 80, [3], None)
    starts = [rng.dirichlet(np.ones(9), size=80) for _ in range(2)]
    config = EmConfig(max_iterations=12, rel_tol=1e-6)
    states, batched = _run_all_three(dataset, None, starts, config)
    for reference, alone, got in states:
        assert _state(alone) == _state(got)
        assert len(got[1]) == len(reference[1])
        _assert_close(got, reference)


def test_batch_covers_every_way_a_fit_ends():
    """One batch of restarts and folds (one of which lost "site") in which fits
    converge, reach the cap, revert and collapse; each ends as the sequential
    loop ends it."""
    rng = np.random.default_rng(0)
    dataset = _cohort(rng, 40, [7], lone_site=4)
    held_out = np.array([4, 0, 9, 1, 2, 3, 5, 6, 8, 10, 11])
    assert validate_dataset(dataset.drop_subject(4)) and not validate_dataset(
        dataset.drop_subject(0))
    starts = [rng.dirichlet(np.ones(3), size=39) for _ in held_out]
    starts[1][:, 2] = 0.0  # collapses at the first M-step
    config = EmConfig(max_iterations=8, rel_tol=1e-4)
    states, batched = _run_all_three(dataset, held_out, starts, config)
    for reference, alone, got in states:
        assert _state(alone) == _state(got)
        assert isinstance(got, Exception) or len(got[1]) == len(reference[1])
        _assert_close(got, reference)
    assert isinstance(batched[1], ComponentCollapseError)
    assert str(batched[1]) == "component 2 collapsed (total responsibility 0.000e+00)"
    ends = {("converged" if o[2] else "cap" if len(o[1]) == 8 + 1 else "revert")
            for o in batched if not isinstance(o, Exception)}
    assert ends == {"converged", "cap", "revert"}


@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_a_fold_does_not_depend_on_its_held_out_cells(seed, order):
    """Changing every cell of the held-out subject leaves its fold unchanged to
    rounding: one M-step to 1e-12 relative, whole runs within the oracle
    tolerances. The held-out values enter only the standardization of the real
    columns, and only through their medians; EM carries a moved median's last
    bits on (measured over 1,500 runs of 10 iterations: 5.8e-11 relative)."""
    rng = np.random.default_rng(seed)
    dataset = _cohort(rng, 30, [], None)
    s = int(rng.integers(30))
    cells = [list(dataset.row(i)) for i in range(30)]
    for j, schema in enumerate(dataset.schemas):
        kind = schema.kind.value
        cells[s][j] = (MISSING if rng.random() < 0.3 else
                       float(rng.normal(0.0, 100.0)) if kind == "real" else
                       float(rng.choice([0.0, 1e3])) if kind == "nonnegative" else
                       schema.domain[int(rng.integers(len(schema.domain)))])
    changed = Dataset(dataset.schemas, cells)
    starts = [rng.dirichlet(np.ones(order), size=29) for _ in range(3)]
    held_out = np.full(3, s)
    first, runs = [], []
    for d in (dataset, changed):
        _, scales, inits = _batch(d, held_out, starts)
        first.append(_m_step_batch(d, scales, inits, np.arange(3)))
        runs.append(_em_batch(d, scales, held_out, inits, EmConfig(max_iterations=10)))
    (model, fits, failed), (other, other_fits, other_failed) = first
    assert np.array_equal(fits, other_fits) and list(failed) == list(other_failed)
    for a, b in _array_pairs(model, other):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
    for got, reference in zip(*runs):
        _assert_close(got, reference)


def test_chunked_products_span_several_chunks(monkeypatch):
    """A cohort of two one-hot chunks and a partial third, folds holding out rows
    of the last: the M-step's level counts are each finite column's weighted
    ``np.bincount`` within 1e-14 relative, EM's E-step is ``_log_joint`` within
    1e-13 per column, and each fit equals itself run alone, bit for bit."""
    import hetmix.training as training
    n = 2 * _CHUNK_ROWS + 37
    rng = np.random.default_rng(6)
    dataset = _cohort(rng, n, [n - 2], None)
    held_out = np.array([n - 1, n - 30, n - 30])
    starts = [rng.dirichlet(np.ones(3), size=n - 1) for _ in held_out]
    _, scales, inits = _batch(dataset, held_out, starts)
    sums, weighted_block = [], training._weighted_block

    def recording(kind, stats, *args):
        if kind.is_finite:
            sums.append(stats)
        return weighted_block(kind, stats, *args)

    monkeypatch.setattr(training, "_weighted_block", recording)
    _m_step_batch(dataset, scales, inits, np.arange(3))
    finite = [v for v, s in enumerate(dataset.schemas) if s.kind.is_finite]
    assert len(sums) == len(finite) > 0
    for v, got in zip(finite, sums):
        codes = dataset.column_codes(v) + 1
        want = [np.bincount(codes, w, minlength=got.shape[1]) for w in inits.reshape(-1, n)]
        assert np.allclose(got, want, rtol=1e-14, atol=0)
    monkeypatch.undo()
    config = EmConfig(max_iterations=4, rel_tol=1e-12)
    batched = _em_batch(dataset, scales, held_out, inits, config)
    for b, outcome in enumerate(batched):
        alone = _em_batch(dataset, scales[b:b + 1], held_out[b:b + 1], inits[b:b + 1], config)
        assert _state(alone[0]) == _state(outcome)
    stacked = MixtureModel._stack([outcome[0] for outcome in batched])
    got = _em_log_joint(stacked, dataset, 3)
    want = _log_joint(stacked, dataset, MODEL_MISSING).reshape(got.shape)
    assert np.isfinite(want).all()
    assert (abs(got - want) <= 1e-13 * dataset.n_variables * np.maximum(abs(want), 1.0)).all()


def test_a_fold_floors_variances_at_its_own_scale():
    """The held-out subject is the unique maximum of a real column, 1000 against
    values in [0, 1): the fold's variance floor is 1e-6 times the square of its
    own span, not of the cohort's."""
    rng = np.random.default_rng(1)
    base = _cohort(rng, 20, [], None)
    x = base.column_index("marker_a")
    cells = [list(base.row(i)) for i in range(20)]
    for i, row in enumerate(cells):
        row[x] = 1000.0 if i == 5 else i / 20
    dataset = Dataset(base.schemas, cells)
    fold = dataset.drop_subject(5)
    assert fold.column_scale(x) == 0.95 and dataset.column_scale(x) == 1000.0
    # component 0 weighs rows 0 and 1 alone, whose values are 0 and 0.05
    alpha = np.full((1, 2, 20), 1e-300)
    alpha[0, 0, :2] = 1.0
    alpha[0, 1, 2:] = 1.0
    alpha[0, :, 5] = 0.0
    model, _, _ = _m_step_batch(dataset, _scales(fold), alpha, np.arange(1))
    variance = model._blocks[x][1]
    assert variance[0] == pytest.approx(0.025 ** 2, rel=1e-12)  # above the fold's floor
    alpha[0, 0, 1] = 0.0  # one value: the variance is the floor
    model, _, _ = _m_step_batch(dataset, _scales(fold), alpha, np.arange(1))
    assert model._blocks[x][1][0] == 1e-6 * 0.95 ** 2
    want = oracles.m_step(fold, np.delete(alpha[0], 5, axis=1).T)
    assert model._blocks[x][1][0] == want._blocks[x][1][0]


def _edge_cohort(case) -> Dataset:
    """14 subjects in which subject 0 alone misses marker_a, dose, stage and site
    ("missing"), holds dose's only zero ("zero") or only positive value
    ("positive"), or misses every cell ("blank")."""
    rng = np.random.default_rng(5)
    cohort, _ = sample_cohort(small_demo_model(), 14, rng)
    rows = [list(cohort.row(i)) for i in range(14)]
    dose = cohort.column_index("dose")
    if case == "blank":
        rows[0] = [MISSING] * cohort.n_variables
    for i, row in enumerate(rows):
        if case == "missing":
            for name in ("marker_a", "dose", "stage", "site"):
                j = cohort.column_index(name)
                schema = cohort.schemas[j]
                row[j] = (MISSING if i == 0 else row[j] if row[j] is not MISSING else
                          float(rng.normal()) if schema.kind.value == "real" else
                          1.0 if name == "dose" else schema.domain[i % len(schema.domain)])
        elif case in ("zero", "positive"):
            row[dose] = float(rng.gamma(2.0)) if (i == 0) == (case == "positive") else 0.0
    return Dataset(cohort.schemas, rows)


@pytest.mark.parametrize("case", ["missing", "zero", "positive", "blank"])
def test_fits_started_by_fit_many_keep_every_likelihood_finite(case, monkeypatch):
    """Restarts and leave-one-out folds as ``_fit_many`` starts them (each kept
    row's responsibilities summing to 1) on cohorts whose subject 0 stands
    alone: every fit ends with finite NLLs and no RuntimeWarning, and every
    E-step of the restarts gives every row a finite likelihood. EM has no
    zero-likelihood ending, so such a row would be a bug."""
    import hetmix.training as training
    dataset = _edge_cohort(case)
    runs, totals = [], []
    em_batch, em_log_joint = training._em_batch, training._em_log_joint

    def recording_em_batch(*args):
        runs.append(em_batch(*args))
        return runs[-1]

    def recording_log_joint(*args):
        out = em_log_joint(*args)
        totals.append(training.log_sum_exp(out, axis=1))
        return out

    monkeypatch.setattr(training, "_em_batch", recording_em_batch)
    monkeypatch.setattr(training, "_em_log_joint", recording_log_joint)
    config = EmConfig(max_iterations=10, restarts=3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for order in (1, 2, 3):
            totals.clear()
            training._fit_many(dataset, None, [0, 1], order, config)
            assert totals and all(np.isfinite(t).all() for t in totals)
            training._fit_many(dataset, np.arange(14), range(14), order, config)
    outcomes = [outcome for run in runs for outcome in run]
    assert len(outcomes) == 3 * (2 + 14) * config.restarts
    for outcome in outcomes:
        assert not isinstance(outcome, Exception)
        assert np.isfinite(outcome[1]).all()


def test_missing_probabilities_are_exact_at_the_extremes():
    """A fold whose training cells of a column are all missing gives q == 1 in
    every component, and one with no missing training cell q == 0, exactly, in
    a batch of folds and in a fit's M-step alone."""
    rng = np.random.default_rng(2)
    base = _cohort(rng, 25, [], None)
    a, b = base.column_index("marker_a"), base.column_index("marker_b")
    cells = [list(base.row(i)) for i in range(25)]
    for i, row in enumerate(cells):  # subject 3 alone sees marker_a and misses marker_b
        row[a] = 1.5 if i == 3 else MISSING
        row[b] = MISSING if i == 3 else float(i)
    dataset = Dataset(base.schemas, cells)
    held_out = np.array([3, 0, 17])
    starts = [rng.dirichlet(np.ones(3), size=24) for _ in held_out]
    _, scales, inits = _batch(dataset, held_out, starts)
    model, fits, failed = _m_step_batch(dataset, scales, inits, np.arange(3))
    assert not failed and fits.tolist() == [0, 1, 2]
    q = model.missing_probs.reshape(3, 3, -1)
    assert (q[0, :, a] == 1.0).all() and (q[0, :, b] == 0.0).all()
    assert (q[1:, :, a] < 1.0).all() and (q[1:, :, b] > 0.0).all()
    alone, _ = m_step_alone(dataset.drop_subject(3), starts[0])
    assert (alone.missing_probs[:, a] == 1.0).all() and (alone.missing_probs[:, b] == 0.0).all()


@pytest.mark.parametrize("workers", [2, 3])
def test_fold_ranges_do_not_change_any_fold(workers, monkeypatch):
    """Folds scored in one batch, in batches of 4, one by one, or across worker
    ranges agree."""
    import hetmix.evaluation
    from hetmix.evaluation import _evaluate_folds
    dataset = _cohort(np.random.default_rng(3), 14, [2], lone_site=5)
    config = EmConfig(max_iterations=20, restarts=2, seed=4)
    args = ((1, 2), ("severity", "status"), "ignore_missing", config)
    together = _evaluate_folds(dataset, range(14), *args)
    assert [fold[0] for fold in together] == list(range(14))
    assert together[5][1] is None and "constant column" in together[5][3]
    for s in range(14):
        assert _evaluate_folds(dataset, [s], *args) == [together[s]]
    parts = np.array_split(np.arange(14), workers)
    assert [fold for part in parts for fold in _evaluate_folds(dataset, part.tolist(), *args)] \
        == together
    monkeypatch.setattr(hetmix.evaluation, "_FOLDS_PER_BATCH", 4)
    assert _evaluate_folds(dataset, range(14), *args) == together
