"""The batched EM: each fit equals itself run alone, bit for bit, and the
sequential reference to rounding.

``training._em_batch`` runs B fits of each of several orders in lockstep over
every row of the cohort: one likelihood pass per order per E-step, and one
M-step for every fit of every order, whose sums are one product per fit and row
chunk of the weights with the cohort's sufficient statistics. A leave-one-out fold is the
cohort with weight 0 on its held-out row. Each fit must come out exactly as
``_em_batch`` run on that fit alone gives it,
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
from conftest import (assert_same_arrays, collapse_starts, em_batch, em_log_joint, first_draws,
                      m_step, m_step_alone, outcomes, spawned, stack)
from hetmix import (MISSING, MODEL_MISSING, Dataset, EmConfig, EstimationError, TrainingError,
                    sample_cohort, validate_dataset)
from hetmix.demo import small_demo_model
from hetmix.distributions import log_sum_exp
from hetmix.model import _log_joint
from hetmix.schema import _kept_ranges, _stat_rows
from hetmix.training import _CHUNK_ROWS, COLLAPSE_EPS, ComponentCollapseError

# The batch sums over all N rows in BLAS order and takes real and ordinal
# variances in one pass from standardized sums; the oracle sums each fit's own
# rows, two-pass. Over 9,000 fits of the cohorts below (up to 12 iterations,
# orders 1-7, 5-24 rows) the NLL traces differed by at most 2.0e-10 relative and
# the parameters by 8.4e-10 relative beyond 1e-12 absolute: EM on a few rows
# carries a last-bit change on. Over 3,909 fits of 800 uniform draws of the test
# below: 2.5e-10 and 1.6e-10 with one-pass ordinal moments, 3.1e-10 and 1.6e-10
# with two-pass ones.
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
    model, nlls, reason = outcome
    arrays = [model.weights, model.missing_probs] + [a for block in model._blocks for a in block]
    return [a.tobytes() for a in arrays], [a.shape for a in arrays], list(nlls), reason


def _assert_close(got, reference):
    """``got`` is ``reference`` to rounding: the same failure, or NLL traces
    within NLL_RTOL up to the shorter one. A last-bit change may flip a stop at
    rel_tol or MONOTONE_SLACK; when both end after the same iteration, they end
    alike and their parameters agree within PARAM_RTOL / PARAM_ATOL."""
    if isinstance(got, Exception) or isinstance(reference, Exception):
        assert _state(got) == _state(reference)
        return
    (model, nlls, reason), (want, want_nlls, want_reason) = got, reference
    n = min(len(nlls), len(want_nlls))
    assert np.allclose(nlls[:n], want_nlls[:n], rtol=NLL_RTOL, atol=0)
    if len(nlls) == len(want_nlls):
        assert reason == want_reason
        for a, b in _array_pairs(model, want):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=PARAM_RTOL, atol=PARAM_ATOL)


def _batch(dataset, held_out, starts):
    """(subsets, (B, N) kept rows, column scales, per order group its (B, Z, N) starts)
    of fits that leave out ``held_out[b]`` (none if None), from each group's B (M, Z)
    starts over their own rows; the scales are those of each fit's copy of the cohort."""
    n, n_fits = dataset.n_subjects, len(starts[0])
    subsets = ([dataset] * n_fits if held_out is None else
               [dataset.drop_subject(int(s)) for s in held_out])
    kept = np.arange(n) != (np.full(n_fits, -1) if held_out is None else held_out)[:, None]
    inits = [np.array([start if held_out is None else np.insert(start, held_out[b], 0.0, axis=0)
                       for b, start in enumerate(group)]).transpose(0, 2, 1) for group in starts]
    return subsets, kept, np.concatenate([_kept_ranges(s)[3] for s in subsets]), inits


def _oracle(subset, start, config):
    """``oracles.em_once`` on a fit's own rows."""
    try:
        return oracles.em_once(subset, start.shape[1], config, _Start(start))
    except ComponentCollapseError as err:
        return err


def _run_all_three(dataset, held_out, starts, config):
    """(reference, alone, batched) outcomes of every fit of every order group (see
    ``_batch``), group after group: the sequential oracle, the batch of one fit of
    one order, the whole batch; and the batch's outcomes per group."""
    subsets, kept, scales, inits = _batch(dataset, held_out, starts)
    batched = [outcomes(dataset, group) for group in em_batch(dataset, kept, scales, inits, config)]
    out = []
    for group, group_inits, group_starts in zip(batched, inits, starts):
        for b, subset in enumerate(subsets):
            (run,) = em_batch(dataset, kept[b:b + 1], scales[b:b + 1], [group_inits[b:b + 1]],
                              config)
            alone, = outcomes(dataset, run)
            out.append((_oracle(subset, group_starts[b], config), alone, group[b]))
    return out, batched


# orders up to 7: below 8 components NumPy sums a log-sum-exp's terms one after
# another over (B, Z, N) and over the oracle's (M, Z) alike; 9 is tested below
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 24),
       orders=st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True),
       n_fits=st.integers(1, 5), folds=st.booleans(), max_iterations=st.integers(1, 12),
       rel_tol=st.sampled_from([1e-12, 1e-6, 1e-3]), collapse=st.booleans(),
       lone=st.booleans())
@settings(max_examples=80, deadline=None)
# a weighted positive mean that underflows to 0: the oracle takes its log as -inf
@example(seed=284640657, n=19, orders=[7], n_fits=4, folds=False, max_iterations=7,
         rel_tol=1e-3, collapse=False, lone=True)
# a Gamma component the batch ends at zero_prob 1.0 exactly, the oracle at 1 - 4.6e-12
@example(seed=2162568554, n=21, orders=[3], n_fits=5, folds=False, max_iterations=10,
         rel_tol=1e-12, collapse=False, lone=True)
def test_batch_equals_sequential_fits(seed, n, orders, n_fits, folds, max_iterations,
                                      rel_tol, collapse, lone):
    rng = np.random.default_rng(seed)
    blank = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
    dataset = _cohort(rng, n, blank, int(rng.integers(n)) if lone else None)
    # leave-one-out folds (every row but one) or restarts (every row)
    held_out = rng.integers(n, size=n_fits) if folds else None
    # per order group, the starts of the same fits
    starts = [[rng.dirichlet(np.ones(order), size=n - folds) for _ in range(n_fits)]
              for order in orders]
    if collapse:  # one fit of one order starts with a component that holds no responsibility
        group = starts[int(rng.integers(len(orders)))]
        group[int(rng.integers(n_fits))][:, int(rng.integers(group[0].shape[1]))] = 0.0
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
    states, batched = _run_all_three(dataset, None, [starts], config)
    for reference, alone, got in states:
        assert _state(alone) == _state(got)
        assert len(got[1]) == len(reference[1])
        _assert_close(got, reference)


def test_batch_covers_every_way_a_fit_ends():
    """One batch of restarts and folds (one of which lost "site") at orders 3 and 2 in
    which fits converge, reach the cap, revert and collapse, before their first M-step
    or after a later one, fits of both orders ending in the same iteration; each ends
    as the sequential loop ends it."""
    rng = np.random.default_rng(0)
    dataset = _cohort(rng, 40, [7], lone_site=4)
    held_out = np.array([4, 0, 9, 1, 2, 3, 5, 6, 8, 10, 11, 9])
    assert validate_dataset(dataset.drop_subject(4)) and not validate_dataset(
        dataset.drop_subject(0))
    starts = [rng.dirichlet(np.ones(3), size=39) for _ in held_out[:-1]]
    starts[1][:, 2] = 0.0  # collapses before the first M-step
    # fit 2's start with 5e-10 of each row on component 2: 1.95e-8 in all clears
    # COLLAPSE_EPS, and EM drains the component in later M-steps
    late = starts[2].copy()
    late[:, 2] = 5e-10
    late[:, :2] *= (1.0 - 5e-10) / late[:, :2].sum(axis=1, keepdims=True)
    starts.append(late)
    assert late.sum(axis=0)[2] >= COLLAPSE_EPS
    pairs = [rng.dirichlet(np.ones(2), size=39) for _ in held_out]
    pairs[5][:, 0] = 0.0
    config = EmConfig(max_iterations=8, rel_tol=1e-4)
    states, (batched, paired) = _run_all_three(dataset, held_out, [starts, pairs], config)
    for reference, alone, got in states:
        assert _state(alone) == _state(got)
        assert isinstance(got, Exception) or len(got[1]) == len(reference[1])
        _assert_close(got, reference)
    assert str(paired[5]) == "component 0 collapsed (total responsibility 0.000e+00)"
    # fits of both orders converge in the same iteration (after as many M-steps)
    converged = [{len(o[1]) for o in group if not isinstance(o, Exception) and o[2] == "tol"}
                 for group in (batched, paired)]
    assert converged[0] & converged[1]
    assert isinstance(batched[1], ComponentCollapseError)
    assert str(batched[1]) == "component 2 collapsed (total responsibility 0.000e+00)"
    assert isinstance(batched[-1], ComponentCollapseError)
    assert str(batched[-1]) == "component 2 collapsed (total responsibility 4.016e-09)"
    # it collapsed after its third M-step: capped there, the fit ends with three NLLs
    _, kept, scales, inits = _batch(dataset, held_out[-1:], [starts[-1:]])
    (run,) = em_batch(dataset, kept, scales, inits, EmConfig(max_iterations=2, rel_tol=1e-4))
    capped, = outcomes(dataset, run)
    assert not isinstance(capped, Exception) and len(capped[1]) == 3
    ends = [o for o in batched if not isinstance(o, Exception)]
    assert {o[2] for o in ends} == {"tol", "max_iterations", "revert"}
    assert all(len(o[1]) == 8 + 1 for o in ends if o[2] == "max_iterations")


def test_a_fit_whose_restarts_all_collapse_leaves_the_others_stacked(monkeypatch):
    """``_fit_many`` over three folds, every restart of the middle one started with
    a component of no responsibility: that fold fails with the text of each
    restart's collapse, and the stack holds the other two in order, each the
    parameters and trace of its fit alone, bit for bit."""
    import hetmix.training as training
    dataset = _cohort(np.random.default_rng(8), 20, [], None)
    folds = np.arange(20) != np.array([3, 7, 11])[:, None]
    scales, seeds = _kept_ranges(dataset, folds)[3], [5, 6, 7]
    config = EmConfig(max_iterations=6, restarts=2)
    alone = [training._fit_many(dataset, folds[f:f + 1], scales[f:f + 1], seeds[f:f + 1],
                                [2], config)[0] for f in (0, 2)]
    doomed = first_draws(spawned([6], 2)[0])
    collapse_starts(monkeypatch, lambda order, stream: stream[0] in doomed, component=1)
    (stacked, fits), = training._fit_many(dataset, folds, scales, seeds, [2], config)
    collapsed = "component 1 collapsed (total responsibility 0.000e+00)"
    assert isinstance(fits[1], TrainingError)
    assert str(fits[1]) == ("all 2 restart(s) failed for order 2: "
                            f"restart 0: {collapsed}; restart 1: {collapsed}")
    assert stacked[0].shape == (2, 2)
    for f, (params, (trace,)) in zip((0, 1), alone):
        assert fits[2 * f] == trace
        for got, want in zip(stacked, params, strict=True):
            assert got[f].tobytes() == want[0].tobytes()


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
        _, kept, scales, inits = _batch(d, held_out, [starts])
        first.append(m_step(d, scales, np.ascontiguousarray(inits[0])))
        (run,) = em_batch(d, kept, scales, inits, EmConfig(max_iterations=10))
        runs.append(outcomes(d, run))
    model, other = first
    assert model.n_components == other.n_components == 3 * order
    for a, b in _array_pairs(model, other):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
    for got, reference in zip(*runs):
        _assert_close(got, reference)


def test_chunked_products_span_several_chunks(monkeypatch):
    """A cohort of two statistics chunks and a partial third, folds holding out rows
    of the last: the M-step's sums are each categorical column's weighted
    ``np.bincount`` and each other column's weighted sums of its ``_stat_rows``,
    within 1e-14 of the sums of their magnitudes, EM's E-step is ``_log_joint``
    within 1e-13 per column, and each fit, and its E-step rows, equal the fit run
    alone, bit for bit."""
    import hetmix.training as training
    n = 2 * _CHUNK_ROWS + 37
    rng = np.random.default_rng(6)
    dataset = _cohort(rng, n, [n - 2], None)
    held_out = np.array([n - 1, n - 30, n - 30])
    starts = [rng.dirichlet(np.ones(3), size=n - 1) for _ in held_out]
    _, kept, scales, (inits,) = _batch(dataset, held_out, [starts])
    inits = np.ascontiguousarray(inits)
    sums, weighted_block = [], training._weighted_block

    def recording(kind, stats, *args):
        sums.append(stats)
        return weighted_block(kind, stats, *args)

    monkeypatch.setattr(training, "_weighted_block", recording)
    m_step(dataset, scales, inits)
    kinds = {s.kind.value for s in dataset.schemas}
    assert len(sums) == dataset.n_variables and {"categorical", "ordinal", "real"} <= kinds
    weights = inits.reshape(-1, n)
    for v, (schema, got) in enumerate(zip(dataset.schemas, sums)):
        if schema.kind.value == "categorical":
            codes = dataset.column_codes(v) + 1
            want = [np.bincount(codes, w, minlength=got.shape[1]) for w in weights]
            assert np.allclose(got, want, rtol=1e-14, atol=0)
        else:
            rows = np.zeros((n, got.shape[1]))
            _stat_rows(schema.kind, dataset.column_numeric(v), rows)
            assert (abs(got - weights @ rows) <= 1e-14 * (weights @ abs(rows))).all()
    monkeypatch.undo()
    config = EmConfig(max_iterations=4, rel_tol=1e-12)
    (run,) = em_batch(dataset, kept, scales, [inits], config)
    batched = outcomes(dataset, run)
    for b, outcome in enumerate(batched):
        (run,) = em_batch(dataset, kept[b:b + 1], scales[b:b + 1], [inits[b:b + 1]], config)
        alone, = outcomes(dataset, run)
        assert _state(alone) == _state(outcome)
    stacked = stack([outcome[0] for outcome in batched])
    got = em_log_joint(stacked, dataset, len(held_out))
    want = _log_joint(stacked, dataset, MODEL_MISSING).reshape(got.shape)
    assert np.isfinite(want).all()
    assert (abs(got - want) <= 1e-13 * dataset.n_variables * np.maximum(abs(want), 1.0)).all()
    for b, outcome in enumerate(batched):
        alone = em_log_joint(outcome[0], dataset, 1)
        assert alone.tobytes() == got[b:b + 1].tobytes()


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
    assert oracles.column_scale(fold, x) == 0.95 and oracles.column_scale(dataset, x) == 1000.0
    # component 0 weighs rows 0 and 1 alone, whose values are 0 and 0.05
    alpha = np.full((1, 2, 20), 1e-300)
    alpha[0, 0, :2] = 1.0
    alpha[0, 1, 2:] = 1.0
    alpha[0, :, 5] = 0.0
    model = m_step(dataset, _kept_ranges(fold)[3], alpha)
    variance = model._blocks[x][1]
    assert variance[0] == pytest.approx(0.025 ** 2, rel=1e-12)  # above the fold's floor
    alpha[0, 0, 1] = 0.0  # one value: the variance is the floor
    model = m_step(dataset, _kept_ranges(fold)[3], alpha)
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
    real_em_batch, em_log_joint = training._em_batch, training._em_log_joint

    def recording_em_batch(*args):
        groups = real_em_batch(*args)
        runs.extend(groups)  # each order group's (params, traces, endings)
        return groups

    def recording_log_joint(*args):
        out = em_log_joint(*args)
        totals.append(log_sum_exp(out, axis=1))
        return out

    monkeypatch.setattr(training, "_em_batch", recording_em_batch)
    monkeypatch.setattr(training, "_em_log_joint", recording_log_joint)
    config = EmConfig(max_iterations=10, restarts=3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        restarts = np.ones((2, 14), dtype=bool)
        training._fit_many(dataset, restarts, _kept_ranges(dataset, restarts)[3], [0, 1],
                           (1, 2, 3), config)
        assert totals and all(np.isfinite(t).all() for t in totals)
        folds = np.arange(14) != np.arange(14)[:, None]
        training._fit_many(dataset, folds, _kept_ranges(dataset, folds)[3], range(14),
                           (1, 2, 3), config)
    assert sum(len(endings) for _, _, endings in runs) == 3 * (2 + 14) * config.restarts
    for _, traces, endings in runs:
        assert not any(isinstance(ending, Exception) for ending in endings)
        assert all(np.isfinite(trace).all() for trace in traces)


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
    _, _, scales, (inits,) = _batch(dataset, held_out, [starts])
    assert inits.sum(axis=-1).min() >= COLLAPSE_EPS  # no fit collapses
    model = m_step(dataset, scales, np.ascontiguousarray(inits))
    assert model.n_components == 3 * 3
    q = model.missing_probs.reshape(3, 3, -1)
    assert (q[0, :, a] == 1.0).all() and (q[0, :, b] == 0.0).all()
    assert (q[1:, :, a] < 1.0).all() and (q[1:, :, b] > 0.0).all()
    alone, _ = m_step_alone(dataset.drop_subject(3), starts[0])
    assert (alone.missing_probs[:, a] == 1.0).all() and (alone.missing_probs[:, b] == 0.0).all()


@pytest.mark.parametrize("workers", [2, 3])
def test_fold_ranges_do_not_change_any_fold(workers, monkeypatch):
    """Folds scored in one batch, one by one, or across worker ranges agree, and
    leave-one-out in batches of at most 4 folds equals it in one batch."""
    import hetmix.evaluation
    from hetmix.evaluation import _evaluate_folds, loo_evaluate

    def part(folds, subjects):
        failed, *arrays = folds
        return {s: failed[s] for s in subjects if s in failed}, *(a[:, subjects] for a in arrays)

    dataset = _cohort(np.random.default_rng(3), 14, [2], lone_site=5)
    config = EmConfig(max_iterations=20, restarts=2, seed=4)
    args = ((1, 2), ("severity", "status"), "ignore_missing", config)
    together = _evaluate_folds(dataset, range(14), *args)
    assert together[1].shape == (3, 14, 2) and together[3].shape == (3, 14)
    assert list(together[0]) == [5] and "constant column" in together[0][5]
    for s in range(14):
        assert_same_arrays(_evaluate_folds(dataset, [s], *args), part(together, [s]))
    for subjects in np.array_split(np.arange(14), workers):
        assert_same_arrays(_evaluate_folds(dataset, subjects.tolist(), *args),
                           part(together, subjects.tolist()))
    batches = []

    def recorded(dataset, subjects, **rest):
        batches.append(subjects)
        return _evaluate_folds(dataset, subjects, **rest)

    monkeypatch.setattr(hetmix.evaluation, "_evaluate_folds", recorded)
    whole = loo_evaluate(dataset, *args)
    # batches of at least 1 fold, and of the folds whose 2 restarts at order 2 over 14 rows
    # fill 4 folds' cells
    monkeypatch.setattr(hetmix.evaluation, "_FOLDS_PER_BATCH", 1)
    monkeypatch.setattr(hetmix.evaluation, "_BATCH_CELLS", 4 * 2 * 2 * 14)
    split = loo_evaluate(dataset, *args)
    assert list(map(len, batches)) == [14, 4, 4, 3, 3]
    assert_same_arrays(split, whole)


class _Drawn(Exception):
    """Raised by a stand-in ``_em_batch`` once it has every order's starts."""


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1])
def test_each_orders_start_is_its_childs_dirichlet_draw(monkeypatch, seed):
    """``_fit_many`` makes one generator per restart, from child r of its fit's
    ``SeedSequence(seed).spawn(restarts)`` (the same entropy and spawn key), which draws its
    standard exponentials once, and every order's start (1-9, in one batch whose fits keep
    1, 2, 119 and 600 of 600 rows) is ``Generator.dirichlet(np.ones(order), size=n)`` of that restart's child,
    bit for bit, on the rows the fit keeps, and 0 on the others."""
    import hetmix.training as training
    rng = np.random.default_rng(seed)
    dataset = _cohort(rng, 600, [], None)
    kept = np.zeros((4, 600), dtype=bool)
    for row, n in zip(kept, (1, 2, 119, 600)):
        row[rng.choice(600, n, replace=False)] = True
    seeds, real, made, starts = [seed, 5, 6, 7], np.random.default_rng, [], {}

    def em_batch(dataset, kept_runs, scales, orders, start, config):
        for order in orders:
            start(order, out := np.full((len(kept_runs), order, 600), np.nan))
            starts[order] = out
        raise _Drawn

    monkeypatch.setattr(training, "_em_batch", em_batch)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or real(seed))
    with pytest.raises(_Drawn):
        training._fit_many(dataset, kept, _kept_ranges(dataset, kept)[3], seeds,
                           list(range(1, 10)), EmConfig(restarts=2))
    assert [(c.entropy, c.spawn_key) for c in made] == [
        (c.entropy, c.spawn_key) for pair in spawned(seeds, 2) for c in pair]
    for order, out in starts.items():
        for b, child in enumerate(made):
            want = np.zeros((order, 600))
            want[:, kept[b // 2]] = real(child).dirichlet(np.ones(order), kept[b // 2].sum()).T
            assert out[b].tobytes() == want.tobytes()


def test_fit_many_spawns_no_seed_before_its_arrays_are_sized(monkeypatch):
    """No ``SeedSequence.spawn`` runs before ``_em_batch``: a batch that fails as it sizes
    its arrays (here a stub that raises) has spawned nothing, so a huge restart count fails
    at its first array, not after a list of that many seeds."""
    import hetmix.training as training
    spawns = []

    class Counted(np.random.SeedSequence):
        def spawn(self, n_children):
            spawns.append(n_children)
            return super().spawn(n_children)

    def em_batch(*args):
        raise MemoryError("Unable to allocate the posteriors")

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(training, "_em_batch", em_batch)
    dataset = _cohort(np.random.default_rng(3), 30, [], None)
    kept = np.ones((2, 30), dtype=bool)
    with pytest.raises(MemoryError):
        training._fit_many(dataset, kept, _kept_ranges(dataset, kept)[3], [0, 1], [1, 2],
                           EmConfig(restarts=3))
    assert spawns == []


def _ulps(a, b):
    """|a - b| in units of the last place of ``b``."""
    return np.abs(a - b) / np.spacing(np.abs(b))


@pytest.mark.parametrize("order", [1, 2, 3, 7, 8, 9, 12])
def test_posteriors_take_one_exponential_per_cell(order):
    """``_posteriors`` of the E-step of three fits of ``order`` components, each leaving out
    one row, one with a kept row of all -inf: a row left out has posteriors 0 and
    log-likelihood 0; a kept row's posteriors sum to 1 within 4 ulp and its log-likelihood
    is within 4 ulp of ``log_sum_exp`` of the same log joint; the row of all -inf has -inf
    and NaN posteriors, as ``log_sum_exp`` and exp(log joint - it) give."""
    from hetmix.training import _posteriors
    rng = np.random.default_rng(order)
    dataset = _cohort(rng, 120, [4], None)
    alpha = rng.dirichlet(np.ones(order), size=(3, 120)).transpose(0, 2, 1)
    model = m_step(dataset, np.repeat(_kept_ranges(dataset)[3], 3, 0), alpha)
    log_joint = em_log_joint(model, dataset, 3)
    log_joint[1, :, 9] = -np.inf
    on = np.arange(120) != np.array([7, 0, 119])[:, None]
    want = log_sum_exp(log_joint, axis=1)
    with np.errstate(invalid="ignore"):
        nan = np.exp(log_joint[1, :, 9] - want[1, 9])
    got = log_joint.copy()
    ll = _posteriors(got, on)
    assert (ll[~on] == 0.0).all() and (got.transpose(0, 2, 1)[~on] == 0.0).all()
    assert ll[1, 9] == want[1, 9] == -np.inf
    assert np.isnan(got[1, :, 9]).all() and np.isnan(nan).all()
    on[1, 9] = False
    assert _ulps(ll[on], want[on]).max() <= 4
    assert np.abs(got.sum(axis=1)[on] - 1.0).max() <= 4 * np.finfo(float).eps


def test_a_kept_row_of_all_minus_inf_ends_its_fit():
    """A kept row whose every component has log joint -inf at the second E-step gives its
    fit an NLL of inf: the fit ends there on a revert, with the trace and parameters of its
    first M-step, and the other fit goes on as it would alone, with no RuntimeWarning. At
    the first E-step the row's NaN posteriors stop the batch at the M-step's weights check."""
    import hetmix.training as training
    rng = np.random.default_rng(4)
    dataset = _cohort(rng, 30, [], None)
    _, kept, scales, (inits,) = _batch(dataset, None, [[rng.dirichlet(np.ones(2), size=30)
                                                        for _ in range(2)]])
    config = EmConfig(max_iterations=6, rel_tol=1e-12)
    clean = outcomes(dataset, em_batch(dataset, kept, scales, [inits], config)[0])
    real, calls = training._em_log_joint, []

    def poisoned(*args, at):
        out = real(*args)
        if len(calls) == at and out.shape[0] == 2:
            out[0, :, 11] = -np.inf
        calls.append(out.shape[0])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_em_log_joint", lambda *a: poisoned(*a, at=1))
        got = outcomes(dataset, em_batch(dataset, kept, scales, [inits], config)[0])
    _, nlls, reason = got[0]
    assert (reason, nlls) == ("revert", clean[0][1][:1])
    first = m_step(dataset, scales[:1], np.ascontiguousarray(inits[:1]))
    assert _state(got[0])[0] == _state((first, nlls, reason))[0]
    assert _state(got[1]) == _state(clean[1])
    calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_em_log_joint", lambda *a: poisoned(*a, at=0))
        with pytest.raises(EstimationError, match="^weights must be finite and nonnegative$"):
            em_batch(dataset, kept, scales, [inits], config)
