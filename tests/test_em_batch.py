"""The batched EM equals the sequential one, bit for bit.

``training._em_batch`` runs B fits in lockstep: one likelihood pass for all of
them per E-step, one batched M-step. Each fit must come out exactly as
``oracles.em_once`` (the sequential loop of one restart) and as ``_em_batch``
run on that fit alone gives it: the same parameter blocks, NLL trace,
``converged`` flag, or failure text. The cohorts carry all-missing rows and
columns that a fold can lose the variability of; the fits include collapsing
starts and restarts that stop on a revert.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hetmix import MISSING, Dataset, EmConfig, sample_cohort, validate_dataset
from hetmix.demo import small_demo_model
from hetmix.model import ZeroLikelihoodError
from hetmix.training import ComponentCollapseError, _em_batch


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


def _arrays(model):
    return [model.weights, model.missing_probs] + [a for block in model._blocks for a in block]


def _state(outcome):
    """Everything a fit's outcome holds, as exactly comparable values."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    model, nlls, converged = outcome
    arrays = _arrays(model)
    return [a.tobytes() for a in arrays], [a.shape for a in arrays], list(nlls), converged


def _run_all_three(dataset, subsets, rows, inits, config):
    """The states of every fit: sequential oracle, batch of one, whole batch."""
    batched = _em_batch(dataset, subsets, rows, inits, config)
    states = []
    for b, subset in enumerate(subsets):
        try:
            reference = oracles.em_once(subset, inits.shape[2], config, _Start(inits[b]))
        except (ComponentCollapseError, ZeroLikelihoodError) as err:
            reference = err
        alone = _em_batch(dataset, subsets[b:b + 1], None if rows is None else rows[b:b + 1],
                          inits[b:b + 1], config)[0]
        states.append((_state(reference), _state(alone), _state(batched[b])))
    return states, batched


# orders up to 7: below 8 components NumPy sums a log-sum-exp's terms one after
# another over (B, Z, M) and over the oracle's (M, Z) alike; 9 is tested below
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 24), order=st.integers(1, 7),
       n_fits=st.integers(1, 5), folds=st.booleans(), max_iterations=st.integers(1, 12),
       rel_tol=st.sampled_from([1e-12, 1e-6, 1e-3]), collapse=st.booleans(),
       lone=st.booleans())
@settings(max_examples=80, deadline=None)
def test_batch_equals_sequential_fits(seed, n, order, n_fits, folds, max_iterations,
                                      rel_tol, collapse, lone):
    rng = np.random.default_rng(seed)
    blank = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
    dataset = _cohort(rng, n, blank, int(rng.integers(n)) if lone else None)
    if folds:  # leave-one-out folds: every row but one, in order
        held_out = rng.integers(n, size=n_fits)
        subsets = [dataset.drop_subject(int(s)) for s in held_out]
        rows = np.array([np.delete(np.arange(n), s) for s in held_out])
    else:  # restarts: every row
        subsets = [dataset] * n_fits
        rows = None
    inits = np.array([rng.dirichlet(np.ones(order), size=s.n_subjects) for s in subsets])
    if collapse:  # one fit starts with a component that holds no responsibility
        b = int(rng.integers(n_fits))
        inits[b, :, int(rng.integers(order))] = 0.0
    config = EmConfig(max_iterations=max_iterations, rel_tol=rel_tol)
    states, _ = _run_all_three(dataset, subsets, rows, inits, config)
    for reference, alone, batched in states:
        assert alone == reference
        assert batched == reference


def test_order_nine_matches_the_sequential_fit_to_rounding():
    """From 8 components on, NumPy sums the oracle's (M, Z) log-sum-exp along Z
    pairwise but the batch's (B, Z, M) one row after another, so each E-step's
    totals may differ in the last bits, and EM carries that on. The batch still
    equals the batch of one exactly; against the oracle the NLL trace holds a
    relative 1e-12 and the parameters 1e-9 (measured over 12 iterations on
    such cohorts: 2e-14 and 3e-11)."""
    rng = np.random.default_rng(0)
    dataset = _cohort(rng, 80, [3], None)
    inits = np.array([rng.dirichlet(np.ones(9), size=80) for _ in range(2)])
    config = EmConfig(max_iterations=12, rel_tol=1e-6)
    batched = _em_batch(dataset, [dataset] * 2, None, inits, config)
    for b, (model, nlls, converged) in enumerate(batched):
        alone = _em_batch(dataset, [dataset], None, inits[b:b + 1], config)[0]
        assert _state(alone) == _state(batched[b])
        want, want_nlls, want_converged = oracles.em_once(dataset, 9, config, _Start(inits[b]))
        assert (len(nlls), converged) == (len(want_nlls), want_converged)
        assert np.allclose(nlls, want_nlls, rtol=1e-12, atol=0)
        for got, expected in zip(_arrays(model), _arrays(want), strict=True):
            assert got.shape == expected.shape
            assert np.allclose(got, expected, rtol=1e-9, atol=0)


def test_batch_covers_every_way_a_fit_ends():
    """One batch of restarts and folds (one of which lost "site") in which fits
    converge, reach the cap, revert, collapse and hit zero likelihood; each
    ends exactly as the sequential loop ends it."""
    rng = np.random.default_rng(0)
    base = _cohort(rng, 40, [7], lone_site=4)
    dose = base.column_index("dose")
    cells = [list(base.row(i)) for i in range(40)]
    for i, row in enumerate(cells):  # row 7 alone misses "dose"
        if i != 7 and row[dose] is MISSING:
            row[dose] = 1.0
    dataset = Dataset(base.schemas, cells)
    held_out = [4, 0, 9, 1, 2, 3, 5, 6, 8, 10, 11]
    subsets = [dataset.drop_subject(s) for s in held_out]
    assert validate_dataset(subsets[0]) and not validate_dataset(subsets[1])
    rows = np.array([np.delete(np.arange(40), s) for s in held_out])
    inits = np.array([rng.dirichlet(np.ones(3), size=39) for _ in held_out])
    inits[1, :, 2] = 0.0  # collapses at the first M-step
    # fit 2's row 7 carries no responsibility, so every component gives its
    # missing "dose" probability 0
    inits[2, 7] = 0.0
    config = EmConfig(max_iterations=8, rel_tol=1e-4)
    states, batched = _run_all_three(dataset, subsets, rows, inits, config)
    for reference, alone, got in states:
        assert alone == reference
        assert got == reference
    assert isinstance(batched[1], ComponentCollapseError)
    assert str(batched[1]) == "component 2 collapsed (total responsibility 0.000e+00)"
    assert isinstance(batched[2], ZeroLikelihoodError)
    assert str(batched[2]) == "subject 7 has zero likelihood under every component"
    ends = {("converged" if o[2] else "cap" if len(o[1]) == 8 + 1 else "revert")
            for o in batched if not isinstance(o, Exception)}
    assert ends == {"converged", "cap", "revert"}


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
