"""Shared builders: random small models, random rows, and a recovery target."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from hetmix import (Categorical, Gaussian, InflatedGamma, MixtureModel,
                    QuantizedGaussian, VariableKind, VariableSchema)


def widest_fit_values() -> tuple:
    """(the widest real span, the largest nonnegative value) that
    ``validate_dataset`` admits: the float below 2**511, and the largest x
    whose x / SHAPE_MIN is finite (a Gamma scale of a smallest shape)."""
    from hetmix.distributions import SHAPE_MIN
    largest = float(np.finfo(float).max) * SHAPE_MIN
    while math.isinf(largest / SHAPE_MIN):
        largest = float(np.nextafter(largest, 0.0))
    while not math.isinf(float(np.nextafter(largest, math.inf)) / SHAPE_MIN):
        largest = float(np.nextafter(largest, math.inf))
    return float(np.nextafter(2.0 ** 511, 0.0)), largest


def assert_same_arrays(got, want):
    """``got`` equals ``want`` item by item (an ``_evaluate_folds`` tuple) or field by field
    (a ``LooResult``), each array bit for bit, NaN where NaN."""
    if dataclasses.is_dataclass(want):
        got, want = ([getattr(r, f.name) for f in dataclasses.fields(want)] for r in (got, want))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


KINDS = (VariableKind.REAL, VariableKind.NONNEGATIVE, VariableKind.ORDINAL,
         VariableKind.CATEGORICAL)

_SYMBOLS = ("ash", "birch", "cedar", "dune", "elm")


def random_schema(name, kind, rng) -> VariableSchema:
    if kind is VariableKind.ORDINAL:
        start = int(rng.integers(-2, 3))
        width = int(rng.integers(2, 7))
        return VariableSchema(name, kind, tuple(range(start, start + width)))
    if kind is VariableKind.CATEGORICAL:
        k = int(rng.integers(2, 6))
        return VariableSchema(name, kind, _SYMBOLS[:k])
    return VariableSchema(name, kind)


def random_cell_params(schema, rng):
    kind = schema.kind
    if kind is VariableKind.REAL:
        return Gaussian(float(rng.uniform(-5, 5)), float(rng.uniform(0.3, 4.0)))
    if kind is VariableKind.NONNEGATIVE:
        return InflatedGamma(float(rng.uniform(0.05, 0.9)),
                             float(rng.uniform(0.5, 6.0)),
                             float(rng.uniform(0.3, 3.0)))
    if kind is VariableKind.ORDINAL:
        lo, hi = schema.domain[0], schema.domain[-1]
        return QuantizedGaussian(float(rng.uniform(lo - 1, hi + 1)),
                                 float(rng.uniform(0.3, 6.0)), schema.domain)
    probs = rng.dirichlet(np.ones(len(schema.domain))) + 0.02
    probs /= probs.sum()
    return Categorical(tuple(probs), schema.domain)


def random_model(rng, *, max_components=3, max_variables=3) -> MixtureModel:
    """Small random model with every parameter in a numerically safe range."""
    n_comp = int(rng.integers(1, max_components + 1))
    n_vars = int(rng.integers(1, max_variables + 1))
    schemas = tuple(random_schema(f"v{j}", KINDS[rng.integers(len(KINDS))], rng)
                    for j in range(n_vars))
    weights = rng.dirichlet(np.ones(n_comp)) + 0.05
    weights /= weights.sum()
    params = tuple(tuple(random_cell_params(s, rng) for s in schemas)
                   for _ in range(n_comp))
    missing = rng.uniform(0.05, 0.6, size=(n_comp, n_vars))
    return MixtureModel(weights, params, missing, schemas)


def random_row(model: MixtureModel, rng) -> tuple:
    """One sampled row (with missing cells) from a model."""
    from hetmix import sample_cohort
    dataset, _ = sample_cohort(model, 1, rng)
    return dataset.row(0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def collapse_starts(monkeypatch, doomed, component=0):
    """EM's random starts (``training._dirichlet_rows``) with ``component`` given no
    responsibility in each run whose ``doomed(order, stream)`` holds, ``stream`` its
    standard exponentials (``first_draws`` tells whose they are), so the run collapses
    at its first M-step; other runs' starts are their own."""
    import hetmix.training as training
    real = training._dirichlet_rows

    def rows(streams, counts, order):
        out = real(streams, counts, order)
        for stream, end, count in zip(streams, np.cumsum(counts), counts):
            if doomed(order, stream):
                out[end - count:end, component] = 0.0
        return out

    monkeypatch.setattr(training, "_dirichlet_rows", rows)


def first_draws(children) -> set:
    """The first standard exponential of each ``SeedSequence`` of ``children``: the
    first of the stream that ``training._fit_many`` draws for a restart from it."""
    return {float(np.random.default_rng(c).standard_exponential()) for c in children}


@pytest.fixture
def collapsing_starts(monkeypatch):
    """Every restart collapses at its first M-step (``collapse_starts``)."""
    collapse_starts(monkeypatch, lambda order, stream: True)


@pytest.fixture
def collapsing_order(monkeypatch):
    """Called with an order: every restart of that order alone collapses at its
    first M-step (``collapse_starts``)."""
    return lambda doomed: collapse_starts(monkeypatch, lambda order, stream: order == doomed)


def em_batch(dataset, kept, scales, inits, config) -> list:
    """``training._em_batch`` of the runs whose (B, Z, N) starts, one array per order
    group (each of its own Z), are ``inits``, in that order."""
    from hetmix.training import _em_batch
    by_order = {a.shape[1]: a for a in inits}
    return _em_batch(dataset, kept, scales, list(by_order),
                     lambda order, out: np.copyto(out, by_order[order]), config)


def m_step(dataset, scales, alpha):
    """The M-step (``training._weighted_sums``, then ``_m_step_batch``) of B fits of one
    order from their (B, Z, N) responsibilities ``alpha``, fit b with the column scales
    ``scales[b]``, as ``_em_batch`` takes it: their stacked model."""
    from hetmix.training import _m_step_batch, _weighted_sums
    n_fits, n_comp, _ = alpha.shape
    totals = alpha.sum(axis=-1)
    return _m_step_batch(dataset, _weighted_sums(dataset, alpha),
                         (totals / totals.sum(axis=1, keepdims=True)).ravel(),
                         np.repeat(scales, n_comp, 0), [(n_fits, n_comp)])


def m_step_alone(dataset, responsibilities) -> tuple:
    """The M-step (``m_step``) of one fit from its (N, Z) responsibilities: (model,
    None after a collapse; {0: ComponentCollapseError} or {}). A collapse is
    ``_em_batch``'s, which tests for it before each M-step."""
    from hetmix.schema import _kept_ranges
    from hetmix.training import COLLAPSE_EPS, EmConfig
    alpha = np.ascontiguousarray(np.asarray(responsibilities, dtype=float).T)[None]
    scales = _kept_ranges(dataset)[3]
    if alpha.sum(axis=-1).min() < COLLAPSE_EPS:
        kept = np.ones((1, dataset.n_subjects), dtype=bool)
        (_, _, endings), = em_batch(dataset, kept, scales, [alpha], EmConfig())
        return None, {0: endings[0]}
    return m_step(dataset, scales, alpha), {}


def stack(models) -> MixtureModel:
    """``models`` (one order, one set of schemas) as one checked stack of fits."""
    return MixtureModel._from_fits([np.concatenate(a) for a in zip(*(m._fits()[0] for m in models))],
                                   models[0].schemas)


def fit_of(arrays, b, schemas) -> MixtureModel:
    """Fit b of the (F, Z, ...) ``arrays`` laid out as ``MixtureModel._fits`` gives
    them (``training._em_batch``'s parameters, or a stack's), as a model of its own."""
    return MixtureModel._from_fits([a[b:b + 1] for a in arrays], schemas)


def outcomes(dataset, result) -> list:
    """Per run of one order group of an ``training._em_batch`` result: (its rows as a
    model, NLL trace, stop reason), or the ComponentCollapseError that ended it."""
    params, traces, endings = result
    return [ending if isinstance(ending, Exception) else
            (fit_of(params, b, dataset.schemas), traces[b], ending)
            for b, ending in enumerate(endings)]


def spawned(seeds, restarts) -> list:
    """Each seed's ``restarts`` children, as ``training._fit_many`` spawns them."""
    return [np.random.SeedSequence(seed).spawn(restarts) for seed in seeds]


def em_log_joint(model, dataset, n_fits) -> np.ndarray:
    """``training._em_log_joint`` of a stack of ``n_fits`` models of one order, into a
    new (n_fits, Z, N) array."""
    from hetmix.training import _em_log_joint, _natural_coefficients
    out = np.empty((n_fits, model.n_components // n_fits, dataset.n_subjects))
    return _em_log_joint(model, dataset, _natural_coefficients(model, dataset), 0, out)


def recovery_model() -> MixtureModel:
    """Balanced 2-component model, one variable per family, nonuniform q.

    Components are separated by several standard deviations in every
    variable, so EM responsibilities are nearly hard labels and parameter
    estimates approach their supervised values.
    """
    seven = tuple(range(1, 8))
    schemas = (VariableSchema("a_real", "real"),
               VariableSchema("b_conc", "nonnegative"),
               VariableSchema("c_scale", "ordinal", seven),
               VariableSchema("d_code", "categorical", ("north", "south", "east")))
    comp0 = (Gaussian(-3.0, 1.0), InflatedGamma(0.1, 2.0, 3.0),
             QuantizedGaussian(2.0, 0.25, seven),
             Categorical((0.8, 0.1, 0.1), ("north", "south", "east")))
    comp1 = (Gaussian(3.0, 1.0), InflatedGamma(0.5, 5.0, 1.0),
             QuantizedGaussian(6.0, 0.25, seven),
             Categorical((0.1, 0.1, 0.8), ("north", "south", "east")))
    missing = [[0.10, 0.20, 0.05, 0.30],
               [0.30, 0.05, 0.25, 0.10]]
    return MixtureModel((0.6, 0.4), (comp0, comp1), missing, schemas)


def assert_same_store(got, want):
    """Same schemas, encoded value array (column-major), violations and missing masks."""
    assert got.schemas == want.schemas
    assert got.cell_violations == want.cell_violations
    np.testing.assert_array_equal(got._values, want._values)
    assert got._values.flags.f_contiguous and not got._values.flags.writeable
    for j in range(got.n_variables):
        np.testing.assert_array_equal(got.missing_mask(j), want.missing_mask(j))
