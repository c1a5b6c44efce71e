"""Shared builders: random small models, random rows, and a recovery target."""

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


@pytest.fixture
def collapsing_starts(monkeypatch):
    """EM's random starts with component 0 given no responsibility, so every
    restart collapses at its first M-step; other draws are the generator's own."""
    real = np.random.default_rng

    class Collapsing:
        def __init__(self, seed):
            self.rng = real(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def dirichlet(self, alpha, size):
            start = self.rng.dirichlet(alpha, size)
            start[:, 0] = 0.0
            return start

    monkeypatch.setattr(np.random, "default_rng", Collapsing)


def m_step_alone(dataset, responsibilities) -> tuple:
    """The batched M-step (``training._m_step_batch``) of one fit from its (N, Z)
    responsibilities: (model, None after a collapse; {0: ComponentCollapseError} or {})."""
    from hetmix.training import _m_step_batch, _scales
    alpha = np.ascontiguousarray(np.asarray(responsibilities, dtype=float).T)[None]
    model, _, failed = _m_step_batch(dataset, _scales(dataset), alpha, np.arange(1))
    return model, failed


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
    """Same schemas, missing / encoded value arrays (column-major) and violations."""
    assert got.schemas == want.schemas
    assert got.cell_violations == want.cell_violations
    for store in ("_missing", "_values"):
        array = getattr(got, store)
        np.testing.assert_array_equal(array, getattr(want, store))
        assert array.flags.f_contiguous and not array.flags.writeable
