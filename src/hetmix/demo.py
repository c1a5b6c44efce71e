"""Bundled synthetic generators: well-separated 3-component cohorts.

Two ready-made models back the demos and the acceptance checks. Both have
three clearly separated sub-populations, every distribution family, and
missing probabilities that differ per (component, variable).
``small_demo_model`` keeps 8 variables so leave-one-out loops stay cheap;
``demo_model`` has 20 variables for order-selection experiments. The ordinal
outcome ``severity`` concentrates near 2 / 5 / 8 in the three components, so
conditioning on the inputs cuts its expected absolute error far below both
the uniform-chance and prior-marginal references.
"""

from __future__ import annotations

from .distributions import Categorical, Gaussian, InflatedGamma, QuantizedGaussian
from .model import MixtureModel
from .schema import INPUT, OUTCOME, VariableSchema


def _build(weights, table) -> MixtureModel:
    """Assemble a model from rows of (schema, per-component params, per-component q)."""
    schemas = tuple(schema for schema, _, _ in table)
    n_comp = len(weights)
    params = tuple(tuple(cells[z] for _, cells, _ in table) for z in range(n_comp))
    missing = [[q[z] for _, _, q in table] for z in range(n_comp)]
    return MixtureModel(weights, params, missing, schemas)


def _ordinal(name, lo, hi, means, var, q, role=INPUT):
    domain = tuple(range(lo, hi + 1))
    return (VariableSchema(name, "ordinal", domain, role),
            tuple(QuantizedGaussian(m, var, domain) for m in means), q)


def _real(name, means, var, q):
    return (VariableSchema(name, "real"), tuple(Gaussian(m, var) for m in means), q)


def _nonneg(name, cells, q):
    return (VariableSchema(name, "nonnegative"), tuple(InflatedGamma(*c) for c in cells), q)


def _cat(name, domain, rows, q, role=INPUT):
    return (VariableSchema(name, "categorical", domain, role),
            tuple(Categorical(r, domain) for r in rows), q)


_SITE = ("alpha", "beta", "gamma", "delta")
_SITE_ROWS = ((0.85, 0.05, 0.05, 0.05), (0.05, 0.85, 0.05, 0.05), (0.05, 0.05, 0.85, 0.05))
_STATUS = ("improved", "stable", "worse")
_STATUS_ROWS = ((0.80, 0.15, 0.05), (0.15, 0.70, 0.15), (0.05, 0.15, 0.80))


def small_demo_model() -> MixtureModel:
    """3 components, 8 variables; sized for leave-one-out demonstrations."""
    return _build(
        (0.7, 0.2, 0.1),
        [
            _real("marker_a", (-4.0, 0.0, 4.0), 1.0, (0.05, 0.10, 0.15)),
            _real("marker_b", (2.0, 8.0, 14.0), 2.0, (0.20, 0.05, 0.10)),
            _nonneg("dose", ((0.6, 2.0, 1.0), (0.2, 4.0, 2.0), (0.05, 8.0, 3.0)),
                     (0.10, 0.25, 0.10)),
            _ordinal("stage", 1, 5, (1.5, 3.0, 4.5), 0.4, (0.15, 0.10, 0.05)),
            _ordinal("grade", 0, 6, (1.0, 3.0, 5.0), 0.5, (0.05, 0.05, 0.25)),
            _cat("site", _SITE, _SITE_ROWS, (0.10, 0.15, 0.10)),
            _ordinal("severity", 1, 8, (2.0, 5.0, 8.0), 0.3, (0.10, 0.20, 0.15), OUTCOME),
            _cat("status", _STATUS, _STATUS_ROWS, (0.15, 0.10, 0.20), OUTCOME),
        ])


def demo_model() -> MixtureModel:
    """3 components, 20 variables; sized for order-selection experiments."""
    return _build(
        (0.5, 0.3, 0.2),
        [
            _real("marker_a", (-5.0, 0.0, 5.0), 1.0, (0.05, 0.10, 0.20)),
            _real("marker_b", (10.0, 20.0, 30.0), 4.0, (0.15, 0.05, 0.10)),
            _real("marker_c", (-2.0, 2.0, 6.0), 1.5, (0.30, 0.10, 0.05)),
            _real("marker_d", (0.0, 6.0, 12.0), 2.0, (0.10, 0.25, 0.10)),
            _real("marker_e", (1.0, -3.0, -7.0), 1.0, (0.05, 0.05, 0.35)),
            _real("marker_f", (100.0, 80.0, 60.0), 25.0, (0.20, 0.15, 0.10)),
            _nonneg("conc_a", ((0.70, 2.0, 1.0), (0.30, 5.0, 2.0), (0.05, 9.0, 3.0)),
                    (0.10, 0.20, 0.05)),
            _nonneg("conc_b", ((0.10, 3.0, 0.5), (0.50, 1.5, 4.0), (0.90, 2.0, 2.0)),
                    (0.25, 0.10, 0.15)),
            _nonneg("conc_c", ((0.20, 6.0, 1.0), (0.20, 2.0, 5.0), (0.60, 4.0, 2.0)),
                    (0.05, 0.30, 0.10)),
            _nonneg("conc_d", ((0.05, 4.0, 2.0), (0.40, 8.0, 1.0), (0.80, 1.0, 1.0)),
                    (0.15, 0.05, 0.25)),
            _ordinal("severity", 1, 8, (2.0, 5.0, 8.0), 0.3, (0.10, 0.20, 0.15), OUTCOME),
            _ordinal("stage", 1, 5, (1.5, 3.0, 4.5), 0.4, (0.15, 0.10, 0.05)),
            _ordinal("grade", 0, 6, (1.0, 3.0, 5.0), 0.5, (0.05, 0.05, 0.25)),
            _ordinal("scale_a", 1, 4, (1.2, 2.5, 3.8), 0.35, (0.20, 0.10, 0.10)),
            _ordinal("scale_b", 0, 10, (2.0, 5.0, 8.0), 1.0, (0.10, 0.35, 0.05)),
            _ordinal("scale_c", 1, 7, (2.0, 4.0, 6.0), 0.6, (0.05, 0.15, 0.30)),
            _cat("status", _STATUS, _STATUS_ROWS, (0.15, 0.10, 0.20), OUTCOME),
            _cat("site", _SITE, _SITE_ROWS, (0.10, 0.15, 0.10)),
            _cat("cohort", ("north", "south", "east", "west", "island"),
                 ((0.60, 0.10, 0.10, 0.10, 0.10), (0.10, 0.60, 0.10, 0.10, 0.10),
                  (0.10, 0.10, 0.60, 0.10, 0.10)),
                 (0.05, 0.05, 0.05)),
            _cat("variant", ("x", "y", "z"),
                 ((0.70, 0.20, 0.10), (0.10, 0.70, 0.20), (0.20, 0.10, 0.70)),
                 (0.30, 0.20, 0.10)),
        ])
