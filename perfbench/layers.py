"""Per-layer tracing of the hetmix modules, from outside the package.

``install`` wraps every public module-level function of the traced modules in
every hetmix namespace that holds it (``fit`` is called through
``hetmix.training``, ``hetmix.evaluation`` and ``hetmix.cli``), plus
``Dataset.drop_subject`` and ``QuantizedGaussian.log_masses`` (through its
``cached_property.func``). ``layer_metrics`` turns the recorded spans into the
per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np

from spans import Patcher, Tracer, self_times

LAYERS = ("io", "schema", "distributions", "model", "training", "inference",
          "evaluation", "cli")

DROP_SUBJECT = "schema.Dataset.drop_subject"
LOG_MASSES = "distributions.QuantizedGaussian.log_masses"

# variable kind -> distribution family fitted for it
FAMILY_OF_KIND = {"real": "gaussian", "nonnegative": "inflated_gamma",
                  "ordinal": "quantized_gaussian", "categorical": "categorical"}
FAMILIES = tuple(FAMILY_OF_KIND.values())

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.main.self_s": "s",
    "schema.validate_dataset.self_s": "s",
    "schema.validate_dataset.calls": "count",
    "schema.validate_dataset.cells": "count",
    "io.read_data_csv.self_s": "s",
    "io.load_model.self_s": "s",
    "io.write_csv_table.self_s": "s",
    "io.save_model.self_s": "s",
    "model.component_log_likelihoods.self_s": "s",
    "model.component_log_likelihoods.calls": "count",
    "model.component_log_likelihoods.rows": "count",
    "model.evidence_log_likelihoods.self_s": "s",
    "model.row_log_likelihoods.self_s": "s",
    f"{LOG_MASSES}.self_s": "s",
    f"{LOG_MASSES}.calls": "count",
    "distributions.weighted_mle.self_s": "s",
    "distributions.weighted_mle.calls": "count",
    **{f"distributions.weighted_mle.{f}.calls": "count" for f in FAMILIES},
    "training.m_step.self_s": "s",
    "training.m_step.calls": "count",
    "training.m_step.collapses": "count",
    "training.fit.self_s": "s",
    "training.fit.calls": "count",
    "training.em_iterations": "count",
    "training.select_order.self_s": "s",
    "inference.infer.self_s": "s",
    "inference.infer.calls": "count",
    "inference.infer.p50_ms": "ms",
    "inference.infer.p99_ms": "ms",
    f"{DROP_SUBJECT}.self_s": "s",
    f"{DROP_SUBJECT}.calls": "count",
    "evaluation.loo_evaluate.self_s": "s",
    "evaluation.fold_s.p50": "s",
    "evaluation.fold_s.p90": "s",
    "trace.wall_s": "s",
    "trace.unlisted_self_s": "s",
    "trace.overhead_fraction": "fraction",
    "failed_fraction": "fraction",
}


def _count_cells(counts, args, kwargs, result, error):
    dataset = args[0]
    counts["schema.validate_dataset.cells"] += dataset.n_subjects * dataset.n_variables


def _count_rows(counts, args, kwargs, result, error):
    counts["model.component_log_likelihoods.rows"] += args[1].n_subjects


def _count_family(counts, args, kwargs, result, error):
    kind = args[0] if args else kwargs["kind"]
    family = FAMILY_OF_KIND[getattr(kind, "value", kind)]
    counts[f"distributions.weighted_mle.{family}.calls"] += 1


def _count_collapse(counts, args, kwargs, result, error):
    from hetmix.training import ComponentCollapseError
    if isinstance(error, ComponentCollapseError):
        counts["training.m_step.collapses"] += 1


def _count_iterations(counts, args, kwargs, result, error):
    if error is None:
        counts["training.em_iterations"] += result[1].iterations


_COUNTERS = {
    "schema.validate_dataset": _count_cells,
    "model.component_log_likelihoods": _count_rows,
    "distributions.weighted_mle": _count_family,
    "training.m_step": _count_collapse,
    "training.fit": _count_iterations,
}


def public_functions(module):
    """Public functions defined in ``module`` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def install(tracer: Tracer, patcher: Patcher):
    """Wrap the traced layers; ``patcher.restore()`` undoes every change."""
    import hetmix.cli  # noqa: F401  (loads every traced module)
    from hetmix.distributions import QuantizedGaussian
    from hetmix.schema import Dataset

    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "hetmix" or name.startswith("hetmix."))]
    for layer in LAYERS:
        module = sys.modules[f"hetmix.{layer}"]
        for name, fn in public_functions(module).items():
            span = f"{layer}.{name}"
            traced = tracer.wrap(span, fn, _COUNTERS.get(span))
            for namespace in namespaces:
                for attribute, value in list(vars(namespace).items()):
                    if value is fn:
                        patcher.set(namespace, attribute, traced)
    patcher.set(Dataset, "drop_subject", tracer.wrap(DROP_SUBJECT, Dataset.drop_subject))
    cached = vars(QuantizedGaussian)["log_masses"]
    patcher.set(cached, "func", tracer.wrap(LOG_MASSES, cached.func))


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(names, name_ids, parents, starts, ends, counts) -> dict:
    """Every ``PER_LAYER`` metric except the two the caller supplies
    (``trace.overhead_fraction`` and ``failed_fraction``)."""
    own = self_times(parents, starts, ends)
    durations = ends - starts
    index = {name: i for i, name in enumerate(names)}

    def of(span):
        return name_ids == index[span] if span in index else np.zeros(len(name_ids), bool)

    out = {}
    listed = set()
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "self_s":
            out[metric] = float(own[of(span)].sum())
            listed.add(span)
        elif stat == "calls" and not span.startswith("distributions.weighted_mle."):
            out[metric] = int(of(span).sum())
    for metric, unit in PER_LAYER.items():
        if unit == "count" and metric not in out:
            out[metric] = int(counts[metric])

    infer_ms = durations[of("inference.infer")] * 1e3
    out["inference.infer.p50_ms"] = _percentile(infer_ms, 50)
    out["inference.infer.p99_ms"] = _percentile(infer_ms, 99)
    fold_gaps = np.diff(starts[of(DROP_SUBJECT)])
    out["evaluation.fold_s.p50"] = _percentile(fold_gaps, 50)
    out["evaluation.fold_s.p90"] = _percentile(fold_gaps, 90)

    roots = parents < 0
    wall = float(durations[roots].sum())
    unlisted = [i for name, i in index.items() if name not in listed]
    out["trace.wall_s"] = wall
    out["trace.unlisted_self_s"] = float(own[np.isin(name_ids, unlisted)].sum())
    return out
