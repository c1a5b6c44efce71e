"""Workload definitions: seeded inputs on disk and the CLI argument list.

Each workload writes the inputs of cohort k of a seed once, into a directory of
its own, and names the single ``hetmix`` command that runs on them. Inputs
depend only on (seed, cohort), so they are byte-identical from run to run.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

SELECT_N = 10_000
LOO_N = 120
INFER_N = 5_000
INFER_TARGETS = ("severity", "status", "conc_a")

# EM iteration caps. Run to convergence, the work of one call depends on the
# cohort far more than a few cohorts per run can average away: 87-128 M-steps
# per select call and 4,969-6,968 per LOO call over seeds 0-9 (LOO CPU time
# 12-22 s). Capped, select takes 68-71 M-steps and LOO 4,018-4,413, and the
# gates' invariants still hold on all ten seeds. A cap binds mostly on the
# larger orders; orders 1-2 still converge.
SELECT_MAX_ITERATIONS = 6
LOO_MAX_ITERATIONS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    items: int          # units of work in one CLI call: rows, folds or records
    item_name: str
    salt: int           # keeps the workloads' random streams apart
    nominal_call_s: float  # reference CPU seconds of one call at the seed commit

    def make_inputs(self, seed: int, cohort: int, root: Path) -> Path:
        """Write cohort ``cohort`` of ``seed`` under ``root``; idempotent."""
        target = root / f"{self.name}-seed{seed}-cohort{cohort}"
        if not target.is_dir():
            # written aside and renamed into place, so a reader never sees a
            # half-written cohort, also with two runs of one seed at once
            root.mkdir(parents=True, exist_ok=True)
            partial = Path(tempfile.mkdtemp(prefix=f"{target.name}.", dir=root))
            _GENERATORS[self.name](_rng(seed, cohort, self.salt), partial)
            try:
                partial.rename(target)
            except OSError:  # another run put the same inputs there first
                shutil.rmtree(partial)
        return target

    def argv(self, inputs: Path, out_dir: Path) -> list:
        return _ARGV[self.name](inputs, out_dir)


def _rng(seed: int, cohort: int, salt: int):
    return np.random.default_rng(np.random.SeedSequence([seed, cohort, salt]))


def _write_cohort(model, n: int, rng, target: Path):
    from hetmix.io import save_schemas, write_data_csv
    from hetmix.model import sample_cohort

    dataset, _ = sample_cohort(model, n, rng)
    write_data_csv(dataset, target / "cohort.csv")
    save_schemas(model.schemas, target / "schema.json")


def _make_select(rng, target: Path):
    from hetmix.demo import demo_model
    _write_cohort(demo_model(), SELECT_N, rng, target)


def _make_loo(rng, target: Path):
    from hetmix.demo import small_demo_model
    _write_cohort(small_demo_model(), LOO_N, rng, target)


def _make_infer(rng, target: Path):
    """Model JSON of the generator itself plus an evidence CSV without targets."""
    import csv

    from hetmix.demo import demo_model
    from hetmix.io import save_model

    model = demo_model()
    save_model(model, target / "model.json")
    _write_cohort(model, INFER_N, rng, target)
    with open(target / "cohort.csv", newline="") as source:
        rows = list(csv.reader(source))
    keep = [j for j, name in enumerate(rows[0]) if name not in INFER_TARGETS]
    with open(target / "evidence.csv", "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([row[j] for j in keep] for row in rows)
    (target / "cohort.csv").unlink()
    (target / "schema.json").unlink()


_GENERATORS = {"select-n10k": _make_select, "loo-n120": _make_loo,
               "infer-n5k": _make_infer}

_ARGV = {
    "select-n10k": lambda inputs, out: [
        "select", "--data", str(inputs / "cohort.csv"),
        "--schema", str(inputs / "schema.json"), "--orders", "1-6",
        "--restarts", "2", "--max-iterations", str(SELECT_MAX_ITERATIONS),
        "--out-dir", str(out)],
    "loo-n120": lambda inputs, out: [
        "evaluate", "--data", str(inputs / "cohort.csv"),
        "--schema", str(inputs / "schema.json"), "--orders", "1-3",
        "--restarts", "2", "--max-iterations", str(LOO_MAX_ITERATIONS),
        "--mode", "model_missing", "--workers", "1", "--out-dir", str(out)],
    "infer-n5k": lambda inputs, out: [
        "infer", "--model", str(inputs / "model.json"),
        "--evidence", str(inputs / "evidence.csv"), "--mode", "ignore_missing",
        "--targets", ",".join(INFER_TARGETS), "--out-dir", str(out)],
}

WORKLOADS = {
    "select-n10k": Workload("select-n10k", SELECT_N, "rows", 1, 5.0),
    "loo-n120": Workload("loo-n120", LOO_N, "folds", 2, 11.0),
    "infer-n5k": Workload("infer-n5k", INFER_N, "records", 3, 8.0),
}
