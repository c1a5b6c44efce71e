"""hetmix benchmark: one workload, timed end to end or traced per layer.

Run from the root of a source checkout (the directory holding ``src/hetmix``):

    python3 perfbench/run.py --workload loo-n120 --seed 0 --seconds 22 --trace 0

Each measured call is a fresh ``python3 perfbench/child.py`` process that runs
``hetmix.cli.main`` once on inputs generated beforehand from the seed; call k
of a run uses cohort k of that seed. A run makes
round(seconds / the workload's nominal call time) calls, at least
``MIN_CALLS`` and at most ``MAX_CALLS``, so the count depends only on the
arguments. Every call's outputs go through the workload's correctness gate.

``--trace 0`` reports the end-to-end metrics (medians over the calls);
``--trace 1`` makes one untraced and one traced call on cohort 0 and reports
the per-layer metrics. Human-readable lines come first; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A gate failure still prints that line, with ``correct`` false,
and exits 1; a missing source tree or a failing CLI call exits 2 without a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the sibling modules are imported by name; put their directory on the path
# even when the interpreter leaves the script's directory off it
# (PYTHONSAFEPATH, python -P)
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CALLS = 2
MAX_CALLS = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# one process, one core: no BLAS or OpenMP worker threads
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"ref_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "items_per_s": "1/s"}


class BenchError(RuntimeError):
    """The benchmark could not run: no source tree, or a CLI call failed."""


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list, result_path: Path, env) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result."""
    result_path.unlink(missing_ok=True)
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py")] + args, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:  # subprocess.run has killed and reaped it
        raise BenchError(f"benchmark child ran longer than {CHILD_TIMEOUT_S} s") from err
    if done.returncode != 0 or not result_path.exists():
        raise BenchError(f"benchmark child failed: {done.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported hetmix from {result['module']}, not {SRC}")
    if result.get("exit_code", 0) != 0:
        raise BenchError(f"hetmix exited {result['exit_code']}: {done.stderr.strip()[-2000:]}")
    return result


def measure_setup(run_dir: Path, env) -> list:
    """``import hetmix.cli`` in ``SETUP_SAMPLES`` fresh interpreters."""
    result_path = run_dir / "setup.result.json"
    return [run_child(["setup", str(result_path)], result_path, env)
            for _ in range(SETUP_SAMPLES)]


def run_call(workload, inputs: Path, out_dir: Path, trace: bool, env) -> dict:
    """One fresh process calling ``hetmix.cli.main`` once."""
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = out_dir.with_suffix(".result.json")
    return run_child(["call", str(result_path), "1" if trace else "0", "--"]
                     + workload.argv(inputs, out_dir), result_path, env)


def metadata(seed: int, cohorts) -> dict:
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha, "src_lines": src_lines, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "seed": seed, "cohorts": list(cohorts), "cli_seed": 0}


def median(rows, key: str) -> float:
    return float(statistics.median(row[key] for row in rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hetmix" / "__init__.py").is_file():
        print(f"error: no hetmix source tree at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
    except ImportError as err:
        print(f"error: {sys.executable} cannot import hetmix's dependencies: {err}",
              file=sys.stderr)
        return 2
    from gates import check, fingerprint, load_reference
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = child_env()
    reference = load_reference()[workload.name] if args.seed == DEFAULT_SEED else None
    report_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report_dir.mkdir(parents=True, exist_ok=True)
    # call outputs go to a directory of this process's own, so two runs of the
    # same workload and seed at once cannot delete each other's outputs
    scratch = tempfile.TemporaryDirectory(prefix="run-", dir=report_dir)
    run_dir = Path(scratch.name)
    if args.trace:
        plan = [(0, False), (0, True)]
    else:
        n_calls = round(args.seconds / workload.nominal_call_s)
        plan = [(k, False) for k in range(max(MIN_CALLS, min(MAX_CALLS, n_calls)))]

    try:
        inputs = [workload.make_inputs(args.seed, cohort, WORK / "inputs")
                  for cohort, _ in plan]
        setup = [] if args.trace else measure_setup(run_dir, env)
        calls = []
        for index, ((cohort, traced), cohort_inputs) in enumerate(zip(plan, inputs)):
            out_dir = run_dir / f"call{index}"
            result = run_call(workload, cohort_inputs, out_dir, traced, env)
            expected = None if reference is None else reference[str(cohort)]
            result.update(cohort=cohort, traced=traced,
                          gate=check(workload.name, out_dir, workload.items, expected),
                          fingerprint=fingerprint(workload.name, out_dir, workload.items))
            shutil.rmtree(out_dir)
            if traced:
                spans = out_dir.with_suffix(".result.spans.npz")
                os.replace(spans, report_dir / spans.name)
            calls.append(result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        scratch.cleanup()

    problems = [f"call {i} (cohort {c['cohort']}): {p}"
                for i, c in enumerate(calls) for p in c["gate"]["problems"]]
    attempted = sum(c["gate"]["attempted"] for c in calls)
    failed = sum(c["gate"]["failed"] for c in calls)
    meta = metadata(args.seed, sorted({c["cohort"] for c in calls}))
    partial = report_dir / f"report.json.{os.getpid()}"
    partial.write_text(json.dumps(
        {"workload": workload.name, "trace": args.trace, "metadata": meta, "setup": setup,
         "calls": calls, "problems": problems}, indent=1, sort_keys=True) + "\n")
    os.replace(partial, report_dir / "report.json")

    for c in calls:
        print(f"call cohort={c['cohort']} traced={int(c['traced'])} "
              f"ref_cpu_s={c['ref_cpu_s']:.4f} cpu_s={c['cpu_s']:.4f} wall_s={c['wall_s']:.4f} "
              f"peak_rss_mb={c['peak_rss_mb']:.1f} "
              f"failed={c['gate']['failed']}/{c['gate']['attempted']} {workload.item_name}")
        for name, digest in sorted(c["gate"]["sha256"].items()):
            print(f"  sha256 {name} {digest}")
    if args.trace:
        from layers import PER_LAYER
        values = dict(calls[1]["layers"])
        values["trace.overhead_fraction"] = calls[1]["ref_cpu_s"] / calls[0]["ref_cpu_s"] - 1.0
        values["failed_fraction"] = failed / attempted
        units = PER_LAYER
    else:
        untraced = [c for c in calls if not c["traced"]]
        ref_cpu = median(untraced, "ref_cpu_s")
        values = {"ref_cpu_s": ref_cpu, "setup_s": median(setup, "ref_cpu_s"),
                  "peak_rss_mb": median(untraced, "peak_rss_mb"),
                  "items_per_s": workload.items / ref_cpu}
        units = END_TO_END_UNITS
        for name, rows in (("call", untraced), ("setup", setup)):
            print(f"{name} medians over n={len(rows)}: ref_cpu_s={median(rows, 'ref_cpu_s'):.4f} "
                  f"cpu_s={median(rows, 'cpu_s'):.4f} wall_s={median(rows, 'wall_s'):.4f}")
    print(f"failed_fraction {failed}/{attempted} = {failed / attempted:.6f}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    for key, value in meta.items():
        print(f"meta {key}={value}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
