"""One measured step in a fresh process.

    python3 perfbench/child.py setup RESULT_JSON
    python3 perfbench/child.py call RESULT_JSON TRACE(0|1) -- <hetmix argv>

``setup`` times ``import hetmix.cli``. ``call`` runs ``hetmix.cli.main``
exactly once; with TRACE=1 it first wraps every layer, writes the spans next
to RESULT_JSON (``.spans.npz``) and adds the per-layer metrics under
"layers". Both write their timings to RESULT_JSON: ``cpu_s`` and
``ref_cpu_s`` from ``calibrate.SpeedClock``, plus ``wall_s``. The CLI's own
stdout goes to this process's stdout, which the caller discards.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# sibling modules are imported by name, also when the interpreter leaves the
# script's directory off the path (PYTHONSAFEPATH, python -P)
sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import SpeedClock, mixed_probe, python_probe  # noqa: E402

SETUP_INTERVAL_S = 0.01
CALL_INTERVAL_S = 0.05


def timed(probe, interval_s: float, fn):
    start = time.perf_counter()
    with SpeedClock(probe, interval_s) as clock:
        value = fn()
    return value, {"wall_s": time.perf_counter() - start, "cpu_s": clock.cpu_s,
                   "ref_cpu_s": clock.ref_cpu_s, "probes": len(clock.probe_s)}


def setup() -> dict:
    def load():
        import hetmix.cli
        return hetmix.cli.__file__
    module, timing = timed(python_probe, SETUP_INTERVAL_S, load)
    return dict(timing, module=module)


def call(trace: str, cli_argv: list, result_path: Path) -> dict:
    import hetmix.cli

    tracer = patcher = None
    if trace == "1":
        from layers import install
        from spans import Patcher, Tracer
        tracer, patcher = Tracer(), Patcher()
        install(tracer, patcher)
    try:
        exit_code, timing = timed(mixed_probe, CALL_INTERVAL_S,
                                  lambda: hetmix.cli.main(cli_argv))
    finally:
        if patcher is not None:
            patcher.restore()
    result = dict(timing, exit_code=exit_code, module=hetmix.cli.__file__,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        from layers import layer_metrics
        tracer.save(result_path.with_suffix(".spans.npz"))
        result["layers"] = layer_metrics(*tracer.arrays(), tracer.counts)
    return result


def main(argv) -> int:
    mode, result_path, *rest = argv
    if mode == "setup" and not rest:
        result = setup()
    elif mode == "call" and len(rest) >= 2 and rest[0] in ("0", "1") and rest[1] == "--":
        result = call(rest[0], rest[2:], Path(result_path))
    else:
        raise SystemExit(__doc__)
    Path(result_path).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
