"""Record the default-seed reference fingerprints the gates compare against.

Run from the repository root, only when an output change is intended:

    python3 perfbench/record_reference.py

It runs every cohort a benchmark run can reach (``MAX_CALLS`` per workload)
on the default seed and rewrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import MAX_CALLS, SRC, WORK, child_env, run_call


def main() -> int:
    sys.path.insert(0, str(SRC))
    from gates import REFERENCE, check, fingerprint
    from workloads import DEFAULT_SEED, WORKLOADS

    env = child_env()
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for cohort in range(MAX_CALLS):
            inputs = workload.make_inputs(DEFAULT_SEED, cohort, WORK / "inputs")
            out_dir = WORK / "reference" / f"{name}-cohort{cohort}"
            run_call(workload, inputs, out_dir, False, env)
            gate = check(name, out_dir, workload.items, None)
            if gate["problems"]:
                print(f"{name} cohort {cohort}: {gate['problems']}", file=sys.stderr)
                return 1
            reference[name][str(cohort)] = fingerprint(name, out_dir, workload.items)
            print(f"{name} cohort {cohort}: recorded")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK / "reference", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
