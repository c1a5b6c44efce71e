"""Self-test of the benchmark machinery at toy sizes.

Run from the repository root:

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import SpeedClock, mixed_probe, python_probe  # noqa: E402
from spans import Patcher, Tracer, self_times  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... so every span boundary is one tick apart."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 4]
        parents = [-1, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 7.0]
        ends = [10.0, 6.0, 4.0, 9.0]
        np.testing.assert_allclose(self_times(parents, starts, ends), [3.0, 3.0, 2.0, 2.0])

    def test_tracer_records_parents_and_counts(self):
        tracer = Tracer(clock=FakeClock())
        seen = []
        inner = tracer.wrap("inner", lambda x: x + 1,
                            count=lambda counts, args, kwargs, result, error:
                            seen.append((args, result)))

        def body():
            return inner(1) + inner(2)

        outer = tracer.wrap("outer", body)
        self.assertEqual(outer(), 5)
        names, name_ids, parents, starts, ends = tracer.arrays()
        self.assertEqual([names[i] for i in name_ids], ["outer", "inner", "inner"])
        self.assertEqual(list(parents), [-1, 0, 0])
        # ticks: outer 0..5, inner 1..2 and 3..4
        np.testing.assert_allclose(self_times(parents, starts, ends), [3.0, 1.0, 1.0])
        self.assertEqual(seen, [((1,), 2), ((2,), 3)])

    def test_error_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        errors = []

        def fail():
            raise KeyError("x")

        traced = tracer.wrap("fail", fail, count=lambda c, a, k, r, e: errors.append(e))
        with self.assertRaises(KeyError):
            traced()
        self.assertEqual(list(tracer.ends), [1.0])
        self.assertIsInstance(errors[0], KeyError)
        self.assertEqual(tracer._stack, [])


class SpeedClockTest(unittest.TestCase):
    def test_probes_split_program_time(self):
        with SpeedClock(mixed_probe, 0.01) as clock:
            total = 0
            for i in range(2_000_000):
                total += i
        self.assertGreater(len(clock.probe_s), 1)
        self.assertGreater(clock.cpu_s, 0.0)
        mean_probe = sum(clock.probe_s) / len(clock.probe_s)
        self.assertLess(abs(clock.ref_cpu_s * mean_probe / 1e-3 / clock.cpu_s - 1.0), 0.5)

    def test_short_step_gets_one_probe(self):
        with SpeedClock(python_probe, 10.0) as clock:
            pass
        self.assertEqual(len(clock.probe_s), 1)

    def test_python_probe_imports_nothing(self):
        code = ("import sys; sys.path.insert(0, %r); import calibrate; "
                "calibrate.python_probe(); print('numpy' in sys.modules)") % str(HERE)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(done.stdout.strip(), "False")


class InstallTest(unittest.TestCase):
    def test_wraps_every_namespace_and_restores(self):
        import hetmix
        import hetmix.cli
        import hetmix.evaluation
        import hetmix.training
        from hetmix.distributions import QuantizedGaussian
        from hetmix.schema import Dataset

        fit = hetmix.training.fit
        drop_subject = Dataset.drop_subject
        log_masses = vars(QuantizedGaussian)["log_masses"].func
        tracer = Tracer()
        with Patcher() as patcher:
            layers.install(tracer, patcher)
            for namespace in (hetmix, hetmix.training, hetmix.evaluation, hetmix.cli):
                self.assertIsNot(namespace.fit, fit)
                self.assertIs(namespace.fit.__wrapped__, fit)
            self.assertIs(hetmix.cli.fit, hetmix.training.fit)
            self.assertIsNot(Dataset.drop_subject, drop_subject)
            self.assertIsNot(vars(QuantizedGaussian)["log_masses"].func, log_masses)
        for namespace in (hetmix, hetmix.training, hetmix.evaluation, hetmix.cli):
            self.assertIs(namespace.fit, fit)
        self.assertIs(Dataset.drop_subject, drop_subject)
        self.assertIs(vars(QuantizedGaussian)["log_masses"].func, log_masses)
        for layer in layers.LAYERS:
            module = sys.modules[f"hetmix.{layer}"]
            for name, fn in layers.public_functions(module).items():
                self.assertFalse(hasattr(fn, "__wrapped_by_tracer__"), f"{layer}.{name}")

    def test_traced_fit_matches_untraced_and_counts(self):
        from hetmix.demo import small_demo_model
        from hetmix.model import sample_cohort
        from hetmix.training import EmConfig, fit

        dataset, _ = sample_cohort(small_demo_model(), 60, np.random.default_rng(5))
        config = EmConfig(max_iterations=5, restarts=1)
        _, plain = fit(dataset, 2, config)
        tracer = Tracer()
        with Patcher() as patcher:
            layers.install(tracer, patcher)
            import hetmix.training
            _, traced = hetmix.training.fit(dataset, 2, config)
        self.assertEqual(plain.nll_per_iteration, traced.nll_per_iteration)
        metrics = layers.layer_metrics(*tracer.arrays(), tracer.counts)
        self.assertEqual(metrics["training.fit.calls"], 1)
        self.assertEqual(metrics["training.em_iterations"], traced.iterations)
        self.assertEqual(metrics["schema.validate_dataset.cells"], 60 * 8)
        family_calls = sum(metrics[f"distributions.weighted_mle.{f}.calls"]
                           for f in layers.FAMILIES)
        self.assertEqual(family_calls, metrics["distributions.weighted_mle.calls"])
        self.assertGreater(metrics["distributions.QuantizedGaussian.log_masses.calls"], 0)
        listed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(listed + metrics["trace.unlisted_self_s"],
                               metrics["trace.wall_s"])


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.dir)

    def assert_reference_gate(self, workload, items, perturb):
        """The outputs pass against their own fingerprint and fail once it is perturbed."""
        reference = gates.fingerprint(workload, self.dir, items)
        self.assertEqual(gates.check(workload, self.dir, items, reference)["problems"], [])
        bad = copy.deepcopy(reference)
        perturb(bad)
        self.assertNotEqual(gates.check(workload, self.dir, items, bad)["problems"], [])

    def test_select(self):
        rows = ["order,n_params,nll,bic,converged,error"]
        for order, nll in zip(range(1, 7), (900.0, 700.0, 500.0, 499.0, 498.0, 497.0)):
            rows.append(f"{order},{order * 10},{nll},{nll + 50 * order},True,")
        (self.dir / "bic_table.csv").write_text("\n".join(rows) + "\n")
        (self.dir / "model.json").write_text(json.dumps({"weights": [0.2, 0.3, 0.5]}))

        def perturb(ref):
            ref["nll"]["4"] *= 1 + 1e-4
        self.assert_reference_gate("select-n10k", 10, perturb)

        # order 4 winning is allowed on another seed, not on the default one
        rows[4] = "4,40,499.0,640.0,True,"
        (self.dir / "bic_table.csv").write_text("\n".join(rows) + "\n")
        (self.dir / "model.json").write_text(json.dumps({"weights": [0.1, 0.2, 0.3, 0.4]}))
        self.assertEqual(gates.check("select-n10k", self.dir, 10, None)["problems"], [])
        reference = gates.fingerprint("select-n10k", self.dir, 10)
        self.assertTrue(gates.check("select-n10k", self.dir, 10, reference)["problems"])
        # the saved model must be the lowest-BIC one, and not below order 3
        (self.dir / "model.json").write_text(json.dumps({"weights": [0.2, 0.3, 0.5]}))
        self.assertTrue(gates.check("select-n10k", self.dir, 10, None)["problems"])
        rows[2] = "2,20,700.0,600.0,True,"
        (self.dir / "bic_table.csv").write_text("\n".join(rows) + "\n")
        (self.dir / "model.json").write_text(json.dumps({"weights": [0.5, 0.5]}))
        self.assertTrue(gates.check("select-n10k", self.dir, 10, None)["problems"])

        rows[2] = "2,20,700.0,,,failed"
        (self.dir / "bic_table.csv").write_text("\n".join(rows) + "\n")
        gate = gates.check("select-n10k", self.dir, 10, None)
        self.assertEqual((gate["attempted"], gate["failed"]), (6, 1))
        self.assertTrue(gate["problems"])

    def test_loo(self):
        rows = ["order,target,n,mean_normalized,two_std,summary"]
        for order, mean in zip((0, 1, 2, 3), (40.0, 20.0, 9.0, 8.0)):
            for target in ("severity", "status"):
                rows.append(f"{order},{target},4,{mean},1.5,x")
        (self.dir / "performance.csv").write_text("\n".join(rows) + "\n")
        (self.dir / "confidence_records.csv").write_text(
            "order,subject,log_score,percentile\n"
            + "".join(f"1,{s},-1.0,0.5\n" for s in (0, 1, 3)))

        def perturb(ref):
            ref["summaries"]["3/severity"][0] += 0.05
        self.assert_reference_gate("loo-n120", 4, perturb)
        self.assertEqual(gates.check("loo-n120", self.dir, 4, None)["failed"], 1)

        rows[7] = "3,severity,4,30.0,1.5,x"
        (self.dir / "performance.csv").write_text("\n".join(rows) + "\n")
        self.assertTrue(gates.check("loo-n120", self.dir, 4, None)["problems"])

    def test_infer(self):
        def record(i, post):
            return {"record": i, "posterior": post, "targets": {
                "severity": {"kind": "ordinal", "domain": [1, 2], "probabilities": post[:2],
                             "point": 1},
                "level": {"kind": "real", "weights": post[:2], "components": [],
                          "point": 0.5 + i}}}
        lines = [record(i, [0.25, 0.75]) for i in range(3)]
        (self.dir / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))

        def perturb(ref):
            ref["sample"]["0"]["posterior"][0] += 1e-6
        self.assert_reference_gate("infer-n5k", 3, perturb)

        lines[1] = record(1, [0.3, 0.75])
        lines[2] = {"record": 2, "error": "zero likelihood"}
        (self.dir / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))
        gate = gates.check("infer-n5k", self.dir, 3, None)
        self.assertEqual(gate["failed"], 1)
        self.assertTrue(gate["problems"])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.PER_LAYER)


class NoSourceTreeTest(unittest.TestCase):
    def test_refuses_to_run_without_src(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                   "loo-n120", "--seed", "0", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
