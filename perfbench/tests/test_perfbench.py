#!/usr/bin/env python3
"""Self-tests of the wire-to-engine benchmark.

    python3 perfbench/tests/test_perfbench.py

Run from the root of the source tree; the first test builds the benchmark
through perfbench/run.py.  They check that the oracle catches a flipped
response byte and a dropped frame, that seeds are reproducible, that both
modes print every metric BENCHMARK.json declares, that the traced run
enforces the cycle contract from the first key setup on, and that the
benchmark refuses to run without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(*args, run=RUN, cwd=ROOT, timeout=300):
    r = subprocess.run([sys.executable, run] + list(args), cwd=cwd, capture_output=True,
                       text=True, timeout=timeout)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{") and '"correct"' in lines[-1]:
        result = json.loads(lines[-1])
    return r.returncode, result, r.stdout, r.stderr


def dump(workload, seed):
    rc, _, out, err = bench("--workload", workload, "--seed", str(seed), "--dump-inputs")
    assert rc == 0, err
    return json.loads(out.strip().splitlines()[-1])


class Seeds(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_same_shape(self):
        for w in SPEC["workloads"]:
            a, b, c = dump(w["name"], 11), dump(w["name"], 11), dump(w["name"], 12)
            self.assertEqual(a, b, w["name"])
            self.assertNotEqual(a["bytes_digest"], c["bytes_digest"], w["name"])
            for k in ("shape_digest", "steps", "blocks"):
                self.assertEqual(a[k], c[k], w["name"])


class Oracle(unittest.TestCase):
    # frames-sw is built into the binary though BENCHMARK.json does not list
    # it (README.md, "Workloads"); it reaches the engine fastest.
    def run_fault(self, *fault):
        return bench("--workload", "frames-sw", "--seed", "3", "--seconds", "1", "--trace",
                     "0", *fault)

    def test_clean_run_passes(self):
        rc, res, _, err = self.run_fault()
        self.assertEqual(rc, 0, err)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)

    def test_flipped_response_byte_is_caught(self):
        rc, res, _, err = self.run_fault("--inject-flip", "500")
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("oracle", err)

    def test_dropped_frame_is_caught(self):
        rc, res, _, err = self.run_fault("--inject-drop", "300")
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("timed out", err)


class Metrics(unittest.TestCase):
    def check(self, workload, trace, declared):
        rc, res, out, err = bench("--workload", workload, "--seed", "5", "--seconds", "2",
                                  "--trace", trace)
        self.assertEqual(rc, 0, err)
        self.assertTrue(res["correct"])
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        return res["metrics"], out

    def test_end_to_end_metrics(self):
        metrics, out = self.check("churn-behavioral", "0", SPEC["end_to_end"])
        for name, m in metrics.items():
            self.assertGreater(m["value"], 0, name)
        for name in ("latency_p99_us", "failed_frac"):
            self.assertIn(name, out)

    def test_per_layer_metrics_and_cycle_contract(self):
        metrics, out = self.check("churn-behavioral", "1", SPEC["per_layer"])
        self.assertIn("unattributed", out)
        # AES-128/192/256 blocks take 50/60/70 cycles; a mix lands in between.
        self.assertGreater(metrics["engine.latency_cycles"]["value"], 50)
        self.assertLess(metrics["engine.latency_cycles"]["value"], 70)
        self.assertGreater(metrics["hdl.ns_per_cycle"]["value"], 0)
        self.assertGreater(metrics["farm.ctr_chunks_per_fanout"]["value"], 1)


class CycleContract(unittest.TestCase):
    # frames-netlist loads both of its keys during warm-up and never again,
    # so a key-setup violation is caught only if warm-up counts too.
    def run_traced(self, *fault):
        return bench("--workload", "frames-netlist", "--seed", "5", "--seconds", "2",
                     "--trace", "1", *fault)

    def test_netlist_traced_run_meets_contract(self):
        rc, res, out, err = self.run_traced()
        self.assertEqual(rc, 0, err)
        self.assertTrue(res["correct"])
        self.assertEqual(res["metrics"]["engine.latency_cycles"]["value"], 50)
        self.assertGreater(res["metrics"]["netlist.us_per_pass"]["value"], 0)
        self.assertIn("unattributed", out)

    def test_key_setup_violation_in_warm_up_fails_the_run(self):
        rc, res, _, err = self.run_traced("--inject-skew", "1")
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertIn("cycle-contract", err)


class Isolation(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        tmp = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p))
        try:
            rc, res, _, _ = bench("--workload", "frames-sw", "--seed", "1", "--seconds", "1",
                                  "--trace", "0", run=os.path.join(tmp, "perfbench", "run.py"),
                                  cwd=tmp, timeout=180)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(res)


if __name__ == "__main__":
    unittest.main()
