"""Quick self-test of the benchmark harness at its smallest sizes.

    python3 benchmarks/selftest.py

It checks that every workload passes its own checks at small sizes, that
every check rejects a corrupted output, that traced self times add up to
the operation time, and that ``run.py`` prints a well-formed result or,
outside a checkout, fails without one.  Takes well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("FOCKFORGE_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = os.environ["FOCKFORGE_THREADS"]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _small(name):
    return workloads.WORKLOADS[name](SEED, small=True)


class WorkloadChecks(unittest.TestCase):
    def test_small_workloads_pass_their_checks(self):
        for name in workloads.WORKLOADS:
            job = _small(name)
            for _ in range(2):  # the second pass exercises the byte-identity check
                self.assertEqual(job.check(job.op()), [], name)

    def test_confined_check_rejects_a_rising_deviation(self):
        job = _small("confined-spectra")
        rep = job.op()
        rep["semi"] = rep["semi"][::-1]
        self.assertTrue(job.check(rep))

    def test_operator_check_rejects_a_perturbed_gamma(self):
        job = _small("operator-build")
        built, values = job.op()
        built[1]["gamma"] = built[1]["gamma"] * (1 + 1e-6)
        self.assertTrue(any("gamma" in p for p in job.check((built, values))))

    def test_operator_check_rejects_a_wrong_two_point_value(self):
        job = _small("operator-build")
        built, values = job.op()
        values[0] = (values[0][0] + 1e-6, values[0][1])
        self.assertTrue(any("two-point" in p for p in job.check((built, values))))

    def test_operator_check_rejects_a_wrong_squeezer(self):
        job = _small("operator-build")
        built, values = job.op()
        built[0]["squeezer"] = np.eye(built[0]["space"].dim)
        self.assertTrue(any("squeezer" in p for p in job.check((built, values))))

    def test_small_checks_reject_a_failed_criterion_and_changed_bytes(self):
        job = _small("small-checks")
        self.assertEqual(job.check(job.op()), [])
        reports = job.op()
        name = job.criteria[0]
        reports[name] = dict(reports[name], residual=1.0, **{"pass": False})
        problems = job.check(reports)
        self.assertTrue(any(name in p and "failed" in p for p in problems))
        self.assertTrue(any("differ" in p for p in problems))

    def test_small_checks_reject_an_accepted_witness(self):
        job = _small("small-checks")
        reports = job.op()
        text = reports["kms_mismatch"][1].replace('"pass": false', '"pass": true')
        reports["kms_mismatch"] = (0, text)
        self.assertTrue(any("kms_mismatch" in p for p in job.check(reports)))


class Tracing(unittest.TestCase):
    def test_self_times_add_up_to_the_operation_time(self):
        tracer = spans.Tracer()
        tracer.install()
        for name, layers in (("operator-build", ("fock.gamma", "ops.squeezer", "thermal.fields")),
                             ("small-checks", ("criteria", "cli.report", "fock.FockSpace"))):
            job = _small(name)
            tracer.begin()
            t0 = time.perf_counter()
            job.op()
            wall = time.perf_counter() - t0
            summary = spans.summarize(tracer.end(), wall)
            parts = sum(v for k, v in summary.items() if k.endswith(".self_s"))
            self.assertAlmostEqual(parts, wall, delta=1e-9)
            self.assertGreaterEqual(summary["other.self_s"], 0.0)
            for layer in layers:
                self.assertGreater(summary[f"{layer}.self_s"], 0.0, (name, layer))
        self.assertGreater(summary["kernel.expm.calls"], 0)
        self.assertGreater(summary["fock.max_dim"], 0)


class Runner(unittest.TestCase):
    def _run(self, cwd, *args):
        return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_result_line(self):
        for trace, names in (("0", {"setup_s", "check_s", "peak_rss_mb"}),
                             ("1", {"trace.check_s", "other.self_s", "kernel.eigh.n3"})):
            proc = self._run(ROOT, "--workload", "small-checks", "--seed", "3", "--seconds",
                             "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertTrue(names <= set(result["metrics"]), proc.stdout)

    def test_fails_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "benchmarks").mkdir(parents=True)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "benchmarks")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = self._run(bare, "--workload", "small-checks", "--seed", "1", "--seconds",
                             "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
