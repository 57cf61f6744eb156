"""Self-test of the benchmark: tiny workloads pass and corrupt output fails.

    python3 bench/selftest.py

Kept out of the package's test suite, whose run it would slow down.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

TINY = 4096
# Stands in for `python -m twofaced.cli` and flips one bit of every stream.
FLIP_CLI = (sys.executable, str(Path(__file__).resolve()), "flip")


def flip_main(argv: list[str]) -> int:
    """Run one CLI command and flip the first bit of the stream it emits."""
    from twofaced import cli
    out = io.BytesIO()
    code = cli.run(argv, stdin=sys.stdin.buffer, stdout=out)
    data = bytearray(out.getvalue())
    if argv[0] in ("gen", "combine", "expand") and data:
        data[0] ^= 1  # packed: the first bit; ascii01: '0' <-> '1'
    sys.stdout.buffer.write(data)
    return code


class BenchmarkSelfTest(unittest.TestCase):

    def setUp(self):
        workloads.WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=workloads.WORK_ROOT))
        self.addCleanup(shutil.rmtree, self.workdir)
        self.env = run.child_env()

    def plans(self):
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            for name in workloads.LENGTHS:
                yield workloads.make_plan(name, seed, self.workdir, TINY)

    def test_tiny_workloads_pass(self):
        for plan in self.plans():
            with self.subTest(workload=plan.workload, seed=plan.seed):
                sample = run.run_iteration(plan, self.env, self.workdir)
                self.assertEqual(sample.errors, [])
                self.assertGreater(sample.wall_s, 0.0)
                self.assertGreater(sample.max_rss_mb, 0.0)

    def test_flipped_bit_counts_as_failure(self):
        for plan in self.plans():
            with self.subTest(workload=plan.workload, seed=plan.seed):
                samples, starts = run.measure(plan, 0.0, self.env, self.workdir,
                                              cli=FLIP_CLI)
                self.assertEqual(len(samples), run.MIN_SAMPLES)
                self.assertTrue(all(any("stream sha256" in e for e in s.errors)
                                    for s in samples))
                self.assertTrue(all(s.speed > 0.0 for s in samples + starts))

    def test_traced_run_checks_and_reports_every_layer_metric(self):
        args = argparse.Namespace(seconds=0.0)
        for name in workloads.LENGTHS:
            plan = workloads.make_plan(name, workloads.DEFAULT_SEED, self.workdir, TINY)
            with self.subTest(workload=name):
                with contextlib.redirect_stdout(io.StringIO()):
                    metrics, attempted, failed, errors = run.traced(
                        plan, args, self.env, self.workdir, {})
                self.assertEqual((failed, errors), (0, []))
                self.assertEqual(attempted, 5)  # two pairs plus the memory pass
                self.assertGreater(metrics["cli.calls"]["value"], 0)
                self.assertGreater(metrics["cli.import_s"]["value"], 0.0)

    def test_report_fields(self):
        plan = workloads.make_plan("gen-analyze", workloads.DEFAULT_SEED, self.workdir, TINY)
        sample = run.run_iteration(plan, self.env, self.workdir)
        line = sample.output.decode().splitlines()[0]
        fields = dict(f.split("=", 1) for f in line.split()[:-1])
        p = float(fields["p_value"])

        def with_field(key, value):
            return sample.output.replace(f"{key}={fields[key]}".encode(),
                                         f"{key}={value}".encode(), 1)

        self.assertEqual(workloads.check_report(with_field("p_value", f"{p * (1 + 1e-6):.9g}"),
                                                plan.report), [])
        self.assertNotEqual(workloads.check_report(with_field("p_value", f"{p * 1.01:.9g}"),
                                                   plan.report), [])
        self.assertNotEqual(workloads.check_report(with_field("windows", "1"), plan.report), [])
        self.assertNotEqual(workloads.check_report(with_field("chi_square", "1e+99"),
                                                   plan.report), [])
        verdict = line.split()[-1]
        other = "REJECT" if verdict == "ok" else "ok"
        flipped = sample.output.replace(f" {verdict}\n".encode(), f" {other}\n".encode(), 1)
        self.assertNotEqual(workloads.check_report(flipped, plan.report), [])
        truncated = b"\n".join(sample.output.splitlines()[:-1])
        self.assertNotEqual(workloads.check_report(truncated, plan.report), [])


if __name__ == "__main__":
    if sys.argv[1:2] == ["flip"]:
        sys.exit(flip_main(sys.argv[2:]))
    sys.path.insert(0, str(workloads.ROOT / "src"))
    unittest.main()
