"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s bench -p "test_*.py"

They check that the generator is deterministic, that every checker rejects
a mutated output, that the tracer sees every leaf of a permutation search,
and that each workload passes a short smoke run.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import diagtorus  # noqa: E402
import harness  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

LIB = workloads.Lib()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def describe(ops):
    return [(op.kind, op.size, harness.digest(op.args[1:])) for op in ops]


def mutate(x):
    """A slightly wrong copy of an output: one leaf changed."""
    if x is None:
        return 0
    if isinstance(x, bool):
        return not x
    if isinstance(x, int):
        return x + 1
    if isinstance(x, str):
        return x + "x"
    if isinstance(x, (tuple, list)):
        items = [mutate(x[0]), *x[1:]] if x else [0]
        return type(x)(items)
    if isinstance(x, dict):
        key = "entries" if "entries" in x else sorted(x)[0]
        return {**x, key: mutate(x[key])}
    if dataclasses.is_dataclass(x):
        fields = [f.name for f in dataclasses.fields(x)]
        name = "entries" if "entries" in fields else fields[0]
        out = copy.copy(x)
        object.__setattr__(out, name, mutate(getattr(x, name)))
        return out
    raise TypeError(type(x).__name__)


def mutations(op, out):
    if op.fn is not workloads.run_cli:
        return [mutate(out)]
    code, text = out
    payload = json.loads(text)
    key = "result" if "result" in payload else "error"
    payload[key] = mutate(payload[key])
    return [(code + 1, text), (code, json.dumps(payload) + "\n")]


def cheapest_per_kind(ops):
    best = {}
    for op in ops:
        if op.known_defect is None:
            cost = (op.bits, len(op.size), op.size)
            if op.kind not in best or cost < best[op.kind][0]:
                best[op.kind] = (cost, op)
    return [op for _, op in best.values()]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = describe(workloads.build(LIB, name, 7))
                self.assertEqual(first, describe(workloads.build(LIB, name, 7)))
                self.assertNotEqual(first, describe(workloads.build(LIB, name, 8)))


class CheckerTest(unittest.TestCase):
    def test_checkers_accept_outputs_and_reject_mutations(self):
        for name in workloads.WORKLOADS:
            for op in cheapest_per_kind(workloads.build(LIB, name, 3)):
                with self.subTest(workload=name, kind=op.kind, size=op.size):
                    out = op()
                    self.assertIsNone(op.check(out))
                    for bad in mutations(op, out):
                        self.assertIsNotNone(harness.problem_of(op, bad))

    def test_known_defects_fail_their_check(self):
        ops = workloads.build(LIB, "cli-mix", 3)
        strict = [op for op in ops if op.known_defect == "strict-json"]
        self.assertEqual(len(strict), 3)
        for op in strict:
            self.assertIsNotNone(harness.problem_of(op, op()))

    def test_smith_check_needs_unimodular_witnesses(self):
        rng = random.Random(1)
        for m, n in ((10, 10), (9, 11), (11, 9)):
            a = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(m)]
            dec = diagtorus.smith_normal_form(diagtorus.IntMatrix.from_rows(a))
            self.assertIsNone(ref.smith_problem(a, dec.U.entries, dec.S.entries,
                                                dec.V.entries, dec.factors))
        # doubling a column of V beyond the rank keeps S = U A V but not det V
        a = [[rng.randint(-100, 100) for _ in range(11)] for _ in range(9)]
        dec = diagtorus.smith_normal_form(diagtorus.IntMatrix.from_rows(a))
        v = [list(r) for r in dec.V.entries]
        for row in v:
            row[-1] *= 2
        self.assertEqual(ref.smith_problem(a, dec.U.entries, dec.S.entries, v, dec.factors),
                         "witness not unimodular")


class TracerTest(unittest.TestCase):
    def test_every_leaf_of_the_search_is_a_span(self):
        n = 6
        g1 = diagtorus.DiagSubgroup.from_matrix(
            diagtorus.IntMatrix.from_rows([[1] * n, list(range(n))]))
        g2 = diagtorus.DiagSubgroup.from_matrix(
            diagtorus.IntMatrix.from_rows([[1] * n, list(range(n - 1)) + [n]]))
        tracer = Tracer()
        tracer.install()
        try:
            tracer.current_op = 0
            self.assertIsNone(LIB.diag.conjugate_in_gl(g1, g2))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(["conjugate_in_gl"], 10**9, 0, 1)
        self.assertEqual(metrics["lattice.permuted_equal_leaves"][0], 720)
        self.assertEqual(metrics["diag.calls"][0], 1)
        self.assertEqual(tracer.problems(), [])
        self.assertIs(LIB.lattice.equal, diagtorus.lattice.equal)
        self.assertFalse(hasattr(LIB.lattice.equal, "__wrapped__"))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=180, cwd=cwd)


class SmokeTest(unittest.TestCase):
    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], proc.stdout)
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def test_each_workload_end_to_end(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.result(run_bench(ROOT, "--workload", w["name"], "--seed", "5",
                                            "--seconds", "0.2", "--trace", "0"))
                self.assertEqual({k: m["unit"] for k, m in out["metrics"].items()}, names)
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        out = self.result(run_bench(ROOT, "--workload", "cli-mix", "--seed", "5",
                                    "--seconds", "0.2", "--trace", "1"))
        self.assertEqual({k: m["unit"] for k, m in out["metrics"].items()}, names)

    def test_fails_without_the_package(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench(bare, "--workload", "cli-mix", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
