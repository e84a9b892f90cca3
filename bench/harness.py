"""Runs one workload in this process and prints its result as one JSON line.

``run.py`` starts this file as a child process, so that the peak resident
memory it reports is that of the process that ran the workload.

The loop is closed: one client, single-threaded, sending the next operation
when the previous one returns.  A first pass over the operation list warms
up and checks every output.  Timed passes then repeat the whole list until
the summed operation wall time reaches ``--seconds``; each of their outputs
must equal the checked one.  Fresh interpreters measuring set-up time run
between operations, outside the timed intervals.

Every operation is timed twice: wall time, and CPU time of this process.
The reported times are CPU times.  The workloads are CPU-bound, with no I/O
and one thread, so the two differ only by the time the machine gave the CPU
to something else; on a shared virtual machine that gap changed wall-time
throughput by 15% between identical runs, while CPU time held within a few
percent.  The wall-time figures go into the record.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PROBES = 24
WALL_LIMIT_S = 140.0

# CPU time from a fresh interpreter's first statement to build_parser()
# returning.
PROBE = """\
import time
t0 = time.process_time()
import sys
sys.path.insert(0, sys.argv[1])
import diagtorus, diagtorus.cli
diagtorus.cli.build_parser()
print(repr(time.process_time() - t0))
"""


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    import diagtorus
    import diagtorus.cli  # noqa: F401
    if Path(diagtorus.__file__).resolve().parent != SRC / "diagtorus":
        raise SystemExit(f"diagtorus was imported from {diagtorus.__file__}, not {SRC}")


def setup_probe() -> float:
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def _feed(h, x) -> None:
    if x is None:
        h.update(b"N")
    elif isinstance(x, bool):
        h.update(b"T" if x else b"F")
    elif isinstance(x, int):
        h.update(b"i" + x.to_bytes((x.bit_length() + 8) // 8, "little", signed=True))
    elif isinstance(x, str):
        data = x.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(x, (tuple, list)):
        h.update(b"(")
        for y in x:
            _feed(h, y)
        h.update(b")")
    elif isinstance(x, (set, frozenset)):
        h.update(b"{" + b"".join(sorted(digest(y) for y in x)) + b"}")
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        _feed(h, [getattr(x, f.name) for f in dataclasses.fields(x)])
    elif isinstance(x, BaseException):
        h.update(b"E" + type(x).__name__.encode())
        _feed(h, str(x))
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")


def digest(x) -> bytes:
    """Fingerprint of an operation's output, for comparing repeated runs."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, x)
    return h.digest()


def execute(op):
    """(output, wall ns, CPU ns); an exception escaping the call is the output."""
    c0 = process_time_ns()
    t0 = perf_counter_ns()
    try:
        out = op()
    except Exception as exc:  # whatever escapes the library is a failed operation
        out = exc
    t1 = perf_counter_ns()
    return out, t1 - t0, process_time_ns() - c0


def problem_of(op, out) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {str(out)[:160]}"
    try:
        return op.check(out)
    except Exception as exc:  # a checker tripping over malformed output
        return f"check raised {type(exc).__name__}: {exc}"


def check_pass(ops):
    """Run and check every operation once; (digest, problem) per operation."""
    refs = []
    for op in ops:
        out, _, _ = execute(op)
        refs.append((digest(out), problem_of(op, out)))
    return refs


class Outcomes:
    def __init__(self, ops, refs):
        self.ops, self.refs = ops, refs
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[int, str] = {}

    def record(self, i, out) -> None:
        self.attempted += 1
        ref_digest, problem = self.refs[i]
        if digest(out) != ref_digest:
            problem = "output differs from the checked run"
            self.unexpected.setdefault(i, problem)
        if problem is not None:
            self.failed += 1
            if self.ops[i].known_defect is None:
                self.unexpected.setdefault(i, problem)

    def problems(self):
        return [f"{self.ops[i].kind} [{self.ops[i].size}] #{i}: {p}"
                for i, p in sorted(self.unexpected.items())]


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]


def timed_run(ops, refs, seconds, started):
    outcomes = Outcomes(ops, refs)
    cpu, wall = array("q"), array("q")
    setup_probe()  # discarded: the first one also writes the bytecode cache
    probes = []
    probe_every = seconds * 1e9 / SETUP_PROBES
    measured = 0
    next_probe = 0.0
    truncated = False
    while measured < seconds * 1e9 and not truncated:
        for i, op in enumerate(ops):
            out, dt, dc = execute(op)
            wall.append(dt)
            cpu.append(dc)
            measured += dt
            outcomes.record(i, out)
            if measured >= next_probe and len(probes) < SETUP_PROBES:
                probes.append(setup_probe())
                next_probe += probe_every
            if perf_counter() - started > WALL_LIMIT_S:
                truncated = True
                break
    # read before the statistics below allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe())

    def stats(times):
        times = sorted(times)
        return (len(times) / (sum(times) / 1e9), percentile(times, 50) / 1e6,
                percentile(times, 90) / 1e6)

    ops_per_s, p50, p90 = stats(cpu)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ok_share": ((outcomes.attempted - outcomes.failed) / outcomes.attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_ops_per_s, wall_p50, wall_p90 = stats(wall)
    extra = {"samples": len(cpu), "passes": len(cpu) / len(ops),
             "measured_wall_s": measured / 1e9, "measured_cpu_s": sum(cpu) / 1e9,
             "wall_ops_per_s": wall_ops_per_s, "wall_latency_p50_ms": wall_p50,
             "wall_latency_p90_ms": wall_p90, "setup_probes": len(probes),
             "truncated": truncated,
             "failed_share": outcomes.failed / outcomes.attempted}
    return outcomes, metrics, extra


def traced_run(ops, refs, seconds, started, out_dir, workload, seed):
    """Untraced and traced passes over the same operations, alternating,
    until the untraced ones have taken half of ``seconds``.  Per-layer
    metrics are per traced pass.  Spans and the shares derived from them use
    wall time; the tracing overhead compares CPU times."""
    tracer = Tracer()
    outcomes = Outcomes(ops, refs)
    untraced = untraced_cpu = traced = traced_cpu = output_bytes = passes = 0
    while passes == 0 or (untraced < seconds * 1e9 / 2
                          and perf_counter() - started < WALL_LIMIT_S / 3):
        for i, op in enumerate(ops):
            out, dt, dc = execute(op)
            untraced += dt
            untraced_cpu += dc
            outcomes.record(i, out)
        tracer.install()
        try:
            for i, op in enumerate(ops):
                tracer.current_op = i
                out, dt, dc = execute(op)
                traced += dt
                traced_cpu += dc
                outcomes.record(i, out)
                if op.fn is workloads.run_cli and isinstance(out, tuple):
                    output_bytes += len(out[1].encode())
        finally:
            tracer.uninstall()
        passes += 1
    metrics = tracer.metrics([op.kind for op in ops], traced, output_bytes, passes)
    metrics["trace.overhead_share"] = (1 - untraced_cpu / traced_cpu, "share")
    problems = tracer.problems()
    # layer self times plus the benchmark's own time make up the traced time
    accounted = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".self_share") or k == "trace.bench_own_share")
    if abs(accounted - 1) > 1e-6:
        problems.append(f"self times account for {accounted:.6f} of the traced time")
    tracer.write(out_dir / f"spans-{workload}-{seed}.tsv")
    extra = {"traced_passes": passes, "spans": len(tracer.start),
             "untraced_s": untraced / 1e9, "traced_s": traced / 1e9,
             "trace_problems": problems}
    return outcomes, metrics, extra


def input_summary(ops) -> dict:
    pairs = [op.pair for op in ops if op.pair is not None]
    return {
        "operations": len(ops),
        "kinds": dict(sorted(Counter(op.kind for op in ops).items())),
        "sizes": dict(sorted(Counter(op.size for op in ops).items())),
        "paired_inputs": len(pairs),
        "equal_or_matching_share": sum(pairs) / len(pairs) if pairs else None,
        "max_entry_bits": max(op.bits for op in ops),
        "known_defects": dict(Counter(op.known_defect for op in ops if op.known_defect)),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "default_max_str_digits": sys.int_info.default_max_str_digits,
        "max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)
    started = perf_counter()
    import_package()
    t0 = perf_counter()
    ops = workloads.build(workloads.Lib(), args.workload, args.seed)
    build_s = perf_counter() - t0
    t0 = perf_counter()
    refs = check_pass(ops)
    check_s = perf_counter() - t0
    if args.trace:
        outcomes, metrics, extra = traced_run(ops, refs, args.seconds, started,
                                               args.out_dir, args.workload, args.seed)
    else:
        outcomes, metrics, extra = timed_run(ops, refs, args.seconds, started)
    problems = outcomes.problems() + extra.get("trace_problems", [])
    result = {
        "correct": not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs": input_summary(ops), "environment": environment(),
            "build_s": build_s, "check_pass_s": check_s,
            "wall_s": perf_counter() - started, "problems": problems[:20], **extra,
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
