"""Seeded benchmark for diagtorus.

    python3 bench/run.py --workload small-queries --seed 1 --seconds 12 --trace 0

Runs one workload (small-queries, smith-witness, symmetry-search, cli-mix)
in a child process and prints every metric by name with its unit, a record
of the inputs and the environment, and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a separate traced pass.  Records and spans go to .bench_out/ at the
root of the checkout.  Standard library only; the package is imported from
src/ of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-queries", "smith-witness", "symmetry-search", "cli-mix")
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "diagtorus" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no diagtorus package under {ROOT / 'src'}\n")
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, "-I", str(HERE / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"bench: workload did not finish within {CHILD_TIMEOUT_S} s\n")
        return 3
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        sys.stderr.write(f"bench: workload process exited with {proc.returncode}\n")
        return proc.returncode or 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = result.pop("record")
    name = f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    width = max(len(k) for k in result["metrics"])
    for key, m in result["metrics"].items():
        print(f"{args.workload}  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    if "samples" in record:
        print(f"{args.workload}  samples {record['samples']} in {record['passes']:.0f} passes, "
              f"failed_share {record['failed_share']:.6f}, "
              f"{record['setup_probes']} set-up probes")
    for problem in record["problems"]:
        print(f"{args.workload}  unexpected failure: {problem}")
    print("record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
