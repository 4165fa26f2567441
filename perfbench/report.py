"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py [--seed S] [--seconds T] [--trace 0|1]

Run from the repository root.  Besides the gated metrics of BENCHMARK.json
this prints the operations attempted and failed, the raw median CPU and
wall time of a serial pass, verify's ``--jobs 2`` CLI run, and for the scan
workloads the CPU time per query kind (min distance, covering, packing, cosets,
perfectness, ball size, construction) from the run record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        *_, record_line, result_line = proc.stdout.splitlines()
        record, result = json.loads(record_line), json.loads(result_line)
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows += [("ops", result["attempted"], "count"), ("ops_failed", result["failed"], "count")]
        for name in ("cpu_s", "wall_s"):  # raw medians of a serial pass
            if "timings" in record:
                rows.append((name, record["timings"][name]["median"], "s"))
        for name, value in record.get("cli_jobs2", {}).items():
            rows.append((f"cli_jobs2.{name}", value, "s"))
        rows += [(name, value, "s") for name, value in record.get("query_cpu_s", {}).items()]
        for name, value, unit in rows:
            print(f"{workload:<14} {name:<40} {value:>16.6g} {unit}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
