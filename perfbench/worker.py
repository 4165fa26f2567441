"""One fresh benchmark process: set up, report ready, run on "go", report.

Started by run.py with ``src`` on PYTHONPATH.  Protocol on stdin/stdout,
one JSON line each way:

    worker -> {"ready": true, "setup_cpu_s": ..., "import_s": ..., "build_s": ...}
    run.py -> "go" (anything else ends the worker)
    worker -> {"cpu_s": ..., "wall_s": ..., ...}

Times are this process's CPU seconds (``time.process_time``: user plus
system, from the start of the process) and wall seconds.  ``setup_cpu_s``
covers interpreter start, imports and building the inputs.  With
``--calibrate`` the timed roles (run, verify) interleave slices of a fixed
calibration loop with their work, and a probe runs slices right after its
set-up; each reports every slice's CPU seconds as ``cal_s``.  run.py divides
by them to tell the program's cost from the host's speed, which drifts on a
shared host.  ``cpu_s`` and ``wall_s`` leave the slices out.

Roles:
    run      time the scan queries
    oracle   compute the gate's expected answers (untimed)
    verify   run ``wpbcodes verify`` serially, in-process through ``cli.main``
    pool     run every verify suite at once on two worker processes
             (the pool's busy time, for the traced run)
    probe    set up only (set-up time samples, each followed by calibration
             slices with --calibrate)
"""

from __future__ import annotations

import argparse
import json
import sys
import time


# The calibration runs a slice of fixed work after every CAL_PERIOD_S CPU
# seconds of program work, so that its samples see the host at the same
# moments as the program.
CAL_PERIOD_S = 0.5
# A set-up probe runs this many slices right after its set-up.
SETUP_SLICES = 3


_BUFFERS: dict[str, object] = {}


def _buffers():
    """The calibration's arrays, made once per process and kept: a few
    megabytes, more than the L2 cache as a scan's arrays are, and never
    freed, so that the calibration adds a constant to peak RSS and leaves
    the allocator's behaviour towards the program alone."""
    import numpy as np

    if not _BUFFERS:
        keys = np.arange(1 << 17, dtype=np.int64)  # in place: no large temporaries
        np.multiply(keys, 2654435761, out=keys)
        np.remainder(keys, 1000003, out=keys)
        _BUFFERS.update(keys=keys, index=keys % keys.size, ordered=np.empty_like(keys),
                        picked=np.empty_like(keys), mask=np.empty(keys.size, dtype=bool),
                        small=np.arange(64, dtype=np.int64))
    return _BUFFERS


def calibrate() -> list[float]:
    """CPU seconds of one slice of fixed work that runs no wpbcodes code, in
    three parts like the program's own mix: interpreted dict and tuple
    work, many small numpy calls (as on thousands of tiny spaces), and
    sorts, gathers and reductions on arrays larger than the L2 cache (as in
    full-space scans)."""
    import numpy as np

    buf = _buffers()
    parts = [time.process_time()]
    table: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = (i % 31, i % 29)
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
    parts.append(time.process_time())
    for i in range(4_000):
        int(np.maximum(buf["small"], i % 64).sum())
    parts.append(time.process_time())
    for _ in range(8):
        np.copyto(buf["ordered"], buf["keys"])
        buf["ordered"].sort()
        np.take(buf["ordered"], buf["index"], out=buf["picked"])
        np.greater(buf["picked"], 500_000, out=buf["mask"])
        int(np.count_nonzero(buf["mask"]))
    parts.append(time.process_time())
    return [b - a for a, b in zip(parts, parts[1:])]


class Calibration:
    """Slices of the calibration run between calls of the timed work."""

    def __init__(self):
        self.slices: list[list[float]] = []
        self.due = 0.0

    def tick(self) -> None:
        if time.process_time() >= self.due:
            self.slices.append(calibrate())
            self.due = time.process_time() + CAL_PERIOD_S

    def spent(self) -> float:
        return sum(map(sum, self.slices))


def _run_queries(queries, cal: Calibration) -> dict:
    answers, errors, cpu = {}, {}, {}
    w0, c0 = time.perf_counter(), time.process_time()
    for q in queries:
        cal.tick()
        c = time.process_time()
        try:
            answers[q.id] = q.run()
        except Exception as e:  # a failed query is counted, not fatal
            errors[q.id] = f"{type(e).__name__}: {e}"
        cpu[q.id] = time.process_time() - c
    return {
        "answers": answers, "errors": errors, "query_cpu_s": cpu,
        "kinds": {q.id: q.kind for q in queries},
        "vectors": sum(q.vectors for q in queries),
        "pairs": sum(q.pairs for q in queries),
    }


def _calibrated_units(cal: Calibration) -> None:
    """Run a calibration slice, when due, before each verify unit."""
    from wpbcodes import checks

    for suite in checks.REGISTRY.values():
        def unit(*args, fn=suite.unit_fn):
            cal.tick()
            return fn(*args)
        object.__setattr__(suite, "unit_fn", unit)


def _slowest_units(tracer, count: int = 5) -> list[dict]:
    units = []
    for suite, runs in tracer.suite_reports.items():
        for reports in runs:
            if reports:
                units.append({
                    "suite": suite, "seed": reports[0].seed, "digest": reports[0].digest,
                    "elapsed_s": sum(r.elapsed for r in reports),
                })
    units.sort(key=lambda u: -u["elapsed_s"])
    return units[:count]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", required=True,
                    choices=["run", "oracle", "verify", "pool", "probe"])
    ap.add_argument("--trace", default=None, help="write spans to this .npz path")
    ap.add_argument("--out", default=None, help="verify JSONL output path")
    ap.add_argument("--calibrate", action="store_true",
                    help="interleave calibration slices with the timed work")
    args = ap.parse_args()

    t = time.perf_counter()
    import wpbcodes.cli as cli
    import_s = time.perf_counter() - t

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    t = time.perf_counter()
    queries = oracle = None
    if args.workload != "verify":
        from workloads import WORKLOADS
        make_queries, oracle = WORKLOADS[args.workload]
        if args.role in ("run", "probe"):
            queries = make_queries(args.seed)
    build_s = time.perf_counter() - t

    print(json.dumps({"ready": True, "setup_cpu_s": time.process_time(),
                      "import_s": import_s, "build_s": build_s}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    cal = Calibration()
    if not args.calibrate:
        cal.due = float("inf")
    elif args.role == "verify":
        _calibrated_units(cal)
    w0, c0 = time.perf_counter(), time.process_time()
    if args.role == "run":
        result = _run_queries(queries, cal)
    elif args.role == "oracle":
        expected, checks = oracle(args.seed)
        result = {"expected": expected, "checks": checks}
    elif args.role == "verify":
        code = cli.main(["verify", "--seed", str(args.seed), "--out", args.out])
        result = {"exit": code}
    elif args.role == "probe":  # set-up only; with --calibrate, slices right after it
        result = {}
        if args.calibrate:
            cal.slices = [calibrate() for _ in range(SETUP_SLICES)]
            cal.due = float("inf")
    else:  # pool
        from wpbcodes import checks
        reports = checks.verify_suite(list(checks.REGISTRY), seed=args.seed, jobs=2)
        with open(args.out, "w") as fh:
            fh.write(checks.to_jsonl(reports))
        result = {"busy_s": sum(r.elapsed for r in reports)}
    cal.tick()
    # the pass's own CPU and wall seconds, less the calibration slices' CPU
    result["cpu_s"] = time.process_time() - c0 - cal.spent()
    result["wall_s"] = time.perf_counter() - w0 - cal.spent()
    result["cal_s"] = cal.slices

    result["import_s"] = import_s
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["slowest_units"] = _slowest_units(tracer)
        tracer.save(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
