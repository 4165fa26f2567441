"""wpbcodes benchmark driver.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root; the program is imported from ``src`` there.
Workloads (all closed loop: one client in one process, each call waits for
the previous one):

    verify         the default ``wpbcodes verify`` (master seed 0):
                   thousands of desk-scale spaces, so per-call overhead
                   dominates.
    linear-scan    a seeded ladder of linear codes on 2^16..2^20-vector
                   spaces: enumeration and the batch weight kernel dominate.
    explicit-scan  constructions and nonlinear (explicit) codes on
                   2^9..2^16-vector spaces: per-codeword and pairwise scans.

Every pass runs in a fresh worker process, so module caches and per-code
memos never carry over.  After one untimed warm-up probe, passes repeat while
``--seconds`` allows, at least three times, each after a set-up probe (a
fresh worker that only sets up).

The gated times are CPU seconds (user plus system) of the worker processes:
``setup_s`` of a probe's start-up to its ready line (interpreter start,
imports, inputs), ``pass_s`` of one serial pass.  For this single-threaded
program CPU time is the wall time of an unshared core; on a shared host it
leaves out the time other tenants hold the core, which made wall times of
the same code spread by a quarter between runs.  The host's speed moves as
well, within seconds: the same verify pass took 6.2 to 9.0 CPU seconds
within half an hour (2-vCPU Xeon guest, L2 2 MB, shared L3).  So every
timed worker also runs slices of a fixed calibration loop that uses no
wpbcodes code (worker.calibrate): a pass runs one before its first query or
verify unit, and another before the next one once half a second of its own
CPU time has passed; a probe runs three right after its set-up.  Each sample
is rescaled by the mean of its own slices to a host on which a slice takes
CAL_REF_S, and the metric is the run's median sample.  A change to the
program moves it; a change of host speed moves the slices as well, and
largely does not.  Over ten runs of verify on that host the distance between
the quartiles of the run medians was 13% of their median in raw CPU seconds
and 2% in ``pass_s``.

Raw CPU and wall times of every sample and slice are kept in the run record,
printed before the result line; so are verify's ``--jobs 2`` CLI run (for
the gate, once a run) and, for the scan workloads, the CPU time per query
kind.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a separate traced run.  Answers are
checked outside the timed region, and the last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs (verify JSONL, traced spans, the run record) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify", "linear-scan", "explicit-scan")
SETUP_SAMPLES = 12
MIN_PASSES = 3
# The verify workload always runs the default ``wpbcodes verify`` (master
# seed 0, whose JSONL is the behaviour contract).  Its cost moves with the
# master seed far more than any regression bound: best-of-3 serial walls
# over master seeds 20..29 ranged from 3.3 s to 5.9 s, because a handful of
# large metric-axioms units dominate.  --seed drives the scan workloads and
# is recorded.
VERIFY_SEED = 0
CONTRACT_MD5 = "ac2d01cb2b8ddc3e00903b67d4754325"
DEADLINE_S = 170.0
TRACE_ROUNDS = 2
# The gated times are CPU seconds rescaled to a host on which one
# calibration slice (worker.calibrate) takes this many CPU seconds.
CAL_REF_S = 0.05
KIND_METRIC = {
    "min_distance": "mindist_s", "covering_radius": "covering_s",
    "packing_radius": "packing_s", "coset_table": "cosets_s",
    "is_perfect": "perfect_s", "ball_size": "ball_s", "construct": "construct_s",
}
SUITES = ("metric-axioms", "reductions", "ball-nesting", "chain-radii", "direct-sum",
          "plotkin", "extend", "puncture", "tensor-mindist", "tensor-covering")
CONSTRUCTIONS = ("direct_sum_code", "plotkin_code", "extended_code",
                 "punctured_code", "tensor_code")
REDUCTIONS = ("min_distance", "covering_radius", "packing_radius",
              "is_r_perfect", "coset_table")


class BenchError(Exception):
    pass


class Procs:
    """Starts child processes and reaps every one of them.

    Each child gets a watchdog that kills it at the run's deadline, so a
    hung child ends the run with an error instead of outliving it.
    """

    def __init__(self, root: Path, out: Path, deadline: float):
        self.root, self.out, self.deadline = root, out, deadline
        # one BLAS thread: idle BLAS threads spinning at start-up would bill
        # CPU time to set-up that the program never uses
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.live: dict[int, tuple[subprocess.Popen, threading.Timer]] = {}
        self.count = 0

    def spawn(self, argv: list[str], **kw) -> subprocess.Popen:
        self.count += 1
        err_path = self.out / f"child-{self.count}.stderr"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stderr=err,
                                    text=True, **kw)
        proc.err_path = err_path
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.daemon = True
        timer.start()
        self.live[proc.pid] = (proc, timer)
        return proc

    def reap(self, proc: subprocess.Popen) -> tuple[int, float, float]:
        """Wait for the child; return its exit code, peak RSS in MB and CPU
        seconds (its own and those of the children it waited for)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _, timer = self.live.pop(proc.pid)
        timer.cancel()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except BrokenPipeError:
                    pass
        return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def stop_all(self) -> None:
        for proc, _ in list(self.live.values()):
            proc.kill()
            self.reap(proc)

    def failure(self, proc: subprocess.Popen, what: str) -> BenchError:
        tail = Path(proc.err_path).read_text()[-2000:]
        return BenchError(f"{what} (exit {proc.returncode}):\n{tail}")


class Worker:
    """A fresh worker.py process; set-up is measured up to its ready line."""

    def __init__(self, procs: Procs, workload: str, seed: int, role: str, *extra: str):
        self.procs = procs
        self.t0 = time.perf_counter()
        self.proc = procs.spawn(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--role", role, *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.setup_s = self.setup_cpu_s = self.rss_mb = None

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.procs.reap(self.proc)
            raise self.procs.failure(self.proc, "worker ended without a reply")
        return json.loads(line)

    def ready(self) -> dict:
        msg = self._read()
        self.setup_s = time.perf_counter() - self.t0
        self.setup_cpu_s = msg["setup_cpu_s"]
        return msg

    def finish(self) -> dict:
        msg = self._read()
        code, self.rss_mb, _ = self.procs.reap(self.proc)
        if code != 0:
            raise self.procs.failure(self.proc, "worker failed")
        return msg

    def quit(self) -> None:
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        self.procs.reap(self.proc)

    def call(self) -> dict:
        self.ready()
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        return self.finish()


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "count": len(samples)}


def normalised(sample: dict) -> float:
    """A sample's CPU seconds on a host where a calibration slice takes
    CAL_REF_S, by the slices run next to it."""
    return sample["cpu_s"] * CAL_REF_S / statistics.fmean(map(sum, sample["cal_s"]))


class Samples:
    """The timed samples of a run, each with the calibration slices run next
    to it: set-up of the probes, and the serial passes."""

    def __init__(self):
        self.setups: list[dict] = []
        self.passes: list[dict] = []

    def probe(self, procs: Procs, workload: str, seed: int) -> None:
        w = Worker(procs, workload, seed, "probe", "--calibrate")
        cal = w.call()["cal_s"]
        self.setups.append({"cpu_s": w.setup_cpu_s, "wall_s": w.setup_s, "cal_s": cal})

    def timed(self, worker: Worker, result: dict) -> None:
        self.passes.append({k: result[k] for k in ("cpu_s", "wall_s", "cal_s")}
                           | {"rss_mb": worker.rss_mb})

    def metrics(self, procs: Procs, workload: str, seed: int, record: dict) -> dict:
        while len(self.setups) < SETUP_SAMPLES:
            self.probe(procs, workload, seed)
        setup = [normalised(s) for s in self.setups]
        passes = [normalised(p) for p in self.passes]
        rss = [p["rss_mb"] for p in self.passes]
        record["timings"] = {
            "setup_s": summary(setup), "pass_s": summary(passes),
            "setup_cpu_s": summary([s["cpu_s"] for s in self.setups]),
            "setup_wall_s": summary([s["wall_s"] for s in self.setups]),
            "cpu_s": summary([p["cpu_s"] for p in self.passes]),
            "wall_s": summary([p["wall_s"] for p in self.passes]),
            "peak_rss_mb": summary(rss)}
        record["samples"] = {"setup": self.setups, "passes": self.passes}
        return {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": statistics.median(rss),
        }


def repeat(seconds: float, one_pass) -> list:
    """Run passes while the next one would end less than half a pass after
    ``seconds``, so that a run measures about ``seconds``; but at least
    MIN_PASSES, so that every median has several samples."""
    t0 = time.perf_counter()
    out = []
    while True:
        start = time.perf_counter()
        out.append(one_pass())
        now = time.perf_counter()
        if len(out) >= MIN_PASSES and now - t0 + (now - start) / 2 > seconds:
            return out


def warm_up(procs: Procs, workload: str, seed: int) -> None:
    """An untimed set-up probe: it compiles the modules' bytecode and fills
    the file cache, so that the first timed sample pays for neither."""
    w = Worker(procs, workload, seed, "probe")
    w.ready()
    w.quit()


class Tally:
    """Operations attempted and failed, with the first few failure ids."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, attempted: int, failed: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed


# verify --------------------------------------------------------------------------


def sorted_lines(data: bytes) -> bytes:
    return b"".join(line + b"\n" for line in sorted(data.splitlines()))


class VerifyGate:
    """Checks every verify output against the first serial run's: no
    ``fail`` record, and every record byte-identical (in any order for the
    suite-by-suite pool run)."""

    def __init__(self, ref_path: Path, tally: Tally):
        self.ref_path, self.tally = ref_path, tally

    def check(self, path: Path, code: int = 0, any_order: bool = False) -> None:
        ref, got = self.ref_path.read_bytes(), path.read_bytes()
        if any_order:
            ref, got = sorted_lines(ref), sorted_lines(got)
        attempted, failed = gate.check_verify(ref, got)
        self.tally.add(attempted + 1, failed + ([f"{path.name}:exit={code}"] if code else []))


def verify_pass(procs: Procs, path: Path, *extra: str) -> tuple[Worker, dict]:
    w = Worker(procs, "verify", VERIFY_SEED, "verify", "--out", str(path), *extra)
    return w, w.call()


def run_verify(procs: Procs, args, tally: Tally, record: dict) -> dict:
    out = procs.out
    ref_path = out / f"verify-{VERIFY_SEED}-serial.jsonl"
    vgate = VerifyGate(ref_path, tally)
    warm_up(procs, "verify", VERIFY_SEED)
    samples = Samples()
    path = out / f"verify-{VERIFY_SEED}-pass.jsonl"

    def one_pass():
        samples.probe(procs, "verify", VERIFY_SEED)
        # the first pass writes the reference every later output must match
        out_path = path if samples.passes else ref_path
        w, result = verify_pass(procs, out_path, "--calibrate")
        samples.timed(w, result)
        vgate.check(out_path, result["exit"])
        return result

    first = one_pass() if args.trace else repeat(args.seconds, one_pass)[0]
    ref = ref_path.read_bytes()
    record["gate_self_check"] = verify_self_check(ref)
    record["work_base"] = {"records": len(ref.splitlines())}
    record["verify_md5_is_contract"] = hashlib.md5(ref).hexdigest() == CONTRACT_MD5
    if args.trace:
        return trace_verify(procs, record, vgate, first)
    # the CLI with its process pool, once, for the gate; its times are recorded
    jobs2_path = out / f"verify-{VERIFY_SEED}-cli-jobs2.jsonl"
    t0 = time.perf_counter()
    proc = procs.spawn([sys.executable, "-m", "wpbcodes.cli", "verify",
                        "--seed", str(VERIFY_SEED), "--jobs", "2", "--out", str(jobs2_path)],
                       stdout=subprocess.DEVNULL)
    code, _, cpu = procs.reap(proc)
    record["cli_jobs2"] = {"wall_s": time.perf_counter() - t0, "cpu_s": cpu}
    vgate.check(jobs2_path, code)
    return samples.metrics(procs, "verify", VERIFY_SEED, record)


def trace_verify(procs, record, vgate, plain) -> dict:
    """Untraced and traced in-process serial runs, alternating; then one
    run on the two-process pool for its busy time."""
    out = procs.out
    spans = out / f"spans-verify-{VERIFY_SEED}.npz"
    path = out / f"verify-{VERIFY_SEED}-pass.jsonl"
    plains, traceds = [plain], []
    for _ in range(TRACE_ROUNDS):
        for runs, extra in ((traceds, ("--trace", str(spans))), (plains, ())):
            runs.append(verify_pass(procs, path, "--calibrate", *extra)[1])
            vgate.check(path, runs[-1]["exit"])
    pool_path = out / f"verify-{VERIFY_SEED}-pool.jsonl"
    pool = Worker(procs, "verify", VERIFY_SEED, "pool", "--out", str(pool_path)).call()
    vgate.check(pool_path, any_order=True)
    traced = traceds[-1]
    record["slowest_units"] = traced["slowest_units"]
    layers = layer_metrics(traced["layers"])
    layers.update({
        "checks.pool_busy_s": pool["busy_s"],
        "checks.pool_utilization": pool["busy_s"] / (2 * pool["wall_s"]),
        "cli.import_s": traced["import_s"],
        "trace.overhead_s": trace_overhead(plains, traceds),
    })
    record["work_base"].update({
        "vectors_enumerated": layers["blockspace.enum_vectors"],
        "kernel_vectors": layers["blockspace.kernel_vectors"],
        "pairs_computed": layers["codes.pairs_computed"],
    })
    return layers


def verify_self_check(ref: bytes) -> bool:
    """The gate must notice one record turned from pass into fail."""
    flipped = ref.replace(b'"status":"pass"', b'"status":"fail"', 1)
    return bool(gate.check_verify(ref, flipped)[1])


def trace_overhead(plains: list[dict], traceds: list[dict]) -> float:
    """Median traced minus median untraced pass, both rescaled by their
    calibration slices like ``pass_s``."""
    return (statistics.median(map(normalised, traceds))
            - statistics.median(map(normalised, plains)))


# scan workloads --------------------------------------------------------------------


def check_scan(result: dict, expected: dict, reference: dict, tally: Tally) -> None:
    failed = gate.check_pass(result["answers"], result["errors"], expected, reference)
    tally.add(len(result["answers"]) + len(result["errors"]), failed)


def scan_gate(procs: Procs, args, tally: Tally, record: dict, results: list[dict]) -> None:
    """Checks every pass against the oracle and the first pass."""
    oracle = Worker(procs, args.workload, args.seed, "oracle").call()
    expected, reference = oracle["expected"], results[0]["answers"]
    tally.add(len(oracle["checks"]), gate.check_checks(oracle["checks"]))
    for result in results:
        check_scan(result, expected, reference, tally)
    record["gate_self_check"] = bool(gate.check_pass(
        reference, {}, gate.corrupt(expected), reference))
    record["oracle_answers"] = len(expected)


def run_scan(procs: Procs, args, tally: Tally, record: dict) -> dict:
    w = args.workload
    if args.trace:
        return trace_scan(procs, args, tally, record)
    warm_up(procs, w, args.seed)
    samples = Samples()

    def one_pass():
        samples.probe(procs, w, args.seed)
        worker = Worker(procs, w, args.seed, "run", "--calibrate")
        result = worker.call()
        samples.timed(worker, result)
        return result

    passes = repeat(args.seconds, one_pass)
    scan_gate(procs, args, tally, record, passes)
    first = passes[0]
    record["work_base"] = {"vectors_enumerated": first["vectors"],
                           "pairs_computed": first["pairs"], "queries": len(first["kinds"])}
    kinds = {}
    for qid, kind in first["kinds"].items():
        name = KIND_METRIC[kind]
        cpu = statistics.median(p["query_cpu_s"][qid] for p in passes)
        kinds[name] = kinds.get(name, 0.0) + cpu
    record["query_cpu_s"] = kinds
    return samples.metrics(procs, w, args.seed, record)


def trace_scan(procs, args, tally, record) -> dict:
    """Untraced and traced serial passes, alternating."""
    w = args.workload
    spans = str(procs.out / f"spans-{w}-{args.seed}.npz")
    plains, traceds = [], []
    for _ in range(TRACE_ROUNDS):
        plains.append(Worker(procs, w, args.seed, "run", "--calibrate").call())
        traceds.append(Worker(procs, w, args.seed, "run", "--calibrate", "--trace", spans).call())
    scan_gate(procs, args, tally, record, plains + traceds)
    traced = traceds[-1]
    layers = layer_metrics(traced["layers"])
    layers.update({
        "checks.pool_busy_s": 0.0,
        "checks.pool_utilization": 0.0,
        "cli.import_s": traced["import_s"],
        "trace.overhead_s": trace_overhead(plains, traceds),
    })
    record["work_base"] = {
        "vectors_enumerated": layers["blockspace.enum_vectors"],
        "kernel_vectors": layers["blockspace.kernel_vectors"],
        "pairs_computed": layers["codes.pairs_computed"],
        "pairs_planned": plains[0]["pairs"],
    }
    return layers


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics from the traced run's span summary (self times)."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    kernel_s = get("blockspace.kernel", "self_s")
    kernel_calls = get("blockspace.kernel", "calls")
    kernel_vectors = get("blockspace.kernel", "work")
    m = {
        "blockspace.kernel_calls": kernel_calls,
        "blockspace.kernel_vectors": kernel_vectors,
        "blockspace.kernel_s": kernel_s,
        "blockspace.kernel_vps": kernel_vectors / kernel_s if kernel_s else 0.0,
        "blockspace.kernel_vectors_per_call": kernel_vectors / kernel_calls if kernel_calls else 0.0,
        "blockspace.enum_chunks": get("blockspace.enum", "calls"),
        "blockspace.enum_vectors": get("blockspace.enum", "work"),
        "blockspace.enum_s": get("blockspace.enum", "self_s"),
        "blockspace.scalar_weight_calls": get("blockspace.scalar_weight", "calls"),
        "blockspace.scalar_weight_s": get("blockspace.scalar_weight", "self_s"),
        "poset.ideal_calls": get("poset.ideal", "calls"),
        "poset.ideal_s": get("poset.ideal", "self_s"),
        "poset.maximal_calls": get("poset.maximal", "calls"),
        "field.scalar_calls": get("field.scalar", "calls"),
        "field.scalar_s": get("field.scalar", "self_s"),
        "weights.scalar_calls": get("weights.scalar", "calls"),
        "codes.build_s": get("codes.build", "self_s"),
        "codes.codeword_array_s": get("codes.codeword_array", "self_s"),
        "codes.pairs_computed": get("codes.pairs", "work"),
        "instances.digest_calls": get("instances.digest", "calls"),
        "instances.digest_s": get("instances.digest", "self_s"),
        "instances.build_s": get("instances.build", "self_s"),
        "trace.spans": get("trace.spans", "work"),
    }
    for fn in REDUCTIONS:
        m[f"codes.{fn}_s"] = get(f"codes.{fn}", "self_s")
    for fn in CONSTRUCTIONS:
        m[f"constructions.{fn}_calls"] = get(f"constructions.{fn}", "calls")
        m[f"constructions.{fn}_s"] = get(f"constructions.{fn}", "self_s")
    for suite in SUITES:
        m[f"checks.{suite}_s"] = get(f"checks.{suite}", "incl_s")
        m[f"checks.{suite}_units"] = get(f"checks.{suite}", "calls")
    return m


# run record --------------------------------------------------------------------------


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        info["numpy"] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        info["numpy"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    info["caches"] = caches
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "wpbcodes" / "__init__.py").is_file():
        print("error: run from the repository root; src/wpbcodes not found",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)

    procs = Procs(root, out, time.monotonic() + DEADLINE_S)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    try:
        runner = run_verify if args.workload == "verify" else run_scan
        values = runner(procs, args, tally, record)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        procs.stop_all()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed[:20])
    (out / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(record))
    correct = not tally.failed and record["gate_self_check"]
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
