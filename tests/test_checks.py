import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wpbcodes import checks
from wpbcodes.blockspace import _CHUNK, BlockSpace, Labeling
from wpbcodes.checks import (
    REGISTRY,
    discrepancies,
    hard_failures,
    metric_axiom_witness,
    resolve_filters,
    to_jsonl,
    verify_suite,
)
from wpbcodes.codes import Code
from wpbcodes.field import make_field
from wpbcodes import poset as P
from wpbcodes.constructions import ConstructionResult
from wpbcodes.weights import custom_weight, hamming_weight, lee_weight


def test_registry_covers_expected_suites():
    assert {
        "metric-axioms",
        "reductions",
        "ball-nesting",
        "chain-radii",
        "direct-sum",
        "plotkin",
        "extend",
        "puncture",
        "tensor-mindist",
        "tensor-covering",
    } <= set(REGISTRY)


def test_resolve_filters():
    assert set(resolve_filters(["all"])) == set(REGISTRY)
    assert set(resolve_filters(["metric-axioms"])) == {"metric-axioms"}
    assert set(resolve_filters(["constructions"])) >= {"direct-sum", "plotkin"}
    only = resolve_filters(["covering-radius-chain"])
    assert only == {"chain-radii": {"covering-radius-chain"}}
    try:
        resolve_filters(["no-such-suite"])
    except ValueError as e:
        assert "no-such-suite" in str(e)
    else:
        raise AssertionError("expected ValueError")


def test_check_id_filter_restricts_reports():
    reports = verify_suite(["covering-radius-chain"], seed=3, trials=5)
    assert {r.check for r in reports} == {"covering-radius-chain"}


def _emitted_once_per_unit(name, seed, unit):
    """The check ids one unit emits, asserting that each is declared and,
    but for covering-oracle (its row gives one record per code read),
    emitted once."""
    emitted = [rep.check for rep in REGISTRY[name].unit_fn(seed, unit, None)]
    assert set(emitted) <= set(REGISTRY[name].checks), (name, emitted)
    rows = [check for check in emitted if check != checks.COVERING_ORACLE]
    assert len(rows) == len(set(rows)), (name, seed, unit, rows)
    return set(emitted)


def test_emitted_check_ids_are_declared():
    """Every check id a unit emits is in its suite's checks, so that
    `--suite <check-id>` can select it, and a unit emits each id but
    covering-oracle at most once."""
    for name in REGISTRY:
        for seed in (0, 1):
            for unit in range(3):
                _emitted_once_per_unit(name, seed, unit)


def test_every_declared_check_id_is_emitted_at_seed_0():
    """No row's gate stays shut: every id a suite declares is emitted, with
    any status, by at least one unit of the default run at seed 0, and no
    unit of that run emits an id twice but covering-oracle."""
    for name, suite in REGISTRY.items():
        emitted = set().union(
            *(_emitted_once_per_unit(name, 0, unit) for unit in range(suite.default_trials))
        )
        assert emitted == set(suite.checks), (name, set(suite.checks) - emitted)


def test_a_units_reports_share_its_seconds_evenly():
    """Every report of a unit carries the same share of the unit's seconds,
    so the summary's per-check seconds add up to the units' time."""
    reports = REGISTRY["chain-radii"].unit_fn(0, 0, None)
    assert len(reports) > 1 and len({r.elapsed for r in reports}) == 1
    assert reports[0].elapsed > 0


@pytest.mark.parametrize("affinity", [True, False])
@pytest.mark.parametrize("jobs,cpus,pool", [(64, 2, [2]), (2, 1, []), (3, 4, [3])])
def test_pool_size_is_clamped_to_usable_cpus(jobs, cpus, pool, affinity, monkeypatch):
    """The pool is clamped to the affinity mask where the OS keeps one (the
    machine's CPU count is then larger and ignored), else to cpu_count."""
    requested = []

    class FakePool:
        def __init__(self, size, initializer=None):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)  # verify_suite imports it lazily
    if affinity:
        monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(checks.os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(checks.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(checks.os, "cpu_count", lambda: cpus)
    reports = verify_suite(["ball-nesting"], seed=0, trials=2, jobs=jobs)
    assert requested == pool
    assert to_jsonl(reports) == to_jsonl(verify_suite(["ball-nesting"], seed=0, trials=2))


def test_a_serial_run_leaves_multiprocessing_unimported():
    """Only a pool needs multiprocessing, so the CLI and a serial verify run
    import none of it (a few ms of every wpbcodes start)."""
    script = (
        "import sys\n"
        "import wpbcodes.cli\n"
        "from wpbcodes.checks import verify_suite\n"
        "assert verify_suite(['ball-nesting'], seed=0, trials=1)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = str(Path(checks.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_replay_determinism():
    a = verify_suite(["direct-sum"], seed=7, trials=6)
    b = verify_suite(["direct-sum"], seed=7, trials=6)
    assert to_jsonl(a) == to_jsonl(b)
    c = verify_suite(["direct-sum"], seed=8, trials=6)
    assert to_jsonl(a) != to_jsonl(c)


def test_parallel_reports_byte_identical():
    seq = verify_suite(["reductions", "ball-nesting"], seed=5, trials=8)
    par = verify_suite(["reductions", "ball-nesting"], seed=5, trials=8, jobs=2)
    assert to_jsonl(seq) == to_jsonl(par)


def test_report_lines_are_json_without_timing():
    reports = verify_suite(["ball-nesting"], seed=0, trials=3)
    for r in reports:
        doc = json.loads(r.line())
        assert set(doc) == {"check", "digest", "seed", "status", "witness"}


def test_metric_axiom_witness_accepts_valid_space():
    f = make_field(3)
    space = BlockSpace(P.chain(2), Labeling((1, 2)), f, lee_weight(f))
    assert metric_axiom_witness(space) is None


def test_metric_axiom_witness_flags_broken_weight():
    # Bypass validation to plant a non-subadditive table; the checker must
    # find a triangle violation.
    f = make_field(5)
    w = hamming_weight(f)
    object.__setattr__(w, "table", (0, 1, 3, 3, 1))
    space = BlockSpace(P.chain(1), Labeling((1,)), f, w)
    witness = metric_axiom_witness(space)
    assert witness is not None and witness["axiom"] == "triangle"


@pytest.mark.parametrize("pos, sizes, block", [(P.chain(5), (1,) * 5, 16),
                                                (P.chain(2), (3, 2), 1),
                                                (P.antichain(5), (1,) * 5, 0)])
def test_metric_axiom_witness_blocks_keep_the_first_violation(pos, sizes, block):
    """Up to 2,048 vectors the triangle inequality is checked in blocks of
    rows of at most _CHUNK pairs, x-major, and the witness is the first
    violating pair (x, y) of the full pair matrix in x-major order.  GF(4)^5
    (1,024 vectors, so 16 rows per block) under a planted table with
    w(3) = 3 > w(1) + w(2), 1 + 2 = 3 in GF(4): on the chain of 1-blocks
    only the bottom block, the first coordinate, violates, so the first
    violation lies in block 16; on the chain (3, 2) it opens block 1, and
    on the antichain it lies in block 0."""
    f = make_field(4)
    w = hamming_weight(f)
    object.__setattr__(w, "table", (0, 1, 1, 3))
    space = BlockSpace(pos, Labeling(sizes), f, w)
    arr = space.all_vectors()
    weights = space.batch_weights(arr)
    radix = 4 ** np.arange(space.n - 1, -1, -1)
    sums = sum((f.add_table * radix[j])[arr[:, None, j], arr[None, :, j]] for j in range(space.n))
    x, y = np.argwhere(weights[sums] > weights[:, None] + weights[None, :])[0]
    assert x // (_CHUNK // space.size) == block
    witness = metric_axiom_witness(space)
    assert witness == {"axiom": "triangle", "u": arr[x].tolist(), "v": arr[y].tolist()}
    u, v = witness["u"], witness["v"]
    assert space.wpb_weight(space.add(u, v)) > space.wpb_weight(u) + space.wpb_weight(v)


@pytest.mark.parametrize("sizes", [(1,) * 5, (5,)])
def test_metric_axiom_witness_samples_large_spaces(sizes):
    """Past 2,048 vectors the triangle inequality is checked on seeded rank
    pairs and symmetry still on every vector: on 5^5 vectors (five 1-blocks,
    or one block the kernel cuts into two pieces) a planted non-subadditive
    table gives a triangle witness for each seed, an asymmetric one a
    symmetry witness; the scalar weight confirms both."""
    f = make_field(5)
    pos = P.antichain(len(sizes))

    def planted(table):
        w = hamming_weight(f)
        object.__setattr__(w, "table", table)
        return BlockSpace(pos, Labeling(sizes), f, w)

    space = planted((0, 1, 3, 3, 1))
    assert space.size == 3125
    for seed in range(5):
        witness = metric_axiom_witness(space, random.Random(seed))
        assert witness is not None and witness["axiom"] == "triangle"
        u, v = witness["u"], witness["v"]
        assert space.wpb_weight(space.add(u, v)) > space.wpb_weight(u) + space.wpb_weight(v)
        assert witness == metric_axiom_witness(space, random.Random(seed))

    space = planted((0, 1, 2, 1, 1))
    for seed in range(5):
        witness = metric_axiom_witness(space, random.Random(seed))
        assert witness is not None and witness["axiom"] == "symmetry"
        vec = witness["vector"]
        assert space.wpb_weight(space.neg(vec)) != space.wpb_weight(vec)


def test_packing_equality_soft_discrepancy_known_case():
    # Lee/GF(5), blocks (1, 2), chain, C = span{(1,4,3)}: the packing radius
    # equals (d_H - 1) M_w although d_w exceeds m_w + (d_H - 1) M_w, so the
    # published equality criterion must surface as a soft discrepancy.
    f = make_field(5)
    space = BlockSpace(P.chain(2), Labeling((1, 2)), f, lee_weight(f))
    code = Code.linear(space, [(1, 4, 3)])
    d_h = code.with_weight(hamming_weight(f)).min_distance()
    assert d_h == 2
    assert code.min_distance() == 4
    assert code.packing_radius() == 2 == (d_h - 1) * 2
    assert code.min_distance() != 1 + (d_h - 1) * 2


def test_puncture_collapse_counterexample():
    # GF(2), antichain(3), C = span{100, 011}: d(C) = 1 via the word confined
    # to block 1; puncturing block 1 collapses that pair and d rises to 2.
    from wpbcodes.constructions import punctured_code

    f = make_field(2)
    space = BlockSpace(P.antichain(3), Labeling((1, 1, 1)), f, hamming_weight(f))
    code = Code.linear(space, [(1, 0, 0), (0, 1, 1)])
    assert code.min_distance() == 1
    pun = punctured_code(code, 1).code
    assert pun.min_distance() == 2  # the published bound d* <= d fails here


def test_puncture_vector_weight_witness_is_first_violating_sample(monkeypatch):
    """puncture-vector-weight against the scalar loop: every step-th vector
    in odometer order, the witness the first v with w(v*) > w(v) under the
    scalar weight.  The bound holds, so the punctured space is reweighted
    (2 on every nonzero element) to make some units fail."""
    real, seen = checks.punctured_code, []

    def reweighted(code, block):
        res = real(code, block)
        sp = res.space.with_weight(custom_weight(res.space.field, [0] + [2] * (res.space.q - 1)))
        seen.append((code.space, sp, block))
        return ConstructionResult(Code.explicit(sp, res.code.codewords()), sp, res.provenance)

    monkeypatch.setattr(checks, "punctured_code", reweighted)
    statuses, ranks = set(), set()
    for unit in range(30):
        seen.clear()
        reports = REGISTRY["puncture"].unit_fn(3, unit, None)
        if not reports:
            continue
        (space, pun, block), = seen
        report = next(r for r in reports if r.check == "puncture-vector-weight")
        sl, step = space.labeling.block_slice(block), max(1, space.size // 256)
        want = None
        for rank in range(0, space.size, step):
            v = space.unrank(rank)
            if pun.wpb_weight(v[: sl.start] + v[sl.stop :]) > space.wpb_weight(v):
                want = {"vector": list(v), "block": block}
                ranks.add(rank // step)
                break
        assert report.witness == want
        assert report.status == ("pass" if want is None else "fail")
        statuses.add(report.status)
    assert statuses == {"pass", "fail"} and max(ranks) > 1


def test_full_suite_run_small_budget_has_no_hard_failures():
    reports = verify_suite(["all"], seed=11, trials=4)
    assert not hard_failures(reports)
    # soft findings, if any, carry witnesses
    for r in discrepancies(reports):
        assert r.witness is not None


def test_dsum_covering_linear_gate_on_full_space():
    # When C2 is the whole space the linear-sum covering equality degenerates:
    # the suite must report not-applicable rather than a failure.
    found_na = False
    reports = verify_suite(["direct-sum"], seed=0, trials=60)
    for r in reports:
        if r.check == "dsum-covering-linear" and r.status == "not-applicable":
            found_na = True
        assert r.status != "fail"
    assert found_na


def test_the_covering_oracle_builds_only_the_word_set_scans_code(monkeypatch):
    """_covering_with_oracle takes the tree reading and the coset table on
    the code it checks, so it builds one Code per linear code, the explicit
    code of the word-set scan, and none for an explicit code, whose covering
    radius it reads alone.  Each linear code appends one oracle entry, its
    three readings equal to a fresh code's covering radius, the zero code's
    and the full space's included."""
    f = make_field(3)
    sp = BlockSpace(P.chain(2), Labeling((2, 1)), f, lee_weight(f))
    rows = [[], [(1, 2, 1)], [(1, 2, 1), (0, 1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    codes = [Code.linear(sp, r) for r in rows]
    codes.append(Code.explicit(sp, codes[1].codeword_array()))
    want = [Code.linear(sp, r).covering_radius() for r in rows]
    want.append(want[1])
    built = []
    init = Code.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.kind)

    monkeypatch.setattr(Code, "__init__", counting)
    r = checks.Readings()
    for i, code in enumerate(codes):
        built.clear()
        rho = checks._covering_with_oracle(r, code, str(i))
        assert built == (["explicit"] if code.is_linear else [])
        assert rho == want[i]
    assert r.oracle == [{"code": str(i), "scan": rho, "coset_max": rho, "covering": rho}
                        for i, rho in enumerate(want[: len(rows)])]


def test_dsum_coset_leader_witness_is_the_first_failing_pair(monkeypatch):
    """With a scalar weight that is off by one exactly when one of the
    first and the last coordinate is nonzero, dsum-coset-leader-* fails,
    and its witness is the first failing joint leader (l1 | l2) with C1's
    leaders as the outer loop, the order of the batched coset indices.  The
    witness is plain JSON."""
    sampled = []
    sample = checks._sample_pair

    def recording(rng, q):
        sampled.append(sample(rng, q))
        return sampled[-1]

    true = BlockSpace.wpb_weight
    monkeypatch.setattr(checks, "_sample_pair", recording)
    monkeypatch.setattr(
        BlockSpace, "wpb_weight", lambda sp, u: true(sp, u) + ((u[0] != 0) != (u[-1] != 0))
    )
    reports = {r.digest: r for r in verify_suite(["direct-sum"], seed=0, trials=30)
               if r.check == "dsum-coset-leader-disjoint"}
    assert len(sampled) == 30
    outer_first = 0
    for c1, c2 in sampled:
        digests = (checks._instance_of(c).digest() for c in (c1, c2))
        r = reports[checks._pair_digest(*digests)]
        pairs = [
            (l1, l2)
            for l1 in map(tuple, c1.coset_table().leaders.tolist())
            for l2 in map(tuple, c2.coset_table().leaders.tolist())
            if (l1[0] != 0) != (l2[-1] != 0)
        ]
        assert r.status == ("fail" if pairs else "pass")
        if pairs:
            # plain ints: json.dumps raises on a numpy scalar
            assert json.loads(json.dumps(r.witness)) == r.witness
            assert (tuple(r.witness["leader1"]), tuple(r.witness["leader2"])) == pairs[0]
            # a loop over C2's leaders outside would name another pair here
            outer_first += pairs[0] != min(pairs, key=lambda p: (p[1], p[0]))
    assert outer_first
