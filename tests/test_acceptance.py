"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 4-10 run the seeded verification suites at their stated
budgets; hard checks must come back with zero failures, while the two
documented soft findings (the packing-radius equality criterion and the
punctured-code collapse regime) are reported with replayable witnesses.
"""

import itertools
import json
import time

import numpy as np
import pytest

from wpbcodes.blockspace import BlockSpace, Labeling
from wpbcodes.checks import (
    discrepancies,
    hard_failures,
    metric_axiom_witness,
    to_jsonl,
    verify_suite,
)
from wpbcodes.codes import Code
from wpbcodes.constructions import direct_sum_code
from wpbcodes.field import make_field
from wpbcodes import poset as P
from wpbcodes.weights import hamming_weight, lee_weight

from small_posets import all_posets

SEED = 2026


def _announce(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def chain_radii():
    return verify_suite(["chain-radii"], seed=SEED, trials=200)


@pytest.fixture(scope="module")
def direct_sum():
    return verify_suite(["direct-sum"], seed=SEED, trials=100)


@pytest.fixture(scope="module")
def constructions_234():
    return verify_suite(["plotkin", "extend", "puncture"], seed=SEED, trials=100)


@pytest.fixture(scope="module")
def tensor():
    return verify_suite(["tensor-mindist", "tensor-covering"], seed=SEED, trials=100)


def test_criterion_01_metric_axioms():
    """Exhaustive metric axioms: q in {2,3}, all posets s <= 3, k_i <= 2,
    Hamming and Lee weights; zero violations in under 10 seconds."""
    t0 = time.perf_counter()
    spaces = 0
    for q in (2, 3):
        f = make_field(q)
        weights = [hamming_weight(f), lee_weight(f)]
        for s in (1, 2, 3):
            for pos in all_posets(s):
                for sizes in itertools.product((1, 2), repeat=s):
                    for w in weights:
                        space = BlockSpace(pos, Labeling(sizes), f, w)
                        witness = metric_axiom_witness(space)
                        assert witness is None, (q, sizes, w.name, witness)
                        spaces += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(1, "metric-axioms", f"{spaces} spaces exhaustively verified in {elapsed:.1f}s")


def test_criterion_02_reductions():
    """The four specializations agree with independently coded weights,
    exhaustively for q^n <= 2^10."""
    checked = 0
    # Hamming: trivial blocks, antichain, Hamming weight
    for q, n in [(2, 10), (3, 6), (5, 4)]:
        f = make_field(q)
        sp = BlockSpace(P.antichain(n), Labeling((1,) * n), f, hamming_weight(f))
        arr = sp.all_vectors()
        assert (sp.batch_weights(arr) == (arr != 0).sum(axis=1)).all()
        checked += sp.size
    # Lee: trivial blocks, antichain, Lee weight
    for q, n in [(3, 6), (5, 4), (7, 3)]:
        f = make_field(q)
        sp = BlockSpace(P.antichain(n), Labeling((1,) * n), f, lee_weight(f))
        arr = sp.all_vectors()
        a = arr.astype(np.int64)
        assert (sp.batch_weights(arr) == np.minimum(a, q - a).sum(axis=1)).all()
        checked += sp.size
    # NRT block: chain + Hamming = index of the top nonzero block
    for q in (2, 3):
        f = make_field(q)
        for s in (1, 2, 3):
            for sizes in itertools.product((1, 2), repeat=s):
                sp = BlockSpace(P.chain(s), Labeling(sizes), f, hamming_weight(f))
                if sp.size > 1024:
                    continue
                arr = sp.all_vectors()
                expect = np.zeros(len(arr), dtype=np.int64)
                for i in range(1, s + 1):
                    sl = sp.labeling.block_slice(i)
                    expect = np.where((arr[:, sl] != 0).any(axis=1), i, expect)
                assert (sp.batch_weights(arr) == expect).all()
                checked += sp.size
    # poset block: any poset + Hamming = |ideal(support)|
    for q in (2, 3):
        f = make_field(q)
        for s in (1, 2, 3):
            for pos in all_posets(s):
                sizes = tuple(1 + (i % 2) for i in range(s))
                sp = BlockSpace(pos, Labeling(sizes), f, hamming_weight(f))
                if sp.size > 1024:
                    continue
                arr = sp.all_vectors()
                got = sp.batch_weights(arr)
                for rank in range(sp.size):
                    u = sp.unrank(rank)
                    assert got[rank] == len(pos.ideal(sp.block_support(u)))
                checked += sp.size
    _announce(2, "reductions", f"{checked} vectors against independent oracles")


def test_criterion_03_ball_lemma():
    """Nested-ball lemma, exhaustive: chains over GF(5) with Lee weight,
    s <= 3, k_i <= 2; inclusion plus the equality-iff criterion."""
    reports = verify_suite(["ball-nesting"], seed=SEED, trials=None)
    assert len(reports) == 14  # the full (s, sizes) envelope
    assert all(r.status == "pass" for r in reports)
    _announce(3, "ball-nesting-chain", "14 chain spaces, exhaustive")


def test_criterion_04_packing_radius(chain_radii):
    """Packing radius over 200 seeded chain codes: the lower bound
    rho >= (d_H - 1) M_w holds with zero hard failures; the published
    equality criterion is soft-checked and its counterexamples are
    reported with deterministically replayable witnesses."""
    lower = [r for r in chain_radii if r.check == "packing-radius-chain-lower"]
    assert len(lower) == 200
    assert all(r.status == "pass" for r in lower)
    soft = [r for r in chain_radii if r.check == "packing-radius-chain-equality"]
    findings = [r for r in soft if r.status == "soft-discrepancy"]
    # witness replay: rerunning the suite reproduces the identical records
    again = verify_suite(["chain-radii"], seed=SEED, trials=200)
    assert to_jsonl(chain_radii) == to_jsonl(again)
    _announce(
        4,
        "packing-radius-chain",
        f"200 instances, 0 hard failures, {len(findings)} reported equality "
        "counterexamples (replay verified)",
    )


def test_criterion_05_covering_radius_chain(chain_radii):
    """(r-1) M_w < covering radius <= r M_w with r the trailing full
    projection index, over 200 seeded chain codes."""
    rows = [r for r in chain_radii if r.check == "covering-radius-chain"]
    assert len(rows) == 200
    assert all(r.status == "pass" for r in rows)
    _announce(5, "covering-radius-chain", "200 instances, zero failures")


def test_criterion_06_direct_sum(direct_sum):
    """The four direct-sum equalities (two distances, two covering radii)
    over 100 seeded pairs, plus the worked spot value d = (1, 2)."""
    assert not hard_failures(direct_sum)
    for check in (
        "dsum-mindist-disjoint",
        "dsum-mindist-linear",
        "dsum-covering-disjoint",
        "dsum-covering-linear",
    ):
        rows = [r for r in direct_sum if r.check == check]
        assert len(rows) == 100
        assert all(r.status in ("pass", "not-applicable") for r in rows)
        assert any(r.status == "pass" for r in rows)

    # spot value from the worked pair
    f = make_field(2)
    w = hamming_weight(f)
    c1 = Code.explicit(BlockSpace(P.chain(2), Labeling((1, 1)), f, w), [(0, 0), (1, 1)])
    c2 = Code.explicit(BlockSpace(P.chain(1), Labeling((1,)), f, w), [(0,), (1,)])
    got = (
        direct_sum_code(c1, c2, "disjoint").code.min_distance(),
        direct_sum_code(c1, c2, "linear").code.min_distance(),
    )
    assert got == (1, 2)
    _announce(6, "direct-sum", "100 pairs, zero failures; spot d = (1, 2)")


def test_criterion_07_coset_lemma(direct_sum):
    """Component-wise coset leaders are leaders of the sum code, verified
    against full coset tables for both poset orders."""
    for check in ("dsum-coset-leader-disjoint", "dsum-coset-leader-linear"):
        rows = [r for r in direct_sum if r.check == check]
        assert len(rows) == 100
        assert all(r.status == "pass" for r in rows)
    _announce(7, "dsum-coset-leader", "100 pairs x 2 orders against full tables")


def test_criterion_08_constructions_234(constructions_234):
    """Plotkin, extended and punctured code bounds over 100 seeded
    instances each: zero failures of the hard-assert set."""
    assert not hard_failures(constructions_234)
    hard_set = [
        "plotkin-mindist-disjoint",
        "plotkin-mindist-linear",
        "plotkin-covering-disjoint",
        "plotkin-covering-linear",
        "extend-mindist",
        "extend-covering",
        "puncture-vector-weight",
        "puncture-covering",
    ]
    for check in hard_set:
        rows = [r for r in constructions_234 if r.check == check]
        assert len(rows) == 100
        assert all(r.status == "pass" for r in rows)
    soft = discrepancies(constructions_234)
    for r in soft:  # only the documented collapse regime may surface
        assert r.check == "puncture-mindist"
        assert r.witness["collapse"] is True
    _announce(
        8,
        "plotkin/extend/puncture",
        f"300 instances, zero hard failures, {len(soft)} collapse findings",
    )


def test_criterion_09_tensor_suites(tensor):
    """Tensor product suites over 100 seeded pairs each: the general
    covering lower bound and the chain x chain weight formula are hard;
    everything else is soft with a machine-readable discrepancy log."""
    assert not hard_failures(tensor)
    for check in ("tensor-covering-lower-car", "tensor-covering-lower-lex"):
        rows = [r for r in tensor if r.check == check]
        assert len(rows) == 100
        assert all(r.status == "pass" for r in rows)
    formula = [r for r in tensor if r.check == "tensor-weight-chain-chain"]
    applicable = [r for r in formula if r.status != "not-applicable"]
    assert applicable and all(r.status == "pass" for r in applicable)

    log = discrepancies(tensor)
    for r in log:  # machine-readable, replayable records
        doc = json.loads(r.line())
        assert doc["status"] == "soft-discrepancy"
        assert doc["witness"]
    _announce(
        9,
        "tensor-suites",
        f"200 pairs, zero hard failures, discrepancy log entries: {len(log)}",
    )


def test_criterion_10_covering_oracle(
    chain_radii, direct_sum, constructions_234, tensor, monkeypatch
):
    """The coset-major covering radius and max coset-leader weight equal the
    explicit word-set scan for every linear code touched by every suite."""
    rows = [
        r
        for r in itertools.chain(chain_radii, direct_sum, constructions_234, tensor)
        if r.check == "covering-oracle"
    ]
    assert len(rows) > 1000
    assert all(r.status == "pass" for r in rows)
    _assert_skewed_passes_caught(monkeypatch)
    _announce(10, "covering-oracle", f"{len(rows)} pass-vs-explicit-scan comparisons, all equal")


def _assert_skewed_passes_caught(monkeypatch):
    """The oracle is independent of a wrong reading of linear codes: a pass
    that skews both the covering radius and the leader weights of linear
    codes at once is still caught by the word-set scan, whose explicit code
    takes the same pass unskewed."""
    original = Code._pass

    def skewed(self, cols, keep):
        covering, packing, best = original(self, cols, keep)
        if not self.is_linear:
            return covering, packing, best
        return covering + 1, packing, None if best is None else (best[0] + 1, best[1])

    monkeypatch.setattr(Code, "_pass", skewed)
    skewed_rows = verify_suite(["chain-radii"], seed=SEED, trials=5)
    failed = [r for r in skewed_rows if r.check == "covering-oracle" and r.status == "fail"]
    assert len(failed) == 5  # one record per unit's code, each caught
    for r in failed:
        # the unskewed scan against both skewed readings: the unit reads the
        # packing radius first, so its covering radius comes from the
        # skewed packing pass, a full space's (s = 0) included
        s = r.witness["scan"]
        assert r.witness == {"code": "code", "scan": s, "coset_max": s + 1, "covering": s + 1}


def test_a_verify_run_shares_no_memo_with_a_later_run(monkeypatch):
    """Equal codes share one memo within a verify_suite run alone: after a
    clean run of the same units, the skewed passes of criterion 10 are
    still caught in every unit, as no clean reading is replayed."""
    clean = verify_suite(["chain-radii"], seed=SEED, trials=5)
    oracle = [r for r in clean if r.check == "covering-oracle"]
    assert len(oracle) == 5 and all(r.status == "pass" for r in oracle)
    _assert_skewed_passes_caught(monkeypatch)


def test_criterion_11_performance_and_determinism():
    """The complete default suite finishes single-threaded in under 60 s
    and a parallel run produces byte-identical reports."""
    t0 = time.perf_counter()
    seq = verify_suite(["all"], seed=SEED)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert not hard_failures(seq)
    par = verify_suite(["all"], seed=SEED, jobs=2)
    assert to_jsonl(seq) == to_jsonl(par)
    _announce(
        11,
        "performance",
        f"full default suite in {elapsed:.1f}s single-threaded; "
        f"parallel output byte-identical ({len(seq)} reports)",
    )
