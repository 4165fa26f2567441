"""The verification suite: every structural claim becomes a named check.

Checks are grouped into suites; one suite *unit* generates one instance (or
instance pair) from a derived seed and evaluates all member checks on it,
emitting one CheckReport per (check, instance).  Statuses:

    pass              the claim holds on this instance
    fail              a hard claim is violated: implementation bug or a
                      genuine refutation; carries a replayable witness
    not-applicable    the claim's hypotheses are not met by this instance
    soft-discrepancy  a soft claim (one whose published argument has known
                      gaps or intricate side conditions) is violated; logged
                      as a finding with a witness, not a build failure

Each suite is declared once, by ``@suite(name, tags, trials, pools,
checks)`` on its unit body; the declaration registers it in REGISTRY.  Unit
i of suite S under master seed m uses the derived seed h(m, S, i) and draws
its field size q first, from pools[i % len(pools)], so any report replays
from (seed, digest) alone.  A body that emits a check id its suite did not
declare raises.  Reports sort canonically by (check, digest, seed); their
serialized form excludes timing, so parallel and serial runs emit
byte-identical output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Callable, Iterable, Sequence

import numpy as np

from .blockspace import BlockSpace, Labeling
from .codes import Code
from .constructions import (
    direct_sum_code,
    extended_code,
    plotkin_code,
    punctured_code,
    sum_map_injective,
    tensor_code,
    tensor_vector,
)
from .errors import AxiomViolation
from .field import make_field
from .instances import Instance, derive_seed, random_rows
from . import poset as posets
from .weights import WeightFn, custom_weight, hamming_weight, lee_weight

# Desk-scale ambient caps per field size: q^n stays below these in scans.
_SIZE_CAP = {2: 1024, 3: 729, 5: 625, 7: 343}
_EXHAUSTIVE_PAIR_CAP = 2048
_RANDOM_PAIR_SAMPLES = 2000


@dataclass
class CheckReport:
    check: str
    digest: str
    seed: int
    status: str  # pass | fail | not-applicable | soft-discrepancy
    witness: dict | None
    elapsed: float

    def record(self) -> dict:
        """Stable serialized fields; timing is deliberately excluded so that
        parallel and serial runs produce byte-identical report streams."""
        return {
            "check": self.check,
            "digest": self.digest,
            "seed": self.seed,
            "status": self.status,
            "witness": self.witness,
        }

    def line(self) -> str:
        return json.dumps(self.record(), sort_keys=True, separators=(",", ":"))


class _Unit:
    """Report collector for one (instance, seed) evaluation of a suite that
    declares the check ids in ``checks``."""

    def __init__(self, seed: int, checks: tuple[str, ...]):
        self.seed = seed
        self.checks = checks
        self.digest = ""
        self.reports: list[CheckReport] = []

    def start(self, digest: str) -> None:
        """Name the instance under test; report timing starts here."""
        self.digest = digest
        self._t0 = time.perf_counter()

    def _emit(self, check: str, status: str, witness: dict | None) -> None:
        if check not in self.checks:
            raise RuntimeError(f"check {check!r} is not declared by its suite")
        now = time.perf_counter()
        self.reports.append(
            CheckReport(check, self.digest, self.seed, status, witness, now - self._t0)
        )
        self._t0 = now

    def hard(self, check: str, ok: bool, witness: dict) -> None:
        self._emit(check, "pass" if ok else "fail", None if ok else witness)

    def soft(self, check: str, ok: bool, witness: dict) -> None:
        self._emit(check, "pass" if ok else "soft-discrepancy", None if ok else witness)

    def na(self, check: str, reason: str) -> None:
        self._emit(check, "not-applicable", {"reason": reason})


@dataclass(frozen=True)
class Suite:
    name: str
    tags: frozenset[str]
    checks: tuple[str, ...]
    default_trials: int
    unit_fn: Callable[[int, int, int | None], list[CheckReport]]


# suite name -> Suite, in declaration order (the order of --list and of the tasks)
REGISTRY: dict[str, Suite] = {}


def suite(
    name: str,
    tags: Iterable[str],
    trials: int,
    pools: Sequence[Sequence[int]],
    checks: tuple[str, ...],
) -> Callable:
    """Declare a suite whose unit body is ``body(u, rng, q, unit)``.

    Unit i of the suite runs on the derived seed h(seed, name, i): it seeds
    rng, draws q from pools[i % len(pools)] (or takes the q filter when that
    pool holds it, else emits nothing), and hands the body a _Unit that
    accepts only ``checks``.  The body names its instance with u.start.
    """

    def register(body: Callable[[_Unit, random.Random, int, int], None]) -> Callable:
        def unit_fn(seed: int, unit: int, q_filter: int | None = None) -> list[CheckReport]:
            child = derive_seed(seed, name, unit)
            rng = random.Random(child)
            q = _pick_q(rng, pools[unit % len(pools)], q_filter)
            if q is None:
                return []
            u = _Unit(child, checks)
            body(u, rng, q, unit)
            return u.reports

        REGISTRY[name] = Suite(name, frozenset(tags), checks, trials, unit_fn)
        return body

    return register


def _pair_digest(*parts: str) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _random_poset(rng: random.Random, s: int) -> posets.Poset:
    roll = rng.random()
    if roll < 0.30:
        return posets.chain(s)
    if roll < 0.50:
        return posets.antichain(s)
    covers = [
        (a, b)
        for a in range(1, s + 1)
        for b in range(a + 1, s + 1)
        if rng.random() < 0.4
    ]
    return posets.from_cover_relations(s, covers)


def _pick_q(rng: random.Random, pool: Sequence[int], q_filter: int | None) -> int | None:
    """Field size for this unit: the filter when it lies in the suite's pool,
    a seeded choice otherwise; None skips the unit entirely."""
    if q_filter is not None:
        return q_filter if q_filter in pool else None
    return rng.choice(pool)


def _random_weight(rng: random.Random, q: int, allow_table: bool = True) -> WeightFn:
    field = make_field(q)
    kinds = ["hamming"]
    if field.e == 1:
        kinds.append("lee")
    if allow_table and field.e == 1 and q >= 3:
        kinds.append("table")
    kind = rng.choice(kinds)
    if kind == "hamming":
        return hamming_weight(field)
    if kind == "lee":
        return lee_weight(field)
    for _ in range(200):
        vals = [0] * q
        for a in range(1, q):
            b = field.neg(a)
            if b < a:
                vals[a] = vals[b]
            else:
                vals[a] = rng.randint(1, 3)
        try:
            return custom_weight(field, vals)
        except AxiomViolation:
            continue
    return lee_weight(field)


def _random_shape(
    rng: random.Random, q: int, cap: int | None = None
) -> tuple[posets.Poset, Labeling]:
    """1-3 blocks of size 1-2 with q^n <= cap (default _SIZE_CAP[q])."""
    cap = cap if cap is not None else _SIZE_CAP[q]
    while True:
        s = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 2) for _ in range(s))
        if q ** sum(sizes) <= cap:
            return _random_poset(rng, s), Labeling(sizes)


def _random_code(
    rng: random.Random,
    space: BlockSpace,
    dim_min: int = 1,
    dim_max: int = 3,
) -> Code:
    """A random linear code; when dim_min >= 1, rows are redrawn until rank >= 1."""
    dim = rng.randint(dim_min, max(dim_min, min(space.n, dim_max)))
    while True:
        code = Code.linear(space, random_rows(rng, space.q, space.n, dim))
        if dim == 0 or code.size >= 2:
            return code


def _instance_of(code: Code) -> Instance:
    return Instance.from_parts(code.space, code)


def _covering_with_oracle(unit: _Unit, code: Code, label: str) -> int:
    """Covering radius of a code.  For a linear code, the coset-major pass's
    covering radius and max coset-leader weight (two readings of one pass)
    are both cross-checked against the explicit word-set scan."""
    if not code.is_linear:
        return code.covering_radius()
    coset_max = code.coset_table().max_weight
    rho = code.covering_radius()
    scan = Code.explicit(code.space, code.codeword_array()).covering_radius()
    unit.hard(
        "covering-oracle",
        rho == coset_max == scan,
        {"code": label, "scan": scan, "coset_max": coset_max, "covering": rho},
    )
    return rho


def _hamming_view(code: Code) -> Code:
    return code.with_weight(hamming_weight(code.space.field))


# ---------------------------------------------------------------------------
# suite: metric-axioms
# ---------------------------------------------------------------------------


def metric_axiom_witness(space: BlockSpace, rng: random.Random | None = None) -> dict | None:
    """None if the metric axioms hold for the batch kernel's weights, else a
    witness.

    Identity and symmetry are checked on every vector.  The triangle
    inequality is checked in its weight form w(x + y) <= w(x) + w(y), which
    covers every triple (u, v, z) via x = u - z, y = z - v: on all pairs
    when q^n <= _EXHAUSTIVE_PAIR_CAP, else on _RANDOM_PAIR_SAMPLES rank
    pairs drawn from rng, so a failure replays from the unit's seed.
    """
    arr = space.all_vectors()
    w = space.batch_weights(arr)
    if w[0] != 0:
        return {"axiom": "identity", "vector": list(space.unrank(0))}
    nz = np.nonzero(w[1:] == 0)[0]
    if len(nz):
        return {"axiom": "identity", "vector": list(space.unrank(int(nz[0]) + 1))}
    neg_rank = space.field.neg_table[arr].astype(np.int64) @ space._radix
    bad = np.nonzero(w[neg_rank] != w)[0]
    if len(bad):
        return {"axiom": "symmetry", "vector": list(space.unrank(int(bad[0])))}
    if space.size <= _EXHAUSTIVE_PAIR_CAP:
        # (N, 1) and (1, N) index arrays broadcast to every pair
        xs, ys = np.ogrid[: space.size, : space.size]
    else:
        rng = rng or random.Random(0)
        picks = [rng.randrange(space.size) for _ in range(2 * _RANDOM_PAIR_SAMPLES)]
        xs, ys = np.array(picks, dtype=np.intp).reshape(2, -1)
    pairs = np.broadcast_arrays(xs, ys)  # read-only views, no copies
    # the rank of x + y for each pair, one coordinate at a time, then its
    # weight, both in place in one intp array
    sums = np.zeros(pairs[0].shape, dtype=np.intp)
    for j in range(space.n):
        sums += (space.field.add_table * space._radix[j])[arr[xs, j], arr[ys, j]]
    np.take(w, sums, out=sums)
    viol = np.flatnonzero(sums > w[xs] + w[ys])
    if len(viol):
        u, v = (space.unrank(int(p.flat[viol[0]])) for p in pairs)
        return {"axiom": "triangle", "u": list(u), "v": list(v)}
    return None


@suite("metric-axioms", {"metric", "axioms"}, 50, [[2, 3, 5]], ("metric-axioms",))
def _unit_metric_axioms(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    # q = 5 reaches 5^6 vectors, past the exhaustive pair cap
    pos, lab = _random_shape(rng, q, cap=_SIZE_CAP[q] * (25 if q == 5 else 1))
    weight = _random_weight(rng, q)
    space = BlockSpace(pos, lab, make_field(q), weight)
    inst = Instance.from_parts(space, Code.linear(space, []))
    u.start(inst.digest())
    witness = metric_axiom_witness(space, rng)
    u.hard("metric-axioms", witness is None, witness or {})


# ---------------------------------------------------------------------------
# suite: reductions
# ---------------------------------------------------------------------------


@suite(
    "reductions",
    {"metric"},
    48,
    [[2, 3, 5], [3, 5, 7], [2, 3, 5], [2, 3]],
    ("reduction-hamming", "reduction-lee", "reduction-nrt", "reduction-poset-block"),
)
def _unit_reductions(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    which = unit % 4
    cap = 1024

    if which == 0:  # trivial blocks + antichain + Hamming -> Hamming weight
        n = rng.randint(1, {2: 10, 3: 6, 5: 4}[q])
        space = BlockSpace(
            posets.antichain(n), Labeling((1,) * n), make_field(q), hamming_weight(make_field(q))
        )
        arr = space.all_vectors()
        expect = (arr != 0).sum(axis=1)
        name = "reduction-hamming"
    elif which == 1:  # trivial blocks + antichain + Lee -> Lee weight
        n = rng.randint(1, {3: 6, 5: 4, 7: 3}[q])
        space = BlockSpace(
            posets.antichain(n), Labeling((1,) * n), make_field(q), lee_weight(make_field(q))
        )
        arr = space.all_vectors()
        a = arr.astype(np.int64)
        expect = np.minimum(a, q - a).sum(axis=1)
        name = "reduction-lee"
    elif which == 2:  # chain + Hamming -> NRT block weight (top nonzero block index)
        _, lab = _random_shape(rng, q, cap=cap)
        space = BlockSpace(
            posets.chain(lab.s), lab, make_field(q), hamming_weight(make_field(q))
        )
        arr = space.all_vectors()
        expect = np.zeros(len(arr), dtype=np.int64)
        for i in range(1, space.s + 1):
            sl = space.labeling.block_slice(i)
            expect = np.where((arr[:, sl] != 0).any(axis=1), i, expect)
        name = "reduction-nrt"
    else:  # any poset + Hamming -> poset block weight |ideal(supp)|
        pos, lab = _random_shape(rng, q, cap=cap)
        space = BlockSpace(pos, lab, make_field(q), hamming_weight(make_field(q)))
        arr = space.all_vectors()
        expect = np.array(
            [
                len(pos.ideal(space.block_support(space.unrank(r))))
                for r in range(space.size)
            ],
            dtype=np.int64,
        )
        name = "reduction-poset-block"

    inst = Instance.from_parts(space, Code.linear(space, []))
    u.start(inst.digest())
    got = space.batch_weights(arr)
    bad = np.nonzero(got != expect)[0]
    witness = {}
    if len(bad):
        r = int(bad[0])
        witness = {
            "vector": list(space.unrank(r)),
            "wpb": int(got[r]),
            "oracle": int(expect[r]),
        }
    u.hard(name, len(bad) == 0, witness)


# ---------------------------------------------------------------------------
# suite: ball-nesting (chain envelope, exhaustive)
# ---------------------------------------------------------------------------

_BALL_ENVELOPE: list[tuple[int, ...]] = [
    sizes for s in (1, 2, 3) for sizes in itertools.product((1, 2), repeat=s)
]


@suite("ball-nesting", {"balls", "chain"}, len(_BALL_ENVELOPE), [[5]], ("ball-nesting-chain",))
def _unit_ball_nesting(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    if unit >= len(_BALL_ENVELOPE):
        return
    sizes = _BALL_ENVELOPE[unit]
    f = make_field(q)
    space = BlockSpace(posets.chain(len(sizes)), Labeling(sizes), f, lee_weight(f))
    inst = Instance.from_parts(space, Code.linear(space, []))
    u.start(inst.digest())
    arr = space.all_vectors()
    wl = space.batch_weights(arr)
    wh = space.hamming_sibling().batch_weights(arr)
    mw = space.weight.max_weight
    ok, witness = True, {}
    for i in range(0, space.s + 1):
        for sigma in range(1, mw + 1):
            in_w = wl <= sigma + i * mw
            in_h = wh <= i + 1
            if (in_w & ~in_h).any():
                ok, witness = False, {"kind": "inclusion", "i": i, "sigma": sigma}
                break
            if i < space.s and (in_w == in_h).all() != (sigma == mw):
                ok, witness = False, {"kind": "equality-iff", "i": i, "sigma": sigma}
                break
        if not ok:
            break
    u.hard("ball-nesting-chain", ok, witness)


# ---------------------------------------------------------------------------
# suite: chain-radii (packing + covering radius theorems on chains)
# ---------------------------------------------------------------------------


@suite(
    "chain-radii",
    {"radii", "chain"},
    200,
    [[2, 3, 5]],
    (
        "packing-radius-chain-lower",
        "packing-radius-chain-equality",
        "covering-radius-chain",
        "covering-oracle",
    ),
)
def _unit_chain_radii(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    _, lab = _random_shape(rng, q)
    space = BlockSpace(posets.chain(lab.s), lab, make_field(q), _random_weight(rng, q))
    code = _random_code(rng, space, dim_min=1, dim_max={2: 4, 3: 3, 5: 3}[q])
    u.start(_instance_of(code).digest())

    mw = space.weight.max_weight
    m_small = space.weight.min_nonzero_weight
    d_h = _hamming_view(code).min_distance()
    d_w = code.min_distance()
    rho_pack = code.packing_radius()
    floor = (d_h - 1) * mw
    witness = {
        "packing": rho_pack,
        "d_hamming": d_h,
        "d_weighted": d_w,
        "M_w": mw,
        "m_w": m_small,
    }
    u.hard("packing-radius-chain-lower", rho_pack >= floor, witness)
    # The published equality criterion has genuine counterexamples (already
    # with the Lee weight over GF(5)): a minimum-distance difference can
    # split into two below-threshold halves, letting balls of radius
    # floor + 1 intersect although d_w exceeds m_w + floor.  Soft check.
    u.soft(
        "packing-radius-chain-equality",
        (rho_pack == floor) == (d_w == m_small + floor),
        witness,
    )

    rho = _covering_with_oracle(u, code, "code")
    r = code.trailing_full_index()
    u.hard(
        "covering-radius-chain",
        (r - 1) * mw < rho <= r * mw,
        {"covering": rho, "r": r, "M_w": mw},
    )


# ---------------------------------------------------------------------------
# suite: direct-sum
# ---------------------------------------------------------------------------


def _sample_pair(rng: random.Random, q: int) -> tuple[Code, Code]:
    """Two codes of dimension 1-2 under one weight, on spaces whose
    vector counts multiply to at most _SIZE_CAP[q]."""
    weight = _random_weight(rng, q, allow_table=False)
    while True:
        p1, lab1 = _random_shape(rng, q)
        p2, lab2 = _random_shape(rng, q)
        if q ** (lab1.n + lab2.n) <= _SIZE_CAP[q]:
            break
    f = make_field(q)
    c1 = _random_code(rng, BlockSpace(p1, lab1, f, weight), 1, 2)
    c2 = _random_code(rng, BlockSpace(p2, lab2, f, weight), 1, 2)
    return c1, c2


@suite(
    "direct-sum",
    {"constructions"},
    100,
    [[2, 3, 5]],
    (
        "dsum-mindist-disjoint",
        "dsum-mindist-linear",
        "dsum-covering-disjoint",
        "dsum-covering-linear",
        "dsum-coset-leader-disjoint",
        "dsum-coset-leader-linear",
        "covering-oracle",
    ),
)
def _unit_direct_sum(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    c1, c2 = _sample_pair(rng, q)
    i1, i2 = _instance_of(c1), _instance_of(c2)
    u.start(_pair_digest(i1.digest(), i2.digest()))

    mw = c1.space.weight.max_weight
    d1 = c1.min_distance()
    d2 = c2.min_distance()
    rho1 = _covering_with_oracle(u, c1, "C1")
    rho2 = _covering_with_oracle(u, c2, "C2")

    disj = direct_sum_code(c1, c2, "disjoint").code
    lin = direct_sum_code(c1, c2, "linear").code

    dd = disj.min_distance()
    u.hard("dsum-mindist-disjoint", dd == min(d1, d2), {"d": dd, "d1": d1, "d2": d2})
    dl = lin.min_distance()
    u.hard("dsum-mindist-linear", dl == d1, {"d": dl, "d1": d1})

    rho_disj = _covering_with_oracle(u, disj, "disjoint-sum")
    u.hard(
        "dsum-covering-disjoint",
        rho_disj == rho1 + rho2,
        {"rho": rho_disj, "rho1": rho1, "rho2": rho2},
    )
    rho_lin = _covering_with_oracle(u, lin, "linear-sum")
    if rho2 > 0:
        u.hard(
            "dsum-covering-linear",
            rho_lin == c1.space.s * mw + rho2,
            {"rho": rho_lin, "s": c1.space.s, "M_w": mw, "rho2": rho2},
        )
    else:
        # With C2 the full space the deep coset leader (u', u'') has zero
        # second half, so the published equality degenerates; skip.
        u.na("dsum-covering-linear", "rho(C2) = 0")

    t1 = c1.coset_table()
    t2 = c2.coset_table()
    for label, total in (("disjoint", disj), ("linear", lin)):
        table = total.coset_table()
        ok, witness = True, {}
        for l1, w1 in zip(t1.leaders, t1.weights):
            for l2, w2 in zip(t2.leaders, t2.weights):
                joint = l1 + l2
                expect = table.weights[total.coset_index(joint)]
                got = total.space.wpb_weight(joint)
                if got != expect:
                    ok = False
                    witness = {
                        "order": label,
                        "leader1": list(l1),
                        "leader2": list(l2),
                        "weight": got,
                        "coset_weight": expect,
                    }
                    break
            if not ok:
                break
        u.hard(f"dsum-coset-leader-{label}", ok, witness)


# ---------------------------------------------------------------------------
# suite: plotkin
# ---------------------------------------------------------------------------


@suite(
    "plotkin",
    {"constructions"},
    100,
    [[2, 3, 5]],
    (
        "plotkin-mindist-disjoint",
        "plotkin-mindist-linear",
        "plotkin-refined-disjoint",
        "plotkin-refined-linear",
        "plotkin-covering-disjoint",
        "plotkin-covering-linear",
        "covering-oracle",
    ),
)
def _unit_plotkin(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    cap = _SIZE_CAP[q]
    weight = _random_weight(rng, q, allow_table=False)
    f = make_field(q)
    while True:
        p1, lab1 = _random_shape(rng, q, cap=cap)
        if q ** (2 * lab1.n) <= cap:
            break
    n = lab1.n
    # a second labeling with the same total length
    while True:
        s2 = rng.randint(1, min(3, n))
        sizes2 = _random_partition(rng, n, s2)
        if sizes2 is not None:
            break
    p2 = _random_poset(rng, len(sizes2))
    lab2 = Labeling(sizes2)
    c1 = _random_code(rng, BlockSpace(p1, lab1, f, weight), 1, 2)
    c2 = _random_code(rng, BlockSpace(p2, lab2, f, weight), 1, 2)
    i1, i2 = _instance_of(c1), _instance_of(c2)
    u.start(_pair_digest(i1.digest(), i2.digest()))

    mw = weight.max_weight
    d1 = c1.min_distance()
    d2 = c2.min_distance()
    rho1 = _covering_with_oracle(u, c1, "C1")
    rho2 = _covering_with_oracle(u, c2, "C2")

    disj = plotkin_code(c1, c2, "disjoint").code
    lin = plotkin_code(c1, c2, "linear").code

    dd = disj.min_distance()
    u.hard("plotkin-mindist-disjoint", dd >= min(d1, d2), {"d": dd, "d1": d1, "d2": d2})
    dl = lin.min_distance()
    u.hard("plotkin-mindist-linear", dl >= d1, {"d": dl, "d1": d1})

    if sum_map_injective(c1, c2):
        # cross-space quantities: C1 and C1+C2 measured in (Q, pi2, w)
        space2 = c2.space
        c1_in_q = Code.explicit(space2, c1.codeword_array())
        # the second halves u' + u'' of the (u'|u'+u'') words
        sums = Code.explicit(space2, disj.codeword_array()[:, c1.space.n :])
        d_c1_q = c1_in_q.min_distance()
        d_sums = sums.min_distance()
        bound = min(d2, d1 + d_c1_q, d1 + d_sums)
        u.hard(
            "plotkin-refined-disjoint",
            dd >= bound,
            {"d": dd, "bound": bound, "d2": d2, "d_c1_q": d_c1_q, "d_sums": d_sums},
        )
        expect = c1.space.s * mw + min(d2, d_c1_q, d_sums)
        u.hard(
            "plotkin-refined-linear",
            dl == expect,
            {"d": dl, "expected": expect},
        )
    else:
        u.na("plotkin-refined-disjoint", "sum map not injective on C1 x C2")
        u.na("plotkin-refined-linear", "sum map not injective on C1 x C2")

    rho_disj = _covering_with_oracle(u, disj, "disjoint")
    u.hard(
        "plotkin-covering-disjoint",
        rho_disj <= rho1 + rho2,
        {"rho": rho_disj, "rho1": rho1, "rho2": rho2},
    )
    rho_lin = _covering_with_oracle(u, lin, "linear")
    u.hard(
        "plotkin-covering-linear",
        rho_lin <= c1.space.s * mw + rho2,
        {"rho": rho_lin, "s": c1.space.s, "M_w": mw, "rho2": rho2},
    )


def _random_partition(rng: random.Random, n: int, parts: int) -> tuple[int, ...] | None:
    """n as an ordered sum of `parts` sizes in {1, 2}, or None if impossible."""
    if not parts <= n <= 2 * parts:
        return None
    twos = n - parts
    flags = [1] * parts
    for idx in rng.sample(range(parts), twos):
        flags[idx] = 2
    return tuple(flags)


# ---------------------------------------------------------------------------
# suite: extend
# ---------------------------------------------------------------------------


@suite(
    "extend",
    {"constructions"},
    100,
    [[2, 3, 5]],
    ("extend-mindist", "extend-covering", "covering-oracle"),
)
def _unit_extend(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    cap = _SIZE_CAP[q]
    while True:
        pos, lab = _random_shape(rng, q, cap=cap)
        if q ** (lab.n + 1) <= cap:
            break
    space = BlockSpace(pos, lab, make_field(q), _random_weight(rng, q))
    code = _random_code(rng, space, 1, 2)
    u.start(_instance_of(code).digest())

    ext = extended_code(code).code
    mw = space.weight.max_weight
    d = code.min_distance()
    de = ext.min_distance()
    u.hard("extend-mindist", d <= de <= d + mw, {"d": d, "d_ext": de, "M_w": mw})

    rho = _covering_with_oracle(u, code, "code")
    rho_e = _covering_with_oracle(u, ext, "extended")
    u.hard(
        "extend-covering", rho <= rho_e <= rho + mw, {"rho": rho, "rho_ext": rho_e, "M_w": mw}
    )


# ---------------------------------------------------------------------------
# suite: puncture
# ---------------------------------------------------------------------------


@suite(
    "puncture",
    {"constructions"},
    100,
    [[2, 3, 5]],
    ("puncture-vector-weight", "puncture-mindist", "puncture-covering", "covering-oracle"),
)
def _unit_puncture(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    while True:
        pos, lab = _random_shape(rng, q)
        if lab.s >= 2:
            break
    space = BlockSpace(pos, lab, make_field(q), _random_weight(rng, q))
    code = _random_code(rng, space, 1, {2: 4, 3: 3, 5: 2}[q])
    block = rng.randint(1, space.s)
    u.start(_pair_digest(_instance_of(code).digest(), f"block={block}"))

    pun = punctured_code(code, block).code
    outside = np.ones(space.n, dtype=bool)
    outside[space.labeling.block_slice(block)] = False

    # every step-th vector in odometer order against its punctured image;
    # the witness is the first that violates w(v*) <= w(v)
    ranks = np.arange(0, space.size, max(1, space.size // 256))
    vecs = (ranks[:, None] // space._radix % space.q).astype(np.uint8)
    bad = np.flatnonzero(pun.space.batch_weights(vecs[:, outside]) > space.batch_weights(vecs))
    witness = {"vector": vecs[bad[0]].tolist(), "block": block} if len(bad) else {}
    u.hard("puncture-vector-weight", not len(bad), witness)

    # d(C*) <= d(C) needs some minimum-distance pair to survive puncturing.
    # When a nonzero codeword lives entirely in the punctured block the pair
    # may collapse and the published bound can fail, so that regime is soft.
    cw = code.codeword_array()
    collapse = bool(
        ((cw[:, outside] == 0).all(axis=1) & (cw != 0).any(axis=1)).any()
    )
    d = code.min_distance()
    if pun.size < 2:
        u.na("puncture-mindist", "punctured code has a single word")
    else:
        dp = pun.min_distance()
        witness = {"d": d, "d_punctured": dp, "block": block, "collapse": collapse}
        if collapse:
            u.soft("puncture-mindist", dp <= d, witness)
        else:
            u.hard("puncture-mindist", dp <= d, witness)

    rho = _covering_with_oracle(u, code, "code")
    rho_p = _covering_with_oracle(u, pun, "punctured")
    u.hard("puncture-covering", rho_p <= rho, {"rho": rho, "rho_punctured": rho_p})


# ---------------------------------------------------------------------------
# suites: tensor products
# ---------------------------------------------------------------------------


def _top_block_index(code_space: BlockSpace, vec) -> int:
    supp = code_space.block_support(vec)
    return max(supp) if supp else 0


def _sample_tensor_pair(
    rng: random.Random,
    q: int,
    shapes: tuple[str, str],
    trivial: bool,
    word_cap: int,
    ambient_cap: int | None,
    dim_min: int = 1,
) -> tuple[Code, Code] | None:
    weight_pool = ["hamming", "lee"] if make_field(q).e == 1 else ["hamming"]
    wname = rng.choice(weight_pool)
    f = make_field(q)
    weight = lee_weight(f) if wname == "lee" else hamming_weight(f)
    for _ in range(60):
        s = rng.randint(1, 3)
        t = rng.randint(1, 3)
        sizes1 = (1,) * s if trivial else tuple(rng.randint(1, 2) for _ in range(s))
        sizes2 = (1,) * t if trivial else tuple(rng.randint(1, 2) for _ in range(t))
        n1, n2 = sum(sizes1), sum(sizes2)
        if ambient_cap is not None and q ** (n1 * n2) > ambient_cap:
            continue
        d1 = rng.randint(dim_min, min(n1, 2))
        d2 = rng.randint(dim_min, min(n2, 2))
        if q ** (d1 + d2) > word_cap:
            continue
        p1 = posets.chain(s) if shapes[0] == "chain" else posets.antichain(s)
        p2 = posets.chain(t) if shapes[1] == "chain" else posets.antichain(t)
        c1 = _random_code(rng, BlockSpace(p1, Labeling(sizes1), f, weight), dim_min, d1)
        c2 = _random_code(rng, BlockSpace(p2, Labeling(sizes2), f, weight), dim_min, d2)
        return c1, c2
    return None


_SHAPE_MIX = [("chain", "antichain"), ("antichain", "antichain"), ("chain", "chain"),
              ("antichain", "chain")]


@suite(
    "tensor-mindist",
    {"constructions", "tensor"},
    100,
    [[2, 3, 5], [2, 3, 5], [3, 5, 7]],
    (
        "tensor-weight-chain-chain",
        "tensor-mindist-car-chain-anti",
        "tensor-mindist-car-anti-chain",
        "tensor-mindist-car-anti-anti",
        "tensor-mindist-car-chain-chain",
        "tensor-mindist-lex-chain-anti",
        "tensor-mindist-lex-chain-chain",
        "tensor-mindist-lex-anti-anti",
        "tensor-mindist-lex-anti-chain",
        "tensor-trivial-car",
        "tensor-trivial-lex-chain-anti",
        "tensor-trivial-lex-chain-chain",
        "tensor-lee-corollary",
    ),
)
def _unit_tensor_mindist(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    mode = unit % 3  # 0: general shapes, 1: trivial labelings, 2: Lee corollary
    trivial = mode != 0
    shapes = _SHAPE_MIX[unit % 4]
    pair = _sample_tensor_pair(rng, q, shapes, trivial, word_cap=128, ambient_cap=None)
    if pair is None:
        return
    c1, c2 = pair
    if mode == 2:
        c1 = c1.with_weight(lee_weight(make_field(q)))
        c2 = c2.with_weight(lee_weight(make_field(q)))
    i1, i2 = _instance_of(c1), _instance_of(c2)
    u.start(_pair_digest(i1.digest(), i2.digest()))

    space1, space2 = c1.space, c2.space
    weight = space1.weight
    mw, m_small = weight.max_weight, weight.min_nonzero_weight
    s, t = space1.s, space2.s
    p_chain, q_chain = space1.poset.is_chain(), space2.poset.is_chain()
    p_anti, q_anti = space1.poset.is_antichain(), space2.poset.is_antichain()
    d1h = _hamming_view(c1).min_distance()
    d2h = _hamming_view(c2).min_distance()
    d1w = c1.min_distance()
    d2w = c2.min_distance()

    car = tensor_code(c1, c2, "cartesian").code
    lex = tensor_code(c1, c2, "lex").code
    d_car = car.min_distance()
    d_lex = lex.min_distance()
    base = {"d_car": d_car, "d_lex": d_lex, "d1h": d1h, "d2h": d2h, "d1w": d1w, "d2w": d2w}

    # exact weight formula for rank-one words under chain x chain
    if p_chain and q_chain:
        ok, witness = True, {}
        pairs = [(a, b) for a in c1.codewords() if any(a) for b in c2.codewords() if any(b)]
        if len(pairs) > 200:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(200)]
        for a, b in pairs:
            lam = _top_block_index(space1, a)
            delta = _top_block_index(space2, b)
            tv = tensor_vector(space1.field, space1.labeling, space2.labeling, a, b)
            flat = (lam - 1) * t + delta
            expect = car.space.block_max_weight(tv, flat) + (lam * delta - 1) * mw
            got = car.space.wpb_weight(tv)
            if got != expect:
                ok = False
                witness = {"u": list(a), "v": list(b), "weight": got, "expected": expect}
                break
        u.hard("tensor-weight-chain-chain", ok, witness)
    else:
        u.na("tensor-weight-chain-chain", "needs two chains")

    def soft_between(check: str, lo: int, d: int, hi: int) -> None:
        u.soft(check, lo <= d <= hi, dict(base, lower=lo, upper=hi))

    # cartesian-product distance sandwiches
    if p_chain and q_anti and not (s == 1 and t == 1):
        soft_between(
            "tensor-mindist-car-chain-anti",
            d2h * (d1h - 1) * mw + d2w,
            d_car,
            d1h * d2h * mw,
        )
    if p_anti and q_chain and not (s == 1 and t == 1):
        soft_between(
            "tensor-mindist-car-anti-chain",
            d1h * (d2h - 1) * mw + d1w,
            d_car,
            d1h * d2h * mw,
        )
    if p_anti and q_anti:
        soft_between(
            "tensor-mindist-car-anti-anti",
            d1h * d2h * m_small,
            d_car,
            d1h * d2h * mw,
        )
    if p_chain and q_chain:
        soft_between(
            "tensor-mindist-car-chain-chain",
            (d1h * d2h - 1) * mw + m_small,
            d_car,
            d1h * d2h * mw,
        )
        if trivial:
            expect = (d1h * d2h - 1) * mw + m_small
            u.soft("tensor-trivial-car", d_car == expect, dict(base, expected=expect))

    # lexicographic-product distance sandwiches
    if p_chain and q_anti:
        soft_between(
            "tensor-mindist-lex-chain-anti",
            (d1h - 1) * t * mw + d2w,
            d_lex,
            (d1h - 1) * t * mw + d2h * mw,
        )
        if trivial:
            expect = (d1h - 1) * t * mw + d2w
            u.soft(
                "tensor-trivial-lex-chain-anti", d_lex == expect, dict(base, expected=expect)
            )
    if p_chain and q_chain:
        soft_between(
            "tensor-mindist-lex-chain-chain",
            m_small + (d1h - 1) * t * mw + (d2h - 1) * mw,
            d_lex,
            (d1h - 1) * t * mw + d2h * mw,
        )
        if trivial:
            expect = m_small + (d1h - 1) * t * mw + (d2h - 1) * mw
            u.soft(
                "tensor-trivial-lex-chain-chain", d_lex == expect, dict(base, expected=expect)
            )
    if p_anti and q_anti:
        soft_between(
            "tensor-mindist-lex-anti-anti",
            d1h * d2h * m_small,
            d_lex,
            d1h * d2h * mw,
        )
    if p_anti and q_chain:
        soft_between(
            "tensor-mindist-lex-anti-chain",
            d1w + d1h * (d2h - 1) * mw,
            d_lex,
            d1h * d2h * mw,
        )

    # the Lee-weight special case with trivial labelings
    if mode == 2:
        half = space1.q // 2
        if p_anti and q_anti:
            u.soft(
                "tensor-lee-corollary",
                d1h * d2h <= d_car <= d1h * d2h * half,
                dict(base, case="anti-anti"),
            )
        elif p_chain and q_anti:
            u.soft(
                "tensor-lee-corollary",
                d2h * (d1h - 1) * half + d2w <= d_car <= d1h * d2h * half,
                dict(base, case="chain-anti"),
            )
        elif p_chain and q_chain:
            lhs = (d1w - 1) * d2h + d2w
            rhs = (d2w - 1) * d1h + d1w
            u.soft(
                "tensor-lee-corollary",
                d_car == lhs == rhs,
                dict(base, case="chain-chain", form1=lhs, form2=rhs),
            )


@suite(
    "tensor-covering",
    {"constructions", "tensor"},
    100,
    [[2, 3]],
    (
        "tensor-covering-lower-car",
        "tensor-covering-lower-lex",
        "tensor-covering-car-1a",
        "tensor-covering-car-1b",
        "tensor-covering-car-1c",
        "tensor-covering-car-2a",
        "tensor-covering-car-2b",
        "tensor-covering-car-2c",
        "tensor-covering-car-2d",
        "tensor-covering-car-2e",
        "tensor-covering-lex-1a",
        "tensor-covering-lex-1b",
        "tensor-covering-lex-1c",
        "tensor-covering-lex-2a",
        "tensor-covering-lex-2b",
        "covering-oracle",
    ),
)
def _unit_tensor_covering(u: _Unit, rng: random.Random, q: int, unit: int) -> None:
    shapes = _SHAPE_MIX[unit % 4]
    trivial = rng.random() < 0.5
    pair = _sample_tensor_pair(
        rng,
        q,
        shapes,
        trivial,
        word_cap=64,
        ambient_cap={2: 512, 3: 729}[q],
        dim_min=0,
    )
    if pair is None:
        return
    c1, c2 = pair
    i1, i2 = _instance_of(c1), _instance_of(c2)
    u.start(_pair_digest(i1.digest(), i2.digest()))

    space1, space2 = c1.space, c2.space
    weight = space1.weight
    mw, m_small = weight.max_weight, weight.min_nonzero_weight
    s, t = space1.s, space2.s
    alpha_s = space1.labeling.sizes[-1]
    beta_t = space2.labeling.sizes[-1]
    p_chain, q_chain = space1.poset.is_chain(), space2.poset.is_chain()
    p_anti, q_anti = space1.poset.is_antichain(), space2.poset.is_antichain()

    ham = hamming_weight(space1.field)
    rho1 = _covering_with_oracle(u, c1, "C1")
    rho2 = _covering_with_oracle(u, c2, "C2")
    big_d1 = c1.max_poset_weight(ham)
    big_d2 = c2.max_poset_weight(ham)
    r1 = _hamming_view(c1).covering_radius()
    r2 = _hamming_view(c2).covering_radius()

    car = tensor_code(c1, c2, "cartesian").code
    lex = tensor_code(c1, c2, "lex").code
    rho_car = car.covering_radius()
    rho_lex = lex.covering_radius()
    base = {
        "rho_car": rho_car,
        "rho_lex": rho_lex,
        "rho1": rho1,
        "rho2": rho2,
        "R1": r1,
        "R2": r2,
        "D1": big_d1,
        "D2": big_d2,
        "s": s,
        "t": t,
    }

    floor = max(s * rho2, t * rho1)
    u.hard("tensor-covering-lower-car", rho_car >= floor, dict(base, lower=floor))
    u.hard("tensor-covering-lower-lex", rho_lex >= floor, dict(base, lower=floor))

    # cartesian cases
    if p_chain and q_anti:
        if big_d1 < s:
            u.soft("tensor-covering-car-1a", rho_car == s * t * mw, base)
        else:
            u.na("tensor-covering-car-1a", "D1 = s")
        u.soft(
            "tensor-covering-car-1b",
            rho_car >= r2 * (s - 1) * mw + r2 * m_small,
            base,
        )
        if big_d1 == s and alpha_s == 1:
            u.soft(
                "tensor-covering-car-1c",
                rho_car <= (s - 1) * t * mw + rho2,
                base,
            )
        else:
            u.na("tensor-covering-car-1c", "needs D1 = s and alpha_s = 1")
    if p_chain and q_chain:
        if big_d1 < s or big_d2 < t:
            u.soft("tensor-covering-car-2a", rho_car == s * t * mw, base)
        else:
            u.na("tensor-covering-car-2a", "D1 = s and D2 = t")
        if big_d1 == s and big_d2 == t:
            if alpha_s == 1:
                u.soft(
                    "tensor-covering-car-2b",
                    rho_car <= (s - 1) * t * mw + rho2,
                    base,
                )
            if beta_t == 1:
                u.soft(
                    "tensor-covering-car-2c",
                    rho_car <= (t - 1) * s * mw + rho1,
                    base,
                )
            if alpha_s == 1 and beta_t == 1:
                u.soft(
                    "tensor-covering-car-2d",
                    rho_car <= min((s - 1) * t * mw + rho2, (t - 1) * s * mw + rho1),
                    base,
                )
        u.soft(
            "tensor-covering-car-2e",
            rho_car >= max((s * r2 - 1) * mw + m_small, (t * r1 - 1) * mw + m_small),
            base,
        )

    # lexicographic cases
    if p_chain:
        if big_d1 < s or (q_chain and big_d2 < t):
            u.soft("tensor-covering-lex-1a", rho_lex == s * t * mw, base)
        else:
            u.na("tensor-covering-lex-1a", "no deficient trailing projection")
        if big_d1 == s and big_d2 == t and alpha_s == 1:
            u.soft(
                "tensor-covering-lex-1b",
                rho_lex <= (s - 1) * t * mw + rho2,
                base,
            )
        else:
            u.na("tensor-covering-lex-1b", "needs D1 = s, D2 = t, alpha_s = 1")
        u.soft(
            "tensor-covering-lex-1c",
            rho_lex >= max((s - 1) * t * mw + rho2, t * rho1),
            base,
        )
    if p_anti and q_chain:
        if big_d2 < t:
            u.soft("tensor-covering-lex-2a", rho_lex == s * t * mw, base)
        else:
            u.na("tensor-covering-lex-2a", "D2 = t")
        if big_d2 == t and beta_t == 1:
            u.soft(
                "tensor-covering-lex-2b",
                rho_lex <= (t - 1) * s * mw + rho1,
                base,
            )
        else:
            u.na("tensor-covering-lex-2b", "needs D2 = t and beta_t = 1")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def resolve_filters(filters: Sequence[str]) -> dict[str, set[str] | None]:
    """Map suite name -> selected check ids (None = all) for the given filters.

    A filter matches a suite name, a tag, or an individual check id.
    """
    wanted: dict[str, set[str] | None] = {}
    unknown = []
    for f in filters:
        if f == "all":
            for name in REGISTRY:
                wanted[name] = None
            continue
        hit = False
        for name, suite in REGISTRY.items():
            if f == name or f in suite.tags:
                wanted[name] = None
                hit = True
            elif f in suite.checks:
                hit = True
                if name in wanted and wanted[name] is None:
                    continue  # whole suite already selected
                wanted.setdefault(name, set())
                wanted[name].add(f)
        if not hit:
            unknown.append(f)
    if unknown:
        raise ValueError(
            f"unknown suite/tag/check filters: {unknown}; known suites: {sorted(REGISTRY)}"
        )
    return wanted


def _run_unit(args: tuple[str, int, int, int | None]) -> list[CheckReport]:
    name, seed, unit, q = args
    return REGISTRY[name].unit_fn(seed, unit, q)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one (a container or taskset limit), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_suite(
    filters: Sequence[str] = ("all",),
    seed: int = 0,
    trials: int | None = None,
    jobs: int = 1,
    q: int | None = None,
) -> list[CheckReport]:
    """Run the selected suites and return canonically ordered reports.

    ``q`` restricts instance generation to one field size; suites whose
    envelope does not contain it contribute no reports.  ``jobs`` worker
    processes, at most the CPUs this process may use, run the units.
    """
    if q is not None and q not in (2, 3, 5, 7):
        raise ValueError(f"--q must be one of 2, 3, 5, 7; got {q}")
    wanted = resolve_filters(filters)
    tasks: list[tuple[str, int, int, int | None]] = []
    for name in REGISTRY:
        if name not in wanted:
            continue
        for unit in range(trials if trials is not None else REGISTRY[name].default_trials):
            tasks.append((name, seed, unit, q))
    jobs = min(jobs, _usable_cpus())
    if jobs > 1:
        with Pool(jobs) as pool:
            chunks = pool.map(_run_unit, tasks)
    else:
        chunks = [_run_unit(t) for t in tasks]
    reports: list[CheckReport] = []
    for (name, _, _, _), chunk in zip(tasks, chunks):
        allowed = wanted[name]
        for rep in chunk:
            if allowed is None or rep.check in allowed:
                reports.append(rep)
    reports.sort(key=lambda r: (r.check, r.digest, r.seed))
    return reports


def to_jsonl(reports: Iterable[CheckReport]) -> str:
    return "".join(r.line() + "\n" for r in reports)


def discrepancies(reports: Iterable[CheckReport]) -> list[CheckReport]:
    return [r for r in reports if r.status == "soft-discrepancy"]


def hard_failures(reports: Iterable[CheckReport]) -> list[CheckReport]:
    return [r for r in reports if r.status == "fail"]


def summarize(reports: Sequence[CheckReport]) -> str:
    """A human-readable per-check table of status counts."""
    by_check: dict[str, dict[str, int]] = {}
    elapsed: dict[str, float] = {}
    for r in reports:
        row = by_check.setdefault(r.check, {})
        row[r.status] = row.get(r.status, 0) + 1
        elapsed[r.check] = elapsed.get(r.check, 0.0) + r.elapsed
    statuses = ["pass", "fail", "soft-discrepancy", "not-applicable"]
    width = max([len(c) for c in by_check] + [5])
    lines = [
        f"{'check':<{width}}  {'pass':>6} {'fail':>6} {'soft':>6} {'n/a':>6} {'sec':>7}"
    ]
    for check in sorted(by_check):
        row = by_check[check]
        cells = " ".join(f"{row.get(s, 0):>6}" for s in statuses)
        lines.append(f"{check:<{width}}  {cells} {elapsed[check]:>7.2f}")
    total = {s: sum(r.get(s, 0) for r in by_check.values()) for s in statuses}
    cells = " ".join(f"{total.get(s, 0):>6}" for s in statuses)
    lines.append(f"{'TOTAL':<{width}}  {cells} {sum(elapsed.values()):>7.2f}")
    return "\n".join(lines)
