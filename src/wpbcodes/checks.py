"""The verification suite: every claim of the paper becomes a named check.

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

Each claim is one row, a Claim: its check id, hard or soft, a gate and a
relation, all functions of the unit's readings, or of each entry of a list
among them.  The gate emits nothing, emits not-applicable with a reason, or
lets the relation decide; the relation returns whether the claim holds and
the record's witness.  A suite is declared once, by
``@suite(name, tags, trials, pools, claims)`` on its unit body; its check
ids are its rows' ids in row order, and the declaration registers it in
REGISTRY.  A unit body samples its instance and takes its readings; it
returns the instance's digest and the readings, and emits nothing.  One
evaluator, _evaluate, gives every record, row by row.  The covering oracle
is a row like any other, over the list of readings that
_covering_with_oracle takes, one entry per code whose covering radius is
read.

Unit i of suite S under master seed m uses the derived seed h(m, S, i) and
draws its field size q first, from pools[i % len(pools)], so any report
replays from (seed, digest) alone.  Reports sort canonically by (check,
digest, seed); their serialized form excludes timing, so parallel and
serial runs emit byte-identical output.  Each report carries an even share
of its unit's seconds, so the per-check seconds add up to the units' time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .blockspace import _CHUNK, BlockSpace, Labeling
from .codes import Code, _shared, shared_memos
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

COVERING_ORACLE = "covering-oracle"


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


HARD, SOFT = False, True


class Readings(SimpleNamespace):
    """A unit's readings, by name.  ``oracle`` starts empty:
    _covering_with_oracle appends one entry per code it reads, and the
    covering-oracle row reads them."""

    def __init__(self, **readings):
        super().__init__(oracle=[], **readings)


class Claim(NamedTuple):
    """One claim of the paper as a row, read against each entry x of
    ``each(r)``, a unit's readings r itself by default.

    ``gate(x)`` has three outcomes: a false value emits nothing, a string
    emits not-applicable with that reason, and True evaluates
    ``relation(x)``, which returns (ok, witness).  ``soft`` is HARD, SOFT or
    a function of x.
    """

    check: str
    soft: bool | Callable[[Readings], bool]
    relation: Callable[[Readings], tuple[bool, dict]]
    gate: Callable[[Readings], bool | str] = lambda r: True
    each: Callable[[Readings], Iterable] = lambda r: (r,)


# one record per code whose covering radius _covering_with_oracle reads
_ORACLE = Claim(
    COVERING_ORACLE, HARD, lambda w: (w["covering"] == w["coset_max"] == w["scan"], w),
    each=lambda r: r.oracle,
)


def _evaluate(claims: Sequence[Claim], r: Readings) -> Iterator[tuple[str, str, dict | None]]:
    """The (check, status, witness) records of a unit's rows, in row order."""
    for claim in claims:
        for x in claim.each(r):
            gate = claim.gate(x)
            if isinstance(gate, str):
                yield claim.check, "not-applicable", {"reason": gate}
            elif gate:
                ok, witness = claim.relation(x)
                soft = claim.soft(x) if callable(claim.soft) else claim.soft
                status = "pass" if ok else "soft-discrepancy" if soft else "fail"
                yield claim.check, status, None if ok else witness


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
    claims: Sequence[Claim],
) -> Callable:
    """Declare a suite whose unit body is ``body(rng, q, unit)``.

    Unit i of the suite runs on the derived seed h(seed, name, i): it seeds
    rng and draws q from pools[i % len(pools)] (or takes the q filter when
    that pool holds it, else emits nothing).  The body returns its
    instance's digest and its readings, or None to emit no rows; the rows'
    records then share the unit's seconds evenly.
    """
    checks = tuple(dict.fromkeys(claim.check for claim in claims))

    def register(body: Callable[..., tuple[str, Readings] | None]) -> Callable:
        def unit_fn(seed: int, unit: int, q_filter: int | None = None) -> list[CheckReport]:
            child = derive_seed(seed, name, unit)
            rng = random.Random(child)
            q = _pick_q(rng, pools[unit % len(pools)], q_filter)
            t0 = time.perf_counter()
            read = None if q is None else body(rng, q, unit)
            if read is None:
                return []
            digest, r = read
            records = list(_evaluate(claims, r))
            share = (time.perf_counter() - t0) / max(len(records), 1)
            return [CheckReport(check, digest, child, status, witness, share)
                    for check, status, witness in records]

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
    rng: random.Random,
    q: int,
    cap: int | None = None,
    accept: Callable[[Labeling], bool] = lambda lab: True,
) -> tuple[posets.Poset, Labeling]:
    """1-3 blocks of size 1-2 with q^n <= cap (default _SIZE_CAP[q]) and
    accept(labeling) true.  accept is tested once the poset is drawn, so a
    rejected shape consumes its poset's draws too."""
    cap = cap if cap is not None else _SIZE_CAP[q]
    while True:
        s = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 2) for _ in range(s))
        if q ** sum(sizes) <= cap:
            pos, lab = _random_poset(rng, s), Labeling(sizes)
            if accept(lab):
                return pos, lab


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


def _space_digest(space: BlockSpace) -> str:
    """The digest of a space alone: the instance of its zero code."""
    return _instance_of(Code.linear(space, [])).digest()


def _covering_with_oracle(r: Readings, code: Code, label: str) -> int:
    """Covering radius of a code.  For a linear code, three separate
    computations are appended to r.oracle, for _ORACLE: the code's tree
    reading, its coset table's full pass (max leader weight) and the
    word-set reading of the same words.  They are separate memo entries
    also where equal codes share a memo (shared_memos): the reading and
    the table are two entries of the code's memo, and the word-set code,
    of the explicit kind, has a memo of its own."""
    rho = code.covering_radius()
    if code.is_linear:
        coset_max = code.coset_table().max_weight
        scan = Code.explicit(code.space, code.codeword_array()).covering_radius()
        r.oracle.append({"code": label, "scan": scan, "coset_max": coset_max, "covering": rho})
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
    when q^n <= _EXHAUSTIVE_PAIR_CAP, in blocks of rows of at most _CHUNK
    pairs taken x-major, so the witness is the first violating pair in
    x-major order, else on _RANDOM_PAIR_SAMPLES rank pairs drawn from rng,
    so a failure replays from the unit's seed.  Each block's index and
    rank arrays hold at most max(_CHUNK, q^n) entries.
    """
    arr = space.all_vectors()
    w = space.batch_weights(arr)
    if w[0] != 0:
        return {"axiom": "identity", "vector": list(space.unrank(0))}
    nz = np.nonzero(w[1:] == 0)[0]
    if len(nz):
        return {"axiom": "identity", "vector": list(space.unrank(int(nz[0]) + 1))}
    radix = space.q ** np.arange(space.n - 1, -1, -1, dtype=np.int64)
    neg_rank = space.field.neg_table[arr].astype(np.int64) @ radix
    bad = np.nonzero(w[neg_rank] != w)[0]
    if len(bad):
        return {"axiom": "symmetry", "vector": list(space.unrank(int(bad[0])))}
    if space.size <= _EXHAUSTIVE_PAIR_CAP:
        # blocks of (X, 1) and (1, N) index arrays that broadcast to every
        # pair of X rows, at most _CHUNK pairs (at least one row), x-major
        step, ys = max(_CHUNK // space.size, 1), np.arange(space.size)[None, :]
        blocks = ((np.arange(lo, min(lo + step, space.size))[:, None], ys)
                  for lo in range(0, space.size, step))
    else:
        rng = rng or random.Random(0)
        picks = [rng.randrange(space.size) for _ in range(2 * _RANDOM_PAIR_SAMPLES)]
        blocks = [np.array(picks, dtype=np.intp).reshape(2, -1)]
    for xs, ys in blocks:
        pairs = np.broadcast_arrays(xs, ys)  # read-only views, no copies
        # the rank of x + y for each pair, one coordinate at a time, then its
        # weight, both in place in one intp array
        sums = np.zeros(pairs[0].shape, dtype=np.intp)
        for j in range(space.n):
            sums += (space.field.add_table * radix[j])[arr[xs, j], arr[ys, j]]
        np.take(w, sums, out=sums)
        viol = np.flatnonzero(sums > w[xs] + w[ys])
        if len(viol):
            u, v = (space.unrank(int(p.flat[viol[0]])) for p in pairs)
            return {"axiom": "triangle", "u": list(u), "v": list(v)}
    return None


_METRIC_AXIOMS = "metric-axioms"  # the suite and its one check


@suite(_METRIC_AXIOMS, {"metric", "axioms"}, 50, [[2, 3, 5]], [
    Claim(_METRIC_AXIOMS, HARD, lambda r: (r.axioms is None, r.axioms or {})),
])
def _unit_metric_axioms(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    # q = 5 reaches 5^6 vectors, past the exhaustive pair cap
    pos, lab = _random_shape(rng, q, cap=_SIZE_CAP[q] * (25 if q == 5 else 1))
    space = BlockSpace(pos, lab, make_field(q), _random_weight(rng, q))
    return _space_digest(space), Readings(axioms=metric_axiom_witness(space, rng))


# ---------------------------------------------------------------------------
# suite: reductions
# ---------------------------------------------------------------------------


@suite("reductions", {"metric"}, 48, [[2, 3, 5], [3, 5, 7], [2, 3, 5], [2, 3]], [
    Claim("reduction-hamming", HARD, lambda r: r.reduction, lambda r: r.which == 0),
    Claim("reduction-lee", HARD, lambda r: r.reduction, lambda r: r.which == 1),
    Claim("reduction-nrt", HARD, lambda r: r.reduction, lambda r: r.which == 2),
    Claim("reduction-poset-block", HARD, lambda r: r.reduction, lambda r: r.which == 3),
])
def _unit_reductions(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    which, f = unit % 4, make_field(q)
    if which < 2:  # trivial blocks + antichain: the Hamming or the Lee weight
        n = rng.randint(1, ({2: 10, 3: 6, 5: 4}, {3: 6, 5: 4, 7: 3})[which][q])
        weight = (hamming_weight, lee_weight)[which](f)
        space = BlockSpace(posets.antichain(n), Labeling((1,) * n), f, weight)
    else:  # Hamming on a chain (which 2) or on any poset (which 3)
        pos, lab = _random_shape(rng, q, cap=1024)
        space = BlockSpace(posets.chain(lab.s) if which == 2 else pos, lab, f, hamming_weight(f))
    arr = space.all_vectors()
    if which == 0:
        expect = (arr != 0).sum(axis=1)
    elif which == 1:
        a = arr.astype(np.int64)
        expect = np.minimum(a, q - a).sum(axis=1)
    elif which == 2:  # NRT block weight: the top nonzero block index
        expect = np.zeros(len(arr), dtype=np.int64)
        for i in range(1, space.s + 1):
            sl = space.labeling.block_slice(i)
            expect = np.where((arr[:, sl] != 0).any(axis=1), i, expect)
    else:  # poset block weight: |ideal(supp)|
        expect = np.array(
            [
                len(space.poset.ideal(space.block_support(space.unrank(r))))
                for r in range(space.size)
            ],
            dtype=np.int64,
        )

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
    return _space_digest(space), Readings(which=which, reduction=(len(bad) == 0, witness))


# ---------------------------------------------------------------------------
# suite: ball-nesting (chain envelope, exhaustive)
# ---------------------------------------------------------------------------

_BALL_ENVELOPE: list[tuple[int, ...]] = [
    sizes for s in (1, 2, 3) for sizes in itertools.product((1, 2), repeat=s)
]


def _ball_nesting(space: BlockSpace) -> tuple[bool, dict]:
    """On a chain, the weighted ball of radius sigma + i M_w lies in the
    Hamming block ball of radius i + 1, and (below the top block) equals it
    iff sigma = M_w; the first (i, sigma) where this fails is the witness."""
    arr = space.all_vectors()
    wl = space.batch_weights(arr)
    wh = space.hamming_sibling().batch_weights(arr)
    mw = space.weight.max_weight
    for i in range(0, space.s + 1):
        for sigma in range(1, mw + 1):
            in_w = wl <= sigma + i * mw
            in_h = wh <= i + 1
            if (in_w & ~in_h).any():
                return False, {"kind": "inclusion", "i": i, "sigma": sigma}
            if i < space.s and (in_w == in_h).all() != (sigma == mw):
                return False, {"kind": "equality-iff", "i": i, "sigma": sigma}
    return True, {}


@suite("ball-nesting", {"balls", "chain"}, len(_BALL_ENVELOPE), [[5]], [
    Claim("ball-nesting-chain", HARD, lambda r: r.nesting),
])
def _unit_ball_nesting(rng: random.Random, q: int, unit: int) -> tuple[str, Readings] | None:
    if unit >= len(_BALL_ENVELOPE):
        return None
    sizes = _BALL_ENVELOPE[unit]
    f = make_field(q)
    space = BlockSpace(posets.chain(len(sizes)), Labeling(sizes), f, lee_weight(f))
    return _space_digest(space), Readings(nesting=_ball_nesting(space))


# ---------------------------------------------------------------------------
# suite: chain-radii (packing + covering radius theorems on chains)
# ---------------------------------------------------------------------------


def _packing_witness(r: Readings) -> dict:
    return {"packing": r.packing, "d_hamming": r.d_h, "d_weighted": r.d_w, "M_w": r.mw, "m_w": r.m}


@suite("chain-radii", {"radii", "chain"}, 200, [[2, 3, 5]], [
    Claim("packing-radius-chain-lower", HARD,
          lambda r: (r.packing >= (r.d_h - 1) * r.mw, _packing_witness(r))),
    # The published equality criterion has genuine counterexamples (already
    # with the Lee weight over GF(5)): a minimum-distance difference can
    # split into two below-threshold halves, letting balls of radius
    # floor + 1 intersect although d_w exceeds m_w + floor.  Soft check.
    Claim("packing-radius-chain-equality", SOFT, lambda r: (
        (r.packing == (r.d_h - 1) * r.mw) == (r.d_w == r.m + (r.d_h - 1) * r.mw),
        _packing_witness(r),
    )),
    Claim("covering-radius-chain", HARD, lambda r: (
        (r.r - 1) * r.mw < r.covering <= r.r * r.mw,
        {"covering": r.covering, "r": r.r, "M_w": r.mw},
    )),
    _ORACLE,
])
def _unit_chain_radii(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    _, lab = _random_shape(rng, q)
    space = BlockSpace(posets.chain(lab.s), lab, make_field(q), _random_weight(rng, q))
    code = _random_code(rng, space, dim_min=1, dim_max={2: 4, 3: 3, 5: 3}[q])
    r = Readings(
        mw=space.weight.max_weight,
        m=space.weight.min_nonzero_weight,
        d_h=_hamming_view(code).min_distance(),
        d_w=code.min_distance(),
        packing=code.packing_radius(),
    )
    r.covering = _covering_with_oracle(r, code, "code")
    r.r = code.trailing_full_index()
    return _instance_of(code).digest(), r


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


def _pair_readings(c1: Code, c2: Code) -> Readings:
    """The readings direct-sum and plotkin start from: C1's s and the
    weight's M_w, both codes' minimum distances, then their covering radii."""
    r = Readings(
        mw=c1.space.weight.max_weight,
        s=c1.space.s,
        d1=c1.min_distance(),
        d2=c2.min_distance(),
    )
    r.rho1 = _covering_with_oracle(r, c1, "C1")
    r.rho2 = _covering_with_oracle(r, c2, "C2")
    return r


def _joint_leaders(label: str, total: Code, joint: np.ndarray, n1: int) -> tuple[bool, dict]:
    """Every joint leader (l1 | l2) of a direct sum weighs its coset's
    weight; the witness is the first that does not, in the order of joint."""
    expects = total.coset_table().weights[total.coset_indices(joint)].tolist()
    for leader, expect in zip(joint.tolist(), expects):
        got = total.space.wpb_weight(leader)
        if got != expect:
            return False, {
                "order": label,
                "leader1": leader[:n1],
                "leader2": leader[n1:],
                "weight": got,
                "coset_weight": expect,
            }
    return True, {}


@suite("direct-sum", {"constructions"}, 100, [[2, 3, 5]], [
    Claim("dsum-mindist-disjoint", HARD,
          lambda r: (r.dd == min(r.d1, r.d2), {"d": r.dd, "d1": r.d1, "d2": r.d2})),
    Claim("dsum-mindist-linear", HARD, lambda r: (r.dl == r.d1, {"d": r.dl, "d1": r.d1})),
    Claim("dsum-covering-disjoint", HARD, lambda r: (
        r.rho_disj == r.rho1 + r.rho2, {"rho": r.rho_disj, "rho1": r.rho1, "rho2": r.rho2}
    )),
    # With C2 the full space the deep coset leader (u', u'') has zero
    # second half, so the published equality degenerates; skip.
    Claim("dsum-covering-linear", HARD, lambda r: (
        r.rho_lin == r.s * r.mw + r.rho2,
        {"rho": r.rho_lin, "s": r.s, "M_w": r.mw, "rho2": r.rho2},
    ), lambda r: r.rho2 > 0 or "rho(C2) = 0"),
    Claim("dsum-coset-leader-disjoint", HARD, lambda r: r.leaders_disjoint),
    Claim("dsum-coset-leader-linear", HARD, lambda r: r.leaders_linear),
    _ORACLE,
])
def _unit_direct_sum(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    c1, c2 = _sample_pair(rng, q)
    r = _pair_readings(c1, c2)
    disj = direct_sum_code(c1, c2, "disjoint").code
    lin = direct_sum_code(c1, c2, "linear").code
    r.dd, r.dl = disj.min_distance(), lin.min_distance()
    r.rho_disj = _covering_with_oracle(r, disj, "disjoint-sum")
    r.rho_lin = _covering_with_oracle(r, lin, "linear-sum")

    lead1, lead2 = c1.coset_table().leaders, c2.coset_table().leaders
    # every joint leader (l1 | l2), C1's leaders the outer loop
    joint = np.hstack([lead1.repeat(len(lead2), axis=0), np.tile(lead2, (len(lead1), 1))])
    r.leaders_disjoint = _joint_leaders("disjoint", disj, joint, c1.space.n)
    r.leaders_linear = _joint_leaders("linear", lin, joint, c1.space.n)
    return _pair_digest(_instance_of(c1).digest(), _instance_of(c2).digest()), r


# ---------------------------------------------------------------------------
# suite: plotkin
# ---------------------------------------------------------------------------


def _plotkin_refined_disjoint(r: Readings) -> tuple[bool, dict]:
    bound = min(r.d2, r.d1 + r.d_c1_q, r.d1 + r.d_sums)
    return r.dd >= bound, {
        "d": r.dd, "bound": bound, "d2": r.d2, "d_c1_q": r.d_c1_q, "d_sums": r.d_sums
    }


def _plotkin_refined_linear(r: Readings) -> tuple[bool, dict]:
    expect = r.s * r.mw + min(r.d2, r.d_c1_q, r.d_sums)
    return r.dl == expect, {"d": r.dl, "expected": expect}


def _injective(r: Readings) -> bool | str:
    return r.injective or "sum map not injective on C1 x C2"


@suite("plotkin", {"constructions"}, 100, [[2, 3, 5]], [
    Claim("plotkin-mindist-disjoint", HARD,
          lambda r: (r.dd >= min(r.d1, r.d2), {"d": r.dd, "d1": r.d1, "d2": r.d2})),
    Claim("plotkin-mindist-linear", HARD, lambda r: (r.dl >= r.d1, {"d": r.dl, "d1": r.d1})),
    Claim("plotkin-refined-disjoint", HARD, _plotkin_refined_disjoint, _injective),
    Claim("plotkin-refined-linear", HARD, _plotkin_refined_linear, _injective),
    Claim("plotkin-covering-disjoint", HARD, lambda r: (
        r.rho_disj <= r.rho1 + r.rho2, {"rho": r.rho_disj, "rho1": r.rho1, "rho2": r.rho2}
    )),
    Claim("plotkin-covering-linear", HARD, lambda r: (
        r.rho_lin <= r.s * r.mw + r.rho2,
        {"rho": r.rho_lin, "s": r.s, "M_w": r.mw, "rho2": r.rho2},
    )),
    _ORACLE,
])
def _unit_plotkin(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    cap = _SIZE_CAP[q]
    weight = _random_weight(rng, q, allow_table=False)
    f = make_field(q)
    p1, lab1 = _random_shape(rng, q, cap=cap, accept=lambda lab: q ** (2 * lab.n) <= cap)
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
    r = _pair_readings(c1, c2)
    disj = plotkin_code(c1, c2, "disjoint").code
    lin = plotkin_code(c1, c2, "linear").code
    r.dd, r.dl = disj.min_distance(), lin.min_distance()
    r.injective = sum_map_injective(c1, c2)
    if r.injective:
        # cross-space quantities: C1 and C1+C2 measured in (Q, pi2, w)
        c1_in_q = Code.explicit(c2.space, c1.codeword_array())
        # the second halves u' + u'' of the (u'|u'+u'') words
        sums = Code.explicit(c2.space, disj.codeword_array()[:, c1.space.n :])
        r.d_c1_q, r.d_sums = c1_in_q.min_distance(), sums.min_distance()
    r.rho_disj = _covering_with_oracle(r, disj, "disjoint")
    r.rho_lin = _covering_with_oracle(r, lin, "linear")
    return _pair_digest(_instance_of(c1).digest(), _instance_of(c2).digest()), r


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


@suite("extend", {"constructions"}, 100, [[2, 3, 5]], [
    Claim("extend-mindist", HARD, lambda r: (
        r.d <= r.d_ext <= r.d + r.mw, {"d": r.d, "d_ext": r.d_ext, "M_w": r.mw}
    )),
    Claim("extend-covering", HARD, lambda r: (
        r.rho <= r.rho_ext <= r.rho + r.mw, {"rho": r.rho, "rho_ext": r.rho_ext, "M_w": r.mw}
    )),
    _ORACLE,
])
def _unit_extend(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    cap = _SIZE_CAP[q]
    pos, lab = _random_shape(rng, q, cap=cap, accept=lambda lab: q ** (lab.n + 1) <= cap)
    space = BlockSpace(pos, lab, make_field(q), _random_weight(rng, q))
    code = _random_code(rng, space, 1, 2)
    ext = extended_code(code).code
    r = Readings(
        mw=space.weight.max_weight,
        d=code.min_distance(),
        d_ext=ext.min_distance(),
    )
    r.rho = _covering_with_oracle(r, code, "code")
    r.rho_ext = _covering_with_oracle(r, ext, "extended")
    return _instance_of(code).digest(), r


# ---------------------------------------------------------------------------
# suite: puncture
# ---------------------------------------------------------------------------


@suite("puncture", {"constructions"}, 100, [[2, 3, 5]], [
    Claim("puncture-vector-weight", HARD, lambda r: r.vector_weight),
    # d(C*) <= d(C) needs some minimum-distance pair to survive puncturing.
    # When a nonzero codeword lives entirely in the punctured block the pair
    # may collapse and the published bound can fail, so that regime is soft.
    Claim("puncture-mindist", lambda r: r.collapse, lambda r: (
        r.d_punctured <= r.d,
        {"d": r.d, "d_punctured": r.d_punctured, "block": r.block, "collapse": r.collapse},
    ), lambda r: r.d_punctured is not None or "punctured code has a single word"),
    Claim("puncture-covering", HARD, lambda r: (
        r.rho_punctured <= r.rho, {"rho": r.rho, "rho_punctured": r.rho_punctured}
    )),
    _ORACLE,
])
def _unit_puncture(rng: random.Random, q: int, unit: int) -> tuple[str, Readings]:
    pos, lab = _random_shape(rng, q, accept=lambda lab: lab.s >= 2)
    space = BlockSpace(pos, lab, make_field(q), _random_weight(rng, q))
    code = _random_code(rng, space, 1, {2: 4, 3: 3, 5: 2}[q])
    block = rng.randint(1, space.s)

    pun = punctured_code(code, block).code
    outside = np.ones(space.n, dtype=bool)
    outside[space.labeling.block_slice(block)] = False

    # every step-th vector in odometer order against its punctured image;
    # the witness is the first that violates w(v*) <= w(v)
    vecs = space.all_vectors()[:: max(1, space.size // 256)]
    bad = np.flatnonzero(pun.space.batch_weights(vecs[:, outside]) > space.batch_weights(vecs))
    witness = {"vector": vecs[bad[0]].tolist(), "block": block} if len(bad) else {}
    r = Readings(block=block, vector_weight=(not len(bad), witness))

    cw = code.codeword_array()
    r.collapse = bool(((cw[:, outside] == 0).all(axis=1) & (cw != 0).any(axis=1)).any())
    r.d = code.min_distance()
    r.d_punctured = pun.min_distance() if pun.size >= 2 else None
    r.rho = _covering_with_oracle(r, code, "code")
    r.rho_punctured = _covering_with_oracle(r, pun, "punctured")
    return _pair_digest(_instance_of(code).digest(), f"block={block}"), r


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
    weight = _random_weight(rng, q, allow_table=False)
    f = make_field(q)
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


def _tensor_shape(c1: Code, c2: Code) -> Readings:
    """The readings both tensor suites start from: the factor posets' chain
    and antichain flags, their sizes s and t, and the weight's M_w and m_w."""
    p1, p2, weight = c1.space.poset, c2.space.poset, c1.space.weight
    return Readings(
        p_chain=p1.is_chain(),
        q_chain=p2.is_chain(),
        p_anti=p1.is_antichain(),
        q_anti=p2.is_antichain(),
        s=c1.space.s,
        t=c2.space.s,
        mw=weight.max_weight,
        m=weight.min_nonzero_weight,
    )


def _rank_one_weights(rng: random.Random, c1: Code, c2: Code, car: Code) -> tuple[bool, dict]:
    """Under chain x chain, the exact weight of the rank-one words u (x) v,
    on at most 200 sampled pairs of nonzero words; (ok, witness)."""
    space1, space2 = c1.space, c2.space
    mw, t = space1.weight.max_weight, space2.s
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
            return False, {"u": list(a), "v": list(b), "weight": got, "expected": expect}
    return True, {}


def _between(r: Readings, lo: int, d: int, hi: int) -> tuple[bool, dict]:
    return lo <= d <= hi, dict(r.base, lower=lo, upper=hi)


def _exact(r: Readings, d: int, expect: int) -> tuple[bool, dict]:
    return d == expect, dict(r.base, expected=expect)


def _lee_chain_chain(r: Readings) -> tuple[bool, dict]:
    lhs = (r.d1w - 1) * r.d2h + r.d2w
    rhs = (r.d2w - 1) * r.d1h + r.d1w
    return r.d_car == lhs == rhs, dict(r.base, case="chain-chain", form1=lhs, form2=rhs)


# the Lee-weight special case with trivial labelings: one case per shape,
# with exclusive gates (a 1-element poset is both a chain and an antichain)
_LEE = "tensor-lee-corollary"


@suite("tensor-mindist", {"constructions", "tensor"}, 100, [[2, 3, 5], [2, 3, 5], [3, 5, 7]], [
    # exact weight formula for rank-one words under chain x chain
    Claim("tensor-weight-chain-chain", HARD, lambda r: r.rank_one,
          lambda r: r.p_chain and r.q_chain or "needs two chains"),
    # cartesian-product distance sandwiches
    Claim("tensor-mindist-car-chain-anti", SOFT, lambda r: _between(
        r, r.d2h * (r.d1h - 1) * r.mw + r.d2w, r.d_car, r.d1h * r.d2h * r.mw
    ), lambda r: r.p_chain and r.q_anti and not (r.s == 1 and r.t == 1)),
    Claim("tensor-mindist-car-anti-chain", SOFT, lambda r: _between(
        r, r.d1h * (r.d2h - 1) * r.mw + r.d1w, r.d_car, r.d1h * r.d2h * r.mw
    ), lambda r: r.p_anti and r.q_chain and not (r.s == 1 and r.t == 1)),
    Claim("tensor-mindist-car-anti-anti", SOFT, lambda r: _between(
        r, r.d1h * r.d2h * r.m, r.d_car, r.d1h * r.d2h * r.mw
    ), lambda r: r.p_anti and r.q_anti),
    Claim("tensor-mindist-car-chain-chain", SOFT, lambda r: _between(
        r, (r.d1h * r.d2h - 1) * r.mw + r.m, r.d_car, r.d1h * r.d2h * r.mw
    ), lambda r: r.p_chain and r.q_chain),
    # lexicographic-product distance sandwiches
    Claim("tensor-mindist-lex-chain-anti", SOFT, lambda r: _between(
        r, (r.d1h - 1) * r.t * r.mw + r.d2w, r.d_lex, (r.d1h - 1) * r.t * r.mw + r.d2h * r.mw
    ), lambda r: r.p_chain and r.q_anti),
    Claim("tensor-mindist-lex-chain-chain", SOFT, lambda r: _between(
        r,
        r.m + (r.d1h - 1) * r.t * r.mw + (r.d2h - 1) * r.mw,
        r.d_lex,
        (r.d1h - 1) * r.t * r.mw + r.d2h * r.mw,
    ), lambda r: r.p_chain and r.q_chain),
    Claim("tensor-mindist-lex-anti-anti", SOFT, lambda r: _between(
        r, r.d1h * r.d2h * r.m, r.d_lex, r.d1h * r.d2h * r.mw
    ), lambda r: r.p_anti and r.q_anti),
    Claim("tensor-mindist-lex-anti-chain", SOFT, lambda r: _between(
        r, r.d1w + r.d1h * (r.d2h - 1) * r.mw, r.d_lex, r.d1h * r.d2h * r.mw
    ), lambda r: r.p_anti and r.q_chain),
    # trivial labelings make the lower bounds exact
    Claim("tensor-trivial-car", SOFT, lambda r: _exact(
        r, r.d_car, (r.d1h * r.d2h - 1) * r.mw + r.m
    ), lambda r: r.p_chain and r.q_chain and r.trivial),
    Claim("tensor-trivial-lex-chain-anti", SOFT, lambda r: _exact(
        r, r.d_lex, (r.d1h - 1) * r.t * r.mw + r.d2w
    ), lambda r: r.p_chain and r.q_anti and r.trivial),
    Claim("tensor-trivial-lex-chain-chain", SOFT, lambda r: _exact(
        r, r.d_lex, r.m + (r.d1h - 1) * r.t * r.mw + (r.d2h - 1) * r.mw
    ), lambda r: r.p_chain and r.q_chain and r.trivial),
    Claim(_LEE, SOFT, lambda r: (
        r.d1h * r.d2h <= r.d_car <= r.d1h * r.d2h * r.half, dict(r.base, case="anti-anti")
    ), lambda r: r.lee and r.p_anti and r.q_anti),
    Claim(_LEE, SOFT, lambda r: (
        r.d2h * (r.d1h - 1) * r.half + r.d2w <= r.d_car <= r.d1h * r.d2h * r.half,
        dict(r.base, case="chain-anti"),
    ), lambda r: r.lee and r.p_chain and r.q_anti and not r.p_anti),
    Claim(_LEE, SOFT, _lee_chain_chain,
          lambda r: r.lee and r.p_chain and r.q_chain and not r.q_anti),
])
def _unit_tensor_mindist(rng: random.Random, q: int, unit: int) -> tuple[str, Readings] | None:
    mode = unit % 3  # 0: general shapes, 1: trivial labelings, 2: Lee corollary
    pair = _sample_tensor_pair(
        rng, q, _SHAPE_MIX[unit % 4], mode != 0, word_cap=128, ambient_cap=None
    )
    if pair is None:
        return None
    c1, c2 = pair
    if mode == 2:
        c1 = c1.with_weight(lee_weight(make_field(q)))
        c2 = c2.with_weight(lee_weight(make_field(q)))

    r = _tensor_shape(c1, c2)
    r.trivial, r.lee, r.half = mode != 0, mode == 2, q // 2
    r.d1h, r.d2h = _hamming_view(c1).min_distance(), _hamming_view(c2).min_distance()
    r.d1w, r.d2w = c1.min_distance(), c2.min_distance()
    car = tensor_code(c1, c2, "cartesian").code
    lex = tensor_code(c1, c2, "lex").code
    r.d_car, r.d_lex = car.min_distance(), lex.min_distance()
    r.base = {k: vars(r)[k] for k in ("d_car", "d_lex", "d1h", "d2h", "d1w", "d2w")}
    if r.p_chain and r.q_chain:
        r.rank_one = _rank_one_weights(rng, c1, c2, car)
    return _pair_digest(_instance_of(c1).digest(), _instance_of(c2).digest()), r


def _covering_floor(r: Readings, rho: int) -> tuple[bool, dict]:
    floor = max(r.s * r.rho2, r.t * r.rho1)
    return rho >= floor, dict(r.base, lower=floor)


@suite("tensor-covering", {"constructions", "tensor"}, 100, [[2, 3]], [
    Claim("tensor-covering-lower-car", HARD, lambda r: _covering_floor(r, r.rho_car)),
    Claim("tensor-covering-lower-lex", HARD, lambda r: _covering_floor(r, r.rho_lex)),
    # cartesian cases
    Claim("tensor-covering-car-1a", SOFT, lambda r: (r.rho_car == r.s * r.t * r.mw, r.base),
          lambda r: r.p_chain and r.q_anti and (r.D1 < r.s or "D1 = s")),
    Claim("tensor-covering-car-1b", SOFT, lambda r: (
        r.rho_car >= r.R2 * (r.s - 1) * r.mw + r.R2 * r.m, r.base
    ), lambda r: r.p_chain and r.q_anti),
    Claim("tensor-covering-car-1c", SOFT, lambda r: (
        r.rho_car <= (r.s - 1) * r.t * r.mw + r.rho2, r.base
    ), lambda r: r.p_chain and r.q_anti and (
        r.D1 == r.s and r.alpha_s == 1 or "needs D1 = s and alpha_s = 1"
    )),
    Claim("tensor-covering-car-2a", SOFT, lambda r: (r.rho_car == r.s * r.t * r.mw, r.base),
          lambda r: r.p_chain and r.q_chain and (r.D1 < r.s or r.D2 < r.t or "D1 = s and D2 = t")),
    Claim("tensor-covering-car-2b", SOFT, lambda r: (
        r.rho_car <= (r.s - 1) * r.t * r.mw + r.rho2, r.base
    ), lambda r: r.p_chain and r.q_chain and r.D1 == r.s and r.D2 == r.t and r.alpha_s == 1),
    Claim("tensor-covering-car-2c", SOFT, lambda r: (
        r.rho_car <= (r.t - 1) * r.s * r.mw + r.rho1, r.base
    ), lambda r: r.p_chain and r.q_chain and r.D1 == r.s and r.D2 == r.t and r.beta_t == 1),
    Claim("tensor-covering-car-2d", SOFT, lambda r: (
        r.rho_car <= min((r.s - 1) * r.t * r.mw + r.rho2, (r.t - 1) * r.s * r.mw + r.rho1),
        r.base,
    ), lambda r: (r.p_chain and r.q_chain and r.D1 == r.s and r.D2 == r.t
                  and r.alpha_s == 1 and r.beta_t == 1)),
    Claim("tensor-covering-car-2e", SOFT, lambda r: (
        r.rho_car >= max((r.s * r.R2 - 1) * r.mw + r.m, (r.t * r.R1 - 1) * r.mw + r.m),
        r.base,
    ), lambda r: r.p_chain and r.q_chain),
    # lexicographic cases
    Claim("tensor-covering-lex-1a", SOFT, lambda r: (r.rho_lex == r.s * r.t * r.mw, r.base),
          lambda r: r.p_chain and (
              r.D1 < r.s or (r.q_chain and r.D2 < r.t) or "no deficient trailing projection"
          )),
    Claim("tensor-covering-lex-1b", SOFT, lambda r: (
        r.rho_lex <= (r.s - 1) * r.t * r.mw + r.rho2, r.base
    ), lambda r: r.p_chain and (
        r.D1 == r.s and r.D2 == r.t and r.alpha_s == 1 or "needs D1 = s, D2 = t, alpha_s = 1"
    )),
    Claim("tensor-covering-lex-1c", SOFT, lambda r: (
        r.rho_lex >= max((r.s - 1) * r.t * r.mw + r.rho2, r.t * r.rho1), r.base
    ), lambda r: r.p_chain),
    Claim("tensor-covering-lex-2a", SOFT, lambda r: (r.rho_lex == r.s * r.t * r.mw, r.base),
          lambda r: r.p_anti and r.q_chain and (r.D2 < r.t or "D2 = t")),
    Claim("tensor-covering-lex-2b", SOFT, lambda r: (
        r.rho_lex <= (r.t - 1) * r.s * r.mw + r.rho1, r.base
    ), lambda r: r.p_anti and r.q_chain and (
        r.D2 == r.t and r.beta_t == 1 or "needs D2 = t and beta_t = 1"
    )),
    _ORACLE,
])
def _unit_tensor_covering(rng: random.Random, q: int, unit: int) -> tuple[str, Readings] | None:
    trivial = rng.random() < 0.5
    pair = _sample_tensor_pair(
        rng, q, _SHAPE_MIX[unit % 4], trivial, word_cap=64, ambient_cap={2: 512, 3: 729}[q],
        dim_min=0,
    )
    if pair is None:
        return None
    c1, c2 = pair
    r = _tensor_shape(c1, c2)
    r.alpha_s, r.beta_t = c1.space.labeling.sizes[-1], c2.space.labeling.sizes[-1]
    ham = hamming_weight(c1.space.field)
    r.rho1 = _covering_with_oracle(r, c1, "C1")
    r.rho2 = _covering_with_oracle(r, c2, "C2")
    r.D1, r.D2 = c1.max_poset_weight(ham), c2.max_poset_weight(ham)
    r.R1, r.R2 = _hamming_view(c1).covering_radius(), _hamming_view(c2).covering_radius()
    car = tensor_code(c1, c2, "cartesian").code
    lex = tensor_code(c1, c2, "lex").code
    r.rho_car, r.rho_lex = car.covering_radius(), lex.covering_radius()
    keys = ("rho_car", "rho_lex", "rho1", "rho2", "R1", "R2", "D1", "D2", "s", "t")
    r.base = {k: vars(r)[k] for k in keys}
    return _pair_digest(_instance_of(c1).digest(), _instance_of(c2).digest()), r


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


def _share_memos() -> None:
    """A pool worker's start: its units share memos (shared_memos) for the
    worker's life, which is one run's, as verify_suite closes its pool."""
    _shared.set({})


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
    processes, at most the CPUs this process may use, run the units.  Equal
    codes of the run share one memo (shared_memos), a pool's in each worker.
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
        from multiprocessing import Pool  # only a pool pays for the import

        with Pool(jobs, initializer=_share_memos) as pool:
            chunks = pool.map(_run_unit, tasks)
    else:
        with shared_memos():
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
