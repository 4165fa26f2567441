"""Seeded inputs and queries of the scan workloads (imported by the worker).

``linear-scan`` is the few-huge-arrays case: a ladder of linear codes on
2^16..2^20-vector spaces, where enumeration and the batch weight kernel
dominate.  ``explicit-scan`` builds nonlinear codes with the constructions
and keeps the per-codeword scan and the pairwise minimum-distance loop that
a linear-only engine would bypass.

Every query gets a freshly built ``Code`` so that per-code memos
(``_memo``, ``_cw``) never carry over from one query to the next.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

from wpbcodes import Code, loads_instance
from wpbcodes.constructions import (
    direct_sum_code,
    extended_code,
    plotkin_code,
    punctured_code,
    tensor_code,
)

TREE6 = ((1, 2), (1, 3), (2, 4), (2, 5), (3, 6))
POSETS = {
    "chain": tuple((i, i + 1) for i in range(1, 6)),
    "antichain": (),
    "tree": TREE6,
}
POSET_ORDER = ("chain", "antichain", "tree")

ALL_QUERIES = ("min_distance", "covering_radius", "packing_radius",
               "coset_table", "is_perfect", "ball_size")
# A full-space scan of the two largest spaces costs seconds at the seed
# (and a coset table of 2^19 cosets about ten), so they carry only the
# enumeration-dominated queries; the mid-size rungs carry every query kind.
SCAN_QUERIES = ("min_distance", "covering_radius", "ball_size")

# (q, n, k, poset, weight, queries) per rung.  Sizes, posets and weights
# are fixed, so a pass costs about the same at every seed; the seed picks
# the labelings, generators and ball centres.
LINEAR_LADDER = (
    (2, 16, 3, "chain", "hamming", ALL_QUERIES),
    (2, 20, 1, "tree", "lee", SCAN_QUERIES),
    (3, 10, 2, "antichain", "hamming", ALL_QUERIES),
    (5, 8, 1, "tree", "lee", SCAN_QUERIES),
)
BALL_RADIUS = 3
# Full per-codeword scans per query kind (is_perfect: packing, then r-perfect).
PAIR_SCANS = {"covering_radius": 1, "packing_radius": 1, "is_perfect": 2}

# Oracle scans (explicit word set, dense reduction) run where q^n * |C|
# stays below this many pairs, which covers every rung and recipe; the
# scalar-weight oracle runs below the second.
ORACLE_PAIRS = 1 << 21
SCALAR_ORACLE_PAIRS = 1 << 14
KERNEL_SAMPLE = 128
DENSE_BLOCK = 1 << 16


def _rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random("|".join(str(p) for p in (workload, seed, *parts)))


def _composition(rng: random.Random, n: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _linear_doc(rng, q, n, k, poset, weight, blocks):
    """A full-rank seeded generator instance (JSON document)."""
    labeling = _composition(rng, n, blocks)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        doc = {
            "field": {"q": q},
            "weight": {"kind": weight},
            "poset": {"elements": blocks, "cover": [list(c) for c in poset]},
            "labeling": labeling,
            "code": {"kind": "generator", "rows": rows},
        }
        if loads_instance(json.dumps(doc)).build()[1].dimension == k:
            return doc


def _digest_words(words) -> str:
    h = hashlib.sha256()
    for w in words:
        h.update(bytes(w))
    return h.hexdigest()[:16]


class Query:
    """One timed call on a fresh code.

    ``vectors`` and ``pairs`` are its computed work base: vectors enumerated
    and codeword x vector pairs of full scans (an upper bound for a scan that
    may stop early, such as the r-perfectness test).
    """

    def __init__(self, qid: str, kind: str, run, vectors: int, pairs: int):
        self.id = qid
        self.kind = kind
        self.run = run
        self.vectors = vectors
        self.pairs = pairs


# linear-scan -------------------------------------------------------------------


def linear_instances(seed: int) -> list[dict]:
    out = []
    for rung, (q, n, k, poset, weight, kinds) in enumerate(LINEAR_LADDER):
        rng = _rng("linear-scan", seed, rung)
        doc = _linear_doc(rng, q, n, k, POSETS[poset], weight, 6)
        center = [rng.randrange(q) for _ in range(n)]
        out.append({"name": f"q{q}n{n}k{k}-{poset}-{weight}", "doc": doc,
                    "center": center, "queries": kinds})
    return out


def _linear_answer(kind, space, code, center):
    if kind == "coset_table":
        t = code.coset_table()
        return {"max_weight": t.max_weight, "cosets": len(t.leaders),
                "leaders": _digest_words(t.leaders)}
    if kind == "ball_size":
        return space.ball_size(center, BALL_RADIUS)
    if kind == "is_perfect":
        return bool(code.is_perfect())
    return int(getattr(code, kind)())


def linear_queries(seed: int) -> list[Query]:
    """The rung's queries, each on its own freshly built instance."""
    queries = []
    for inst in linear_instances(seed):
        text = json.dumps(inst["doc"])
        loaded = loads_instance(text)
        label = f"{inst['name']}@{loaded.digest()}"
        q, n = loaded.q, sum(loaded.labeling)
        size, words = q**n, q ** len(loaded.code_rows)
        for kind in inst["queries"]:
            space, code = loaded.build()
            queries.append(Query(
                f"{label}:{kind}", kind,
                lambda kind=kind, space=space, code=code, c=inst["center"]:
                    _linear_answer(kind, space, code, c),
                vectors=size * (2 if kind in ("coset_table", "is_perfect") else 1),
                pairs=size * words * PAIR_SCANS.get(kind, 0),
            ))
    return queries


def linear_oracle(seed: int) -> tuple[dict, dict]:
    """Expected answers from independent paths, where affordable.

    - min distance, covering and packing radius, perfectness: the explicit
      word-set scan ``Code.explicit(space, code.codewords())``, which must
      in turn agree with the dense reduction written here (the two share
      the per-codeword scan of ``codes``);
    - coset table: its max leader weight is the covering radius (checked
      against the covering query of the same pass, and here against the
      explicit scan);
    - ball size: ``len(ball(...))`` on the smallest space.
    """
    expected, checks = {}, {}
    insts = linear_instances(seed)
    smallest = min(insts, key=lambda i: i["doc"]["field"]["q"] ** len(i["center"]))
    for inst in insts:
        loaded = loads_instance(json.dumps(inst["doc"]))
        label = f"{inst['name']}@{loaded.digest()}"
        space, code = loaded.build()
        checks[f"{label}:kernel_agrees"] = _kernel_agrees(space, label)
        if inst is smallest:
            expected[f"{label}:ball_size"] = len(space.ball(inst["center"], BALL_RADIUS))
        if space.size * code.size > ORACLE_PAIRS:
            continue
        words = code.codewords()
        dense = _dense_reduction(space, words)
        for kind in set(inst["queries"]) & set(dense):
            oracle = Code.explicit(space, words)
            expected[f"{label}:{kind}"] = _linear_answer(kind, space, oracle, None)
            checks[f"{label}:{kind}:dense_agrees"] = expected[f"{label}:{kind}"] == dense[kind]
    return expected, checks


def _kernel_agrees(space, label: str) -> bool:
    """Scalar ``wpb_weight`` equals ``batch_weights`` on seeded vectors."""
    rng = np.random.default_rng(int(hashlib.sha256(label.encode()).hexdigest()[:8], 16))
    arr = rng.integers(0, space.q, size=(KERNEL_SAMPLE, space.n), dtype=np.uint8)
    scalar = [space.wpb_weight(tuple(int(x) for x in row)) for row in arr]
    return [int(w) for w in space.batch_weights(arr)] == scalar


# explicit-scan -----------------------------------------------------------------

# Each recipe names a construction and its inputs.  An input is a linear code
# (n, k, blocks) or ("tensor", a, b), the explicit tensor code of two linear
# ones, so direct sum, plotkin, extend and puncture all see an explicit input.
EXPLICIT_RECIPES = (
    ("tensor-cartesian", 2, ((4, 2, 2), (4, 3, 2))),
    ("tensor-lex", 2, ((3, 2, 1), (3, 2, 3))),
    ("direct-sum", 2, (("tensor", (2, 2, 2), (3, 2, 3)), (8, 3, 3))),
    ("plotkin", 2, (("tensor", (2, 2, 2), (3, 2, 3)), (6, 3, 3))),
    ("extend", 3, (("tensor", (2, 1, 1), (4, 2, 2)),)),
    ("puncture", 2, (("tensor", (4, 2, 2), (4, 2, 2)),)),
)

EXPLICIT_SCANS = ("min_distance", "covering_radius", "packing_radius")


def explicit_instances(seed: int) -> list[dict]:
    """Seeded inputs.  Posets (chain or antichain, alternating over the
    inputs), weight, order of the sum posets and the punctured block are
    fixed per recipe, so that a pass costs about the same at every seed; the
    seed picks the labelings and generators."""
    out = []
    for idx, (name, q, inputs) in enumerate(EXPLICIT_RECIPES):
        rng = _rng("explicit-scan", seed, idx)
        weight = ("lee", "hamming")[idx % 2]
        chain = iter([True, False] * 2)

        def doc(n, k, blocks):
            covers = POSETS["chain"][: blocks - 1] if next(chain) else ()
            return _linear_doc(rng, q, n, k, covers, weight, blocks)

        specs = [("tensor", doc(*i[1]), doc(*i[2])) if i[0] == "tensor" else doc(*i)
                 for i in inputs]
        block = _puncture_block(specs[0], 1 + idx % 4) if name == "puncture" else None
        out.append({"name": name, "inputs": specs,
                    "order": ("disjoint", "linear")[idx % 2], "block": block})
    return out


def _puncture_block(spec, first: int) -> int:
    """The first block from ``first`` on (cyclically) whose deletion leaves
    at least two distinct words: the seeded input may differ only in one
    block, and a one-word code has no minimum distance or packing radius."""
    code = _build_input(spec)
    blocks = code.space.s
    for step in range(blocks):
        block = 1 + (first - 1 + step) % blocks
        if punctured_code(code, block).code.size >= 2:
            return block
    raise ValueError("every puncturing leaves one word")


def _build_input(spec):
    if isinstance(spec, tuple):
        a, b = (loads_instance(json.dumps(d)).build()[1] for d in spec[1:])
        return tensor_code(a, b, "cartesian").code
    return loads_instance(json.dumps(spec)).build()[1]


def _construct(inst):
    """Build the inputs afresh and run the recipe's construction."""
    codes = [_build_input(spec) for spec in inst["inputs"]]
    name = inst["name"]
    if name == "tensor-cartesian":
        return tensor_code(*codes, "cartesian")
    if name == "tensor-lex":
        return tensor_code(*codes, "lex")
    if name == "direct-sum":
        return direct_sum_code(*codes, inst["order"])
    if name == "plotkin":
        return plotkin_code(*codes, inst["order"])
    if name == "extend":
        return extended_code(*codes)
    return punctured_code(*codes, inst["block"])


def explicit_queries(seed: int) -> list[Query]:
    """Per recipe: the construction, then pairwise minimum distance, covering
    and packing radius, each on a fresh explicit code of the result."""
    queries = []
    for inst in explicit_instances(seed):
        built = _construct(inst)
        space, words = built.space, built.code.words
        label = f"{inst['name']}@{_digest_words(words)}"
        size, m = space.size, len(words)
        queries.append(Query(
            f"{label}:construct", "construct",
            lambda inst=inst: _construct_answer(_construct(inst)),
            vectors=0, pairs=0,
        ))
        for kind in EXPLICIT_SCANS:
            code = Code.explicit(space, words)
            pairwise = kind == "min_distance"
            queries.append(Query(
                f"{label}:{kind}", kind,
                lambda kind=kind, code=code: int(getattr(code, kind)()),
                vectors=0 if pairwise else size,
                pairs=m * (m - 1) // 2 if pairwise else size * m,
            ))
    return queries


def _construct_answer(result) -> dict:
    return {"words": result.code.size, "digest": _digest_words(result.code.words)}


def explicit_oracle(seed: int) -> tuple[dict, dict]:
    """Expected answers: the construction itself (a determinism check), and
    for the scans the dense reduction written here, or the scalar-weight
    brute force on the tiny instances."""
    expected, checks = {}, {}
    for inst in explicit_instances(seed):
        built = _construct(inst)
        space, words = built.space, built.code.words
        label = f"{inst['name']}@{_digest_words(words)}"
        expected[f"{label}:construct"] = _construct_answer(built)
        checks[f"{label}:kernel_agrees"] = _kernel_agrees(space, label)
        pairs = space.size * len(words)
        if pairs <= SCALAR_ORACLE_PAIRS:
            answers = _scalar_reduction(space, words)
        elif pairs <= ORACLE_PAIRS:
            answers = _dense_reduction(space, words)
        else:
            continue
        for kind in EXPLICIT_SCANS:
            expected[f"{label}:{kind}"] = answers[kind]
    return expected, checks


def _dense_reduction(space, words) -> dict:
    """Distance matrix of every vector to every codeword, sorted per row,
    in blocks of rows: an independent reading of the scans in ``codes``."""
    cw = np.asarray(words, dtype=np.uint8)
    allv = space.all_vectors()
    sub = space.field.sub_table
    nearest, second = [], []
    for lo in range(0, len(allv), DENSE_BLOCK):
        block = allv[lo:lo + DENSE_BLOCK]
        dist = np.sort(np.stack([space.batch_weights(sub[block, c[None, :]]) for c in cw],
                                axis=1), axis=1)
        nearest.append(dist[:, 0].max())
        second.append(dist[:, 1].min())
    pair = np.stack([space.batch_weights(sub[cw, c[None, :]]) for c in cw])
    covering, packing = int(max(nearest)), int(min(second)) - 1
    return {
        "min_distance": int(pair[~np.eye(len(cw), dtype=bool)].min()),
        "covering_radius": covering,
        "packing_radius": packing,
        # radius-rho balls are disjoint by the definition of rho, so they
        # tile the space exactly when every vector lies within rho
        "is_perfect": covering <= packing,
    }


def _scalar_reduction(space, words) -> dict:
    allv = [tuple(int(x) for x in row) for row in space.all_vectors()]
    dists = [sorted(space.wpb_distance(v, c) for c in words) for v in allv]
    return {
        "min_distance": min(space.wpb_distance(u, v) for i, u in enumerate(words)
                            for v in words[i + 1:]),
        "covering_radius": max(d[0] for d in dists),
        "packing_radius": min(d[1] for d in dists) - 1,
    }


WORKLOADS = {
    "linear-scan": (linear_queries, linear_oracle),
    "explicit-scan": (explicit_queries, explicit_oracle),
}
