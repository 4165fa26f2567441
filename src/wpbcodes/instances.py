"""Instance files: one JSON document describing a full problem.

Schema (all keys required):

    {
      "field":    {"q": 5},
      "weight":   {"kind": "hamming"} | {"kind": "lee"}
                  | {"kind": "table", "values": [0, ...]},
      "poset":    {"elements": 3, "cover": [[1, 2], [2, 3]]},
      "labeling": [2, 1],
      "code":     {"kind": "generator", "rows": [[...], ...]}
                  | {"kind": "list", "words": [[...], ...]}
    }

The loader checks only what no constructor sees: the JSON types, each
number a JSON integer (a float or a boolean is rejected, not coerced, at
its element path such as code.words[0][2]), the keys present, each cover
a pair, poset.elements >= 1, and the charges below.  Every other rule is
checked once, by the constructor that builds the value (make_field,
lee_weight or custom_weight, from_cover_relations, Labeling, BlockSpace,
Code), and its error becomes a ConsistencyError at the value's JSON path
(_built): field.q, weight, weight.values, poset, labeling (the block
sizes, and their count against the poset's elements), code.rows or
code.words (row lengths, entries in 0..q-1, at least one word).  The
poset's order relation, s^2 for s elements, and the coordinates
n = sum(labeling) are charged against the enumeration cap
(blockspace.charge) before anything of their size is built, so an
oversized document raises SpaceTooLarge.
Loading normalizes to canonical form (sorted cover pairs), so
save(load(f)) is idempotent and load(save(x)) == x.  The digest of the
canonical JSON identifies an instance in reports.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .blockspace import BlockSpace, Labeling, charge
from .codes import Code
from .errors import ConsistencyError, ParseError
from .field import make_field
from .poset import Poset, from_cover_relations
from .weights import custom_weight, hamming_weight, lee_weight


@dataclass(frozen=True)
class Instance:
    q: int
    weight_kind: str  # "hamming" | "lee" | "table"
    weight_values: tuple[int, ...] | None
    poset_elements: int
    cover: tuple[tuple[int, int], ...]
    labeling: tuple[int, ...]
    code_kind: str  # "generator" | "list"
    code_rows: tuple[tuple[int, ...], ...]

    # construction -----------------------------------------------------------

    @classmethod
    def from_parts(cls, space: BlockSpace, code: Code) -> "Instance":
        if code.is_linear:
            kind, rows = "generator", code.generators
        else:
            kind, rows = "list", code.words
        w = space.weight
        return cls(
            q=space.q,
            weight_kind=w.name if w.name in ("hamming", "lee") else "table",
            weight_values=tuple(w.table) if w.name == "table" else None,
            poset_elements=space.s,
            cover=tuple(tuple(p) for p in space.poset.cover_pairs()),
            labeling=space.labeling.sizes,
            code_kind=kind,
            code_rows=tuple(tuple(r) for r in rows),
        )

    def build_space(self) -> BlockSpace:
        field = _built("field.q", make_field, self.q)
        if self.weight_kind == "hamming":
            weight = hamming_weight(field)
        elif self.weight_kind == "lee":
            weight = _built("weight", lee_weight, field)
        else:
            weight = _built("weight.values", custom_weight, field, self.weight_values)
        poset = _built("poset", from_cover_relations, self.poset_elements, self.cover)
        labeling = _built("labeling", Labeling, self.labeling)
        return _built("labeling", BlockSpace, poset, labeling, field, weight)

    def build(self) -> tuple[BlockSpace, Code]:
        space = self.build_space()
        if self.code_kind == "generator":
            return space, _built("code.rows", Code.linear, space, self.code_rows)
        return space, _built("code.words", Code.explicit, space, self.code_rows)

    # serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.weight_kind == "table":
            weight = {"kind": "table", "values": list(self.weight_values)}
        else:
            weight = {"kind": self.weight_kind}
        rows_key = "rows" if self.code_kind == "generator" else "words"
        return {
            "field": {"q": self.q},
            "weight": weight,
            "poset": {
                "elements": self.poset_elements,
                "cover": [list(p) for p in self.cover],
            },
            "labeling": list(self.labeling),
            "code": {"kind": self.code_kind, rows_key: [list(r) for r in self.code_rows]},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def _built(path: str, make: Callable, *args) -> Any:
    """make(*args), any error it raises becoming a ConsistencyError at path."""
    try:
        return make(*args)
    except Exception as e:
        raise ConsistencyError(path, str(e)) from e


def _require(cond: bool, field: str, reason: str) -> None:
    if not cond:
        raise ConsistencyError(field, reason)


def _int(value, path: str, index: int | None = None) -> int:
    """A JSON integer at ``path`` (``path[index]`` for a list element; the
    path is only formatted on failure); floats, bools and every other type
    are rejected."""
    if type(value) is not int:
        where = path if index is None else f"{path}[{index}]"
        raise ConsistencyError(where, f"expected an integer, got {value!r}")
    return value


def _ints(value, path: str) -> tuple[int, ...]:
    """A JSON list of integers."""
    _require(isinstance(value, list), path, f"expected a list, got {value!r}")
    return tuple(_int(x, path, i) for i, x in enumerate(value))


def instance_from_json_dict(doc: dict) -> Instance:
    _require(isinstance(doc, dict), "document", "top level must be an object")
    for key in ("field", "weight", "poset", "labeling", "code"):
        _require(key in doc, key, "missing key")

    fld = doc["field"]
    _require(isinstance(fld, dict) and "q" in fld, "field", "expected {'q': int}")
    q = _int(fld["q"], "field.q")

    w = doc["weight"]
    _require(isinstance(w, dict) and "kind" in w, "weight", "expected {'kind': ...}")
    kind = w["kind"]
    _require(kind in ("hamming", "lee", "table"), "weight.kind", f"unknown kind {kind!r}")
    values = None
    if kind == "table":
        _require("values" in w, "weight.values", "table weights need 'values'")
        values = _ints(w["values"], "weight.values")

    pos = doc["poset"]
    _require(
        isinstance(pos, dict) and "elements" in pos and "cover" in pos,
        "poset",
        "expected {'elements': int, 'cover': [[a,b],...]}",
    )
    elements = _int(pos["elements"], "poset.elements")
    _require(elements >= 1, "poset.elements", "need >= 1")
    _require(isinstance(pos["cover"], list), "poset.cover", "expected a list of pairs")
    pairs = [_ints(p, f"poset.cover[{i}]") for i, p in enumerate(pos["cover"])]
    for i, p in enumerate(pairs):
        _require(len(p) == 2, f"poset.cover[{i}]", f"expected a pair, got {list(p)}")
    cover = tuple(sorted(pairs))

    labeling = _ints(doc["labeling"], "labeling")
    # bound the space before anything of its size is built: a short
    # document can ask for millions of coordinates, and the order relation
    # (s masks of s bits each, and up to s^2 / 4 covers) grows as s^2
    charge(elements * elements, "poset order relation s^2")
    charge(sum(labeling), "coordinates n")

    code = doc["code"]
    _require(isinstance(code, dict) and "kind" in code, "code", "expected {'kind': ...}")
    ckind = code["kind"]
    _require(ckind in ("generator", "list"), "code.kind", f"unknown kind {ckind!r}")
    rows_key = "rows" if ckind == "generator" else "words"
    _require(rows_key in code, f"code.{rows_key}", "missing")
    _require(isinstance(code[rows_key], list), f"code.{rows_key}", "expected a list of rows")
    rows = tuple(_ints(row, f"code.{rows_key}[{i}]") for i, row in enumerate(code[rows_key]))

    inst = Instance(
        q=q,
        weight_kind=kind,
        weight_values=values,
        poset_elements=elements,
        cover=cover,
        labeling=labeling,
        code_kind=ckind,
        code_rows=rows,
    )
    inst.build()  # every domain error, raised by its constructor at its JSON path
    return inst


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from e
    return instance_from_json_dict(doc)


def load_instance(path: str | Path) -> Instance:
    return loads_instance(Path(path).read_text())


def dumps_instance(inst: Instance) -> str:
    return inst.canonical_json() + "\n"


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(inst))


# seeded generation ------------------------------------------------------------


def derive_seed(*parts) -> int:
    """A stable 63-bit child seed from arbitrary labelled parts."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def random_rows(rng: random.Random, q: int, n: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """dim rows of n coordinates in 0..q-1, drawn row by row from rng."""
    return tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(dim))


def random_linear_code(
    seed: int, q: int, poset: Poset, labeling: Labeling, dim: int
) -> Instance:
    """A seeded random generator-matrix instance; identical seed, identical file."""
    if dim < 0 or dim > labeling.n:
        raise ValueError(f"dim must be in 0..{labeling.n}")
    rows = random_rows(random.Random(seed), q, labeling.n, dim)
    return Instance(
        q=q,
        weight_kind="hamming",
        weight_values=None,
        poset_elements=poset.s,
        cover=tuple(tuple(p) for p in poset.cover_pairs()),
        labeling=labeling.sizes,
        code_kind="generator",
        code_rows=rows,
    )
