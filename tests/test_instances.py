import io
import json
import random
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wpbcodes.cli import main
from wpbcodes.errors import ConsistencyError, ParseError, SpaceTooLarge
from wpbcodes.instances import (
    derive_seed,
    dumps_instance,
    instance_from_json_dict,
    load_instance,
    loads_instance,
    random_linear_code,
    save_instance,
)
from wpbcodes.field import make_field
from wpbcodes.poset import chain
from wpbcodes.blockspace import Labeling, enumeration_cap

MINIMAL = {
    "field": {"q": 2},
    "weight": {"kind": "hamming"},
    "poset": {"elements": 1, "cover": []},
    "labeling": [1],
    "code": {"kind": "list", "words": [[0], [1]]},
}


def test_minimal_instance_loads():
    inst = loads_instance(json.dumps(MINIMAL))
    space, code = inst.build()
    assert space.n == 1 and code.size == 2


def test_labeling_poset_mismatch():
    doc = dict(MINIMAL, labeling=[2], poset={"elements": 2, "cover": []})
    with pytest.raises(ConsistencyError):
        instance_from_json_dict(doc)


def test_bad_q_is_consistency_error():
    doc = dict(MINIMAL, field={"q": 6})
    with pytest.raises(ConsistencyError):
        instance_from_json_dict(doc)


def test_wrong_row_length():
    doc = dict(MINIMAL, code={"kind": "list", "words": [[0, 1]]})
    with pytest.raises(ConsistencyError):
        instance_from_json_dict(doc)


def test_lee_on_extension_field_rejected():
    doc = dict(MINIMAL, field={"q": 4}, weight={"kind": "lee"},
               code={"kind": "list", "words": [[0], [1]]})
    with pytest.raises(ConsistencyError):
        instance_from_json_dict(doc)


def test_parse_error_has_line():
    with pytest.raises(ParseError) as e:
        loads_instance("{\n  broken\n}")
    assert e.value.line == 2


def test_round_trip(tmp_path):
    inst = loads_instance(json.dumps(MINIMAL))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    assert dumps_instance(again) == dumps_instance(inst)
    assert again.digest() == inst.digest()


def test_cover_normalization():
    doc = dict(
        MINIMAL,
        poset={"elements": 3, "cover": [[2, 3], [1, 2]]},
        labeling=[1, 1, 1],
        code={"kind": "list", "words": [[0, 0, 0]]},
    )
    inst = instance_from_json_dict(doc)
    assert inst.cover == ((1, 2), (2, 3))
    # canonical form is stable under a save/load cycle
    assert loads_instance(dumps_instance(inst)) == inst


def test_table_weight_round_trip():
    doc = dict(
        MINIMAL,
        field={"q": 3},
        weight={"kind": "table", "values": [0, 2, 2]},
        code={"kind": "list", "words": [[0], [1]]},
    )
    inst = instance_from_json_dict(doc)
    space, _ = inst.build()
    assert space.weight.table == (0, 2, 2)
    assert loads_instance(dumps_instance(inst)) == inst


def test_random_linear_code_determinism():
    a = random_linear_code(42, 3, chain(2), Labeling((1, 2)), 2)
    b = random_linear_code(42, 3, chain(2), Labeling((1, 2)), 2)
    c = random_linear_code(43, 3, chain(2), Labeling((1, 2)), 2)
    assert a == b
    assert a != c
    assert a.digest() == b.digest()


def test_random_linear_code_dims():
    zero = random_linear_code(1, 2, chain(2), Labeling((1, 1)), 0)
    _, code = zero.build()
    assert code.size == 1
    full = random_linear_code(1, 2, chain(2), Labeling((1, 1)), 2)
    _, code = full.build()
    assert code.dimension <= 2


def test_derive_seed_stability():
    assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
    assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
    assert 0 <= derive_seed(0, "suite", 0) < 2**63


def test_generator_kind_round_trip():
    doc = dict(
        MINIMAL,
        code={"kind": "generator", "rows": [[1]]},
    )
    inst = instance_from_json_dict(doc)
    _, code = inst.build()
    assert code.is_linear and code.size == 2
    assert loads_instance(dumps_instance(inst)) == inst


# A valid GF(5) document; each case below replaces one part with a value the
# loader used to coerce (or fail on with a raw unpack message).
LEE5 = {
    "field": {"q": 5},
    "weight": {"kind": "table", "values": [0, 1, 2, 2, 1]},
    "poset": {"elements": 2, "cover": [[1, 2]]},
    "labeling": [2, 1],
    "code": {"kind": "list", "words": [[1, 3, 1], [0, 0, 0]]},
}

NON_INTEGERS = [
    ("weight", {"kind": "table", "values": [0, 1.9, 2, 2, 1.2]}, "weight.values[1]"),
    ("code", {"kind": "list", "words": [[1.7, 3, True], [0, 0, 0]]}, "code.words[0][0]"),
    ("code", {"kind": "list", "words": [[1, 3, True], [0, 0, 0]]}, "code.words[0][2]"),
    ("code", {"kind": "generator", "rows": [[1, 3, 4.0]]}, "code.rows[0][2]"),
    ("code", {"kind": "list", "words": "11"}, "code.words"),
    ("poset", {"elements": True, "cover": []}, "poset.elements"),
    ("poset", {"elements": 2, "cover": [[1, 2, 3]]}, "poset.cover[0]"),
    ("poset", {"elements": 2, "cover": [[1, 2.0]]}, "poset.cover[0][1]"),
    ("poset", {"elements": 2, "cover": [3]}, "poset.cover[0]"),
    ("labeling", [2.0, 1], "labeling[0]"),
    ("field", {"q": 5.0}, "field.q"),
    ("field", {"q": True}, "field.q"),
]


def test_lee5_document_is_valid():
    space, code = instance_from_json_dict(LEE5).build()
    assert space.weight.name == "table" and code.size == 2


def _refused_at(doc, path, tmp_path, capsys):
    """The loader raises a ConsistencyError at the JSON path, and `wpbcodes
    mindist` on the document exits 2 naming it."""
    with pytest.raises(ConsistencyError) as e:
        instance_from_json_dict(doc)
    assert e.value.field == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["mindist", str(bad)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("key,value,path", NON_INTEGERS)
def test_non_integers_are_rejected_with_their_path(key, value, path, tmp_path, capsys):
    _refused_at(dict(LEE5, **{key: value}), path, tmp_path, capsys)


# Each case breaks one rule that the constructor building the value checks
# (not the loader): the error is raised there and mapped to the JSON path.
CONSTRUCTOR_RULES = [
    ("field", {"q": 1}, "field.q"),  # make_field
    ("weight", {"kind": "table", "values": [0, 1, 2, 2]}, "weight.values"),  # custom_weight
    ("labeling", [2, 1, 1], "labeling"),  # BlockSpace: 3 blocks, 2 elements
    ("labeling", [3], "labeling"),  # BlockSpace: 1 block, 2 elements
    ("labeling", [], "labeling"),  # Labeling
    ("labeling", [0, 3], "labeling"),  # Labeling
    ("code", {"kind": "list", "words": [[1, 3], [0, 0, 0]]}, "code.words"),  # Code
    ("code", {"kind": "generator", "rows": [[1, 3, 7]]}, "code.rows"),  # Code
    ("code", {"kind": "list", "words": []}, "code.words"),  # Code
]


@pytest.mark.parametrize("key,value,path", CONSTRUCTOR_RULES)
def test_constructor_errors_keep_their_path(key, value, path, tmp_path, capsys):
    _refused_at(dict(LEE5, **{key: value}), path, tmp_path, capsys)


@pytest.mark.parametrize("row", [[1, 3, 2**70], [-1, 3, 2**63]], ids=["object", "float64"])
def test_big_coordinates_are_range_errors(row):
    """A coordinate beyond int64 (and, beside a negative one, beyond uint64)
    makes numpy build an object or float64 array of the rows, yet every
    entry is a JSON integer: the document is refused for its range, not for
    the array's dtype."""
    doc = dict(LEE5, code={"kind": "generator", "rows": [row]})
    with pytest.raises(ConsistencyError) as e:
        loads_instance(json.dumps(doc))
    assert str(e.value) == "code.rows: coordinates must lie in 0..4"


@st.composite
def valid_documents(draw):
    """Instance documents that load: every weight kind, posets given by any
    set of pairs a < b, both code kinds."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    kind = draw(st.sampled_from(["hamming", "table"] + (["lee"] if q != 4 else [])))
    weight = {"kind": kind}
    if kind == "table":
        # w(-a) = w(a) and every nonzero value in {1, 2}: a valid weight
        neg, values = make_field(q).neg, [0] * q
        for a in range(1, q):
            values[a] = values[neg(a)] if neg(a) < a else draw(st.integers(1, 2))
        weight["values"] = values
    s = draw(st.integers(1, 3))
    pairs = [[a, b] for a in range(1, s + 1) for b in range(a + 1, s + 1)]
    cover = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    labeling = draw(st.lists(st.integers(1, 2), min_size=s, max_size=s))
    row = st.lists(st.integers(0, q - 1), min_size=sum(labeling), max_size=sum(labeling))
    if draw(st.booleans()):
        code = {"kind": "generator", "rows": draw(st.lists(row, max_size=3))}
    else:
        code = {"kind": "list", "words": draw(st.lists(row, min_size=1, max_size=4))}
    return {
        "field": {"q": q},
        "weight": weight,
        "poset": {"elements": s, "cover": cover},
        "labeling": labeling,
        "code": code,
    }


@settings(max_examples=150, deadline=None)
@given(doc=valid_documents())
def test_instances_round_trip(doc):
    """load(save(x)) == x, and saving is idempotent, for generated valid
    instances."""
    inst = instance_from_json_dict(doc)
    text = dumps_instance(inst)
    assert loads_instance(text) == inst
    assert dumps_instance(loads_instance(text)) == text


def test_oversized_document_is_refused_before_it_is_built(tmp_path, capsys):
    """A 156-byte GF(2) document asking for 10^7 coordinates in one block:
    under a cap of 2^20 the loader charges n and raises SpaceTooLarge
    having allocated next to nothing (building the space and the code's
    free columns took about 500 MB), and the CLI maps it to exit code 1.
    The poset's order relation, s^2 for s elements, is charged as well."""
    doc = {**MINIMAL, "labeling": [10_000_000], "code": {"kind": "generator", "rows": []}}
    text = json.dumps(doc)
    assert len(text) == 156
    tracemalloc.start()
    try:
        with enumeration_cap(1 << 20), pytest.raises(
            SpaceTooLarge, match="coordinates n = 10000000 exceeds the enumeration cap 1048576"
        ):
            loads_instance(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["mindist", str(path), "--max-space", "2^20"]) == 1
    assert "SpaceTooLarge: coordinates n = 10000000" in capsys.readouterr().err
    three = {**MINIMAL, "poset": {"elements": 3, "cover": []}, "labeling": [1, 1, 1],
             "code": {"kind": "list", "words": [[0, 0, 0]]}}
    with enumeration_cap(8), pytest.raises(
        SpaceTooLarge, match=r"poset order relation s\^2 = 9 exceeds"
    ):
        instance_from_json_dict(three)
    with enumeration_cap(9):
        instance_from_json_dict(three)


def _one_coordinate_blocks(s: int, cover: list, rows: list) -> str:
    """A GF(2) Hamming document on s one-coordinate blocks."""
    return json.dumps({
        "field": {"q": 2},
        "weight": {"kind": "hamming"},
        "poset": {"elements": s, "cover": cover},
        "labeling": [1] * s,
        "code": {"kind": "generator", "rows": rows},
    })


def test_2000_element_chain_loads_and_answers():
    """A 2,000-block chain of one-coordinate blocks through the loader.  A
    vector's weight is its highest nonzero coordinate (1-based), so with P
    the top positions of a basis in echelon form from the top: d = min P;
    R is the highest position outside P (reducing a vector at every pivot
    from the top leaves a coset's lightest word); rho = d - 1, since the
    metric is an ultrametric (two words at most r from a vector lie at most
    r apart, and the zero vector is 0 and d from two words).  The code has
    dimension 8, so the leaf reading of d takes the piece codes of its
    2^8 words, one place-value product and one sum over the 2,000 pieces."""
    s, rng = 2000, random.Random(2000)
    rows = [[rng.randrange(2) for _ in range(s)] for _ in range(8)]
    basis: dict[int, int] = {}
    for row in rows:
        v = sum(1 << i for i, x in enumerate(row) if x)
        while v and v.bit_length() - 1 in basis:
            v ^= basis[v.bit_length() - 1]
        if v:
            basis[v.bit_length() - 1] = v
    d = min(basis) + 1
    start = time.perf_counter()
    _, code = loads_instance(
        _one_coordinate_blocks(s, [[i, i + 1] for i in range(1, s)], rows)
    ).build()
    assert code.min_distance() == d
    assert code.covering_radius() == max(set(range(s)) - set(basis)) + 1
    assert code.packing_radius() == d - 1
    assert time.perf_counter() - start < 2


def test_2000_element_antichain_loads_and_answers():
    """A 2,000-block antichain of one-coordinate blocks through the loader,
    the code spanned by unit rows (each inside one block): under the
    Hamming weight the metric is Hamming's, so d = 1, rho = 0, and R is the
    1,995 blocks that no row touches.  R reads 2,000 one-block leaves, each
    in its own space."""
    s = 2000
    rows = [[int(i == j) for i in range(s)] for j in (0, 5, 17, 999, 1999)]
    start = time.perf_counter()
    _, code = loads_instance(_one_coordinate_blocks(s, [], rows)).build()
    assert code.min_distance() == 1
    assert code.packing_radius() == 0
    assert code.covering_radius() == 1995
    assert time.perf_counter() - start < 2


# Random JSON for mutations, integers unbounded: the loader charges the
# poset's order relation and the coordinates against the enumeration cap, so a
# document asking for a huge space is refused before it is built.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(node, path=()):
    """Every path (a tuple of keys and indices) into a JSON document."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=valid_documents(), data=st.data())
def test_mutated_documents_exit_2_or_load(doc, data, tmp_path_factory):
    """Drop one key or swap one value for random JSON in a valid document.
    A document that loads_instance rejects makes the CLI exit 2 with an
    error line, and one it refuses as too large under the same cap exit 1
    naming SpaceTooLarge; no document lets an exception escape main."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path and data.draw(st.booleans()):
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = data.draw(_JSON)
    else:
        doc = data.draw(_JSON)
    text = json.dumps(doc)
    outcome = "loads"
    try:
        with enumeration_cap(1 << 12):
            loads_instance(text)
    except (ConsistencyError, ParseError):
        outcome = "rejected"
    except SpaceTooLarge:
        outcome = "too large"
    file = tmp_path_factory.mktemp("mutated") / "doc.json"
    file.write_text(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["mindist", str(file), "--max-space", "2^12"])
    if outcome == "rejected":
        assert code == 2 and err.getvalue().startswith("error: ")
    elif outcome == "too large":
        assert code == 1 and err.getvalue().startswith("error: SpaceTooLarge: ")
    else:
        assert code in (0, 1)
