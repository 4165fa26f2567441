import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import random

import numpy as np
import pytest

import wpbcodes
from wpbcodes.blockspace import BlockSpace, Labeling
from wpbcodes.codes import Code
from wpbcodes.field import make_field
from wpbcodes.instances import random_rows
from wpbcodes.poset import chain
from wpbcodes.weights import hamming_weight

from wpbcodes.checks import to_jsonl, verify_suite
from wpbcodes.cli import main
from wpbcodes.instances import loads_instance

REP3 = {
    "field": {"q": 2},
    "weight": {"kind": "hamming"},
    "poset": {"elements": 3, "cover": [[1, 2], [2, 3]]},
    "labeling": [1, 1, 1],
    "code": {"kind": "list", "words": [[0, 0, 0], [1, 1, 1]]},
}

LEE_SPAN = {
    "field": {"q": 5},
    "weight": {"kind": "lee"},
    "poset": {"elements": 2, "cover": [[1, 2]]},
    "labeling": [2, 1],
    "code": {"kind": "generator", "rows": [[1, 3, 4]]},
}


@pytest.fixture
def rep3(tmp_path):
    path = tmp_path / "rep3.json"
    path.write_text(json.dumps(REP3))
    return str(path)


@pytest.fixture
def lee_span(tmp_path):
    path = tmp_path / "lee.json"
    path.write_text(json.dumps(LEE_SPAN))
    return str(path)


def test_weight(rep3, capsys):
    assert main(["weight", rep3, "--vector", "1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("text", ["1,,1", "1,1,1,", ",1,1,1", "+1,1,1", "\u0661,1,1"])
def test_weight_rejects_malformed_vectors(rep3, text, capsys):
    """A vector with an empty field, a sign or a non-ASCII digit is a usage
    error (exit 2) naming the field, not a coerced vector."""
    assert main(["weight", rep3, f"--vector={text}"]) == 2
    assert "vector field" in capsys.readouterr().err


def test_distance(rep3, capsys):
    assert main(["distance", rep3, "-u", "0,0,0", "-v", "1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_mindist(lee_span, capsys):
    assert main(["mindist", lee_span]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_covering_and_packing(rep3, capsys):
    assert main(["covering-radius", rep3]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["packing-radius", rep3]) == 0
    assert capsys.readouterr().out.strip() == "2"


def _direct_sum_chain(rng, k1: int, middle_full: bool, k2: int):
    """A GF(2) Hamming instance on a 30-block chain of 2-coordinate blocks
    (n = 60): the linear-order direct sum C1 + Cm + C2 over chains of 5, 20
    and 5 blocks, C1 and C2 random of dimensions k1 and k2, Cm the zero
    code or the whole space.  Returns the document and the two outer parts
    as word-set codes on their own 5-block chain."""
    f = make_field(2)
    part = BlockSpace(chain(5), Labeling((2,) * 5), f, hamming_weight(f))
    outer = []
    for k in (k1, k2):
        while True:
            code = Code.linear(part, random_rows(rng, 2, 10, k))
            if code.dimension == k:
                break
        outer.append(code)
    middle = np.eye(40, dtype=int) if middle_full else np.zeros((0, 40), dtype=int)
    g1, g2 = (c._rows.astype(int) for c in outer)
    rows = np.zeros((len(g1) + len(middle) + len(g2), 60), dtype=int)
    rows[: len(g1), :10] = g1
    rows[len(g1) : len(g1) + len(middle), 10:50] = middle
    rows[len(g1) + len(middle) :, 50:] = g2
    doc = {
        "field": {"q": 2},
        "weight": {"kind": "hamming"},
        "poset": {"elements": 30, "cover": [[i, i + 1] for i in range(1, 30)]},
        "labeling": [2] * 30,
        "code": {"kind": "generator", "rows": rows.tolist()},
    }
    return doc, [Code.explicit(part, c.codeword_array()) for c in outer]


@pytest.mark.parametrize("k1, middle_full, k2", [(2, False, 3), (3, True, 7)])
def test_level_reading_answers_a_60_coordinate_chain(k1, middle_full, k2, tmp_path, capsys):
    """mindist, covering-radius and packing-radius on a 30-block GF(2)
    chain with n = 60 (2^60 vectors) exit 0 under the default cap, at k = 5
    and k = 50.  The answers are checked against the paper's linear-order
    direct-sum formulas on the two 10-coordinate outer parts, each scanned
    as a word set: d(C1 + C2) = d(C1) and, for R(C2) > 0, the covering
    radius R(C1 + C2) = s1 * M_w + R(C2), with M_w = 1 and s1 = 25, the
    blocks below C2.  The packing radius is rho(C1): words of C outside C1
    weigh more than any vector of the bottom five blocks, so the two
    nearest words of a vector at the smallest second distance differ in C1
    alone."""
    doc, (c1, c2) = _direct_sum_chain(random.Random(k1), k1, middle_full, k2)
    assert len(doc["code"]["rows"]) == (50 if middle_full else 5)
    path = tmp_path / "chain60.json"
    path.write_text(json.dumps(doc))
    assert c2.covering_radius() > 0
    expect = {
        "mindist": c1.min_distance(),
        "covering-radius": 25 + c2.covering_radius(),
        "packing-radius": c1.packing_radius(),
    }
    for command, value in expect.items():
        assert main([command, str(path)]) == 0
        assert capsys.readouterr().out.strip() == str(value)


COSETS_LEE_SPAN = """\
cosets: 25
max leader weight (covering radius): 2
weight  cosets
     0  1
     1  8
     2  16
leaders:
  0,0,0  (weight 0)
  1,3,0  (weight 2)
  2,1,0  (weight 2)
  3,4,0  (weight 2)
  4,2,0  (weight 2)
  0,1,0  (weight 1)
  1,4,0  (weight 1)
  2,2,0  (weight 2)
  3,0,0  (weight 2)
  4,3,0  (weight 2)
  0,2,0  (weight 2)
  1,0,0  (weight 1)
  2,3,0  (weight 2)
  3,1,0  (weight 2)
  4,4,0  (weight 1)
  0,3,0  (weight 2)
  1,1,0  (weight 1)
  2,4,0  (weight 2)
  3,2,0  (weight 2)
  4,0,0  (weight 1)
  0,4,0  (weight 1)
  1,2,0  (weight 2)
  2,0,0  (weight 2)
  3,3,0  (weight 2)
  4,1,0  (weight 1)
"""


def test_cosets(lee_span, capsys):
    """The complete output on LEE_SPAN: 25 cosets, so every leader prints
    after the histogram, each as plain decimal coordinates."""
    assert main(["cosets", lee_span]) == 0
    assert capsys.readouterr().out == COSETS_LEE_SPAN


def test_cosets_rejects_explicit(rep3, capsys):
    assert main(["cosets", rep3]) == 1
    assert "NotLinear" in capsys.readouterr().err


def test_ball(rep3, capsys):
    assert main(["ball", rep3, "--center", "0,0,0", "--radius", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0,0,0", "0,1,0", "1,0,0", "1,1,0"]
    assert main(["ball", rep3, "--center", "0,0,0", "--radius", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_ball_respects_cap(rep3, capsys):
    assert main(["ball", rep3, "--center", "0,0,0", "--radius", "1", "--max-space", "4"]) == 1
    assert "SpaceTooLarge" in capsys.readouterr().err
    # --count-only enumerates nothing: the cap bounds the loaded space's 3
    # coordinates, its 3-element poset's order relation (3^2 = 9) and the
    # spectrum DP's states, two on this 3-chain, not its 8 vectors
    count = ["ball", rep3, "--center", "0,0,0", "--radius", "1", "--count-only"]
    assert main(count + ["--max-space", "9"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(count + ["--max-space", "8"]) == 1
    assert "SpaceTooLarge: poset order relation s^2 = 9 exceeds" in capsys.readouterr().err


def test_ball_count_beyond_enumeration_cap(tmp_path, capsys):
    """A 40-block GF(2) chain of 2-coordinate blocks (n = 80): the vectors
    within Hamming-chain distance r of any centre are those zero above
    block r, 2^(2r) of them."""
    doc = {
        "field": {"q": 2},
        "weight": {"kind": "hamming"},
        "poset": {"elements": 40, "cover": [[i, i + 1] for i in range(1, 40)]},
        "labeling": [2] * 40,
        "code": {"kind": "generator", "rows": [[1] * 80]},
    }
    path = tmp_path / "chain40.json"
    path.write_text(json.dumps(doc))
    center = ",".join("1" * 80)
    assert main(["ball", str(path), "--center", center, "--radius", "30", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == str(2**60)


def test_construct_extend(rep3, capsys, tmp_path):
    out = tmp_path / "ext.json"
    assert main(["construct", "extend", rep3, "--out", str(out)]) == 0
    inst = loads_instance(out.read_text())
    assert inst.labeling == (1, 1, 1, 1)
    _, code = inst.build()
    assert set(code.codewords()) == {(0, 0, 0, 0), (1, 1, 1, 1)}


def test_construct_direct_sum(rep3, lee_span, capsys):
    # mismatched fields must fail cleanly
    assert main(["construct", "direct-sum", rep3, lee_span]) == 1
    assert "Field" in capsys.readouterr().err


def test_construct_direct_sum_weight_mismatch(lee_span, tmp_path, capsys):
    # one field under two weight tables: exit 1 with the construction's error
    hamming = tmp_path / "hamming.json"
    hamming.write_text(json.dumps({**LEE_SPAN, "weight": {"kind": "hamming"}}))
    assert main(["construct", "direct-sum", lee_span, str(hamming)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: WeightMismatch: codes use different weight tables\n"
    assert captured.out == ""


def test_construct_plotkin_stdout(rep3, capsys):
    assert main(["construct", "plotkin", rep3, rep3, "--order", "linear"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labeling"] == [1, 1, 1, 1, 1, 1]


def test_construct_puncture(rep3, capsys):
    assert main(["construct", "puncture", rep3, "--block", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labeling"] == [1, 1]
    assert main(["construct", "puncture", rep3]) == 2  # missing --block


def test_construct_tensor(rep3, capsys):
    assert main(["construct", "tensor", rep3, rep3, "--order", "lex"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["code"]["kind"] == "list"
    assert doc["labeling"] == [1] * 9


@pytest.mark.parametrize(
    "kind, order, message",
    [
        ("direct-sum", "lex", "order must be 'disjoint' or 'linear', got 'lex'"),
        ("plotkin", "lex", "order must be 'disjoint' or 'linear', got 'lex'"),
        ("tensor", "linear", "order must be 'cartesian' or 'lex', got 'linear'"),
    ],
    ids=["direct-sum", "plotkin", "tensor"],
)
def test_construct_wrong_order(rep3, lee_span, capsys, kind, order, message):
    """An order the construction does not take exits 2 with the
    construction's message, also for inputs over different fields."""
    for second in (rep3, lee_span):
        assert main(["construct", kind, rep3, second, "--order", order]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"


def test_construct_wrong_arity(rep3, capsys):
    assert main(["construct", "direct-sum", rep3]) == 2
    assert main(["construct", "extend", rep3, rep3]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["mindist", str(bad)]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["mindist", "/no/such/file.json"]) == 2


# one command per error class the CLI maps: the computation errors exit 1
# and name their type, usage and instance-file errors exit 2 and do not
@pytest.mark.parametrize(
    "argv, status, prefix",
    [
        (["construct", "puncture", "{rep3}", "--block", "9"], 1,
         "error: OutOfRange: block 9 outside 1..3\n"),
        (["cosets", "{rep3}"], 1, "error: NotLinear: "),
        (["mindist", "{one}"], 1, "error: TooFewWords: "),
        (["weight", "{rep3}", "--vector", "1,1"], 1,
         "error: LengthMismatch: vector has length 2, ambient n=3\n"),
        (["weight", "{rep3}", "--vector", "1,x"], 2, "error: vector field 2 of '1,x' "),
        (["mindist", "{missing}"], 2, "error: [Errno 2] No such file or directory"),
        (["mindist", "{rep3}", "--max-space", "2"], 1, "error: SpaceTooLarge: "),
        (["mindist", "{big}"], 2, "error: code.rows: coordinates must "),
    ],
    ids=["OutOfRange", "NotLinear", "TooFewWords", "LengthMismatch", "ValueError",
         "FileNotFoundError", "SpaceTooLarge", "ConsistencyError"],
)
def test_each_error_class_maps_to_its_exit_code(argv, status, prefix, rep3, tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({**REP3, "code": {"kind": "list", "words": [[1, 0, 1]]}}))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({**LEE_SPAN, "code": {"kind": "generator", "rows": [[1, 3, 2**70]]}}))
    paths = {"rep3": rep3, "one": str(one), "big": str(big), "missing": str(tmp_path / "no.json")}
    assert main([arg.format(**paths) for arg in argv]) == status
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.out == ""


@pytest.mark.parametrize(
    "cover, message",
    [
        ([[1, 5]], "cover (1,5) outside 1..2"),
        ([[1, 1]], "cover (1,1) relates an element to itself"),
        ([[1, 2], [2, 1]], "cover relations contain a cycle: [1, 2, 1]"),
        ([[0, 1]], "cover (0,1) outside 1..2"),
    ],
)
def test_invalid_cover_relations_exit_2(cover, message, tmp_path, capsys):
    doc = {**LEE_SPAN, "poset": {"elements": 2, "cover": cover}}
    path = tmp_path / "bad_poset.json"
    path.write_text(json.dumps(doc))
    assert main(["mindist", str(path)]) == 2
    assert capsys.readouterr().err == f"error: poset: {message}\n"


# md5 of `wpbcodes verify --list`: every suite name, tag, trial count and
# check id of the catalog
VERIFY_LIST_MD5 = "bbf36ef1fde1b4b1c59f2a136de33b95"


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "metric-axioms" in out and "tensor-covering" in out
    assert hashlib.md5(out.encode()).hexdigest() == VERIFY_LIST_MD5


def test_verify_writes_the_jsonl_of_its_reports(capsys, tmp_path):
    """verify writes its records line by line, to --out and to stdout alike:
    exactly to_jsonl of the same reports."""
    want = to_jsonl(verify_suite(["metric-axioms"], seed=0))
    out = tmp_path / "axioms.jsonl"
    assert main(["verify", "--suite", "metric-axioms", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_text() == want
    capsys.readouterr()
    assert main(["verify", "--suite", "metric-axioms", "--seed", "0"]) == 0
    assert capsys.readouterr().out == want


def test_verify_runs_and_reports(capsys, tmp_path):
    out = tmp_path / "reports.jsonl"
    rc = main(
        ["verify", "--suite", "ball-nesting", "--seed", "1", "--trials", "5",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        doc = json.loads(line)
        assert doc["status"] == "pass"
    err = capsys.readouterr().err
    assert "ball-nesting-chain" in err


# md5 of the JSONL that `wpbcodes verify --seed 0` writes: the behaviour
# contract, which must not move unless a change explains why
VERIFY_SEED_0_MD5 = "ac2d01cb2b8ddc3e00903b67d4754325"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_seed_0_keeps_the_behaviour_contract(jobs, capsys, tmp_path):
    """Serial and parallel runs write the same bytes."""
    out = tmp_path / "reports.jsonl"
    assert main(["verify", "--seed", "0", "--jobs", jobs, "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == VERIFY_SEED_0_MD5
    capsys.readouterr()


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


def test_max_space_notation(lee_span, capsys):
    """--max-space takes base^exp; the code's q^k = 5 codewords exceed
    2^1 and fit 2^24."""
    assert main(["mindist", lee_span, "--max-space", "2^1"]) == 1
    assert "SpaceTooLarge" in capsys.readouterr().err
    assert main(["mindist", lee_span, "--max-space", "2^24"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_construct_max_space(tmp_path, capsys):
    """construct takes --max-space like the instance commands: the tensor
    of two 4-word codes builds 16 words (10 distinct), over a cap of 15,
    within 16.  Each code lies on one 3-coordinate block, so the product
    poset's order relation (1^2) fits both caps."""
    doc = {**REP3, "poset": {"elements": 1, "cover": []}, "labeling": [3],
           "code": {"kind": "generator", "rows": [[1, 1, 0], [0, 1, 1]]}}
    path = tmp_path / "four.json"
    path.write_text(json.dumps(doc))
    tensor = ["construct", "tensor", str(path), str(path)]
    assert main(tensor + ["--max-space", "15"]) == 1
    assert "|C1| * |C2| words = 16 exceeds the enumeration cap 15" in capsys.readouterr().err
    assert main(tensor + ["--max-space", "16"]) == 0
    assert len(json.loads(capsys.readouterr().out)["code"]["words"]) == 10


@pytest.mark.parametrize("cap", ["2^-1", "0", "-5", "0^0", "2^64", "10^99999999", "2^", "x"])
def test_max_space_rejects_caps_outside_1_to_2_63(cap, lee_span, capsys):
    """Caps below 1, negative exponents and powers past 2^63 are usage
    errors; 10^99999999 is refused from its exponent, not computed."""
    with pytest.raises(SystemExit) as e:
        main(["mindist", lee_span, f"--max-space={cap}"])
    assert e.value.code == 2
    assert "--max-space" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--jobs", jobs])
    assert e.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_construct_tensor_charges_the_product_poset_first(tmp_path, monkeypatch, capsys):
    """Two 100-element antichain documents load under the default cap (each
    charges s^2 = 10^4), but their tensor product's poset has 10^4 elements
    and an order relation of 10^8 > 2^24: construct exits 1 naming that
    charge, and neither product combinator is called."""
    s = 100
    doc = {**REP3, "poset": {"elements": s, "cover": []}, "labeling": [1] * s,
           "code": {"kind": "list", "words": [[0] * s]}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("the product poset was built before its charge")

    monkeypatch.setattr(wpbcodes.poset, "cartesian_product", refuse)
    monkeypatch.setattr(wpbcodes.poset, "lex_product", refuse)
    for order in ("cartesian", "lex"):
        assert main(["construct", "tensor", str(path), str(path), "--order", order]) == 1
        err = capsys.readouterr().err
        assert "SpaceTooLarge: poset order relation s^2 = 100000000 exceeds" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(trials, capsys):
    """--trials 0 or below would run no unit and report every check as
    passing; it is a usage error, as --jobs 0 is."""
    with pytest.raises(SystemExit) as e:
        main(["verify", "--trials", trials])
    assert e.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_verify_q_filter(capsys):
    rc = main(["verify", "--suite", "metric-axioms", "--q", "3", "--trials", "10"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 10
    assert all(json.loads(line)["status"] == "pass" for line in out)


def test_python_dash_m_runs_the_cli(lee_span):
    """``python -m wpbcodes`` is the same command line, exit codes included."""
    src = str(Path(wpbcodes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = [sys.executable, "-m", "wpbcodes"]
    ok = subprocess.run(run + ["covering-radius", lee_span], env=env,
                        capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0 and ok.stdout.strip() == "2"
    bad = subprocess.run(run + ["mindist", lee_span + ".missing"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and bad.stderr.startswith("error:")


def test_closed_stdout_pipe_exits_141_quietly(tmp_path):
    """A reader that closes the pipe after one line (as `| head -1` does)
    ends the command with exit 141 and nothing on stderr: no `error:` line,
    no traceback at exit.  The ball lists 2^16 vectors, far more than a
    pipe buffers, so the writer is still writing when the pipe closes."""
    doc = {
        "field": {"q": 2},
        "weight": {"kind": "hamming"},
        "poset": {"elements": 1, "cover": []},
        "labeling": [16],
        "code": {"kind": "generator", "rows": []},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    first, err, code = _first_line_then_close(
        ["ball", str(path), "--center", ",".join("0" * 16), "--radius", "1"])
    assert first == b",".join([b"0"] * 16) + b"\n"
    assert err == b""
    assert code == 141


def _first_line_then_close(args):
    """(first stdout line, stderr, exit code) of `python -m wpbcodes args`
    whose reader closes the pipe after one line."""
    src = str(Path(wpbcodes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    cmd = [sys.executable, "-m", "wpbcodes", *args]
    # leaving the with block closes the stderr pipe and reaps the process
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    return first, err, code


@pytest.mark.parametrize("args, codes", [
    # 5,359 records, about 639 KB, far more than a pipe buffers
    (["--seed", "0"], {141}),
    # the catalog may fit the pipe before it closes
    (["--list"], {0, 141}),
])
def test_verify_into_a_closed_pipe_exits_quietly(args, codes):
    """verify, whose records are written line by line, into a reader that
    closes the pipe after one line (as `| head -1` does): exit 141, or 0
    when all of it fit the pipe first, and nothing on stderr."""
    first, err, code = _first_line_then_close(["verify", *args])
    assert first.endswith(b"\n")
    assert err == b""
    assert code in codes
