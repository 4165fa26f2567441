import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpbcodes

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


def test_cosets(lee_span, capsys):
    assert main(["cosets", lee_span]) == 0
    out = capsys.readouterr().out
    assert "cosets: 25" in out
    assert "max leader weight" in out


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
    # --count-only enumerates nothing: the cap bounds the spectrum DP's
    # states, two on this 3-chain
    count = ["ball", rep3, "--center", "0,0,0", "--radius", "1", "--count-only"]
    assert main(count + ["--max-space", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(count + ["--max-space", "1"]) == 1
    assert "SpaceTooLarge" in capsys.readouterr().err


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


# md5 of `wpbcodes verify --list`: every suite name, tag, trial count and
# check id of the catalog
VERIFY_LIST_MD5 = "bbf36ef1fde1b4b1c59f2a136de33b95"


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "metric-axioms" in out and "tensor-covering" in out
    assert hashlib.md5(out.encode()).hexdigest() == VERIFY_LIST_MD5


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
    within 16."""
    doc = {**REP3, "code": {"kind": "generator", "rows": [[1, 1, 0], [0, 1, 1]]}}
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
    src = str(Path(wpbcodes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    cmd = [sys.executable, "-m", "wpbcodes", "ball", str(path),
           "--center", ",".join("0" * 16), "--radius", "1"]
    # leaving the with block closes the stderr pipe and reaps the process
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert first == b",".join([b"0"] * 16) + b"\n"
    assert err == b""
    assert code == 141
