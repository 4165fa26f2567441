"""Self-test of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_gate.py

The gate must count a wrong answer as a failed operation; a gate that
passes everything would let a broken optimisation through.
"""

import json

import gate

ANSWERS = {
    "a@1:min_distance": 3,
    "a@1:covering_radius": 5,
    "a@1:coset_table": {"max_weight": 5, "cosets": 64, "leaders": "ab"},
    "a@1:is_perfect": False,
}


def test_matching_answers_pass():
    expected = {k: v for k, v in ANSWERS.items() if k != "a@1:coset_table"}
    assert gate.check_pass(ANSWERS, {}, expected, ANSWERS) == []


def test_one_wrong_expected_value_fails():
    assert gate.check_pass(ANSWERS, {}, gate.corrupt(ANSWERS), ANSWERS)


def test_coset_table_must_match_covering_radius():
    bad = dict(ANSWERS)
    bad["a@1:coset_table"] = {**ANSWERS["a@1:coset_table"], "max_weight": 4}
    assert gate.check_pass(bad, {}, {}, bad) == ["a@1:coset_table"]


def test_errors_and_nondeterminism_fail():
    changed = {**ANSWERS, "a@1:min_distance": 2}
    assert gate.check_pass(changed, {"a@1:ball_size": "boom"}, {}, ANSWERS) == [
        "a@1:ball_size", "a@1:min_distance"]


def test_kernel_checks():
    assert gate.check_checks({"x:kernel_agrees": True, "y:kernel_agrees": False}) == [
        "y:kernel_agrees"]


def _jsonl(*statuses):
    return "".join(json.dumps({"check": "c", "status": s}) + "\n" for s in statuses).encode()


def test_verify_fail_records_and_byte_drift():
    ok = _jsonl("pass", "soft-discrepancy")
    assert gate.check_verify(ok, ok) == (4, [])
    assert gate.check_verify(_jsonl("pass", "fail"), _jsonl("pass", "fail")) == (
        4, ["serial:1"])
    assert gate.check_verify(ok, _jsonl("pass", "pass"))[1] == ["other:1"]
    assert gate.check_verify(ok, _jsonl("pass"))[1] == ["other:1"]
