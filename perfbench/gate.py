"""The correctness gate: compares answers and counts failed operations.

Pure functions on plain data, so the gate can be tested without running
the program (see test_gate.py).  Every answer is one attempted operation;
it fails when the query raised, when it differs from the oracle's expected
value, when it differs from the first serial pass (determinism), or, for a
coset table, when its max leader weight differs from the covering radius
answered in the same pass.
"""

from __future__ import annotations

import json

COSET = ":coset_table"
COVERING = ":covering_radius"


def check_pass(answers: dict, errors: dict, expected: dict, reference: dict) -> list[str]:
    """Ids of the failed operations of one pass (serial, or both halves merged)."""
    failed = sorted(errors)
    for qid, value in answers.items():
        want = expected.get(qid, reference.get(qid, value))
        bad = value != want
        if qid.endswith(COSET):
            cov = answers.get(qid[: -len(COSET)] + COVERING, value["max_weight"])
            bad = bad or value["max_weight"] != cov
        if bad:
            failed.append(qid)
    return failed


def check_checks(checks: dict) -> list[str]:
    """Ids of the oracle's own checks (scalar against batch kernel) that failed."""
    return sorted(cid for cid, ok in checks.items() if not ok)


def check_verify(serial: bytes, other: bytes) -> tuple[int, list[str]]:
    """Compare a serial verify JSONL with a second run of the same seed.

    Each record of each run is an operation.  A serial record fails when its
    status is ``fail``; a record of the second run fails when it is not
    byte-identical to the serial record at the same position.
    """
    lines, others = serial.splitlines(), other.splitlines()
    failed = [f"serial:{i}" for i, ln in enumerate(lines)
              if json.loads(ln)["status"] == "fail"]
    failed += [f"other:{i}" for i in range(max(len(lines), len(others)))
               if i >= len(lines) or i >= len(others) or lines[i] != others[i]]
    return len(lines) + len(others), failed


def corrupt(expected: dict) -> dict:
    """A copy of ``expected`` with one value made wrong, for the self-check
    that the gate notices a wrong answer."""
    bad = dict(expected)
    qid = sorted(bad)[0]
    value = bad[qid]
    if isinstance(value, dict):
        bad[qid] = {**value, "_corrupted": True}
    elif isinstance(value, bool):
        bad[qid] = not value
    else:
        bad[qid] = value + 1
    return bad
