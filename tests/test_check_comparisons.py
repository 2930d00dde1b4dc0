"""Every comparison the check registry makes, pinned to a recorded digest.

Wrapping the registry's one compare function records, for each check, the
ordered lines ``n, note, sha256(left render), sha256(right render)``.  Their
count and sha256 must match ``data/check_comparisons_quick.json``, so a
change to which sides a check compares, in what order, or what they render
to fails the test named after that check.  The full profile is pinned the
same way by ``data/check_comparisons_full.json``: it reaches the levels the
quick profile never does, such as n = 7..9 of the forest and signed-word
enumerations.  Both records are read from the session's one recorded run of
each profile (``conftest.record_comparisons``), and each test first asserts
that its own check passed, so a failing check fails the test named after it.

``python tests/test_check_comparisons.py full`` prints the full record as
JSON (3.3-4.6 s on a 2-vCPU host under CPython 3.11), to compare against a
record taken at another revision.  A profile other than ``quick`` or
``full`` raises ValueError.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from conftest import record_comparisons
from normord import checks

RECORD = json.loads((Path(__file__).parent / "data" / "check_comparisons_quick.json").read_text())
FULL_RECORD = json.loads((Path(__file__).parent / "data" / "check_comparisons_full.json").read_text())


def assert_check_matches(run, record: dict, check_id: str) -> None:
    result = run.result(check_id)
    assert result.passed, result.render()
    assert run.digests[check_id] == record[check_id]


def test_record_covers_the_registry(quick_run):
    assert sorted(RECORD) == sorted(quick_run.digests)
    assert sum(entry["comparisons"] for entry in RECORD.values()) == 418


@pytest.mark.parametrize("check_id", sorted(RECORD))
def test_comparisons_match_record(quick_run, check_id):
    assert_check_matches(quick_run, RECORD, check_id)


@pytest.mark.parametrize("check_id", sorted(FULL_RECORD))
def test_full_comparisons_match_record(full_run, check_id):
    assert sorted(full_run.digests) == sorted(FULL_RECORD)
    assert_check_matches(full_run, FULL_RECORD, check_id)


def test_unknown_profile_is_rejected():
    compare, specs = checks._compare, dict(checks.REGISTRY)
    with pytest.raises(ValueError, match="'qick'"):
        record_comparisons("qick")
    assert checks._compare is compare
    assert checks.REGISTRY == specs


if __name__ == "__main__":
    json.dump(record_comparisons(sys.argv[1] if len(sys.argv) > 1 else "quick").digests,
              sys.stdout, indent=2, sort_keys=True)
    print()
