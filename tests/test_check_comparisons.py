"""Every comparison the check registry makes, pinned to a recorded digest.

Wrapping the registry's one compare function records, for each check, the
ordered lines ``n, note, sha256(left render), sha256(right render)``.  Their
count and sha256 must match ``data/check_comparisons_quick.json``, so a
change to which sides a check compares, in what order, or what they render
to fails the test named after that check.  The full profile is pinned the
same way by ``data/check_comparisons_full.json``: it reaches the levels the
quick profile never does, such as n = 7..9 of the forest and signed-word
enumerations.

``python tests/test_check_comparisons.py full`` prints the full record as
JSON (4.3-4.9 s on a 2-vCPU host under CPython 3.11), to compare against a
record taken at another revision.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from normord import checks

RECORD = Path(__file__).parent / "data" / "check_comparisons_quick.json"
FULL_RECORD = Path(__file__).parent / "data" / "check_comparisons_full.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_comparisons(profile: str) -> dict:
    """Run every check at the profile's cap and digest its comparisons."""
    original = checks._compare
    lines: list[str] = []

    def recording(n, note, left, right):
        sides = (_sha(checks._render(left)), _sha(checks._render(right)))
        lines.append(f"{n}\t{note}\t{sides[0]}\t{sides[1]}\n")
        return original(n, note, left, right)

    checks._compare = recording
    out = {}
    try:
        for check_id in checks.check_ids():
            spec = checks.REGISTRY[check_id]
            lines.clear()
            result = checks.run_check(check_id, spec.quick_cap if profile == "quick" else spec.full_cap)
            assert result.passed, result.render()
            out[check_id] = {"comparisons": len(lines), "sha256": _sha("".join(lines))}
    finally:
        checks._compare = original
    return out


@pytest.fixture(scope="module")
def quick_record() -> dict:
    return record_comparisons("quick")


def test_record_covers_the_registry(quick_record):
    expected = json.loads(RECORD.read_text())
    assert sorted(expected) == sorted(quick_record)
    assert sum(entry["comparisons"] for entry in expected.values()) == 426


@pytest.mark.parametrize("check_id", sorted(json.loads(RECORD.read_text())))
def test_comparisons_match_record(quick_record, check_id):
    assert quick_record[check_id] == json.loads(RECORD.read_text())[check_id]


@pytest.fixture(scope="module")
def full_record() -> dict:
    return record_comparisons("full")


@pytest.mark.parametrize("check_id", sorted(json.loads(FULL_RECORD.read_text())))
def test_full_comparisons_match_record(full_record, check_id):
    expected = json.loads(FULL_RECORD.read_text())
    assert sorted(full_record) == sorted(expected)
    assert full_record[check_id] == expected[check_id]


if __name__ == "__main__":
    json.dump(record_comparisons(sys.argv[1] if len(sys.argv) > 1 else "quick"),
              sys.stdout, indent=2, sort_keys=True)
    print()
