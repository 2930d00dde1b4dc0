"""Shared test helpers: random inputs with a fixed seed, and one recorded registry run per profile."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from normord import CheckResult, Grammar, Polynomial, checks, mono

# Presets whose rules stay small under repeated derivation; used for
# randomized grammar properties where runtime matters.
SMALL_PRESETS = (
    "stirling-second",
    "stirling-dual",
    "eulerian-ab",
    "eulerian-xy",
    "eulerian-full",
    "pq-eulerian",
    "second-order",
    "full-ternary",
    "pair-symmetric",
    "swap",
    "type-b-split",
    "exp-surrogate",
)


def random_scalar(rng: random.Random, *, rationals: bool = False):
    if rationals and rng.random() < 0.3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randint(-9, 9)


def random_polynomial(
    rng: random.Random,
    symbols: str = "xyz",
    *,
    max_terms: int = 4,
    max_exp: int = 3,
    min_exp: int = 0,
    rationals: bool = False,
) -> Polynomial:
    acc = Polynomial()
    for _ in range(rng.randint(0, max_terms)):
        exps = {
            s: rng.randint(min_exp, max_exp)
            for s in symbols
            if rng.random() < 0.7
        }
        acc = acc + mono(random_scalar(rng, rationals=rationals), **exps)
    return acc


def random_grammar(rng: random.Random) -> Grammar:
    return Grammar.preset(rng.choice(SMALL_PRESETS))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class RecordedRun:
    """``run_all(profile)``'s results, and each check's comparisons digested.

    A digest entry is the number of comparisons the check made and the
    sha256 of their lines ``n, note, sha256(left render), sha256(right render)``.
    """

    results: list[CheckResult]
    digests: dict[str, dict]

    def result(self, check_id: str) -> CheckResult:
        return next(r for r in self.results if r.check_id == check_id)


def record_comparisons(profile: str) -> RecordedRun:
    """Run ``run_all(profile)`` once, recording every comparison of each check."""
    compare, specs = checks._compare, dict(checks.REGISTRY)
    lines: list[str] = []
    digests: dict[str, dict] = {}

    def recording(n, note, left, right):
        lines.append(f"{n}\t{note}\t{_sha(left.render())}\t{_sha(right.render())}\n")
        return compare(n, note, left, right)

    def bounded(check_id, runner):
        def run(lo, hi):
            lines.clear()
            witness = runner(lo, hi)
            digests[check_id] = {"comparisons": len(lines), "sha256": _sha("".join(lines))}
            return witness

        return run

    checks._compare = recording
    for check_id, spec in specs.items():
        checks.REGISTRY[check_id] = replace(spec, runner=bounded(check_id, spec.runner))
    try:
        return RecordedRun(checks.run_all(profile), digests)
    finally:
        checks._compare = compare
        checks.REGISTRY.update(specs)


# Each profile runs once per session; every test that reads a profile's run shares it.
@pytest.fixture(scope="session")
def quick_run() -> RecordedRun:
    return record_comparisons("quick")


@pytest.fixture(scope="session")
def full_run() -> RecordedRun:
    return record_comparisons("full")
