"""The ring layer checked against sympy, a third independent implementation.

Each case builds a sympy expression from ``Polynomial.terms()`` (never by
parsing a render), lets sympy do the same operation, and requires the two
results to agree after expansion.  Inputs come from the fixed-seed
generators in ``conftest`` and include Laurent exponents.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_grammar, random_polynomial
from normord import Polynomial, mono

sympy = pytest.importorskip("sympy")

CASES = 200


def to_sympy(p: Polynomial):
    terms = []
    for m, c in p.terms():
        c = Fraction(c)
        factors = [sympy.Symbol(s) ** e for s, e in m]
        terms.append(sympy.Mul(sympy.Rational(c.numerator, c.denominator), *factors))
    return sympy.Add(*terms)


def assert_same(got: Polynomial, want) -> None:
    # Only products and integer powers of sums need expanding.
    want = sympy.expand(want, power_base=False, power_exp=False, log=False)
    assert to_sympy(got) == want, (got.render(), want)


def random_unit_monomial(rng: random.Random, symbols: str) -> Polynomial:
    exps = {s: rng.randint(-2, 2) for s in symbols}
    return mono(rng.choice((1, -1)), **exps)


def test_mul():
    rng = random.Random(6101)
    for _ in range(CASES):
        f = random_polynomial(rng, rationals=True, min_exp=-2)
        g = random_polynomial(rng, rationals=True, min_exp=-2)
        assert_same(f * g, to_sympy(f) * to_sympy(g))


def test_diff():
    rng = random.Random(6102)
    for _ in range(CASES):
        f = random_polynomial(rng, rationals=True, min_exp=-3, max_terms=6)
        s = rng.choice("xyz")
        assert_same(f.diff(s), sympy.diff(to_sympy(f), sympy.Symbol(s)))


def test_subs():
    rng = random.Random(6103)
    for i in range(CASES):
        if i % 2:
            # Negative exponents only take unit-monomial bindings.
            f = random_polynomial(rng, rationals=True, min_exp=-2)
            values = [random_unit_monomial(rng, "uv") for _ in "xy"]
        else:
            f = random_polynomial(rng, rationals=True)
            values = [random_polynomial(rng, "uv", max_terms=3, min_exp=-1) for _ in "xy"]
        binding = dict(zip("xy", values))
        want = to_sympy(f).subs(
            {sympy.Symbol(s): to_sympy(v) for s, v in binding.items()}, simultaneous=True
        )
        assert_same(f.subs(binding), want)


def test_grammar_derive():
    rng = random.Random(6104)
    for _ in range(CASES):
        g = random_grammar(rng)
        # The ruled symbols plus one that the derivation annihilates.
        f = random_polynomial(rng, "".join(g.rules) + "q", rationals=True, min_exp=-2)
        want = sum(
            (sympy.diff(to_sympy(f), sympy.Symbol(s)) * to_sympy(rule) for s, rule in g.rules.items()),
            sympy.Integer(0),
        )
        assert_same(g.derive(f), want)
