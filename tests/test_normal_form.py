"""Expansion of (w * D)^n into powers of the derivative."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

import normord.normal_form
from conftest import SMALL_PRESETS, random_polynomial
from normord import (
    PRESETS,
    Grammar,
    NormalForm,
    Polynomial,
    family_row,
    mono,
    normal_order_power,
    parse,
    variable,
)
from normord.poly import ONE, ZERO
from test_poly import assert_canonical

x = variable("x")
y = variable("y")
q = variable("q")


def direct_power(w: Polynomial, g: Grammar, n: int, target: Polynomial) -> Polynomial:
    for _ in range(n):
        target = w * g.derive(target)
    return target


def reference_coeffs(w: Polynomial, g: Grammar, n: int) -> tuple[Polynomial, ...]:
    """c'_k = w*(D(c_k) + c_(k-1)) iterated on pair tuples through ``Grammar.derive``."""
    row = [ONE]
    for _ in range(n):
        padded = [ZERO, *row, ZERO]
        row = [w * (g.derive(padded[k + 1]) + padded[k]) for k in range(len(row) + 1)]
    return tuple(row)


def reference_specialize(nf: NormalForm, value) -> Polynomial:
    """Horner's rule over ``Polynomial`` arithmetic."""
    acc = ZERO
    for c in reversed(nf.coeffs):
        acc = acc * value + c
    return acc


# sha256 of render() and of specialize(q).render() for w = x (else the first
# rule symbol) at n = 12, recorded from the pair-tuple recursion.
PRESET_DIGESTS = {
    "elementary-symmetric": (
        "415e4fc7a249dc260eda901b527aa14df7ba8886e04806b976200eecbc370756",
        "08fca3d24bc81024ec17215e85db91e63ad14b1253503af3293bb6aa0f546a97",
    ),
    "eulerian-ab": (
        "95948e18079a7afee44c9cf576b96f4379c998132e14b02adffe865f0e840cea",
        "fd9eacc4911b69e0232c1098568222f1176d9c5bec1f3fd395b1dcc0b0f91aa4",
    ),
    "eulerian-full": (
        "5ecdf5828e616ac60490067147ac205ca785103a02d0f5a8141cd264ac0aae47",
        "930d4ba6d2ad24ddb5758e9a1184c5fdcfcdd2201412e7f5fb8e05047676fc3c",
    ),
    "eulerian-xy": (
        "e360bbd39812dd93dfbdde56ec4f950d6f0d1b423c18965f3a953ec46ebca269",
        "0ac30268392698b59891e41bc4bacf61fa5ee672901fa4a54902cb1d94653052",
    ),
    "exp-surrogate": (
        "231b529bafc89997e951d8d0c39e493af23334c3e95712ebf31bb5a79b6e58e5",
        "d10237a9c6117e099f9ec8d3843307912e97da10159b9633a57f6a58fa9c89ca",
    ),
    "full-ternary": (
        "5ecdf5828e616ac60490067147ac205ca785103a02d0f5a8141cd264ac0aae47",
        "930d4ba6d2ad24ddb5758e9a1184c5fdcfcdd2201412e7f5fb8e05047676fc3c",
    ),
    "pair-symmetric": (
        "a24f490d4fae36a287a439fba426cee75a230c3969783c87353e72b5457f0770",
        "886dc9073789570ec3f6cddf260d720c604a54b9d1adfd1bf630e31cb46491f5",
    ),
    "pq-eulerian": (
        "b98dccf5995297dda5a3cd1e739ea548958c4bb6d6bb52ce4d6a724363262921",
        "061eb0dfa212918dd72c2539e84d5b32755edd344431b205c6c61de823c49cc5",
    ),
    "second-order": (
        "e44970430c25168b02096aa7373f8e82a154b63585c7290b1c6027364d5a2a95",
        "b64efc4c67f4b3538dad38d03e81f73b57621d7b7c2961fbd0712522d8d535ca",
    ),
    "stirling-dual": (
        "4e596e1213c01489a4e78a6e920544994951a955e9914bddae46a3e22c5f3958",
        "a70a5b7b66d679b396534f74f2f445b6e43e548d10b278d72506cfc3535cd1de",
    ),
    "stirling-second": (
        "5ecdf5828e616ac60490067147ac205ca785103a02d0f5a8141cd264ac0aae47",
        "930d4ba6d2ad24ddb5758e9a1184c5fdcfcdd2201412e7f5fb8e05047676fc3c",
    ),
    "swap": (
        "df5ca3696a62d303a5d85374626c23c046937c72a8c8c858ae335b99bbef2d4f",
        "1bc927de0d03502aaaa53670e40a21640b9c97f2884590a7a749b350f2fc656e",
    ),
    "trivariate-second-order": (
        "908c107fc8d4db313f8bcfd6630c2966da81dd6dbde142d03be153541b327c32",
        "25c26d6e0fa326cf9b37069e8692aa871a671a96d2b24b899c8dea667b8e7cc7",
    ),
    "type-b": (
        "ba14bf35379a86c9da1175bc019f4f071a88cff9d2511ec3f76baedfe1862e01",
        "3f8de458a21a15a909850c42a3f9e96ce75616c6420315ebf30e84c8ed06178a",
    ),
    "type-b-split": (
        "82aa493a06cab46765b3ac629aec9bbf4ec4c6013f7c390fd2b37e52e36f542f",
        "ad4655cb350df42bfc780ba417881d4013e28ed0ba7419b32aa94467ba0bcbf4",
    ),
}

# sha256 of render() and of specialize(q).render() for the fixed deep cases
# of the expand benchmark, at their full n; recorded from the per-coefficient
# recursion, and equal to the entries of perfbench/expected.json.
DEEP_DIGESTS = {
    ("eulerian-xy", "x", 60): (
        "f7a96b80a3b722b59e592be2ae8dde8c6b66358cd0c9a3da624d71b84bdbdaeb",
        "d2b2587e921a16dd5aadd3eff6f740b4c501bf0be6986f6a6a43ee41544cddba",
    ),
    ("trivariate-second-order", "x", 16): (
        "5816de057866355e3ea758cfb8e960fb57107783786cf6cbcb132ee536da7ae7",
        "61282a75a8601c3f08a8e9b5cf47d50b859488f0a3904ad4bd81b29c7e0b6790",
    ),
    ("full-ternary", "x*y*z", 30): (
        "f01917a3ba6d29a9183c3a964c12d9cb4bd59dfac9047311a6bf3ad0b02c8ef2",
        "bb89b8da0820824a5c5ac21e0df12365fc74a43f86ee4d8d903266c43899ae20",
    ),
    ("second-order", "x", 40): (
        "a4716d6c6b795eb200d8d83898732a4dedd5e30ed72d2335fb5d31453b1f5b83",
        "e354d546a7af0c73124db0654779d18e4549605f781561bc25c9c8ba62adfa3a",
    ),
    ("swap", "x*y", 40): (
        "ae45cd97cdf8cf0c288bc5f5ece97a0af8f44c50f79a78067b0ee3b5d4d8236a",
        "69003b5bb8fa233128d12ee901ddeeeddb13ce54e6818648ab6ed01ae55d37e9",
    ),
    ("pq-eulerian", "x", 40): (
        "7e4901e364309d5668660a490bba81c76306dca00bbbfc553b264ce6618ada07",
        "af83f86cd0244a4c6b33d5c4098d1d28d7abed191b4f5c955e410adf92a773a9",
    ),
    ("stirling-second", "x", 200): (
        "83141b842faecbf15adbd59eaf3f1ddc4a299fad26ef7c4037748961e04a794b",
        "34cbb6b688ed04516fcd7ece3d910519a1ca5984def6a5ff803a5a1c71b43b59",
    ),
}

# The same digests for the expand benchmark's multi-term extras, the only
# deep inputs whose w has more than one term, so that a step takes more than
# one up move; recorded from the pair-tuple recursion and equal to the
# entries of perfbench/expected.json.
DEEP_MULTI_TERM_DIGESTS = {
    ("eulerian-xy", "x+y", 14): (
        "c762c11862f867a3312b4f461f2e3247aea886a0431d1816ea361b8dbf6dd8ef",
        "47a17fe51bd20ddbf7c0eb4c441aaa1fbd96fe7f886a8f22777481e2bc30a828",
    ),
    ("swap", "x+y", 14): (
        "819cdf265f61598d968b6ca79a3c86b001602096875c5d7ff4bae7b6097db34a",
        "f6ef8b843921b6e80c3e101afb8ac260d1e6fd11a36a11e9f778a1e88b7298b1",
    ),
    ("second-order", "y+1", 15): (
        "a665b338a02d80cb3d60b601654504e9bf72fe30d7522e6262abf23a9987aed5",
        "c31197acd94bdfe1d751a9ebefdf64ed0354b58a215d5d7b4c3bbf7aa072382d",
    ),
    ("eulerian-ab", "a+b", 13): (
        "4cc7be9b764606cf939a7fd24502a47220911e7cecab52f6166192c94c1d0fa5",
        "77e47a76aff33ab8a605abeb01707bc94968f647ba22072daf2be337ec7e26d7",
    ),
    ("pq-eulerian", "2*x+y", 10): (
        "d9b54bc6a37ffb30b0a0ff45b8203a36c1462fae2f8d849ed040741d1e706a28",
        "1061c71aa70329004d997601624a24ec2f1a12313d402ee14dc1950f568e68a8",
    ),
    ("stirling-dual", "b+1", 18): (
        "43663f1aec869785b31c1b838efcba22d6dc7f7ab06235b3688b77d5d74cd893",
        "d0940dfa06c7e7c939a0c573d41194c2514ec2a326105ff6f713bd5265776d91",
    ),
}


class TestGoldens:
    def test_square_under_eulerian(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 2)
        assert nf.coefficient(1) == x * y
        assert nf.coefficient(2) == x ** 2

    def test_fourth_power_with_weight(self):
        nf = normal_order_power(x, Grammar.preset("pq-eulerian"), 4)
        assert nf.coefficient(1) == parse("x*y^3 + 4*p*x^2*y^2 + p^2*x^3*y")
        assert nf.coefficient(2) == parse("7*x^2*y^2 + 4*p*x^3*y")
        assert nf.coefficient(3) == parse("6*x^3*y")
        assert nf.coefficient(4) == parse("x^4")

    def test_fourth_power_two_symbol_multiplier(self):
        nf = normal_order_power(x * y, Grammar.preset("eulerian-full"), 4)
        assert nf.coefficient(1) == parse("x*y^4 + 11*x^2*y^3 + 11*x^3*y^2 + x^4*y")
        assert nf.coefficient(4) == parse("x^4*y^4")

    def test_stirling_rows(self):
        g = Grammar.preset("stirling-second")
        for n in range(11):
            nf = normal_order_power(x, g, n)
            row = family_row("S2", n)
            for k in range(n + 1):
                assert nf.coefficient(k) == row.get((k,), 0) * x ** k

    def test_exponential_surrogate_rows(self):
        # With the rule a -> a, the multiplier acts like an exponential and
        # the coefficients carry unsigned first-kind Stirling numbers.
        g = Grammar.preset("exp-surrogate")
        av = variable("a")
        for n in range(11):
            nf = normal_order_power(av, g, n)
            row = family_row("S1", n)
            for k in range(n + 1):
                assert nf.coefficient(k) == row.get((k,), 0) * av ** n


class TestStructure:
    def test_order_zero_identity(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 0)
        assert nf.order == 0
        assert nf.coeffs == (ONE,)

    def test_constant_coefficient_vanishes(self):
        for name in ("eulerian-xy", "eulerian-full", "second-order", "swap"):
            g = Grammar.preset(name)
            for n in range(1, 6):
                nf = normal_order_power(x, g, n)
                assert nf.coefficient(0).is_zero

    def test_coefficient_out_of_range_is_zero(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 2)
        assert nf.coefficient(5).is_zero

    def test_length_matches_order(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 4)
        assert len(nf.coeffs) == 5

    def test_homogeneous_coefficients(self):
        g = Grammar.preset("eulerian-xy")
        for n in range(1, 8):
            nf = normal_order_power(x, g, n)
            for k in range(1, n + 1):
                assert nf.coefficient(k).homogeneous_degree() == n

    def test_render(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 2)
        assert nf.render() == "D^1: x*y ; D^2: x^2"

    def test_render_order_zero(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 0)
        assert nf.render() == "D^0: 1"

    def test_preset_digests(self):
        assert sorted(PRESET_DIGESTS) == sorted(PRESETS)
        for name, (render_sha, specialize_sha) in PRESET_DIGESTS.items():
            g = Grammar.preset(name)
            w = variable("x" if "x" in g.rules else sorted(g.rules)[0])
            nf = normal_order_power(w, g, 12)
            assert hashlib.sha256(nf.render().encode()).hexdigest() == render_sha, name
            at_q = nf.specialize(q).render()
            assert hashlib.sha256(at_q.encode()).hexdigest() == specialize_sha, name

    def test_deep_digests(self):
        for (name, w_text, n), (render_sha, specialize_sha) in DEEP_DIGESTS.items():
            nf = normal_order_power(parse(w_text), Grammar.preset(name), n)
            assert hashlib.sha256(nf.render().encode()).hexdigest() == render_sha, (name, n)
            at_q = nf.specialize(q).render()
            assert hashlib.sha256(at_q.encode()).hexdigest() == specialize_sha, (name, n)

    def test_deep_multi_term_digests(self):
        items = DEEP_MULTI_TERM_DIGESTS.items()
        for (name, w_text, n), (render_sha, specialize_sha) in items:
            assert len(list(parse(w_text).terms())) > 1, w_text
            nf = normal_order_power(parse(w_text), Grammar.preset(name), n)
            assert hashlib.sha256(nf.render().encode()).hexdigest() == render_sha, (name, n)
            at_q = nf.specialize(q).render()
            assert hashlib.sha256(at_q.encode()).hexdigest() == specialize_sha, (name, n)


class TestPackedEdges:
    """The packed recursion against the pair-tuple reference at the edges of its format."""

    CASES = [
        ("Laurent multiplier", parse("x^-1*y"), Grammar.preset("eulerian-xy"), 7),
        ("negative rule exponents", x, Grammar.from_text("x -> x^-2*y; y -> 1"), 7),
        ("fractions", parse("1/2*x + 3"), Grammar.from_text("x -> 2/3*y; y -> 1/5*x*y"), 5),
        ("symbol without a rule", parse("q*x"), Grammar.preset("eulerian-xy"), 7),
        ("zero rule", x * y, Grammar.from_text("x -> 0; y -> x"), 5),
        ("constant multiplier", Polynomial.constant(Fraction(-3, 2)),
         Grammar.preset("swap"), 4),
        ("huge exponent", x ** (2 ** 70), Grammar.preset("eulerian-xy"), 4),
        ("huge Laurent exponent", x ** -(2 ** 70) * y, Grammar.preset("pq-eulerian"), 4),
        # Terms cancel to zero inside the row from n = 2 on (six by n = 6).
        ("cancelled terms", x + y, Grammar.from_text("x -> y; y -> -x"), 7),
    ]

    def test_matches_iterated_derive(self):
        for label, w, g, top in self.CASES:
            for n in range(top + 1):
                nf = normal_order_power(w, g, n)
                assert nf.coeffs == reference_coeffs(w, g, n), (label, n)
                for c in nf.coeffs:
                    assert_canonical(c)
                for symbol in sorted(g.rules):
                    t = variable(symbol)
                    assert nf.apply_to(t) == direct_power(w, g, n, t), (label, n, symbol)

    def test_zero_multiplier_and_order_zero(self):
        for name in ("eulerian-xy", "type-b", "elementary-symmetric"):
            g = Grammar.preset(name)
            for w in (ZERO, x, parse("x^-1 + 2"), 0):
                assert normal_order_power(w, g, 0).coeffs == (ONE,)
            for n in range(1, 5):
                nf = normal_order_power(0, g, n)
                assert nf.coeffs == (ZERO,) * (n + 1)
                assert nf.render() == "0"

    def test_coefficients_share_one_pair_per_symbol_and_exponent(self):
        nf = normal_order_power(parse("x^-1*y + x*y^2"), Grammar.preset("type-b"), 5)
        shared: dict[tuple[str, int], set[int]] = {}
        for c in nf.coeffs:
            for m, _ in c.terms():
                for pair in m:
                    shared.setdefault(pair, set()).add(id(pair))
        assert len(shared) > 10
        assert all(len(ids) == 1 for ids in shared.values()), shared

    def test_exponent_outside_the_packing_bound_raises(self, monkeypatch):
        monkeypatch.setattr(normord.normal_form, "_max_exponent", lambda polys: 0)
        with pytest.raises(ArithmeticError, match="exceeds the packing bound 0"):
            normal_order_power(x, Grammar.preset("eulerian-xy"), 2)

    def test_grammar_must_be_a_grammar(self):
        for g in ("eulerian-xy", {"x": y}):
            with pytest.raises(TypeError, match=f"grammar must be a Grammar, got {type(g).__name__}"):
                normal_order_power(x, g, 3)

    def test_non_int_power_raises(self):
        for n in (2.0, 1.5, "2"):
            with pytest.raises(TypeError, match="operator power must be an int"):
                normal_order_power(x, Grammar.preset("second-order"), n)

    def test_negative_power_and_inexact_inputs_raise(self):
        g = Grammar.preset("second-order")
        with pytest.raises(ValueError, match="operator power must be nonnegative"):
            normal_order_power(x, g, -1)
        with pytest.raises(TypeError, match="multiplier must be a polynomial or exact scalar"):
            normal_order_power("x", g, 2)
        nf = normal_order_power(x, g, 2)
        with pytest.raises(TypeError, match="specialize expects a polynomial or exact scalar"):
            nf.specialize("q")
        with pytest.raises(TypeError, match="apply_to expects a polynomial or exact scalar"):
            nf.apply_to(1.5)


class TestSpecialize:
    def test_weighted_cubic(self):
        nf = normal_order_power(x, Grammar.preset("pq-eulerian"), 3)
        want = parse("(x*y^2 + p*x^2*y)*q + 3*x^2*y*q^2 + x^3*q^3")
        assert nf.specialize(q) == want

    def test_identity_normal_form(self):
        nf = normal_order_power(x, Grammar.preset("pq-eulerian"), 0)
        assert nf.specialize(q) == ONE

    def test_total_mass_is_factorial(self):
        import math

        g = Grammar.preset("pq-eulerian")
        for n in range(8):
            total = normal_order_power(x, g, n).specialize(ONE)
            value = total.evaluate({"p": 1, "x": 1, "y": 1})
            assert value == math.factorial(n)

    def test_scalar_value(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 2)
        assert nf.specialize(1) == x * y + x ** 2

    def test_matches_polynomial_horner(self):
        forms = [
            normal_order_power(x, Grammar.preset("pq-eulerian"), 5),
            normal_order_power(parse("x^-1*y"), Grammar.preset("eulerian-xy"), 5),
            normal_order_power(parse("1/2*x + 3"), Grammar.from_text("x -> 2/3*y; y -> x"), 4),
            normal_order_power(x, Grammar.from_text("x -> x^-2*y; y -> 1"), 5),
            normal_order_power(x ** (2 ** 70), Grammar.preset("eulerian-xy"), 3),
            # At the value x, the terms cancel to zero.
            NormalForm(Grammar(), x, 2, (ZERO, -x, ONE)),
            NormalForm(Grammar(), x, 0, ()),
            NormalForm(Grammar(), x, 2, (ZERO,) * 3),
        ]
        values = [x + 1, x - y, 3, Fraction(2, 3), Fraction(-4, 2), parse("x^-1"),
                  parse("q^-2*y"), 0, ZERO, q]
        for nf in forms:
            for value in values:
                got = nf.specialize(value)
                assert got == reference_specialize(nf, value), (nf.render(), value)
                assert_canonical(got)
        # The hand-built forms read missing coefficients as zero, so none factors.
        for nf in forms[5:]:
            assert nf.xi_coefficients() is None


class TestApply:
    def test_cubic_on_symbol(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 3)
        assert nf.apply_to(x) == parse("x*y^3 + 4*x^2*y^2 + x^3*y")

    def test_order_zero(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 0)
        target = y ** 2 + 3
        assert nf.apply_to(target) == target
        # Hand-built forms with no coefficient, or only zero ones, act as zero.
        for order, coeffs in ((0, ()), (2, (ZERO,) * 3)):
            got = NormalForm(nf.grammar, x, order, coeffs).apply_to(target)
            assert got == ZERO
            assert_canonical(got)

    def test_swap_square_on_product(self):
        nf = normal_order_power(x * y, Grammar.preset("swap"), 2)
        assert nf.apply_to(x * y) == parse("x*y^5 + 6*x^3*y^3 + x^5*y")

    def test_path_independence_sampled(self):
        rng = random.Random(3303)
        for _ in range(120):
            g = Grammar.preset(rng.choice(SMALL_PRESETS))
            w = random_polynomial(rng, "abxyzuvw", max_terms=2, max_exp=2)
            f = random_polynomial(rng, "abxyzuvw", max_terms=2, max_exp=2)
            n = rng.randint(0, 4)
            nf = normal_order_power(w, g, n)
            assert nf.apply_to(f) == direct_power(w, g, n, f)


class TestXiFactorization:
    def test_preset_multipliers(self):
        cases = [
            (x, "eulerian-xy", 5),
            (x * y, "eulerian-full", 5),
            (x * y * variable("z"), "full-ternary", 4),
            (variable("w"), "elementary-symmetric", 5),
            (x, "second-order", 5),
        ]
        for w, name, n in cases:
            nf = normal_order_power(w, Grammar.preset(name), n)
            xs = nf.xi_coefficients()
            assert xs is not None
            for k in range(n + 1):
                assert xs[k] * w ** k == nf.coefficient(k)

    def test_non_monomial_multiplier(self):
        w = x + y
        nf = normal_order_power(w, Grammar.preset("swap"), 4)
        xs = nf.xi_coefficients()
        assert xs is not None
        assert xs[4] == ONE

    def test_order_zero(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 0)
        assert nf.xi_coefficients() == [ONE]

    def test_hand_built_coefficients(self):
        g = Grammar.preset("swap")
        nf = normal_order_power(x, g, 2)
        assert NormalForm(g, x, 2, ()).xi_coefficients() is None
        assert NormalForm(g, x, 2, nf.coeffs[:2]).xi_coefficients() is None
        # Zero coefficients past the order change nothing; a nonzero one never matches.
        xs = nf.xi_coefficients()
        assert xs is not None
        assert NormalForm(g, x, 2, (*nf.coeffs, ZERO)).xi_coefficients() == xs
        assert NormalForm(g, x, 2, (*nf.coeffs, x)).xi_coefficients() is None


class TestJson:
    def test_shape_and_round_trip(self):
        nf = normal_order_power(x, Grammar.preset("eulerian-xy"), 3)
        blob = json.loads(json.dumps(nf.to_json_dict()))
        assert blob["n"] == 3
        assert Polynomial.from_json_dict(blob["w"]) == x
        assert len(blob["coeffs"]) == 4
        assert Polynomial.from_json_dict(blob["coeffs"][2]) == nf.coefficient(2)
        assert Grammar.from_text(blob["grammar"]) == Grammar.preset("eulerian-xy")
