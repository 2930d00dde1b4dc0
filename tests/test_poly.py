"""Laurent polynomial arithmetic, rendering, parsing, and calculus."""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

import pytest

from conftest import random_grammar, random_polynomial
from normord import Grammar, ParseError, PoleError, Polynomial, mono, parse, variable
from normord.poly import MAX_PAREN_DEPTH, ONE, ZERO

x = variable("x")
y = variable("y")
z = variable("z")


class TestConstruction:
    def test_empty_is_zero(self):
        assert Polynomial().is_zero
        assert ZERO == Polynomial()

    def test_one_and_constant(self):
        assert ONE == Polynomial.constant(1)
        assert Polynomial.constant(0).is_zero
        assert Polynomial.constant(Fraction(4, 2)) == Polynomial.constant(2)

    def test_mono_builder(self):
        assert mono(4, x=2, y=2) == 4 * x ** 2 * y ** 2
        assert mono(0, x=5).is_zero

    def test_zero_coefficients_dropped(self):
        assert (x - x).is_zero
        assert len(list((x + y - y).terms())) == 1

    def test_repeated_symbols_merge_and_zero_exponents_drop(self):
        assert Polynomial([([("y", 1), ("x", 2), ("y", 2)], 5)]) == mono(5, x=2, y=3)
        assert Polynomial([([("x", 2), ("x", -2), ("y", 0)], 4)]) == Polynomial.constant(4)
        assert Polynomial([({"x": 1, "y": 0}, 1), ((("x", 1),), 2)]) == 3 * x
        assert mono(2, x=0, y=-1) == Polynomial([({"y": -1}, 2)])
        ((m, _),) = mono(7, z=0, a=2).terms()
        assert m == (("a", 2),)
        p = mono(6, x=1, y=2)
        assert p.coefficient([("y", 1), ("x", 1), ("y", 1), ("z", 0)]) == 6
        assert p.coefficient({"x": 1, "y": 2, "w": 0}) == 6

    def test_constants_hash_like_their_scalar(self):
        for p, c in ((Polynomial.constant(3), 3), (parse("1/2"), Fraction(1, 2)),
                     (Polynomial(), 0), (x - x + 5, 5)):
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1

    def test_symbol_names_follow_the_parser(self):
        # Each of these would render as text that parse rejects.
        for name in ("", "x y", "2x", "é", "x-1", "x\n"):
            with pytest.raises(ValueError, match="bad symbol name"):
                Polynomial([({name: 1}, 1)])
            with pytest.raises(ValueError, match="bad symbol name"):
                x.coefficient([(name, 1)])
            with pytest.raises(ValueError, match="bad symbol name"):
                variable(name)
            with pytest.raises(ValueError, match="bad symbol name"):
                mono(**{name: 2})
        p = mono(3, _a=1, B2=-2) + variable("x_1")
        assert parse(p.render()) == p

    def test_string_exponents_rejected(self):
        # A string would otherwise unpack letter by letter into (symbol, exponent).
        for build, shown in ((lambda: Polynomial([("x", 1)]), "'x'"),
                             (lambda: Polynomial([("xy", 1)]), "'xy'"),
                             (lambda: Polynomial([(["xy"], 1)]), "'xy'"),
                             (lambda: Polynomial({"x": 1}), "'x'"),
                             (lambda: x.coefficient("x"), "'x'")):
            with pytest.raises(TypeError, match=f"pairs required, got string {shown}"):
                build()


class TestRender:
    def test_difference_of_squares(self):
        assert (x ** 2 - y ** 2).render() == "x^2 - y^2"

    def test_zero(self):
        assert Polynomial().render() == "0"

    def test_graded_lex_descending(self):
        p = x * y ** 3 + 4 * x ** 2 * y ** 2 + x ** 3 * y
        assert p.render() == "x^3*y + 4*x^2*y^2 + x*y^3"

    def test_degree_dominates_lex(self):
        assert (x ** 3 + x * y + y ** 5).render() == "y^5 + x^3 + x*y"

    def test_leading_minus(self):
        assert (-x + 1).render() == "-x + 1"

    def test_unit_coefficients_suppressed(self):
        assert (x - y).render() == "x - y"
        assert mono(-1, x=1, y=1).render() == "-x*y"

    def test_laurent_exponents(self):
        assert mono(3, x=1, y=-1).render() == "3*x*y^-1"

    def test_fraction_coefficients(self):
        p = mono(Fraction(3, 2), x=2) - mono(Fraction(1, 6))
        assert p.render() == "3/2*x^2 - 1/6"

    def test_constant_polynomial(self):
        assert Polynomial.constant(-7).render() == "-7"
        # A bool is stored as its int, never rendered as "True".
        assert Polynomial.constant(True).render() == "1"


class TestParse:
    def test_difference_of_squares(self):
        assert parse("x^2 - y^2") == x ** 2 - y ** 2

    def test_product_form(self):
        assert parse("(x+y)*(x-y)") == x ** 2 - y ** 2

    def test_laurent(self):
        assert parse("3*x*y^-1") == mono(3, x=1, y=-1)

    def test_rational_literal(self):
        assert parse("1/2*x + 1/3") == mono(Fraction(1, 2), x=1) + mono(Fraction(1, 3))

    def test_whitespace_insensitive(self):
        assert parse(" x ^ 2+ 2*x*y  +y^2 ") == (x + y) ** 2

    def test_implicit_unary_signs(self):
        assert parse("-x + -3") == -x - 3
        assert parse("+x") == x
        assert parse("-" * 1001 + "x^2") == -x ** 2

    def test_nesting_depth_bound(self):
        assert parse("(" * MAX_PAREN_DEPTH + "x" + ")" * MAX_PAREN_DEPTH) == x
        with pytest.raises(ParseError) as info:
            parse("(" * 300 + "x" + ")" * 300)
        assert info.value.position == MAX_PAREN_DEPTH

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse("x + $")
        assert info.value.position == 4
        # Only unit monomials have a negative power; the error points at the ``^``.
        with pytest.raises(ParseError, match="non-unit") as info:
            parse("(x+1)^-1")
        assert info.value.position == 5

    @pytest.mark.parametrize("bad", ["", "x +", "x^y", "(x", "1//2", "1/0", "x/2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)


class TestArithmetic:
    def test_known_product(self):
        u, v = variable("u"), variable("v")
        assert (u * v).subs({"u": x * y, "v": x + y}) == x ** 2 * y + x * y ** 2

    def test_scalar_mixing(self):
        assert 2 * x + x == 3 * x
        assert x - 1 == x + (-1)
        assert Fraction(1, 2) * (x + x) == x

    def test_power_zero(self):
        assert (x + y) ** 0 == ONE
        assert Polynomial() ** 0 == ONE

    def test_negative_power_of_unit_monomial(self):
        assert mono(1, x=2, y=1) ** -1 == mono(1, x=-2, y=-1)
        assert mono(-1, x=2) ** -3 == mono(-1, x=-6)

    def test_negative_power_rejects_non_unit(self):
        for p in (x + y, mono(2, x=1), Polynomial()):
            with pytest.raises(ValueError):
                p ** -1


class TestAccessors:
    def test_coefficient(self):
        p = x * y ** 3 + 4 * x ** 2 * y ** 2 + x ** 3 * y
        assert p.coefficient({"x": 2, "y": 2}) == 4
        assert p.coefficient((("x", 3), ("y", 1))) == 1
        # Repeated symbols merge and zero exponents drop, as in the constructor.
        assert p.coefficient([("y", 1), ("x", 2), ("x", 1), ("z", 0)]) == 1
        assert p.coefficient({"x": 5}) == 0

    def test_evaluate(self):
        assert (x ** 2 - y ** 2).evaluate({"x": 3, "y": 3}) == 0
        row = 7 * x ** 2 * y ** 2 + 4 * x ** 3 * y
        assert row.evaluate({"x": 1, "y": 1}) == 11

    def test_evaluate_laurent(self):
        assert mono(3, x=-2).evaluate({"x": 2}) == Fraction(3, 4)

    def test_evaluate_pole(self):
        with pytest.raises(PoleError):
            mono(3, x=-2).evaluate({"x": 0, "y": 1})

    def test_evaluate_rejects_inexact_values(self):
        for value in (0.1, 2.0, "3"):
            with pytest.raises(TypeError, match="exact scalar"):
                x.evaluate({"x": value})
        with pytest.raises(TypeError):
            (x * y).evaluate({"x": 1, "y": 0.5})
        assert x.evaluate({"x": Fraction(6, 3)}) == 2

    def test_subs_simultaneous(self):
        # x and y swap in one step, not sequentially.
        assert (x ** 2 * y).subs({"x": y, "y": x}) == y ** 2 * x

    def test_subs_empty_identity(self):
        p = x ** 2 * y + 3
        assert p.subs({}) == p

    def test_subs_evaluation(self):
        u, v = variable("u"), variable("v")
        p = u ** 2 * v
        q = p.subs({"u": x + y + z, "v": x * y + x * z + y * z})
        assert q.evaluate({"x": 1, "y": 1, "z": 1}) == 27

    def test_subs_rejects_zero_into_negative_power(self):
        with pytest.raises((ValueError, PoleError)):
            mono(1, x=-2).subs({"x": 0})

    def test_slices(self):
        p = x ** 2 * y + x ** 2 + y ** 3
        by_x = p.slices("x")
        assert by_x[2] == y + 1
        assert by_x[0] == y ** 3

    def test_degree_and_homogeneity(self):
        assert (x ** 2 + x * y).homogeneous_degree() == 2
        assert ZERO.homogeneous_degree() == 0
        assert (x ** 2 + y).homogeneous_degree() is None
        assert (x ** 2 + y).constant_term() == 0
        assert (x + 5).constant_term() == 5


class TestDiff:
    def test_power_rule(self):
        assert (x ** 2 * y).diff("x") == 2 * x * y

    def test_absent_symbol(self):
        assert (x + y).diff("z").is_zero

    def test_term_by_term(self):
        assert (x * y ** 2 - x ** 3).diff("x") == y ** 2 - 3 * x ** 2

    def test_laurent_power_rule(self):
        assert mono(1, x=-1).diff("x") == mono(-1, x=-2)

    def test_exponent_one_vanishes_into_constant(self):
        assert (3 * x).diff("x") == Polynomial.constant(3)


class TestJson:
    def test_round_trip(self):
        p = 4 * x ** 2 * y ** 2 - mono(Fraction(1, 3), z=-1)
        blob = json.dumps(p.to_json_dict())
        assert Polynomial.from_json_dict(json.loads(blob)) == p

    def test_coefficients_are_strings(self):
        data = (10 ** 30 * x).to_json_dict()
        assert data["terms"][0]["coeff"] == str(10 ** 30)


class TestProperties:
    """Randomized ring and round-trip laws with a fixed seed."""

    def test_ring_axioms(self):
        rng = random.Random(20817)
        for _ in range(300):
            a = random_polynomial(rng, rationals=True, min_exp=-2)
            b = random_polynomial(rng, rationals=True, min_exp=-2)
            c = random_polynomial(rng, rationals=True, min_exp=-2)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Polynomial() == a
            assert a * ONE == a
            assert (a - a).is_zero

    def test_parse_render_round_trip(self):
        rng = random.Random(4265)
        for _ in range(300):
            p = random_polynomial(rng, rationals=True, min_exp=-3, max_terms=6)
            assert parse(p.render()) == p

    def test_render_deterministic(self):
        rng = random.Random(991)
        for _ in range(50):
            p = random_polynomial(rng, max_terms=6)
            q = Polynomial() + p
            assert p.render() == q.render()

    def test_diff_leibniz(self):
        rng = random.Random(7321)
        for _ in range(300):
            f = random_polynomial(rng, min_exp=-2)
            g = random_polynomial(rng, min_exp=-2)
            s = rng.choice("xyz")
            assert (f * g).diff(s) == f.diff(s) * g + f * g.diff(s)

    def test_subs_is_homomorphism(self):
        rng = random.Random(5150)
        for _ in range(200):
            f = random_polynomial(rng, "xy")
            g = random_polynomial(rng, "xy")
            binding = {"x": random_polynomial(rng, "uv"), "y": random_polynomial(rng, "uv")}
            assert (f * g).subs(binding) == f.subs(binding) * g.subs(binding)
            assert (f + g).subs(binding) == f.subs(binding) + g.subs(binding)


def _graded_lex(m1: tuple, m2: tuple) -> int:
    """Reference comparison of two pair tuples straight from the definition:
    total degree, then exponents symbol by symbol."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for s in sorted(e1.keys() | e2.keys()):
        if e1.get(s, 0) != e2.get(s, 0):
            return -1 if e1.get(s, 0) < e2.get(s, 0) else 1
    return 0


def assert_canonical(p: Polynomial) -> None:
    """Every term is a canonical pair tuple and the terms read back graded-lex."""
    monomials = []
    for m, c in p.terms():
        assert type(m) is tuple and all(type(t) is tuple and len(t) == 2 for t in m), m
        names = [s for s, _ in m]
        assert names == sorted(set(names)), m
        assert all(type(e) is int and e != 0 for _, e in m), m
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
        assert p.coefficient(m) == c and p.coefficient(dict(m)) == c
        monomials.append(m)
    # The stored terms describe the polynomial they were read from.
    rebuilt = Polynomial(dict(p.terms()))
    assert rebuilt == p and hash(rebuilt) == hash(p)
    order = p.sorted_terms()
    assert sorted(order) == sorted(p.terms())
    assert [m for m, _ in order] == sorted(
        monomials, key=functools.cmp_to_key(_graded_lex), reverse=True)


class TestCanonicalForm:
    """Internal constructors trust canonical pairs; every operation must keep them canonical."""

    def test_operations_keep_canonical_form(self):
        rng = random.Random(30307)
        fraction_grammar = Grammar.from_text("x -> 1/2*y; y -> 3/2*x*y^-1; z -> 2/3")
        for _ in range(300):
            a = random_polynomial(rng, rationals=True, min_exp=-2)
            b = random_polynomial(rng, rationals=True, min_exp=-2)
            s = rng.choice("xyz")
            results = [a * b, a + b, a - b, -a, a ** rng.randint(0, 3), a.diff(s),
                       random_grammar(rng).derive(a), fraction_grammar.derive(a)]
            results += a.slices(s).values()
            unit = mono(rng.choice((1, -1)), u=rng.randint(-2, 2), z=rng.randint(-2, 2))
            results.append(unit ** -rng.randint(1, 3))
            f = random_polynomial(rng, "xz", rationals=True, min_exp=-2) * random_polynomial(
                rng, "y", rationals=True)
            results.append(f.subs({"x": unit, "y": random_polynomial(rng, "uv", rationals=True)}))
            for p in results:
                assert_canonical(p)

    def test_integral_fractions_become_ints(self):
        p = Fraction(1, 2) * x * 2
        assert p == x
        ((_, c),) = p.terms()
        assert type(c) is int and c == 1
        g = Grammar.from_text("x -> 1/2*y")
        ((_, c),) = g.derive(2 * x).terms()
        assert type(c) is int and c == 1

    def test_sorting_monomials_gives_the_canonical_term_order(self):
        p = parse("x^-2 + 3 + z + x^2*y^-1 + x*y + y^3")
        order = [m for m, _ in p.sorted_terms()]
        assert order == [(("y", 3),), (("x", 1), ("y", 1)), (("x", 2), ("y", -1)), (("z", 1),),
                         (), (("x", -2),)]
        rng = random.Random(6121)
        for q in (p, parse("a*b^-2 + b^-1 - a^-1*c^2 + 5*c - 1 + a^2*b^-2*c"),
                  parse("x^-1*y^-1 + x^-2 + y^-2 + 7*x^-1 + y^-1")):
            monomials = [m for m, _ in q.terms()]
            rng.shuffle(monomials)
            assert sorted(monomials, key=functools.cmp_to_key(_graded_lex), reverse=True) == [
                m for m, _ in q.sorted_terms()]

    def test_terms_yield_the_stored_keys(self):
        p = parse("x^2*y^-1 + 3*z - 1/2")
        stored = list(p._terms)
        for read in (p.terms(), p.sorted_terms()):
            pairs = [m for m, _ in read]
            assert sorted(pairs) == sorted(stored)
            assert all(any(m is k for k in stored) for m in pairs)
        assert sorted(p.terms()) == [((), Fraction(-1, 2)), ((("x", 2), ("y", -1)), 1),
                                     ((("z", 1),), 3)]

    def test_public_constructors_reject_floats(self):
        with pytest.raises(TypeError, match="integer exponent"):
            Polynomial([({"x": 1.5}, 1)])
        with pytest.raises(TypeError, match="integer exponent"):
            Polynomial([([("x", 2.0)], 1)])
        with pytest.raises(TypeError, match="integer exponent"):
            mono(1, x=1.0)
        with pytest.raises(TypeError, match="integer exponent"):
            x.coefficient({"x": 1.0})
        with pytest.raises(TypeError):
            Polynomial({(("x", 1),): 1.5})
        with pytest.raises(TypeError):
            Polynomial([({"x": 1}, 0.5)])
        with pytest.raises(TypeError):
            Polynomial.constant(0.25)
        with pytest.raises(TypeError):
            Polynomial.constant(0.0)
        with pytest.raises(TypeError):
            mono(1.5, x=1)
        with pytest.raises(TypeError):
            x * 1.5
        with pytest.raises(TypeError, match="binding for 'x' is not a polynomial or exact scalar"):
            x.subs({"x": 1.5})
