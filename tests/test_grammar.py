"""Substitution-rule grammars and the induced formal derivative."""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import SMALL_PRESETS, random_polynomial
from normord import Grammar, ParseError, Polynomial, family_row, mono, parse, variable
from normord.grammar import PRESETS
from normord.poly import ONE

a = variable("a")
b = variable("b")
x = variable("x")
y = variable("y")
z = variable("z")

ALL_PRESETS = (
    "stirling-second",
    "stirling-dual",
    "eulerian-ab",
    "eulerian-xy",
    "eulerian-full",
    "pq-eulerian",
    "second-order",
    "trivariate-second-order",
    "full-ternary",
    "elementary-symmetric",
    "pair-symmetric",
    "type-b",
    "swap",
    "type-b-split",
    "exp-surrogate",
)


# repr of Grammar.from_text(PRESETS[name]), recorded before derive gained its
# rule table: the table must stay invisible to repr, == and hash.
PRESET_REPRS = {
    "stirling-second": "Grammar(rules={'x': <Polynomial 1>})",
    "stirling-dual": "Grammar(rules={'a': <Polynomial a*b>, 'b': <Polynomial b>})",
    "eulerian-ab": "Grammar(rules={'a': <Polynomial a*b>, 'b': <Polynomial a*b>})",
    "eulerian-xy": "Grammar(rules={'x': <Polynomial y>, 'y': <Polynomial y>})",
    "eulerian-full": "Grammar(rules={'x': <Polynomial 1>, 'y': <Polynomial 1>})",
    "pq-eulerian": "Grammar(rules={'x': <Polynomial y>, 'y': <Polynomial p*y>})",
    "second-order": "Grammar(rules={'x': <Polynomial y^2>, 'y': <Polynomial y^2>})",
    "trivariate-second-order": "Grammar(rules={'x': <Polynomial x*y*z>, "
                               "'y': <Polynomial x*y*z>, 'z': <Polynomial x*y*z>})",
    "full-ternary":
        "Grammar(rules={'x': <Polynomial 1>, 'y': <Polynomial 1>, 'z': <Polynomial 1>})",
    "elementary-symmetric":
        "Grammar(rules={'u': <Polynomial 3>, 'v': <Polynomial 2*u>, 'w': <Polynomial v>})",
    "pair-symmetric": "Grammar(rules={'u': <Polynomial v>, 'v': <Polynomial 2>})",
    "type-b": "Grammar(rules={'x': <Polynomial x*y^2>, 'y': <Polynomial x^2*y>})",
    "swap": "Grammar(rules={'x': <Polynomial y>, 'y': <Polynomial x>})",
    "type-b-split": "Grammar(rules={'x': <Polynomial y^2>, 'y': <Polynomial x*y>})",
    "exp-surrogate": "Grammar(rules={'a': <Polynomial a>})",
}


class TestConstruction:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_value_identity(self, name):
        g = Grammar.from_text(PRESETS[name])
        assert repr(g) == PRESET_REPRS[name]
        assert [f.name for f in dataclasses.fields(Grammar)] == ["rules"]
        twin = Grammar(dict(g.rules))
        assert g == twin == Grammar.from_text(g.render_rules())
        assert g != Grammar({**g.rules, "t": ONE})
        # The rules mapping is a dict, so a Grammar is unhashable, as before.
        for grammar in (g, twin):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(grammar)

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_presets_exist(self, name):
        g = Grammar.preset(name)
        assert g.rules

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            Grammar.preset("no-such-grammar")

    def test_from_text(self):
        g = Grammar.from_text("x->y^2; y->x*y")
        assert g == Grammar.preset("type-b-split")
        # A trailing separator leaves an empty rule, which is skipped.
        assert Grammar.from_text("x->y^2; y->x*y;") == g

    def test_from_text_whitespace_insensitive(self):
        assert Grammar.from_text(" x ->y ; y->  x") == Grammar.preset("swap")

    def test_render_rules_round_trip(self):
        for name in ALL_PRESETS:
            g = Grammar.preset(name)
            assert Grammar.from_text(g.render_rules()) == g

    def test_rejects_missing_arrow(self):
        with pytest.raises(ParseError):
            Grammar.from_text("x=>y")

    def test_rejects_duplicate_rule(self):
        with pytest.raises(ParseError):
            Grammar.from_text("x->y; x->z")

    @pytest.mark.parametrize("name", ["x y", "1x", "", "é"])
    def test_constructor_rejects_bad_symbol_names(self, name):
        # Such a rule could never fire: no monomial may hold that symbol.
        with pytest.raises(ValueError) as info:
            Grammar({name: variable("x")})
        assert str(info.value) == f"bad rule symbol {name!r}"

    @pytest.mark.parametrize("key", [3, ("x",), None])
    def test_constructor_rejects_keys_that_are_not_strings(self, key):
        with pytest.raises(TypeError) as info:
            Grammar({key: variable("x")})
        assert str(info.value) == f"rule key {key!r} is not a symbol name"

    def test_constructor_rejects_rules_that_are_not_polynomials(self):
        with pytest.raises(TypeError, match="rule for 'x' is not a polynomial"):
            Grammar({"x": "y"})

    @pytest.mark.parametrize("text, position", [
        ("x -> y; y -> y + * 2", 17),
        ("x -> y; y", 8),
        ("x -> y; 1x -> y", 8),
        ("x -> y; x -> y", 8),
        ("x -> y; é -> y", 8),
    ])
    def test_error_position_in_full_text(self, text, position):
        with pytest.raises(ParseError) as info:
            Grammar.from_text(text)
        assert info.value.position == position


class TestDerive:
    def test_single_symbol(self):
        g = Grammar.preset("stirling-dual")
        assert g.derive(a) == a * b

    def test_product(self):
        g = Grammar.preset("stirling-dual")
        assert g.derive(a * b) == a * b ** 2 + a * b

    def test_constants_die(self):
        for name in ALL_PRESETS:
            assert Grammar.preset(name).derive(Polynomial.constant(5)).is_zero

    def test_swap_product(self):
        g = Grammar.preset("swap")
        assert g.derive(x * y) == x ** 2 + y ** 2

    def test_unruled_symbols_are_constants(self):
        g = Grammar.preset("swap")
        assert g.derive(variable("t")).is_zero
        assert g.derive(x * variable("t")) == y * variable("t")

    def test_laurent_power_rule(self):
        g = Grammar.preset("swap")
        # D(x^-1) = -x^-2 * D(x) by the same power rule.
        assert g.derive(mono(1, x=-1)) == mono(-1, x=-2) * y


class TestDerivePower:
    def test_zero_iterations(self):
        g = Grammar.preset("eulerian-ab")
        f = a ** 2 + b
        assert g.derive_power(f, 0) == f

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="repeat count must be nonnegative"):
            Grammar.preset("stirling-dual").derive_power(a, -1)

    def test_three_iterations(self):
        g = Grammar.preset("eulerian-ab")
        assert g.derive_power(a, 3) == a * b ** 3 + 4 * a ** 2 * b ** 2 + a ** 3 * b

    def test_trivariate_square(self):
        g = Grammar.preset("trivariate-second-order")
        want = x * y ** 2 * z ** 2 + x ** 2 * y * z ** 2 + x ** 2 * y ** 2 * z
        assert g.derive_power(x, 2) == want

    def test_matches_repeated_derive(self):
        g = Grammar.preset("second-order")
        f = x
        for n in range(6):
            assert g.derive_power(x, n) == f
            f = g.derive(f)


class TestProperties:
    def test_linear_and_leibniz(self):
        rng = random.Random(6040)
        for _ in range(300):
            g = Grammar.preset(rng.choice(SMALL_PRESETS))
            f = random_polynomial(rng, "abxyzuvw")
            h = random_polynomial(rng, "abxyzuvw")
            assert g.derive(f + h) == g.derive(f) + g.derive(h)
            assert g.derive(f * h) == g.derive(f) * h + f * g.derive(h)

    def test_stirling_second_closed_form(self):
        g = Grammar.preset("stirling-dual")
        for n in range(11):
            row = family_row("S2", n)
            want = a * sum(
                (cnt * b ** k for (k,), cnt in row.items()), Polynomial()
            ) if n else a
            assert g.derive_power(a, n) == want

    def test_self_dual_iterates(self):
        g = Grammar.preset("eulerian-ab")
        for n in range(1, 9):
            assert g.derive_power(a, n) == g.derive_power(b, n)

    def test_trivariate_recursion_and_symmetry(self):
        g = Grammar.preset("trivariate-second-order")
        xyz = x * y * z
        for n in range(1, 8):
            f = g.derive_power(x, n)
            step = xyz * (f.diff("x") + f.diff("y") + f.diff("z"))
            assert g.derive_power(x, n + 1) == step
            assert f.subs({"x": y, "y": x}) == f
            assert f.subs({"y": z, "z": y}) == f
            assert f.subs({"x": z, "z": x}) == f

    def test_cli_rule_text_matches_presets(self):
        table = {
            "stirling-second": "x -> 1",
            "eulerian-xy": "x -> y; y -> y",
            "second-order": "x -> y^2; y -> y^2",
            "elementary-symmetric": "u -> 3; v -> 2*u; w -> v",
        }
        for name, text in table.items():
            assert Grammar.from_text(text) == Grammar.preset(name)

    def test_rule_values_parse_as_polynomials(self):
        g = Grammar.preset("elementary-symmetric")
        assert g.rules["u"] == Polynomial.constant(3)
        assert g.rules["v"] == 2 * variable("u")
        assert g.rules["w"] == variable("v")
