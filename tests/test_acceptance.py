"""Acceptance suite: eight exact end-to-end criteria, zero tolerance.

Each test prints a single PASS or FAIL line (visible under ``pytest -s``).
Every comparison is exact; no criterion may be weakened to force it green.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter

from conftest import SMALL_PRESETS, random_polynomial
from normord import (
    Grammar,
    Polynomial,
    assemble,
    ctilde_xx,
    e_expand,
    family_row,
    gamma_expand,
    grow_forests,
    list_partitions,
    mono,
    normal_order_power,
    parse,
    rising_factorial,
    run_check,
    stat_polynomial,
    variable,
)
from normord.combinat import SCANS, stat_keys
from normord.forests import census
from normord.poly import ONE

x = variable("x")
y = variable("y")
z = variable("z")
q = variable("q")


def reported(name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {name}")
                raise
            print(f"PASS {name}")

        return inner

    return wrap


def row_to_coefficient(row: dict, k: int, term) -> Polynomial:
    """Assemble the degree-k slice of a triangle row via the family's monomial shape."""
    acc = Polynomial()
    for key, count in row.items():
        if key[0] == k:
            acc = acc + count * term(*key)
    return acc


def forest_tally(flavor: str, n: int) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for word in grow_forests(flavor, n):
        lx, _, _, k = census(word)
        out[(k, lx)] = out.get((k, lx), 0) + 1
    return out


@reported("criterion 1/8: printed expansions reproduced byte-for-byte")
def test_golden_expansions():
    cases = [
        ("x", "eulerian-xy", 2, ["x*y", "x^2"]),
        ("x", "eulerian-xy", 3, ["x^2*y + x*y^2", "3*x^2*y", "x^3"]),
        (
            "x",
            "eulerian-xy",
            4,
            ["x^3*y + 4*x^2*y^2 + x*y^3", "4*x^3*y + 7*x^2*y^2", "6*x^3*y", "x^4"],
        ),
        ("x", "pq-eulerian", 2, ["x*y", "x^2"]),
        ("x", "pq-eulerian", 3, ["p*x^2*y + x*y^2", "3*x^2*y", "x^3"]),
        (
            "x",
            "pq-eulerian",
            4,
            [
                "p^2*x^3*y + 4*p*x^2*y^2 + x*y^3",
                "4*p*x^3*y + 7*x^2*y^2",
                "6*x^3*y",
                "x^4",
            ],
        ),
        ("x*y", "eulerian-full", 2, ["x^2*y + x*y^2", "x^2*y^2"]),
        (
            "x*y",
            "eulerian-full",
            3,
            ["x^3*y + 4*x^2*y^2 + x*y^3", "3*x^3*y^2 + 3*x^2*y^3", "x^3*y^3"],
        ),
        (
            "x*y",
            "eulerian-full",
            4,
            [
                "x^4*y + 11*x^3*y^2 + 11*x^2*y^3 + x*y^4",
                "7*x^4*y^2 + 22*x^3*y^3 + 7*x^2*y^4",
                "6*x^4*y^3 + 6*x^3*y^4",
                "x^4*y^4",
            ],
        ),
        ("u", "pair-symmetric", 2, ["u*v", "u^2"]),
        ("u", "pair-symmetric", 3, ["u*v^2 + 2*u^2", "3*u^2*v", "u^3"]),
        ("w", "elementary-symmetric", 2, ["v*w", "w^2"]),
        ("w", "elementary-symmetric", 3, ["2*u*w^2 + v^2*w", "3*v*w^2", "w^3"]),
    ]
    for text, preset, n, want in cases:
        nf = normal_order_power(parse(text), Grammar.preset(preset), n)
        got = [nf.coefficient(k).render() for k in range(1, n + 1)]
        assert got == want, (text, preset, n, got)

    beta_want = [
        "q*w",
        "q^2*w^2 + q*v*w",
        "q^3*w^3 + 3*q^2*v*w^2 + 2*q*u*w^2 + q*v^2*w",
        "q^4*w^4 + 6*q^3*v*w^3 + 8*q^2*u*w^3 + 7*q^2*v^2*w^2"
        " + 8*q*u*v*w^2 + q*v^3*w + 6*q*w^3",
    ]
    g = Grammar.preset("elementary-symmetric")
    for n, want in enumerate(beta_want, start=1):
        got = normal_order_power(variable("w"), g, n).specialize(q).render()
        assert got == want, (n, got)

    got = assemble("B", 3).subs({"y": 1, "z": 1}).render()
    assert got == "x^5 + 3*x^4 + 7*x^3 + 3*x^2 + x"


@reported("criterion 2/8: operator, recurrence, and binary forests agree to n=9")
def test_binary_forest_triple():
    g = Grammar.preset("eulerian-xy")
    for n in range(1, 10):
        nf = normal_order_power(x, g, n)
        row = family_row("A", n)
        for k in range(1, n + 1):
            want = row_to_coefficient(row, k, lambda k, l: mono(1, x=l, y=n - l))
            assert nf.coefficient(k) == want, (n, k)
        assert forest_tally("binary", n) == row, n


@reported("criterion 3/8: weighted expansion tallies cycle statistics to n=8")
def test_cycle_statistic_expansion():
    g = Grammar.preset("pq-eulerian")
    for n in range(1, 9):
        op = normal_order_power(x, g, n).specialize(q)
        enum = Polynomial()
        keys = stat_keys("permutations", n, ("exc", "cdes", "cyc"))
        for (exc, cdes, cyc), c in Counter(keys).items():
            enum = enum + mono(c, x=n - exc, y=exc, p=cdes, q=cyc)
        assert op == enum, n


@reported("criterion 4/8: full binary forests, block lists, and gamma basis agree")
def test_full_binary_and_list_partition_tallies():
    g = Grammar.preset("eulerian-full")
    scans = SCANS["list-partitions"]
    for n in range(1, 7):
        row = family_row("a", n)
        nf = normal_order_power(x * y, g, n)
        for k in range(1, n + 1):
            want = row_to_coefficient(row, k, lambda k, l: mono(1, x=l, y=n + k - l))
            assert nf.coefficient(k) == want, (n, k)
        assert forest_tally("full-binary", n) == row, n
        lists: dict[tuple[int, int], int] = {}
        for blocks in list_partitions(n):
            key = (scans["blocks"](blocks), scans["asc"](blocks))
            lists[key] = lists.get(key, 0) + 1
        assert lists == row, n

    for n in range(1, 11):
        got = assemble("a", n).subs({"x": 1, "y": 1})
        want = Polynomial()
        for k in range(1, n + 1):
            lah = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
            want = want + mono(lah, z=k)
        assert got == want, n

    for n in range(1, 7):
        gamma = gamma_expand(assemble("a", n))
        assert all(v >= 0 for v in gamma.values()), n
        valleys: dict[tuple[int, int], int] = {}
        for blocks in list_partitions(n):
            if scans["dd"](blocks):
                continue
            k = scans["blocks"](blocks)
            key = (k, k + scans["val"](blocks))
            valleys[key] = valleys.get(key, 0) + 1
        assert valleys == gamma, n


@reported("criterion 5/8: ternary families, series identity, and e-basis agree")
def test_ternary_families_and_series():
    g = Grammar.preset("second-order")
    for n in range(1, 8):
        row = family_row("C", n)
        nf = normal_order_power(x, g, n)
        for k in range(1, n + 1):
            want = row_to_coefficient(row, k, lambda k, l: mono(1, x=l, y=2 * n - k - l))
            assert nf.coefficient(k) == want, (n, k)
        assert forest_tally("ternary", n) == row, n

    for n in range(1, 10):
        row = family_row("C", n + 1)
        e2 = family_row("eulerian2", n)
        assert {l: v for (k, l), v in row.items() if k == 1} == {
            l: v for (l,), v in e2.items()
        }, n

    assert run_check("catalan-egf", 10).passed

    for n in range(1, 11):
        want = Polynomial()
        for j in range(n + 1):
            b = math.factorial(n + j) // (
                2 ** j * math.factorial(n - j) * math.factorial(j)
            )
            want = want + mono(b, x=n + 1 + j, z=n + 1 - j)
        assert ctilde_xx(n + 1) == want, n

    tri = Grammar.preset("trivariate-second-order")
    for n in range(1, 7):
        from_grammar = tri.derive_power(x, n)
        from_recurrence = assemble("second-order-xyz", n)
        from_words = stat_polynomial(
            "stirling-permutations", n, {"asc": "x", "des": "y", "plat": "z"}
        )
        trees = Polynomial()
        for word in grow_forests("full-ternary", n):
            lx, ly, lz, k = census(word)
            if k == 1:
                trees = trees + mono(1, x=lx, y=ly, z=lz)
        assert from_grammar == from_recurrence == from_words == trees, n
        for a_sym, b_sym in (("x", "y"), ("y", "z"), ("x", "z")):
            swapped = from_grammar.subs({a_sym: variable(b_sym), b_sym: variable(a_sym)})
            assert swapped == from_grammar, (n, a_sym, b_sym)

    ful = Grammar.preset("full-ternary")
    for n in range(1, 6):
        op = normal_order_power(x * y * z, ful, n).specialize(q)
        enum = stat_polynomial(
            "stirling-lists", n, {"asc": "x", "plat": "y", "des": "z", "blocks": "q"}
        )
        assert op == enum, n

    for n in range(1, 7):
        op = normal_order_power(x * y * z, ful, n).specialize(q)
        beta_row = family_row("beta", n)
        got: dict[tuple[int, int, int, int], int] = {}
        for k, piece in op.slices("q").items():
            if k == 0:
                continue
            for (i, j, l3), c in e_expand(piece).items():
                ell = l3 - k
                assert i == 2 * n - 2 * k - 2 * j - 3 * ell, (n, k, i, j, ell)
                got[(k, j, ell)] = c
        assert got == beta_row, n

    for n in range(1, 9):
        assert all(v >= 0 for v in family_row("beta", n).values()), n


@reported("criterion 6/8: signed and plateau statistic families agree")
def test_type_b_families():
    for n in range(1, 10):
        row = family_row("B", n + 1)
        eb = family_row("eulerianB", n)
        assert {l: v for (k, l), v in row.items() if k == 1} == {
            l: v for (l,), v in eb.items() if v
        }, n

    for n in range(1, 8):
        tally = Counter(d for (d,) in stat_keys("signed-permutations", n, ("des_b",)))
        eb = family_row("eulerianB", n)
        assert tally == {l: v for (l,), v in eb.items() if v}, n

    for n in range(1, 8):
        b_spec = assemble("B", n).subs({"y": 1, "z": 1})
        f_row = assemble("flag-ascent-plateau-x", n)
        enum = stat_polynomial("stirling-permutations", n, {"fap": "x"})
        assert b_spec == f_row == enum, n

    for n in range(1, 8):
        row = family_row("E", n + 1)
        counts = Counter(a for (a,) in stat_keys("stirling-permutations", n, ("ap",)))
        assert {l: v for (k, l), v in row.items() if k == 1} == counts, n

    for n in range(1, 11):
        got = assemble("E", n).subs({"x": 1, "y": 1})
        want = Polynomial()
        for j in range(n):
            c = math.factorial(n + j - 1) // (
                2 ** j * math.factorial(n - 1 - j) * math.factorial(j)
            )
            want = want + mono(c, z=n - j)
        assert got == want, n

    for n in range(1, 11):
        assert assemble("W", n).subs({"x": 1, "y": 1}) == rising_factorial("z", n), n

    for n in range(1, 9):
        t_rec = assemble("updown-run-x", n)
        t_enum = stat_polynomial("permutations", n, {"udrun": "x"})
        assert t_rec == t_enum, n
        homog = Polynomial()
        for m, c in t_rec.terms():
            l = dict(m).get("x", 0)
            homog = homog + mono(c, x=l, y=n - l)
        assert assemble("W", n).subs({"z": 1}) == homog, n


@reported("criterion 7/8: foundational normal-order identities hold")
def test_foundation_identities():
    a, b = variable("a"), variable("b")

    g = Grammar.preset("stirling-dual")
    for n in range(11):
        if n == 0:
            want = ONE
        else:
            want = Polynomial()
            for (k,), v in family_row("S2", n).items():
                want = want + mono(v, b=k)
        assert g.derive_power(a, n) == a * want, n

    g = Grammar.preset("stirling-second")
    for n in range(11):
        nf = normal_order_power(x, g, n)
        row = family_row("S2", n)
        for k in range(n + 1):
            assert nf.coefficient(k) == row.get((k,), 0) * x ** k, (n, k)

    g = Grammar.preset("exp-surrogate")
    for n in range(11):
        nf = normal_order_power(a, g, n)
        row = family_row("S1", n)
        for k in range(n + 1):
            assert nf.coefficient(k) == row.get((k,), 0) * a ** n, (n, k)

    g = Grammar.preset("eulerian-ab")
    for n in range(1, 9):
        assert g.derive_power(a, n) == g.derive_power(b, n), n

    for n in range(1, 9):
        an = assemble("A", n)
        assert an.subs({"x": 1, "y": 1}) == rising_factorial("z", n), n
        eul = assemble("eulerian-x", n)
        homog = Polynomial()
        for m, c in eul.terms():
            l = dict(m).get("x", 0)
            homog = homog + mono(c, x=l, y=n + 1 - l)
        assert y * an.subs({"z": 1}) == homog, n
        assert an.subs({"y": 1, "z": 1}) == eul, n
        assert x * an.subs({"x": 1, "z": 1}).subs({"y": x}) == eul, n
        nxt = assemble("A", n + 1)
        assert nxt.diff("z").subs({"y": 1, "z": 0}) == eul, n


@reported("criterion 8/8: randomized property suites hold (1000 cases each)")
def test_property_suites():
    rng = random.Random(96321)
    for _ in range(1000):
        a = random_polynomial(rng, rationals=True, min_exp=-2)
        b = random_polynomial(rng, rationals=True, min_exp=-2)
        c = random_polynomial(rng, rationals=True, min_exp=-2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    rng = random.Random(52509)
    for _ in range(1000):
        g = Grammar.preset(rng.choice(SMALL_PRESETS))
        f = random_polynomial(rng, "abxyzuvw")
        h = random_polynomial(rng, "abxyzuvw")
        assert g.derive(f * h) == g.derive(f) * h + f * g.derive(h)
        assert g.derive(f + h) == g.derive(f) + g.derive(h)

    rng = random.Random(77077)
    for _ in range(1000):
        p = random_polynomial(rng, rationals=True, min_exp=-3, max_terms=6)
        assert parse(p.render()) == p

    rng = random.Random(31337)
    for _ in range(1000):
        g = Grammar.preset(rng.choice(SMALL_PRESETS))
        w = random_polynomial(rng, "abxyzuvw", max_terms=2, max_exp=2)
        f = random_polynomial(rng, "abxyzuvw", max_terms=2, max_exp=2)
        n = rng.randint(0, 5)
        nf = normal_order_power(w, g, n)
        direct = f
        for _ in range(n):
            direct = w * g.derive(direct)
        assert nf.apply_to(f) == direct
