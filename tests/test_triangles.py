"""Coefficient triangles, row assemblers, and basis expanders."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import normord
from normord import (
    FAMILY_NAMES,
    Polynomial,
    assemble,
    bessel_polynomial,
    build_triangle,
    catalan_number,
    ctilde_xx,
    e_expand,
    family_row,
    family_rows,
    gamma_expand,
    mono,
    parse,
    rising_factorial,
    variable,
)
from normord import triangles
from normord.cli import main
from normord.poly import ONE, ZERO
from normord.triangles import FAMILIES, indexed_polynomial, row_polynomial
from test_poly import assert_canonical

x = variable("x")
y = variable("y")
z = variable("z")


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


class TestFamilyRow:
    def test_known_entries(self):
        assert family_row("A", 4)[(2, 2)] == 7
        assert family_row("a", 4)[(1, 2)] == 11
        assert family_row("beta", 4)[(1, 1, 1)] == 8

    def test_type_b_eulerian_row(self):
        assert family_row("eulerianB", 2) == {(0,): 1, (1,): 6, (2,): 1}

    def test_base_rows(self):
        assert family_row("A", 1) == {(1, 1): 1}
        assert family_row("beta", 1) == {(1, 0, 0): 1}
        assert family_row("B", 1) == {(1, 0): 1}
        assert family_row("S2", 0) == {(0,): 1}

    def test_classical_values(self):
        assert family_row("S2", 4) == {(1,): 1, (2,): 7, (3,): 6, (4,): 1}
        assert family_row("S1", 4) == {(1,): 6, (2,): 11, (3,): 6, (4,): 1}
        assert family_row("eulerian", 3) == {(1,): 1, (2,): 4, (3,): 1}
        assert family_row("eulerian2", 3) == {(1,): 1, (2,): 8, (3,): 6}
        assert family_row("lah", 3) == {(1,): 6, (2,): 6, (3,): 1}
        assert family_row("bessel", 2) == {(0,): 1, (1,): 3, (2,): 3}
        assert [family_row("catalan", n)[()] for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            family_row("no-such-family", 3)

    def test_deep_rows_from_the_base_row(self):
        # Each deep level is stepped up from the base row in a fresh interpreter.
        codes = [
            "from math import comb\n"
            "from normord import catalan_number, family_row\n"
            "row = family_row('S2', 1000)\n"
            "assert row[(2,)] == 2 ** 999 - 1 and row[(999,)] == comb(1000, 2)\n"
            "assert family_row('catalan', 1000)[()] == catalan_number(1000)\n"
        ]
        if sys.platform.startswith("linux"):
            # Keeping every row of the walk peaks near 148 MiB here; the
            # walk holds one row at a time.  The child reads its own high-water
            # mark, VmHWM in KiB: its ru_maxrss would also count this test
            # process's memory, which Linux carries across fork and exec.
            codes.append(
                "import re\n"
                "from normord import family_row\n"
                "assert family_row('A', 160)[(1, 1)] == 1\n"
                "status = open('/proc/self/status').read()\n"
                "peak = int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
                "assert peak < 64 * 1024, f'peak RSS {peak} KiB'\n"
            )
        src = str(Path(normord.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for code in codes:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr

    def test_entries_nonnegative(self):
        for family in ("A", "a", "gamma", "C", "beta", "B", "E", "W"):
            for n in range(1, 8):
                for value in family_row(family, n).values():
                    assert value >= 0

    def test_stepped_rows_hold_no_zero_and_one_entry_type(self):
        # A row leaves out zero entries: no entry is 0, Ap's entries are
        # polynomials and all others ints.
        for family in STEPPED:
            kind = Polynomial if family == "Ap" else int
            for n in range(FAMILIES[family].start, 16):
                for idx, v in family_row(family, n).items():
                    assert v and type(v) is kind, (family, n, idx, v)

    def test_weighted_family_stores_polynomials(self):
        row = family_row("Ap", 4)
        assert row[(1, 3)] == mono(1, p=2)
        assert row[(1, 2)] == 4 * variable("p")
        assert row[(2, 3)] == 4 * variable("p")
        assert row[(2, 2)] == Polynomial.constant(7)

    def test_diagonal_is_stirling_second(self):
        for n in range(1, 11):
            s2 = family_row("S2", n)
            a_row = family_row("A", n)
            for k in range(1, n + 1):
                assert a_row.get((k, k), 0) == s2.get((k,), 0)


# The family whose step steps each stepped family's rows: Ap's rows are A's
# walk with each entry weighted by p^(l - k).
STEPPER = {**{f: f for f, spec in FAMILIES.items() if spec.step}, "Ap": "A"}
STEPPED = [f for f in FAMILY_NAMES if f in STEPPER]


def test_steppers_cover_every_family_but_the_row_readers():
    # A family left out here would drop out of every step-counting test.
    assert set(FAMILY_NAMES) - set(STEPPER) == {"bessel", "catalan"}
    assert all(FAMILIES[stepper].step for stepper in STEPPER.values())


def _counting_steps(monkeypatch, family: str) -> list:
    """Patch the step behind ``family``'s rows to record each level it steps from."""
    stepper = STEPPER[family]
    spec = FAMILIES[stepper]
    calls = []

    def counting(prev, n):
        calls.append(n)
        return spec.step(prev, n)

    monkeypatch.setitem(FAMILIES, stepper, dataclasses.replace(spec, step=counting))
    return calls


class TestRowWindow:
    """A walk holds one row at a time; each read of a family starts its own walk."""

    def test_restepping_stays_linear(self, monkeypatch):
        steps = _counting_steps(monkeypatch, "A")
        family_row("A", 60)
        assert len(steps) == 59
        family_row("A", 10)
        assert len(steps) == 59 + 9
        family_row("A", 1)
        assert len(steps) == 59 + 9

    @pytest.mark.parametrize("family", STEPPED)
    def test_held_row_outlives_restepping(self, family):
        # Later reads, from above and from below, leave a held row as it was.
        n = FAMILIES[family].start + 2
        held = family_row(family, n)
        snapshot = dict(held)
        family_row(family, n + 5)
        family_row(family, n)
        assert held == snapshot


class TestFamilyRows:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_levels_in_order_each_row_new(self, family):
        start = FAMILIES[family].start
        pairs = list(family_rows(family, start + 4))
        assert [n for n, _ in pairs] == list(range(start, start + 5))
        assert [row for _, row in pairs] == [family_row(family, n) for n, _ in pairs]
        rows = [row for _, row in pairs] + [FAMILIES[family].base]
        assert len({id(row) for row in rows}) == len(rows)

    @pytest.mark.parametrize("family", STEPPED)
    def test_steps_max_n_minus_start(self, family, monkeypatch):
        steps = _counting_steps(monkeypatch, family)
        start = FAMILIES[family].start
        for top in (start, start + 1, start + 9):
            steps.clear()
            assert sum(1 for _ in family_rows(family, top)) == top - start + 1
            assert steps == list(range(start, top))

    @pytest.mark.parametrize("family", [f for f in STEPPED if f != "beta"])
    def test_shaped_rows_iterate_in_index_order(self, family):
        for n, row in family_rows(family, FAMILIES[family].start + 12):
            assert list(row) == sorted(row), (family, n)

    @pytest.mark.parametrize("family", [f for f in STEPPED if f != "beta"])
    def test_family_row_reads_one_state(self, family, monkeypatch):
        # The walk steps to row n and turns only that level's columns into a dict.
        reads = []
        row = triangles._row
        monkeypatch.setattr(triangles, "_row", lambda cols: reads.append(cols) or row(cols))
        start = FAMILIES[family].start
        for n in (start, start + 1, start + 9):
            reads.clear()
            got = family_row(family, n)
            assert len(reads) == 1
            assert got == dict(family_rows(family, n))[n]

    @pytest.mark.parametrize("family", ["A", "S2", "bessel", "catalan"])
    def test_one_below_start_message(self, family, capsys):
        start = FAMILIES[family].start
        want = f"family {family!r} starts at n = {start}"
        for read in (family_rows, family_row, build_triangle):
            with pytest.raises(ValueError) as info:
                read(family, start - 1)
            assert str(info.value) == want, read
        assert main(["triangle", "--family", family, "--n", str(start - 1)]) == 2
        assert capsys.readouterr() == ("", f"error: {want}\n")


class TestPureRows:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_rows_agree_in_any_call_order(self, family):
        n = FAMILIES[family].start + 3
        reads = [(m, family_row(family, m)) for m in (n + 5, n, n + 5)]
        triangle = build_triangle(family, n + 5)
        for m, row in reads:
            assert {(m, *idx): v for idx, v in row.items()} == {
                key: v for key, v in triangle.items() if key[0] == m}, m

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_changed_row_changes_no_later_read(self, family):
        start = FAMILIES[family].start
        want = {n: dict(family_row(family, n)) for n in (start, start + 3)}
        for n in want:
            row = family_row(family, n)
            for idx in list(row):
                row[idx] = -1
            row[("extra",)] = 5
        assert family_row(family, start) == want[start]
        assert family_row(family, start + 3) == want[start + 3]
        assert FAMILIES[family].base == want[start]

    @pytest.mark.parametrize("family", STEPPED)
    def test_triangle_steps_each_level_once(self, family, monkeypatch):
        # build_triangle reads one walk and steps no row past its top level.
        steps = _counting_steps(monkeypatch, family)
        start = FAMILIES[family].start
        build_triangle(family, start + 7)
        assert steps == list(range(start, start + 7))


# sha256 over the lines "n<TAB>index<TAB>entry" of every row from the
# family's start level up to ROW_DIGEST_TOP (sorted by index, polynomial
# entries rendered), recorded before the step functions were folded into
# shared shapes.  Any change to any entry of any family changes its digest.
ROW_DIGEST_TOP = {"Ap": 20, "beta": 20}
ROW_DIGESTS = {
    "A": "25ba342290f72efbb57d087f44d4952636e03b2fa75c10b9c48036e6d94edca8",
    "Ap": "7187c0e9898abf48a09c8c36dd98d786304e605427b1f30ba8e7e64608dfd3a4",
    "a": "55bf406148aee0b581fe1b11b56b76499da95f0331bffb1a8cfac87de6917548",
    "gamma": "42dcf888c305cbd9b27348c3a7e7b5ded016d2d44e572aaa8d4a7b638f87c37e",
    "C": "fc98b595d15388da1b506877fc9cd67d1c44140d77970d6e8a16f5749f695832",
    "beta": "95e586455d67bfc324e7140d43fbe23cc6c4c5a808fa8b1a79d97421732f4858",
    "B": "56853253229e901aecbcef6e88a8eed3b3c61873c2e17401aaa9314ae03d96b1",
    "E": "f1daa04757e8c22ead5dd312c7607360dd1d2220d0408cd79136578ad3eb4178",
    "W": "e423dccab2b3f14bf0a310cfecaa344667402f2f3d238673d3e4dfe3b309cf3b",
    "S2": "5d8941215768daafcbbee1a45d99faf696cce8a485a8000dc8115eef5519cc92",
    "S1": "30dce194417ae91c74480741144a5e811f76c0592ec6d67e23331d6f1728c5da",
    "eulerian": "23d4ec5a02bdea75f27ec4d59582205ca2bf6140be2adbfce8d97e0f4101d66c",
    "eulerian2": "0945ab9829c230940f4976e23cc11622a7e32874a2a54d7e8209104de4133490",
    "eulerianB": "139b23668205f48beed2a9857b9be8539f3114c7c106e76b06b8764e61b93f36",
    "lah": "724f2c5bc5a007f8f35d8fef9e1cd22d5d40fe7786d21c9515374211df22c72a",
    "bessel": "4f509467e77d80a3bd13d7a7e887e34997110c1aea4f6ad8d057d83049cdda86",
    "catalan": "79ff3304d99689dcac548d7f920697058a02bf835eedadf8c48ea370fc4887b1",
}


def _row_digest(family: str) -> str:
    h = hashlib.sha256()
    for n in range(FAMILIES[family].start, ROW_DIGEST_TOP.get(family, 40) + 1):
        for idx, v in sorted(family_row(family, n).items()):
            entry = v.render() if isinstance(v, Polynomial) else str(v)
            h.update(f"{n}\t{idx}\t{entry}\n".encode())
    return h.hexdigest()


def test_row_digests_cover_every_family():
    assert sorted(ROW_DIGESTS) == sorted(FAMILY_NAMES)


@pytest.mark.parametrize("family", sorted(ROW_DIGESTS))
def test_rows_match_recorded_digest(family):
    assert _row_digest(family) == ROW_DIGESTS[family]


def test_shaped_weights_are_integer_forms():
    # Every stepped family but beta binds its step shape to a move table of
    # integer affine forms, (c_n, c_k, c_l, c_0) over two indices and
    # (c_n, c_k, c_0) over one.
    for family, spec in FAMILIES.items():
        if spec.step is None or family == "beta":
            continue
        assert isinstance(spec.step, functools.partial), family
        moves = dict(spec.step.keywords)
        if len(spec.indices) == 2:
            assert type(moves.pop("dl")) is int, family
            assert moves.keys() == {"keep", "mid"}, family
        else:
            assert moves.keys() == {"stay", "up"}, family
        for form in moves.values():
            assert type(form) is tuple and len(form) == len(spec.indices) + 2, (family, form)
            assert all(type(c) is int for c in form), (family, form)


def _dict_pair(prev, n, keep, mid, dl, factor=None):
    """Reference dict step: (k, l) keeps weight keep, moves to (k, l+1) by mid * factor
    and to (k+1, l+dl) by 1, each weight an integer affine form in (n, k, l)."""
    nxt: dict = {}
    for (k, l), v in prev.items():
        w = mid[0] * n + mid[1] * k + mid[2] * l + mid[3]
        for key, c in (((k, l), (keep[0] * n + keep[1] * k + keep[2] * l + keep[3]) * v),
                       ((k, l + 1), (w if factor is None else w * factor) * v),
                       ((k + 1, l + dl), v)):
            if c:
                nxt[key] = nxt[key] + c if key in nxt else c
    return nxt


def _dict_single(prev, n, stay, up):
    """Reference dict step: (k,) keeps weight stay and moves to (k+1,) by up."""
    nxt: dict = {}
    for (k,), v in prev.items():
        for key, c in (((k,), (stay[0] * n + stay[1] * k + stay[2]) * v),
                       ((k + 1,), (up[0] * n + up[1] * k + up[2]) * v)):
            if c:
                nxt[key] = nxt[key] + c if key in nxt else c
    return nxt


def test_ap_is_a_weighted_by_p_to_the_l_minus_k():
    # Against A's recurrence with p carried on its mid move.
    ref = {(1, 1): ONE}
    for n, row in family_rows("Ap", 30):
        assert row == ref, n
        assert all(type(v) is Polynomial and v for v in row.values()), n
        ref = _dict_pair(ref, n, keep=(0, 0, 1, 0), mid=(1, 0, -1, 0), dl=1, factor=variable("p"))


@pytest.mark.parametrize("seed", range(40))
def test_column_steps_match_dict_steps(seed):
    # Random move tables, with negative weights, cancelling entries and a
    # unit move that lands below or above its column's start, reach the
    # padded and trimmed paths that no family's table reaches.
    rng = random.Random(seed)

    def form(width):
        return tuple(rng.randint(-2, 2) for _ in range(width))

    dl = rng.randint(-1, 2)
    for step, ref, table, base in (
        (triangles._pair, _dict_pair, {"keep": form(4), "mid": form(4), "dl": dl}, (1, 1)),
        (triangles._single, _dict_single, {"stay": form(3), "up": form(3)}, (1,)),
    ):
        cols, row = [(base[:-1], base[-1], [1])], {base: 1}
        for n in range(1, 9):
            cols = step(cols, n, **table)
            row = {idx: v for idx, v in ref(row, n, **table).items() if v}
            assert list(triangles._row(cols).items()) == sorted(row.items()), (table, n)
            assert all(col[:1] != [0] and col[-1:] != [0] for _, _, col in cols), (table, n)


# sha256 over the lines "n<TAB>render" of assemble(name, n), and of
# ctilde_xx(n), for every level from 0 up to 14, recorded before the
# derivative recurrences were folded into one stepper.
ASSEMBLY_DIGESTS = {
    "A": "6bdf5a4809a22bf02c0403c78dbbb5d6ce26a73e4d7c8dee30499ea511e7b6d6",
    "Ap": "d7ced734d60826224735e7754b9f581f5f2cf4e753178678b006b3ea80d590af",
    "B": "776fd9dec5efcdc18e72c1524e194087bfb3944b1107800b0869796b975b8529",
    "Ct": "e2bab643396d2b97c5186d0c2ae03e394477caf5b373084c7920b6629c7126ce",
    "E": "74aad584ebf6180d5ff64fedb427c1e6f8b83edca40b1aa3f4ec80b993b39551",
    "W": "f1f438d65771245d9cb71348990c8095e5433c750f081e5f05b171a15a440977",
    "a": "ae065861f4cc1412453102d2f561d53e926e90764fe08b1e754606cca6338d70",
    "beta": "2681a4299823a22cc8a23faed5cdcf21e184ba86f3046e1bdfd21d562a5df36a",
    "eulerian-x": "bd21fcc7c5218e3cb9ce1d49552cc1096639568568f519c397a50308ed297b39",
    "flag-ascent-plateau-x": "db2051124157991714f1db6edd3fc93c646af3776251ceeec022c8d07c55a02e",
    "second-order-x": "bb7c0f65b34871d30af6d256099220667323b8367c36b883ffea53c604764816",
    "second-order-xyz": "c0d462ab3f91403b503c82d3bb202dbe3112d8a14baee742974923a2f5380154",
    "type-b-x": "237f4f2c216500ca8a0ac0138e80fb4f8c93b9fcde3d4c6a5a12a309c7576fd9",
    "updown-run-x": "44135ca5f43ad77e70994db0c553d0ef565a76f7bfb09af8c245ad96f154902d",
    "ctilde_xx": "d03804d2c193ceed9889f80163c8c0b7f9b9d61a88ef68b298b2251b3f766062",
}


def _assembly_digest(name: str) -> str:
    fn = ctilde_xx if name == "ctilde_xx" else lambda n: assemble(name, n)
    h = hashlib.sha256()
    for n in range(15):
        h.update(f"{n}\t{fn(n).render()}\n".encode())
    return h.hexdigest()


def test_assembly_digests_cover_every_assembler():
    assert sorted(ASSEMBLY_DIGESTS) == sorted([*triangles.ASSEMBLERS, "ctilde_xx"])


@pytest.mark.parametrize("name", sorted(ASSEMBLY_DIGESTS))
def test_assemblies_match_recorded_digest(name):
    assert _assembly_digest(name) == ASSEMBLY_DIGESTS[name]


# Each assembler that reads a family row, with the family it reads.
ROW_ASSEMBLERS = {"A": "A", "Ap": "Ap", "a": "a", "Ct": "C", "beta": "beta", "B": "B",
                  "E": "E", "W": "W", "second-order-x": "eulerian2"}


def test_assembler_maps_are_integer_forms():
    # A row assembler binds its family and its exponent map {symbol: form}
    # by functools.partial; each form is (c_n, c_index..., c_0).
    bound = {name for name, fn in triangles.ASSEMBLERS.items()
             if isinstance(fn, functools.partial)}
    assert bound == ROW_ASSEMBLERS.keys()
    for name, family in ROW_ASSEMBLERS.items():
        fn = triangles.ASSEMBLERS[name]
        assert fn.func is triangles._from_row and not fn.keywords, name
        bound_family, exps = fn.args
        assert bound_family == family and exps, name
        width = len(FAMILIES[family].indices) + 2
        for symbol, form in exps.items():
            assert type(symbol) is str, (name, symbol)
            assert type(form) is tuple and len(form) == width, (name, symbol, form)
            assert all(type(c) is int for c in form), (name, symbol, form)


class TestExponentForms:
    def test_forms_fold_the_level(self):
        # (1, 2) -> x^(1 - 1) * y^(4 - 2), (2, 0) -> x^(2 - 1) * y^(4 - 0).
        got = indexed_polynomial({(1, 2): 3, (2, 0): 5}, 4,
                                 {"y": (1, 0, -1, 0), "x": (0, 1, 0, -1)})
        assert got == 3 * y ** 2 + 5 * x * y ** 4
        assert_canonical(got)

    def test_keys_are_canonical_over_polynomial_entries(self):
        got = row_polynomial("Ap", 5, {"z": (0, 1, 0, 0), "a": (1, 0, -1, 0), "x": (0, 0, 1, 0)})
        assert_canonical(got)
        assert got == triangles.assemble("Ap", 5).subs({"y": variable("a")})

    def test_empty_entries_give_zero(self):
        assert indexed_polynomial({}, 3, {"x": (0, 1, 0)}) == ZERO
        assert indexed_polynomial({}, 0, {}) == ZERO

    def test_empty_map_sums_the_row(self):
        assert row_polynomial("S2", 5, {}) == 52

    def test_callable_map_raises_type_error(self):
        with pytest.raises(TypeError, match="exponent map"):
            row_polynomial("S2", 3, lambda n, k: {"x": k})

    @pytest.mark.parametrize("symbol", ["2x", "x y", "", 3])
    def test_bad_symbol_raises_value_error(self, symbol):
        with pytest.raises(ValueError, match="bad symbol name"):
            row_polynomial("S2", 3, {"x": (0, 1, 0), symbol: (0, 1, 0)})

    @pytest.mark.parametrize("form", [(0, 1.0, 0), (0, "1", 0), [0, 1, 0], 1])
    def test_non_int_form_raises_type_error(self, form):
        with pytest.raises(TypeError, match="tuple of ints"):
            row_polynomial("S2", 3, {"x": form})

    @pytest.mark.parametrize("form", [(0, 1), (0, 1, 0, 0, 0), ()])
    def test_form_length_raises_value_error(self, form):
        with pytest.raises(ValueError, match="has length"):
            row_polynomial("S2", 3, {"x": form})
        with pytest.raises(ValueError, match="has length"):
            indexed_polynomial({(1, 2): 1}, 3, {"x": (0, 0, 1, 0), "y": form})


class TestTriangleObject:
    def test_entry_keyed_by_level_and_index(self):
        assert build_triangle("A", 5)[(4, 2, 2)] == 7

    def test_rows_match_family_row(self):
        t = build_triangle("beta", 5)
        for n in range(1, 6):
            row = {key: v for key, v in t.items() if key[0] == n}
            assert row == {(n, *k): v for k, v in family_row("beta", n).items()}

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            build_triangle("no-such-family", 3)

    def test_below_start_raises(self):
        with pytest.raises(ValueError, match="family 'A' starts at n = 1"):
            build_triangle("A", 0)


class TestFirstColumnLinks:
    def test_binary_column_is_eulerian(self):
        for n in range(1, 11):
            row = family_row("A", n + 1)
            eul = family_row("eulerian", n)
            assert {l: v for (k, l), v in row.items() if k == 1} == {
                l: v for (l,), v in eul.items()
            }

    def test_ternary_column_is_second_order_eulerian(self):
        for n in range(1, 11):
            row = family_row("C", n + 1)
            e2 = family_row("eulerian2", n)
            assert {l: v for (k, l), v in row.items() if k == 1} == {
                l: v for (l,), v in e2.items()
            }

    def test_type_b_column_is_type_b_eulerian(self):
        for n in range(1, 11):
            row = family_row("B", n + 1)
            eb = family_row("eulerianB", n)
            assert {l: v for (k, l), v in row.items() if k == 1} == {
                l: v for (l,), v in eb.items() if v
            }


class TestAssemble:
    def test_type_b_row_specialized(self):
        got = assemble("B", 3).subs({"y": 1, "z": 1})
        assert got == parse("x + 3*x^2 + 7*x^3 + 3*x^4 + x^5")

    def test_rising_factorial_specialization(self):
        for n in range(1, 9):
            got = assemble("A", n).subs({"x": 1, "y": 1})
            assert got == rising_factorial("z", n)

    def test_lah_closed_form(self):
        for n in range(1, 11):
            got = assemble("a", n).subs({"x": 1, "y": 1})
            want = Polynomial()
            for k in range(1, n + 1):
                lah = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
                want = want + mono(lah, z=k)
            assert got == want

    def test_univariate_goldens(self):
        assert assemble("eulerian-x", 3) == parse("x + 4*x^2 + x^3")
        assert assemble("type-b-x", 2) == parse("1 + 6*x + x^2")
        assert assemble("second-order-x", 2) == parse("x + 2*x^2")
        assert assemble("updown-run-x", 2) == parse("x + x^2")
        assert assemble("flag-ascent-plateau-x", 2) == parse("x + x^2 + x^3")

    def test_trivariate_second_order_golden(self):
        want = x * y ** 2 * z ** 2 + x ** 2 * y * z ** 2 + x ** 2 * y ** 2 * z
        assert assemble("second-order-xyz", 2) == want

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            assemble("no-such-polynomial", 3)

    def test_levels_below_the_first_raise(self):
        with pytest.raises(ValueError, match="level -1 is below the first level 0"):
            ctilde_xx(-1)
        with pytest.raises(ValueError, match="level must be nonnegative"):
            assemble("A", -1)

    def test_rising_factorial_rejects_negative_level(self):
        assert rising_factorial("z", 0) == ONE
        with pytest.raises(ValueError):
            rising_factorial("z", -2)


class TestAssembledRecurrences:
    def test_binary_family_rows(self):
        prev = ONE
        for n in range(7):
            cur = assemble("A", n + 1)
            assert cur == x * (n + z) * prev + x * (y - x) * prev.diff("x")
            prev = cur

    def test_type_b_family_rows(self):
        prev = ONE
        for n in range(7):
            cur = assemble("B", n + 1)
            step = (x * y * z + 2 * n * x ** 2) * prev
            step = step + x * (y ** 2 - x ** 2) * prev.diff("x")
            assert cur == step
            prev = cur

    def test_half_square_family_rows(self):
        prev = ONE
        for n in range(7):
            cur = assemble("E", n + 1)
            step = (x * z + 2 * n * x ** 2) * prev
            step = step + x * (y ** 2 - x ** 2) * prev.diff("x")
            step = step - x ** 2 * z * prev.diff("z")
            assert cur == step
            prev = cur

    def test_updown_family_rows(self):
        # The step mixes in x/y and x^2/y^2; Laurent monomials express it.
        prev = ONE
        for n in range(7):
            cur = assemble("W", n + 1)
            step = x * (z + n * mono(1, x=1, y=-1)) * prev
            step = step + x * y * (1 - mono(1, x=2, y=-2)) * prev.diff("x")
            assert cur == step
            prev = cur


class TestSpecializations:
    def test_updown_rows_collapse_to_rising_factorial(self):
        for n in range(1, 10):
            got = assemble("W", n).subs({"x": 1, "y": 1})
            assert got == rising_factorial("z", n)

    def test_updown_rows_homogenize_run_polynomial(self):
        for n in range(1, 9):
            t = assemble("updown-run-x", n)
            want = Polynomial()
            for m, c in t.terms():
                l = dict(m).get("x", 0)
                want = want + mono(c, x=l, y=n - l)
            assert assemble("W", n).subs({"z": 1}) == want

    def test_half_square_rows_give_bessel(self):
        for n in range(1, 11):
            got = assemble("E", n).subs({"x": 1, "y": 1})
            assert got == bessel_polynomial(n)

    def test_flag_rows_match_type_b(self):
        for n in range(1, 8):
            got = assemble("B", n).subs({"y": 1, "z": 1})
            assert got == assemble("flag-ascent-plateau-x", n)


class TestDiagonalSums:
    def test_recurrence_reproduces_diagonal(self):
        prev = ONE
        assert ctilde_xx(0) == prev
        for m in range(8):
            step = (x * z + 2 * m * x ** 2) * prev - x ** 2 * z * prev.diff("z")
            assert ctilde_xx(m + 1) == step
            prev = step

    def test_closed_form_in_bessel_numbers(self):
        for n in range(11):
            want = Polynomial()
            for (j,), b in family_row("bessel", n).items():
                want = want + mono(b, x=n + 1 + j, z=n + 1 - j)
            assert ctilde_xx(n + 1) == want

    def test_bessel_numbers_closed_form(self):
        for n in range(11):
            row = family_row("bessel", n)
            for j in range(n + 1):
                num = math.factorial(n + j)
                den = 2 ** j * math.factorial(n - j) * math.factorial(j)
                assert row[(j,)] * den == num

    def test_matches_second_order_rows(self):
        for n in range(9):
            want = assemble("Ct", n).subs({"y": x})
            assert ctilde_xx(n) == want


def _asymmetric(f: Polynomial, symbols: str) -> bool:
    """Reference symmetry test: some adjacent transposition of the symbols changes f."""
    # The adjacent transpositions generate every permutation of the symbols.
    return any(f.subs({s: variable(t), t: variable(s)}) != f for s, t in zip(symbols, symbols[1:]))


def _symmetrised(f: Polynomial, symbols: str) -> Polynomial:
    """The sum of f over every permutation of the symbols."""
    perms = itertools.permutations(symbols)
    return sum((f.subs(dict(zip(symbols, map(variable, p)))) for p in perms), Polynomial())


def _random_terms(rng: random.Random, degrees) -> Polynomial:
    """One to four terms with coefficients in -3..3, each monomial drawn by ``degrees()``."""
    return sum((rng.randint(-3, 3) * mono(1, **degrees()) for _ in range(rng.randint(1, 4))),
               Polynomial())


class TestGammaExpand:
    def test_single_slice(self):
        f = x * y ** 3 + 4 * x ** 2 * y ** 2 + x ** 3 * y
        got = gamma_expand(f * z)
        assert got == {(1, 1): 1, (1, 2): 2}

    def test_negative_coefficients_reported(self):
        assert gamma_expand(x ** 2 + y ** 2) == {(0, 0): 1, (0, 1): -2}

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            gamma_expand(x ** 2 + x * y)

    def test_rejects_non_homogeneous_slice(self):
        with pytest.raises(ValueError):
            gamma_expand(x ** 2 + y ** 2 + x + y)

    def test_rejects_negative_powers_of_z(self):
        with pytest.raises(ValueError, match="negative power of 'z'"):
            gamma_expand(x * y * z ** -1)

    def test_matches_gamma_triangle(self):
        for n in range(1, 9):
            assert gamma_expand(assemble("a", n)) == family_row("gamma", n)

    def test_reconstruction(self):
        for n in range(1, 7):
            f = assemble("a", n)
            rebuilt = Polynomial()
            for (k, l), g in gamma_expand(f).items():
                d = n + k
                rebuilt = rebuilt + g * mono(1, z=k) * (x * y) ** l * (x + y) ** (d - 2 * l)
            assert rebuilt == f

    def test_matches_recorded_digest(self):
        # sha256 recorded from the expansion before it shared the elementary peel.
        got = [(n, sorted(gamma_expand(assemble("a", n)).items())) for n in range(11)]
        assert _digest(got) == "967419adb29606297dcefc7f48cf74063e38d0718c9e8482670fe261839979f9"

    def test_checks_the_basis_of_a_polynomial_without_slices(self):
        # The zero polynomial has no slices, so it expands to nothing.
        assert gamma_expand(Polynomial()) == {}

    def test_rejects_other_symbols(self):
        with pytest.raises(ValueError, match=r"slice at z\^1 involves symbols outside the basis"):
            gamma_expand((x + y) * variable("w") * z)

    def test_peel_decides_symmetry(self):
        # Random z-slices, each homogeneous in x and y, half of them symmetrised:
        # gamma_expand raises for the first slice a swap of x and y changes,
        # and otherwise its expansion rebuilds f.
        rng = random.Random(21)
        outcomes = set()
        for i in range(300):
            f = Polynomial()
            for k in rng.sample(range(4), rng.randint(1, 3)):
                d = rng.randint(0, 4)
                g = _random_terms(rng, lambda: {"x": (a := rng.randint(0, d)), "y": d - a})
                f = f + (_symmetrised(g, "xy") if i % 2 else g) * z ** k
            slices = f.slices("z")
            bad = [k for k, g in slices.items() if _asymmetric(g, "xy")]
            outcomes.add(bool(bad))
            if bad:
                with pytest.raises(ValueError) as err:
                    gamma_expand(f)
                assert str(err.value) == f"slice at z^{bad[0]} is not symmetric in x, y", f
                continue
            rebuilt = Polynomial()
            for (k, l), c in gamma_expand(f).items():
                d = slices[k].homogeneous_degree()
                rebuilt = rebuilt + c * z ** k * (x * y) ** l * (x + y) ** (d - 2 * l)
            assert rebuilt == f
        assert outcomes == {False, True}


class TestEExpand:
    def test_product_basis_element(self):
        assert e_expand(x * y * z) == {(0, 0, 1): 1}

    def test_trivariate_row(self):
        f = x * y ** 2 * z ** 2 + x ** 2 * y * z ** 2 + x ** 2 * y ** 2 * z
        assert e_expand(f) == {(0, 1, 1): 1}

    def test_power_sum(self):
        got = e_expand(x ** 2 + y ** 2 + z ** 2)
        assert got == {(2, 0, 0): 1, (0, 1, 0): -2}

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            e_expand(x + y)

    def test_reconstruction(self):
        e1 = x + y + z
        e2 = x * y + x * z + y * z
        e3 = x * y * z
        f = (e1 ** 2 * e2 - 3 * e3 * e1) * 5 + e2 ** 3
        got = e_expand(f)
        rebuilt = Polynomial()
        for (i, j, k), c in got.items():
            rebuilt = rebuilt + c * e1 ** i * e2 ** j * e3 ** k
        assert rebuilt == f

    def test_matches_recorded_digest(self):
        # sha256 recorded from the expansion before it shared the peel with gamma_expand.
        g = normord.Grammar.preset("full-ternary")
        got = []
        for n in range(1, 9):
            nf = normord.normal_order_power(x * y * z, g, n)
            for k in range(1, n + 1):
                got.append(((n, k), sorted(e_expand(nf.coefficient(k)).items())))
        assert _digest(got) == "562180c9d3d2e65db1ca75c4d41a34b113e0eef4319a5f98ed33fa2165766ab1"

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError, match="negative exponents"):
            e_expand(x ** -1 + y ** -1 + z ** -1)

    def test_peel_decides_symmetry(self):
        # Random polynomials in x, y, z, half of them symmetrised: e_expand
        # raises exactly when a transposition changes f, and otherwise its
        # expansion rebuilds f.
        rng = random.Random(21)
        e1, e2, e3 = x + y + z, x * y + x * z + y * z, x * y * z
        outcomes = set()
        for i in range(300):
            f = _random_terms(rng, lambda: {s: rng.randint(0, 3) for s in "xyz"})
            if i % 2:
                f = _symmetrised(f, "xyz")
            asymmetric = _asymmetric(f, "xyz")
            outcomes.add(asymmetric)
            if asymmetric:
                with pytest.raises(ValueError) as err:
                    e_expand(f)
                assert str(err.value) == "input is not symmetric in x, y, z", f
                continue
            rebuilt = Polynomial()
            for (i1, i2, i3), c in e_expand(f).items():
                rebuilt = rebuilt + c * e1 ** i1 * e2 ** i2 * e3 ** i3
            assert rebuilt == f
        assert outcomes == {False, True}
