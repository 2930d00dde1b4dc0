"""Brute-force enumeration of words, partitions, and their statistics."""

from __future__ import annotations

import hashlib
import math
from functools import partial

import pytest

from normord import (
    Polynomial,
    assemble,
    family_row,
    grow_forests,
    list_partitions,
    mono,
    parse,
    permutations,
    signed_permutations,
    stat_polynomial,
    stirling_lists,
    stirling_permutations,
    variable,
)
from normord import combinat
from normord.cli import _object_id
from normord.combinat import (
    CAPS,
    SCANS,
    cycle_descents,
    grow,
    stat_keys,
    standard_cycles,
    tally,
    type_b_descents,
    updown_runs,
)
from normord.triangles import row_polynomial

# Each statistic-bearing kind with a size small enough for object-by-object tests.
KINDS = (
    ("permutations", 5),
    ("signed-permutations", 4),
    ("stirling-permutations", 4),
    ("list-partitions", 4),
    ("stirling-lists", 3),
)


def objects(kind: str, n: int) -> list[tuple]:
    """The raw objects of ``kind`` on [n], in enumeration order."""
    return list(combinat._ENUMERATORS[kind](n))


def stats(kind: str, obj: tuple) -> dict[str, int]:
    """Every statistic of one raw object, read through its kind's scans."""
    return {name: scan(obj) for name, scan in SCANS[kind].items()}


def double_factorial_odd(n: int) -> int:
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


class TestCounts:
    def test_permutations(self):
        for n in range(7):
            assert sum(1 for _ in permutations(n)) == math.factorial(n)

    def test_signed_permutations(self):
        for n in range(5):
            assert sum(1 for _ in signed_permutations(n)) == 2 ** n * math.factorial(n)

    def test_stirling_permutations(self):
        for n in range(6):
            assert sum(1 for _ in stirling_permutations(n)) == double_factorial_odd(n)

    def test_list_partitions(self):
        # Row sums of the Lah triangle.
        for n in range(1, 7):
            want = sum(
                math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
                for k in range(1, n + 1)
            )
            assert sum(1 for _ in list_partitions(n)) == want

    def test_object_ids_unique(self):
        for kind, n in KINDS:
            ids = [_object_id(obj) for obj in objects(kind, n)]
            assert len(ids) == len(set(ids))


# sha256 over one "object id<TAB>name=value ..." line per object (stats sorted
# by name) for n = 0..n_max: pins the enumeration order and every statistic.
ENUMERATION_DIGESTS = [
    ("permutations", 7, "96f2d772cde292979b73692944c65f1c5970bae0de22661a18e1a1aea99c5286"),
    ("signed_permutations", 5, "63513ae5dff20b0944bc75a983da1865b0bc174902870130cc871db5ea0c0d51"),
    ("stirling_permutations", 6, "7f5c734006d9f82ac951d6cf46f97e3c45d71241406792e0cbd70d056ed46eb1"),
    ("list_partitions", 6, "d1bb17f534e85b2e285a791cb8c2b158ea827040598792f29fb699614ab652bf"),
    ("stirling_lists", 4, "43498905e0eb8646372c0dbb34a820f35250f18fd8b5caa1ff4b2a6f09497ad0"),
]


@pytest.mark.parametrize("name,n_max,want", ENUMERATION_DIGESTS)
def test_enumeration_digest(name, n_max, want):
    h = hashlib.sha256()
    for n in range(n_max + 1):
        kind = name.replace("_", "-")
        for obj in objects(kind, n):
            shown = " ".join(f"{k}={v}" for k, v in sorted(stats(kind, obj).items()))
            h.update(f"{_object_id(obj)}\t{shown}\n".encode())
    assert h.hexdigest() == want


class TestGrow:
    def test_depth_first_preorder(self):
        words = grow("", 3, lambda word, i: (word + c for c in "ab"[: i + 1]))
        assert list(words) == ["aaa", "aab", "aba", "abb"]

    def test_zero_steps_yield_the_start(self):
        assert list(grow("s", 0, lambda obj, i: ())) == ["s"]

    def test_a_step_without_children_ends_its_branch(self):
        assert list(grow(0, 2, lambda obj, i: () if obj == 1 else (obj + 1, obj + 2))) == [3, 4]

    def test_negative_steps_raise(self):
        with pytest.raises(ValueError):
            list(grow(0, -1, lambda obj, i: (obj + 1,)))

    def test_non_int_steps_raise(self):
        # A walk that missed its last insertion would step past it; stop it there.
        def children(obj, i):
            if i > 3:
                raise RuntimeError("walked past the last insertion")
            return (obj + 1,)

        for steps in (1.5, 2.0):
            with pytest.raises(TypeError, match="steps must be an int, got float"):
                list(grow(0, steps, children))

    def test_deep_walk_needs_no_recursion(self):
        assert list(grow(0, 5000, lambda obj, i: (obj + 1,))) == [5000]


class TestCaps:
    @pytest.mark.parametrize(
        "gen,over",
        [
            (permutations, 10),
            (signed_permutations, 8),
            (stirling_permutations, 8),
            (list_partitions, 8),
            (stirling_lists, 6),
        ],
    )
    def test_default_caps(self, gen, over):
        with pytest.raises(ValueError):
            next(gen(over))

    @pytest.mark.parametrize("kind", sorted(SCANS))
    def test_non_int_size_raises_when_called(self, kind):
        # Called only, never iterated: a walk to a size of 1.5 would not end.
        for n in (1.5, 2.0):
            with pytest.raises(TypeError, match="size must be an int, got float"):
                combinat._ENUMERATORS[kind](n)

    @pytest.mark.parametrize("kind", sorted(SCANS))
    def test_negative_size_raises_when_called(self, kind):
        with pytest.raises(ValueError, match="size must be nonnegative"):
            combinat._ENUMERATORS[kind](-1)

    @pytest.mark.parametrize("kind", sorted(CAPS))
    def test_lowered_entry_is_the_cap(self, kind, monkeypatch):
        # CAPS is the only cap, read when each enumerator is called.
        if kind in SCANS:
            walk = combinat._ENUMERATORS[kind]
        else:
            walk = partial(grow_forests, kind.removesuffix("-forests"))
        default = list(walk(2))
        monkeypatch.setitem(CAPS, kind, 2)
        with pytest.raises(ValueError, match=rf"^{kind} enumeration capped at n = 2 \(requested 3\)$"):
            walk(3)
        assert list(walk(2)) == default

    def test_tallies_read_a_lowered_entry(self, monkeypatch):
        monkeypatch.setitem(CAPS, "permutations", 2)
        with pytest.raises(ValueError, match=r"capped at n = 2 \(requested 3\)"):
            stat_polynomial("permutations", 3, {"des": "x"})
        assert stat_polynomial("permutations", 2, {"des": "x"}) == 1 + variable("x")


class TestSmallRecords:
    def test_single_permutation(self):
        (word,) = objects("permutations", 1)
        assert stats("permutations", word) == {"des": 0, "exc": 0, "cyc": 1, "cdes": 0, "udrun": 1}

    def test_empty_permutation(self):
        (word,) = objects("permutations", 0)
        assert stats("permutations", word)["udrun"] == 0

    def test_single_stirling_permutation(self):
        (word,) = objects("stirling-permutations", 1)
        assert word == (1, 1)
        assert stats("stirling-permutations", word) == {
            "asc": 1, "des": 1, "plat": 1, "ap": 0, "fap": 1}

    def test_single_list(self):
        (blocks,) = objects("list-partitions", 1)
        s = stats("list-partitions", blocks)
        assert s["blocks"] == 1
        assert s["asc"] == 1
        assert s["des"] == 1

    def test_list_ascents_and_descents_are_padded(self):
        # Each block is read as 0, block..., 0; an ascent or descent is an
        # adjacent pair of that padded word that rises or falls.
        def padded(blocks, rises):
            count = 0
            for block in blocks:
                seq = (0, *block, 0)
                count += sum(1 for a, b in zip(seq, seq[1:]) if (a < b if rises else a > b))
            return count

        scans = SCANS["list-partitions"]
        for n in range(6):
            for blocks in objects("list-partitions", n):
                assert scans["asc"](blocks) == padded(blocks, True), blocks
                assert scans["des"](blocks) == padded(blocks, False), blocks

    def test_stirling_permutations_of_order_two(self):
        words = set(objects("stirling-permutations", 2))
        assert words == {(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)}

    def test_stirling_lists_of_order_two(self):
        blocks = SCANS["stirling-lists"]["blocks"]
        assert {obj: blocks(obj) for obj in objects("stirling-lists", 2)} == {
            ((1, 1, 2, 2),): 1, ((1, 2, 2, 1),): 1, ((2, 2, 1, 1),): 1, ((1, 1), (2, 2)): 2}

    def test_signed_order_one(self):
        des_b = SCANS["signed-permutations"]["des_b"]
        assert {word: des_b(word) for word in objects("signed-permutations", 1)} == {
            (1,): 0, (-1,): 1}

    def test_signed_order_two_sequence(self):
        assert objects("signed-permutations", 2) == [
            (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)]


class TestLazyRecords:
    def test_stats_build_cycle_form_once_per_word(self):
        combinat._word_cycles.cache_clear()
        for word in permutations(4):
            stats("permutations", word)
        info = combinat._word_cycles.cache_info()
        assert (info.misses, info.hits) == (24, 24)

    def test_stat_polynomial_scans_only_assigned(self, monkeypatch):
        scans = SCANS["stirling-permutations"]
        fap = scans["fap"]
        calls = []

        def counted(word):
            calls.append(word)
            return fap(word)

        def unassigned(word):
            raise AssertionError("an unassigned statistic was scanned")

        for name in scans:
            monkeypatch.setitem(scans, name, unassigned)
        monkeypatch.setitem(scans, "fap", counted)
        got = stat_polynomial("stirling-permutations", 3, {"fap": "x"})
        assert got == assemble("flag-ascent-plateau-x", 3)
        assert len(calls) == 15


class TestStatisticValues:
    def test_cycle_descent_example(self):
        word = (4, 1, 5, 2, 7, 9, 3, 6, 8)
        assert standard_cycles(word) == ((1, 4, 2), (3, 5, 7), (6, 9, 8))
        assert cycle_descents(word) == 2

    def test_standard_cycle_form_sorted_by_minima(self):
        word = (3, 4, 1, 2)
        assert standard_cycles(word) == ((1, 3), (2, 4))

    def test_updown_runs_prepend_zero(self):
        assert updown_runs((2, 1, 3)) == 3
        assert updown_runs((1, 2)) == 1
        assert updown_runs((2, 1)) == 2
        assert updown_runs(()) == 0

    def test_type_b_descent_counts_position_zero(self):
        assert type_b_descents((1,)) == 0
        assert type_b_descents((-1,)) == 1
        assert type_b_descents((-2, -1)) == 1
        assert type_b_descents((2, 1)) == 1

    def test_permutation_invariant(self):
        for n in range(7):
            for word in permutations(n):
                s = stats("permutations", word)
                assert s["exc"] + s["cdes"] + s["cyc"] == n

    @pytest.mark.parametrize("kind", sorted(SCANS))
    def test_scans_return_plain_ints(self, kind):
        # normord enumerate writes each statistic through a %d slot, where a
        # bool would print 1 for json's true.
        for n in range(min(5, CAPS[kind]) + 1):
            for obj in objects(kind, n):
                for name, scan in SCANS[kind].items():
                    assert type(scan(obj)) is int, (kind, obj, name)


class TestDistributions:
    def test_descents_and_excedances_agree(self):
        for n in range(1, 8):
            assert stat_polynomial("permutations", n, {"des": "x"}) == stat_polynomial(
                "permutations", n, {"exc": "x"}
            )

    def test_descent_polynomial(self):
        got = stat_polynomial("permutations", 3, {"des": "x"}) * variable("x")
        assert got == assemble("eulerian-x", 3)

    def test_cycle_polynomial_matches_recurrence(self):
        # Row n of the A triangle, entry (k, l) at x^(n-l) * q^k, equals the enumeration.
        for n in range(1, 8):
            got = Polynomial()
            for word in permutations(n):
                s = stats("permutations", word)
                got = got + mono(1, x=s["exc"], q=s["cyc"])
            assert got == row_polynomial("A", n, {"x": (1, 0, -1, 0), "q": (0, 1, 0, 0)})

    def test_type_b_descent_polynomial(self):
        for n in range(1, 6):
            got = stat_polynomial("signed-permutations", n, {"des_b": "x"})
            assert got == assemble("type-b-x", n)

    def test_stirling_trivariate(self):
        got = stat_polynomial(
            "stirling-permutations", 2, {"asc": "x", "des": "y", "plat": "z"}
        )
        assert got == parse("x*y^2*z^2 + x^2*y*z^2 + x^2*y^2*z")

    def test_stirling_slots_equidistributed(self):
        for n in range(1, 6):
            a = stat_polynomial("stirling-permutations", n, {"asc": "x"})
            d = stat_polynomial("stirling-permutations", n, {"des": "x"})
            p = stat_polynomial("stirling-permutations", n, {"plat": "x"})
            assert a == d == p == assemble("second-order-x", n)

    def test_flag_ascent_plateau_polynomial(self):
        for n in range(1, 6):
            got = stat_polynomial("stirling-permutations", n, {"fap": "x"})
            assert got == assemble("flag-ascent-plateau-x", n)

    def test_updown_run_polynomial(self):
        for n in range(1, 7):
            got = stat_polynomial("permutations", n, {"udrun": "x"})
            assert got == assemble("updown-run-x", n)

    def test_list_partition_joint_distribution(self):
        for n in range(1, 6):
            tally: dict[tuple[int, int], int] = {}
            for blocks in list_partitions(n):
                s = stats("list-partitions", blocks)
                key = (s["blocks"], s["asc"])
                tally[key] = tally.get(key, 0) + 1
            assert tally == family_row("a", n)

    def test_valley_statistics_match_gamma(self):
        for n in range(1, 6):
            tally: dict[tuple[int, int], int] = {}
            for blocks in list_partitions(n):
                s = stats("list-partitions", blocks)
                if s["dd"]:
                    continue
                key = (s["blocks"], s["blocks"] + s["val"])
                tally[key] = tally.get(key, 0) + 1
            assert tally == family_row("gamma", n)


class TestStatPolynomial:
    def test_missing_statistic(self):
        with pytest.raises(KeyError) as exc:
            stat_polynomial("permutations", 2, {"nope": "x"})
        assert exc.value.args[0] == (
            "no statistic 'nope' on permutations; known: des, exc, cyc, cdes, udrun"
        )

    def test_multi_symbol(self):
        got = stat_polynomial("permutations", 2, {"des": "x", "cyc": "q"})
        assert got == parse("q^2 + x*q")

    def test_tally_repeated_symbol_sums_exponents(self):
        assert tally([(1, 2), (2, 1), (0, 0)], ("x", "x")) == parse("2*x^3 + 1")

    def test_tally_zero_exponents_drop_out(self):
        assert tally([(0, 2), (0, 2), (1, 0)], ("x", "y")) == parse("2*y^2 + x")

    def test_tally_empty_is_zero(self):
        assert tally([], ("x",)).is_zero

    def test_tally_rejects_key_of_other_length(self):
        for key in [(1, 2, 3), (1,)]:
            with pytest.raises(ValueError):
                tally([key], ("x", "y"))


def record_tally(kind: str, n: int, assignment: dict[str, str]) -> Polynomial:
    """The tally of ``assignment`` built object by object from the raw walk."""
    scans = SCANS[kind]
    got = Polynomial()
    for obj in objects(kind, n):
        exponents: dict[str, int] = {}
        for name, symbol in assignment.items():
            exponents[symbol] = exponents.get(symbol, 0) + scans[name](obj)
        got = got + mono(1, **exponents)
    return got


class TestTallyPath:
    @pytest.mark.parametrize("kind", sorted(SCANS))
    def test_each_statistic_matches_the_records(self, kind):
        for name in SCANS[kind]:
            for n in range(6):
                want = record_tally(kind, n, {name: "x"})
                assert stat_polynomial(kind, n, {name: "x"}) == want, (name, n)

    @pytest.mark.parametrize("kind", sorted(SCANS))
    def test_every_statistic_at_once_matches_the_records(self, kind):
        assignment = {name: f"s{i}" for i, name in enumerate(SCANS[kind])}
        for n in range(6):
            assert stat_polynomial(kind, n, assignment) == record_tally(kind, n, assignment), n

    def test_stat_keys_follow_the_record_order(self):
        for kind, n in KINDS:
            names = tuple(SCANS[kind])
            want = [tuple(stats(kind, obj).values()) for obj in objects(kind, n)]
            assert list(stat_keys(kind, n, names)) == want, kind

    @pytest.mark.parametrize("kind", sorted(SCANS))
    def test_over_cap_raises_when_called(self, kind):
        over = CAPS[kind] + 1
        for call in (
            lambda: stat_polynomial(kind, over, {next(iter(SCANS[kind])): "x"}),
            lambda: stat_keys(kind, over, ()),
            lambda: combinat._ENUMERATORS[kind](over),
        ):
            with pytest.raises(ValueError, match=f"{kind} enumeration capped at n = {CAPS[kind]}"):
                call()

    def test_unknown_kind_is_named(self):
        with pytest.raises(KeyError, match="'necklaces'"):
            stat_polynomial("necklaces", 3, {"des": "x"})
        # Forests have no statistic scans.
        with pytest.raises(KeyError, match="'binary-forests'"):
            stat_keys("binary-forests", 3, ("des",))

    def test_unknown_statistic_is_named_when_called(self):
        with pytest.raises(KeyError, match="'nope' on stirling-lists"):
            stat_keys("stirling-lists", 2, ("asc", "nope"))
