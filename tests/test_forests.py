"""Increasing plane forests with typed leaf slots."""

from __future__ import annotations

import hashlib

import pytest

from normord import (
    Grammar,
    Polynomial,
    family_row,
    grow_forests,
    mono,
    normal_order_power,
    variable,
)
from normord.checks import _forest_poly
from normord.forests import census
from normord.poly import ONE


def forest_rows(flavor: str, n: int):
    """(encoding, tree count, x/y/z leaf counts) of each forest of the flavor on [n].

    This is what ``normord enumerate`` prints of a forest, read by one census.
    """
    for word in grow_forests(flavor, n):
        x, y, z, k = census(word)
        yield word, k, (x, y, z)


def tally_by_slot_and_x(flavor: str, n: int) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for _, k, leaves in forest_rows(flavor, n):
        key = (k, leaves[0])
        out[key] = out.get(key, 0) + 1
    return out


class TestBasics:
    def test_empty_input(self):
        assert list(forest_rows("binary", 0)) == [("", 0, (0, 0, 0))]

    @pytest.mark.parametrize(
        "flavor,encoded,leaves",
        [
            ("binary", "1(x)", (1, 0, 0)),
            ("full-binary", "1(x,y)", (1, 1, 0)),
            ("ternary", "1(x)", (1, 0, 0)),
            ("full-ternary", "1(x,y,z)", (1, 1, 1)),
        ],
    )
    def test_single_vertex(self, flavor, encoded, leaves):
        assert list(forest_rows(flavor, 1)) == [(encoded, 1, leaves)]

    def test_component_count_matches_encoding(self):
        for word, k, _ in forest_rows("binary", 4):
            assert word.count(" + ") + 1 == k

    def test_encodings_unique(self):
        for flavor, n in [
            ("binary", 6),
            ("full-binary", 5),
            ("ternary", 5),
            ("full-ternary", 4),
        ]:
            seen = list(grow_forests(flavor, n))
            assert len(seen) == len(set(seen))

    def test_unknown_flavor(self):
        with pytest.raises(KeyError):
            next(grow_forests("septenary", 2))

    def test_raw_walk_yields_encodings(self):
        assert list(grow_forests("binary", 2)) == ["1(2(x,y))", "1(x) + 2(x)"]

    def test_census_counts_leaves_then_trees(self):
        assert census("") == (0, 0, 0, 0)
        assert census("1(x,2(x,y,z)) + 3(y,y,z)") == (2, 3, 2, 2)

    def test_errors_raise_when_called(self):
        # The flavor and the cap are checked before the walk is returned.
        with pytest.raises(KeyError, match="septenary"):
            grow_forests("septenary", 2)
        with pytest.raises(ValueError, match="binary-forests"):
            grow_forests("binary", 10)

    def test_caps(self):
        with pytest.raises(ValueError):
            next(grow_forests("binary", 10))
        with pytest.raises(ValueError):
            next(grow_forests("ternary", 8))

    def test_non_int_size_raises_when_called(self):
        # Called only, never iterated: a walk to a size of 2.5 would not end.
        for flavor in ("binary", "full-binary", "ternary", "full-ternary"):
            with pytest.raises(TypeError, match="size must be an int, got float"):
                grow_forests(flavor, 2.5)


# sha256 over one "encoding<TAB>k<TAB>x,y,z" line per forest for n = 0..n_max:
# pins the growth order and every record past the n <= 5 of the CLI digests.
GROWTH_DIGESTS = [
    ("binary", 7, "c7a7a65e5fa9d08186d684bc09830fbe9d4c3562c0e763b1a07fddf3f50c3a11"),
    ("full-binary", 6, "646193f677ebb3b34236e7e0a8b9f90a5557e1d2dc33c1a11969662841dfacd7"),
    ("ternary", 7, "4960e28755d1b4fbb5195f1f9643d000d3f760c7c7a32e0d5f736c28f9fce2f6"),
    ("full-ternary", 6, "5a92b21616e7b8b9d58928f59e506b2efacbaba9216fe48bca3dd6c7461f6cc5"),
]


@pytest.mark.parametrize("flavor,n_max,want", GROWTH_DIGESTS)
def test_growth_order_digest(flavor, n_max, want):
    h = hashlib.sha256()
    for n in range(n_max + 1):
        for word, k, leaves in forest_rows(flavor, n):
            h.update(f"{word}\t{k}\t{','.join(map(str, leaves))}\n".encode())
    assert h.hexdigest() == want


class TestTriangleTallies:
    def test_binary(self):
        for n in range(1, 7):
            assert tally_by_slot_and_x("binary", n) == family_row("A", n)

    def test_full_binary(self):
        for n in range(1, 6):
            assert tally_by_slot_and_x("full-binary", n) == family_row("a", n)

    def test_ternary(self):
        for n in range(1, 6):
            assert tally_by_slot_and_x("ternary", n) == family_row("C", n)

    def test_leaf_degrees_are_consistent(self):
        # Total slot weight per flavor: n for binary, n+k for full binary,
        # 2n-k for ternary, 2n+k for full ternary.
        for n in range(1, 5):
            for _, k, leaves in forest_rows("binary", n):
                assert sum(leaves) == n
            for _, k, leaves in forest_rows("full-binary", n):
                assert sum(leaves) == n + k
            for _, k, leaves in forest_rows("ternary", n):
                assert sum(leaves) == 2 * n - k
            for _, k, leaves in forest_rows("full-ternary", n):
                assert sum(leaves) == 2 * n + k


class TestOperatorTallies:
    @pytest.mark.parametrize(
        "flavor,multiplier,preset,n_max",
        [
            ("binary", "x", "eulerian-xy", 6),
            ("full-binary", "x*y", "eulerian-full", 5),
            ("ternary", "x", "second-order", 5),
            ("full-ternary", "x*y*z", "full-ternary", 4),
        ],
    )
    def test_weights_equal_normal_order_coefficients(
        self, flavor, multiplier, preset, n_max
    ):
        w = ONE
        for s in multiplier.split("*"):
            w = w * variable(s)
        g = Grammar.preset(preset)
        for n in range(1, n_max + 1):
            sums: dict[int, Polynomial] = {}
            for _, k, (lx, ly, lz) in forest_rows(flavor, n):
                sums[k] = sums.get(k, Polynomial()) + mono(1, x=lx, y=ly, z=lz)
            nf = normal_order_power(w, g, n)
            for k in range(1, n + 1):
                assert sums.get(k, Polynomial()) == nf.coefficient(k)


class TestTallyPath:
    @pytest.mark.parametrize("flavor", ["binary", "full-binary", "ternary", "full-ternary"])
    def test_census_tally_matches_views(self, flavor):
        # The checks tally census keys; here each forest adds its own monomial.
        for n in range(6):
            want = Polynomial()
            for _, k, (lx, ly, lz) in forest_rows(flavor, n):
                want = want + mono(1, x=lx, y=ly, z=lz, q=k)
            assert _forest_poly(flavor, n, ("x", "y", "z", "q")) == want, n
