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
    records,
    variable,
)
from normord.checks import _forest_poly
from normord.forests import census


def views(flavor: str, n: int):
    """The Forest view of each forest of the flavor on [n], as ``normord enumerate`` reads them."""
    return records(f"{flavor}-forests", n)


def tally_by_slot_and_x(flavor: str, n: int) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for f in views(flavor, n):
        key = (f.k, f.leaf_count("x"))
        out[key] = out.get(key, 0) + 1
    return out


class TestBasics:
    def test_empty_input(self):
        (f,) = views("binary", 0)
        assert f.k == 0
        assert f.leaves == (0, 0, 0)
        assert f.encode() == ""

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
        (f,) = views(flavor, 1)
        assert f.encode() == encoded
        assert f.leaves == leaves
        assert f.k == 1

    def test_component_count_matches_encoding(self):
        for f in views("binary", 4):
            assert f.encode().count(" + ") + 1 == f.k

    def test_leaf_count_accessor(self):
        for f in views("full-ternary", 3):
            assert (
                f.leaf_count("x"),
                f.leaf_count("y"),
                f.leaf_count("z"),
            ) == f.leaves

    def test_leaf_count_rejects_other_letters(self):
        (f,) = views("full-ternary", 1)
        with pytest.raises(ValueError):
            f.leaf_count("w")

    def test_encodings_unique(self):
        for flavor, n in [
            ("binary", 6),
            ("full-binary", 5),
            ("ternary", 5),
            ("full-ternary", 4),
        ]:
            seen = [f.encode() for f in views(flavor, n)]
            assert len(seen) == len(set(seen))

    def test_unknown_flavor(self):
        with pytest.raises(KeyError):
            next(grow_forests("septenary", 2))

    def test_raw_walk_yields_encodings(self):
        assert list(grow_forests("binary", 2)) == ["1(2(x,y))", "1(x) + 2(x)"]
        assert [f.encode() for f in views("binary", 2)] == list(grow_forests("binary", 2))

    def test_census_counts_leaves_then_trees(self):
        assert census("") == (0, 0, 0, 0)
        assert census("1(x,2(x,y,z)) + 3(y,y,z)") == (2, 3, 2, 2)

    def test_errors_raise_when_called(self):
        # The flavor and the cap are checked before the walk is returned.
        with pytest.raises(KeyError, match="septenary"):
            grow_forests("septenary", 2)
        with pytest.raises(ValueError, match="binary-forests"):
            grow_forests("binary", 10)
        with pytest.raises(KeyError, match="septenary-forests"):
            records("septenary-forests", 2)

    def test_caps(self):
        with pytest.raises(ValueError):
            next(grow_forests("binary", 10))
        with pytest.raises(ValueError):
            next(grow_forests("ternary", 8))
        with pytest.raises(ValueError):
            next(grow_forests("binary", 5, cap=4))


# sha256 over one "encode()<TAB>k<TAB>x,y,z" line per forest for n = 0..n_max:
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
        for f in views(flavor, n):
            h.update(f"{f.encode()}\t{f.k}\t{','.join(map(str, f.leaves))}\n".encode())
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
            for f in views("binary", n):
                assert sum(f.leaves) == n
            for f in views("full-binary", n):
                assert sum(f.leaves) == n + f.k
            for f in views("ternary", n):
                assert sum(f.leaves) == 2 * n - f.k
            for f in views("full-ternary", n):
                assert sum(f.leaves) == 2 * n + f.k


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
        w = Polynomial.one()
        for s in multiplier.split("*"):
            w = w * variable(s)
        g = Grammar.preset(preset)
        for n in range(1, n_max + 1):
            sums: dict[int, Polynomial] = {}
            for f in views(flavor, n):
                term = mono(1, x=f.leaves[0], y=f.leaves[1], z=f.leaves[2])
                sums[f.k] = sums.get(f.k, Polynomial()) + term
            nf = normal_order_power(w, g, n)
            for k in range(1, n + 1):
                assert sums.get(k, Polynomial()) == nf.coefficient(k)


class TestTallyPath:
    @pytest.mark.parametrize("flavor", ["binary", "full-binary", "ternary", "full-ternary"])
    def test_census_tally_matches_views(self, flavor):
        # The checks tally one census per raw encoding; the views read k and leaves.
        for n in range(6):
            want = Polynomial()
            for f in views(flavor, n):
                want = want + mono(1, x=f.leaves[0], y=f.leaves[1], z=f.leaves[2], q=f.k)
            assert _forest_poly(flavor, n, ("x", "y", "z", "q")) == want, n
