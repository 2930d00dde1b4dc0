"""Catalan and Bessel reference sequences and the Catalan-exponent series sides."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from normord import bessel_polynomial, catalan_number, variable
from normord.cli import main
from normord.series import catalan_series, verify_catalan_egf


class TestCatalan:
    def test_numbers(self):
        assert [catalan_number(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        assert catalan_number(10) == 16796

    def test_closed_form(self):
        for m in range(12):
            assert catalan_number(m) * (m + 1) == math.comb(2 * m, m)

    def test_series(self):
        assert catalan_series(6) == (1, 1, 2, 5, 14, 42, 132)

    def test_convolution_recurrence(self):
        c = catalan_series(8)
        for m in range(8):
            assert sum(c[i] * c[m - i] for i in range(m + 1)) == c[m + 1]

    def test_series_rejects_negative_order(self):
        with pytest.raises(ValueError):
            catalan_series(-1)
        with pytest.raises(ValueError, match="index must be nonnegative"):
            catalan_number(-1)


class TestBesselPolynomial:
    def test_small_values(self):
        z = variable("z")
        assert bessel_polynomial(1) == z
        assert bessel_polynomial(2) == z ** 2 + z
        assert bessel_polynomial(3) == z ** 3 + 3 * z ** 2 + 3 * z

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bessel_polynomial(0)


class TestGeneratingFunctionIdentity:
    def test_diagonal_rows_match_exponential(self):
        for n in range(9):
            [(note, left, right)] = verify_catalan_egf(n)
            assert note == "recurrence-built series vs exponential closed form"
            assert left == right, n

    def test_first_right_sides(self):
        rights = [right.render() for n in range(3) for _, _, right in verify_catalan_egf(n)]
        assert rights == ["1", "x*z", "x^3*z + x^2*z^2"]

    def test_rejects_uncomputed_orders(self):
        # verify --check catalan-egf stops at the check's cap of 10.
        for order, code, text in (
                (10, 0, "PASS catalan-egf (n=0..10)\n1/1 checks passed\n"),
                (11, 2, "error: catalan-egf is capped at n=10, requested 11\n")):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert main(["verify", "--check", "catalan-egf", "--n-max", str(order)]) == code
            assert (out.getvalue() if code == 0 else err.getvalue()) == text
