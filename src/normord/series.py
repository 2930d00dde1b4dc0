"""Catalan and Bessel reference sequences, and the Catalan-exponent series check.

:func:`verify_catalan_egf` is the ``sides(n)`` generator of the
``catalan-egf`` check: level n of the exponential series whose exponent
holds the Catalan generating function.  All arithmetic is exact; rational
scalars appear transiently and the polynomial layer normalises them back to
integers whenever the denominator clears.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

from .poly import ONE, ZERO, Polynomial, variable
from .triangles import build_triangle, ctilde_xx, row_polynomial

__all__ = [
    "catalan_series",
    "catalan_number",
    "bessel_polynomial",
    "verify_catalan_egf",
]


def catalan_number(m: int) -> int:
    """The m-th Catalan number, binomial(2m, m) / (m + 1)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return math.comb(2 * m, m) // (m + 1)


def catalan_series(order: int) -> Tuple[int, ...]:
    """Coefficients c_0 .. c_order of the ordinary series 1 + t + 2t^2 + 5t^3 + ...

    The coefficients are the rows of the ``catalan`` family, built by the
    convolution recurrence c_{m+1} = sum of c_i * c_{m-i}, and are
    cross-checked here against the closed binomial form.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = tuple(build_triangle("catalan", order).values())
    for m, c in enumerate(coeffs):
        if c != catalan_number(m):
            raise ArithmeticError(f"Catalan recurrence disagrees with the closed form at m = {m}")
    return coeffs


def bessel_polynomial(n: int) -> Polynomial:
    """Sum over j of (n+j-1)! / (2^j (n-1-j)! j!) * z^(n-j), for n >= 1.

    The coefficient of z^(n-j) counts weighted pairings; it is entry j of
    row n - 1 of the ``bessel`` family.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    return row_polynomial("bessel", n - 1, {"z": (1, -1, 1)})


def verify_catalan_egf(n: int):
    """Level n of sum ctilde_n t^n / n! = exp(x*z*t*Cat(x^2 t / 2)).

    Left side: :func:`normord.triangles.ctilde_xx`, the diagonal recurrence.
    Right side: n! [t^n] of the exponential.  Its argument has coefficients
    a_m = m! [t^m] x*z*t*Cat(x^2 t / 2) = m! c_{m-1} x z (x^2 / 2)^(m-1), and
    the coefficients e_m = m! [t^m] exp(a) are solved order by order from
    (exp a)' = a' * exp a:  e_{m+1} = sum over i of C(m, i) a_{i+1} e_{m-i}.
    """
    x, z = variable("x"), variable("z")
    half_x2 = x * x * Fraction(1, 2)
    arg = [ZERO] + [
        x * z * half_x2 ** (m - 1) * (math.factorial(m) * c)
        for m, c in enumerate(catalan_series(n)[:n], 1)
    ]
    exp = [ONE]
    for m in range(n):
        exp.append(sum((arg[i + 1] * exp[m - i] * math.comb(m, i) for i in range(m + 1)),
                       ZERO))
    yield "recurrence-built series vs exponential closed form", ctilde_xx(n), exp[n]
