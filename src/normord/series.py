"""Truncated formal power series with polynomial coefficients.

A :class:`TruncatedSeries` stores exact coefficients ``f_0 .. f_N`` of a
series in a formal parameter ``t``.  The ``kind`` flag records how the
vector is to be read:

* ``"egf"``: the series is sum of ``f_n * t^n / n!``,
* ``"ogf"``: the series is sum of ``f_n * t^n``.

All arithmetic is exact through the truncation order; higher-order terms
are discarded, never approximated.  Rational scalars appear transiently
(inside ``exp``, ``log`` and kind conversion) and are normalised back to
integers whenever possible by the polynomial layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from .poly import Polynomial, Scalar, variable
from .triangles import ctilde_xx, row_polynomial

__all__ = [
    "TruncatedSeries",
    "SeriesReport",
    "catalan_series",
    "catalan_number",
    "bessel_polynomial",
    "verify_catalan_egf",
]

_KINDS = ("egf", "ogf")


def _as_poly(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


@dataclass(frozen=True)
class TruncatedSeries:
    """Exact truncated power series ``f_0 .. f_N`` in one formal parameter."""

    kind: str
    coeffs: Tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", tuple(_as_poly(f) for f in self.coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, kind: str, coeffs: Sequence["Polynomial | Scalar"]) -> "TruncatedSeries":
        return cls(kind, tuple(coeffs))

    @classmethod
    def zero(cls, kind: str, order: int) -> "TruncatedSeries":
        return cls(kind, tuple(Polynomial() for _ in range(order + 1)))

    @classmethod
    def one(cls, kind: str, order: int) -> "TruncatedSeries":
        return cls(kind, (Polynomial.one(),) + tuple(Polynomial() for _ in range(order)))

    # -- basic accessors ----------------------------------------------

    @property
    def order(self) -> int:
        """Largest power of ``t`` retained."""
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Polynomial:
        """The stored coefficient ``f_n`` (series term is ``f_n t^n / n!`` for egf kind)."""
        if not 0 <= n <= self.order:
            raise IndexError(f"order {n} outside truncation range 0..{self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop terms above ``order`` (which must not exceed the current order)."""
        if order > self.order:
            raise ValueError(f"cannot extend a series truncated at order {self.order} to {order}")
        return TruncatedSeries(self.kind, self.coeffs[: order + 1])

    # -- ring operations ----------------------------------------------

    def _require_same(self, other: "TruncatedSeries") -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries operand")
        if self.kind != other.kind:
            raise ValueError(f"kind mismatch: {self.kind} vs {other.kind}")
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._require_same(other)
        return TruncatedSeries(
            self.kind, tuple(self.coeffs[n] + other.coeffs[n] for n in range(order + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = self._require_same(other)
        return TruncatedSeries(
            self.kind, tuple(self.coeffs[n] - other.coeffs[n] for n in range(order + 1))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.kind, tuple(-f for f in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product; egf kind weighs term (i, n-i) by binomial(n, i)."""
        order = self._require_same(other)
        out = []
        for n in range(order + 1):
            acc = Polynomial()
            for i in range(n + 1):
                term = self.coeffs[i] * other.coeffs[n - i]
                if self.kind == "egf":
                    term = term * math.comb(n, i)
                acc = acc + term
            out.append(acc)
        return TruncatedSeries(self.kind, tuple(out))

    def scale(self, scalar: Scalar) -> "TruncatedSeries":
        return TruncatedSeries(self.kind, tuple(f * scalar for f in self.coeffs))

    # -- exp / log ----------------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Exponential, solved order by order from (exp a)' = a' * exp a.

        Requires a zero constant term so that the result stays polynomial.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        a = self.coeffs
        out = [Polynomial.one()]
        for n in range(self.order):
            # coefficient of t^n in a' * exp(a), read in the stored basis
            acc = Polynomial()
            for i in range(n + 1):
                if self.kind == "egf":
                    acc = acc + a[i + 1] * out[n - i] * math.comb(n, i)
                else:
                    acc = acc + a[i + 1] * out[n - i] * (i + 1)
            if self.kind == "ogf":
                acc = acc * Fraction(1, n + 1)
            out.append(acc)
        return TruncatedSeries(self.kind, tuple(out))

    def log(self) -> "TruncatedSeries":
        """Formal logarithm of a series with constant term 1; inverse of :meth:`exp`."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        f = self.coeffs
        out = [Polynomial()]
        for n in range(self.order):
            # solve f' = a' * f for the next derivative of the logarithm a
            if self.kind == "egf":
                acc = f[n + 1]
                for i in range(n):
                    acc = acc - out[i + 1] * f[n - i] * math.comb(n, i)
            else:
                acc = f[n + 1] * (n + 1)
                for i in range(n):
                    acc = acc - out[i + 1] * f[n - i] * (i + 1)
                acc = acc * Fraction(1, n + 1)
            out.append(acc)
        return TruncatedSeries(self.kind, tuple(out))

    # -- kind conversion ----------------------------------------------

    def to_egf(self) -> "TruncatedSeries":
        """Reinterpret exactly: ogf coefficient n is multiplied by n!."""
        if self.kind == "egf":
            return self
        return TruncatedSeries(
            "egf", tuple(f * math.factorial(n) for n, f in enumerate(self.coeffs))
        )

    def to_ogf(self) -> "TruncatedSeries":
        """Reinterpret exactly: egf coefficient n is divided by n!."""
        if self.kind == "ogf":
            return self
        return TruncatedSeries(
            "ogf",
            tuple(f * Fraction(1, math.factorial(n)) for n, f in enumerate(self.coeffs)),
        )

    # -- substitution -------------------------------------------------

    def substitute_power(self, power: int, factor: "Polynomial | Scalar") -> "TruncatedSeries":
        """Replace t by factor * t**power, reindexing coefficients exactly.

        Only defined for the ogf kind, where coefficient n of the result is
        f_m * factor**m when n = m * power (0 otherwise).  The truncation
        order is preserved.
        """
        if self.kind != "ogf":
            raise ValueError("substitution reindexing is defined on the ogf kind")
        if power < 1:
            raise ValueError("power must be a positive integer")
        fac = _as_poly(factor)
        out = [Polynomial() for _ in range(self.order + 1)]
        fpow = Polynomial.one()
        for m, f in enumerate(self.coeffs):
            if m * power > self.order:
                break
            out[m * power] = f * fpow
            fpow = fpow * fac
        return TruncatedSeries("ogf", tuple(out))

    # -- comparison and rendering -------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.kind == other.kind and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.kind, self.coeffs))

    def render(self) -> str:
        """One line per order: ``t^n/n!: <polynomial>`` (egf) or ``t^n: <polynomial>``."""
        label = "t^{n}/{n}!" if self.kind == "egf" else "t^{n}"
        lines = []
        for n, f in enumerate(self.coeffs):
            lines.append(f"{label.format(n=n)}: {f.render()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TruncatedSeries({self.kind!r}, order={self.order})"


def catalan_number(m: int) -> int:
    """The m-th Catalan number, binomial(2m, m) / (m + 1)."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    return math.comb(2 * m, m) // (m + 1)


def catalan_series(order: int) -> TruncatedSeries:
    """Ordinary series 1 + t + 2t^2 + 5t^3 + ... of the Catalan numbers.

    Coefficients are produced by the convolution recurrence
    c_{m+1} = sum of c_i * c_{m-i}, cross-checked below against the
    closed binomial form.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [1]
    for m in range(order):
        coeffs.append(sum(coeffs[i] * coeffs[m - i] for i in range(m + 1)))
    for m, c in enumerate(coeffs):
        if c != catalan_number(m):
            raise ArithmeticError(f"Catalan recurrence disagrees with the closed form at m = {m}")
    return TruncatedSeries("ogf", tuple(Polynomial.constant(c) for c in coeffs))


def bessel_polynomial(n: int) -> Polynomial:
    """Sum over j of (n+j-1)! / (2^j (n-1-j)! j!) * z^(n-j), for n >= 1.

    The coefficient of z^(n-j) counts weighted pairings; it is entry j of
    row n - 1 of the ``bessel`` family.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    return row_polynomial("bessel", n - 1, lambda m, j: {"z": m + 1 - j})


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of a series identity comparison, exact through ``order``."""

    identity: str
    order: int
    matched: bool
    first_mismatch: Optional[int]
    lhs: Optional[Polynomial]
    rhs: Optional[Polynomial]

    def render(self) -> str:
        if self.matched:
            return f"{self.identity}: match through order {self.order}"
        return (
            f"{self.identity}: MISMATCH at order {self.first_mismatch}\n"
            f"  lhs: {self.lhs.render()}\n"
            f"  rhs: {self.rhs.render()}"
        )


def _compare_series(
    identity: str, order: int, lhs: TruncatedSeries, rhs: TruncatedSeries
) -> SeriesReport:
    for n in range(order + 1):
        a, b = lhs.coefficient(n), rhs.coefficient(n)
        if a != b:
            return SeriesReport(identity, order, False, n, a, b)
    return SeriesReport(identity, order, True, None, None, None)


def verify_catalan_egf(order: int = 10) -> SeriesReport:
    """Compare two constructions of the same exponential series in t.

    Left side: coefficients produced order by order from the diagonal
    recurrence behind :func:`normord.triangles.ctilde_xx`.  Right side:
    exp of x*z*t*Cat(x^2 t / 2), built from the Catalan ordinary series by
    exact reindexing, scaling by x*z*t, and formal exponentiation.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > 12:
        raise ValueError("order capped at 12")
    lhs = TruncatedSeries("egf", tuple(ctilde_xx(n) for n in range(order + 1)))

    x, z = variable("x"), variable("z")
    cat = catalan_series(order)
    inner = cat.substitute_power(1, x * x * Fraction(1, 2))
    # multiply by x*z*t: shift up one order, then scale
    shifted = [Polynomial()]
    for m in range(order):
        shifted.append(inner.coefficient(m) * (x * z))
    arg = TruncatedSeries("ogf", tuple(shifted)).to_egf()
    rhs = arg.exp()
    return _compare_series("catalan-egf", order, lhs, rhs)
