"""Normal ordering of powers of a weighted grammar-derivative operator.

For a multiplier polynomial w and a grammar G with derivation D, the
operator (w*D)^n applied to anything can be rewritten with all plain
polynomial factors pulled to the left:

    (w*D)^n = sum_k c_k * D^k

The coefficients follow from one pass of the product rule.  If
(w*D)^n = sum_k c_k D^k then applying w*D to each summand gives
w*D(c_k)*D^k + w*c_k*D^(k+1), so

    c'_k = w * (D(c_k) + c_(k-1))

with c_0 = 1 at order 0.  D itself is never a ring element here; a
normal form is just the vector of polynomial coefficients indexed by the
power of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .grammar import Grammar
from .poly import ONE, ZERO, Polynomial, Scalar


def _grow(order: int, entry: Callable[..., Polynomial]) -> list[Polynomial]:
    """Row ``order`` of v'_k = entry(k, v_k, v_(k-1)) from [ONE]; v beyond the row is zero."""
    row = [ONE]
    for _ in range(order):
        padded = [ZERO, *row, ZERO]
        row = [entry(k, padded[k + 1], padded[k]) for k in range(len(row) + 1)]
    return row


@dataclass(frozen=True)
class NormalForm:
    """Expansion of (multiplier * D_grammar)^order as sum_k coeffs[k] * D^k."""

    grammar: Grammar
    multiplier: Polynomial
    order: int
    coeffs: tuple[Polynomial, ...]

    def coefficient(self, k: int) -> Polynomial:
        """Coefficient of D^k (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def specialize(self, value: Polynomial | Scalar) -> Polynomial:
        """Replace D^k by value^k (Horner evaluation, exact)."""
        v = Polynomial._coerce(value)
        if v is None:
            raise TypeError("specialize expects a polynomial or exact scalar")
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def apply_to(self, target: Polynomial | Scalar) -> Polynomial:
        """Apply the operator to a polynomial: sum_k coeffs[k] * D^k(target)."""
        p = Polynomial._coerce(target)
        if p is None:
            raise TypeError("apply_to expects a polynomial or exact scalar")
        acc = ZERO
        for c in self.coeffs:
            if not c.is_zero:
                acc = acc + c * p
            p = self.grammar.derive(p)
        return acc

    def xi_coefficients(self) -> "list[Polynomial] | None":
        """Factor coefficient k as xi_k * multiplier**k, division-free.

        The xi vector satisfies the companion recursion
        xi'_k = k*D(w)*xi_k + w*D(xi_k) + xi_(k-1), so it can be rebuilt
        without polynomial division; each product xi_k * w^k is verified
        against the stored coefficient and None is returned on mismatch.
        """
        w = self.multiplier
        dw = self.grammar.derive(w)
        xs = _grow(
            self.order, lambda k, cur, below: dw * cur * k + w * self.grammar.derive(cur) + below
        )
        power = ONE
        for k, xi in enumerate(xs):
            if xi * power != self.coeffs[k]:
                return None
            power = power * w
        return xs

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "w": self.multiplier.to_json_dict(),
            "grammar": self.grammar.render_rules(),
            "coeffs": [c.to_json_dict() for c in self.coeffs],
        }

    def render(self) -> str:
        """Canonical one-line text: ``D^k: coeff`` pieces joined by '';''."""
        pieces = [
            f"D^{k}: {c.render()}"
            for k, c in enumerate(self.coeffs)
            if not c.is_zero
        ]
        if not pieces:
            return "0"
        return " ; ".join(pieces)

    def __str__(self) -> str:
        return self.render()


def normal_order_power(
    w: Polynomial | Scalar, grammar: Grammar, n: int
) -> NormalForm:
    """Expand (w * D_grammar)^n into normal form (``n >= 0``)."""
    if n < 0:
        raise ValueError("operator power must be nonnegative")
    wp = Polynomial._coerce(w)
    if wp is None:
        raise TypeError("multiplier must be a polynomial or exact scalar")
    coeffs = _grow(n, lambda k, ck, below: wp * (grammar.derive(ck) + below))
    return NormalForm(grammar=grammar, multiplier=wp, order=n, coeffs=tuple(coeffs))
