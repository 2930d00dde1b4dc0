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

Only the recursion runs on packed exponents (``poly._Packer``): each
monomial is one int, so a product is one addition.  ``normal_order_power``
packs w and the grammar's table of rule(s)/s once, over the sorted union of
their symbols, and folds w into the table, so w*D(c) is the sum over
symbols s of e_s * m * (w * rule(s)/s).  Each step multiplies a monomial by
one term of w and at most one term of a rule(s)/s, so after n steps no
exponent exceeds n*(W + R), with W and R the largest exponent magnitudes in
w and in the table; that bound sets the field width.  Each coefficient
converts back to pair keys once.

The two readers of a normal form, ``specialize`` (D^k -> v^k) and
``apply_to`` (D^k -> D^k(f)), are one direct sum of coeffs[k] * values[k]
into a single dict.  Each coefficient term is multiplied once, by a value
that is usually one monomial, so packing the coefficients again would cost
more than it saves.  ``Grammar.derive`` stays on pair tuples, so iterating
t -> w*D(t) through it remains an independent check of these coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from .grammar import Grammar
from .poly import ONE, ZERO, Pairs, Polynomial, Scalar, _Packer

T = TypeVar("T")

Packed = dict[int, Scalar]


def _grow(order: int, entry: Callable[[int, T, T], T], one: T, zero: T) -> list[T]:
    """Row ``order`` of v'_k = entry(k, v_k, v_(k-1)) from [one]; v beyond the row is zero."""
    row = [one]
    for _ in range(order):
        padded = [zero, *row, zero]
        row = [entry(k, padded[k + 1], padded[k]) for k in range(len(row) + 1)]
    return row


def _max_exponent(polys: Iterable[Polynomial]) -> int:
    return max((abs(e) for p in polys for k in p._terms for _, e in k), default=0)


def _mul_into(acc: Packed, a: Packed, b: Packed) -> Packed:
    """Add the product of two packed polynomials into ``acc``: keys add."""
    get = acc.get
    for k1, c1 in a.items():
        if not c1:  # a term cancelled in ``a``; keep it from spreading
            continue
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


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

    def _sum(self, value: Polynomial, step: Callable[[Polynomial], Polynomial]) -> Polynomial:
        """sum_k coeffs[k] * v_k with v_0 = value, v_(k+1) = step(v_k), in one dict."""
        acc: dict[Pairs, Scalar] = {}
        get = acc.get
        for k, c in enumerate(self.coeffs):
            if k:
                value = step(value)
            for key, x in (c * value)._terms.items():
                acc[key] = get(key, 0) + x
        return Polynomial._collect(acc)

    def specialize(self, value: Polynomial | Scalar) -> Polynomial:
        """Replace D^k by value^k (exact)."""
        v = Polynomial._coerce(value, "specialize expects a polynomial or exact scalar")
        return self._sum(ONE, lambda p: p * v)

    def apply_to(self, target: Polynomial | Scalar) -> Polynomial:
        """Apply the operator to a polynomial: sum_k coeffs[k] * D^k(target)."""
        p = Polynomial._coerce(target, "apply_to expects a polynomial or exact scalar")
        return self._sum(p, self.grammar.derive)

    def xi_coefficients(self) -> "list[Polynomial] | None":
        """Factor coefficient k as xi_k * multiplier**k, division-free.

        The xi vector satisfies the companion recursion
        xi'_k = k*D(w)*xi_k + w*D(xi_k) + xi_(k-1), so it can be rebuilt
        without polynomial division; each product xi_k * w^k is verified
        against ``coefficient(k)`` and None is returned on mismatch, as it
        is when a coefficient past ``order`` is nonzero.
        """
        if any(not c.is_zero for c in self.coeffs[self.order + 1:]):
            return None
        w = self.multiplier
        dw = self.grammar.derive(w)
        xs = _grow(
            self.order,
            lambda k, cur, below: dw * cur * k + w * self.grammar.derive(cur) + below,
            ONE,
            ZERO,
        )
        power = ONE
        for k, xi in enumerate(xs):
            if xi * power != self.coefficient(k):
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
    if not isinstance(n, int):
        raise TypeError(f"operator power must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError("operator power must be nonnegative")
    wp = Polynomial._coerce(w, "multiplier must be a polynomial or exact scalar")
    rules = {s: Polynomial._collect(dict(t)) for s, t in grammar._table.items()}
    # One step multiplies each monomial by a term of w and at most one term
    # of some rule(s)/s, so after n steps no exponent exceeds n times the
    # sum of their largest; taking n at least 1 also fits w*rule(s)/s.
    packer = _Packer(
        wp.variables().union(rules, *(r.variables() for r in rules.values())),
        max(n, 1) * (_max_exponent([wp]) + _max_exponent(rules.values())),
    )
    pw = packer.pack(wp)
    # w*D(c) is the sum over symbols s of e_s * m * (w * rule(s)/s).
    steps = [
        (packer.shift[s], tuple(_mul_into({}, pw, packer.pack(r)).items()))
        for s, r in rules.items()
    ]
    exponent = packer.exponent

    def entry(k: int, ck: Packed, below: Packed) -> Packed:
        acc: Packed = {}
        get = acc.get
        for key, c in ck.items():
            if not c:
                continue
            for shift, terms in steps:
                e = exponent(key, shift)
                if e:
                    weight = c * e
                    for tk, tc in terms:
                        kk = key + tk
                        acc[kk] = get(kk, 0) + weight * tc
        return _mul_into(acc, below, pw)

    row = _grow(n, entry, {0: 1}, {})
    # Convert each coefficient as its packed form is dropped, so the two
    # forms of the whole row are never held at once.
    coeffs = []
    for k, c in enumerate(row):
        row[k] = None
        coeffs.append(packer.unpack(c))
    return NormalForm(grammar=grammar, multiplier=wp, order=n, coeffs=tuple(coeffs))
