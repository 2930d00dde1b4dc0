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

Only the recursion runs on packed exponents (Monagan & Pearce, CASC 2007),
in a format that ``normal_order_power`` builds for each call and that no
other code reads.  Over the sorted symbols of w and the rules, symbol i owns
bit field i, the ``width`` bits from bit i*width up, and a monomial is
the one int sum_i e_i << (i*width), so a product is one addition.  Keys
carry no bias, so Laurent exponents need no special case: reading a field
first adds ``half = 2**(width-1)`` in every field, then shifts and masks.
The width is the least that holds every exponent in [-bound, bound], and
packing an exponent outside that bound raises ``ArithmeticError``.  The
whole row sum_k c_k D^k is one dict, the power k of D being one more bit
field above the symbol fields.  A step is one pass over the row.  Each term
m moves once per term of each w * rule(s)/s, weighted by the exponent e_s
it reads from m's field for s (the w*D(c_k) part), and once per term of w
into the field of D one power up (the w*c_(k-1) part).  Each move
multiplies m by one term of w and at most one term of a rule(s)/s, so after
n steps no exponent exceeds n*(W + R), with W and R the largest exponent
magnitudes in w and in the rules; that bound sets the field width.  At the
end the row splits by D's power and each coefficient converts back to pair
keys once.

The two readers of a normal form, ``specialize`` (D^k -> v^k) and
``apply_to`` (D^k -> D^k(f)), are one direct sum of coeffs[k] * values[k]
into a single dict.  Each coefficient term is multiplied once, by a value
that is usually one monomial, so packing the coefficients again would cost
more than it saves.  ``Grammar.derive`` stays on pair tuples, so iterating
t -> w*D(t) through it remains an independent check of these coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .grammar import Grammar
from .poly import ONE, ZERO, Pairs, Polynomial, Scalar, variable

Packed = dict[int, Scalar]


def _max_exponent(polys: Iterable[Polynomial]) -> int:
    return max((abs(e) for p in polys for k in p._terms for _, e in k), default=0)


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
        derive = self.grammar.derive
        dw = derive(w)
        xs = [ONE]
        for _ in range(self.order):
            padded = [ZERO, *xs, ZERO]
            xs = [dw * cur * k + w * derive(cur) + below
                  for k, (below, cur) in enumerate(zip(padded, padded[1:]))]
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
    if not isinstance(grammar, Grammar):
        raise TypeError(f"grammar must be a Grammar, got {type(grammar).__name__}")
    if not isinstance(n, int):
        raise TypeError(f"operator power must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError("operator power must be nonnegative")
    wp = Polynomial._coerce(w, "multiplier must be a polynomial or exact scalar")
    rules = {s: r * variable(s) ** -1 for s, r in grammar.rules.items()}
    symbols = sorted(wp.variables().union(rules, *(r.variables() for r in rules.values())))
    # One step multiplies each monomial by a term of w and at most one term
    # of some rule(s)/s, so after n steps no exponent exceeds n times the
    # sum of their largest; taking n at least 1 also fits w*rule(s)/s.
    bound = max(n, 1) * (_max_exponent([wp]) + _max_exponent(rules.values()))
    width = bound.bit_length() + 1
    mask, half = (1 << width) - 1, 1 << (width - 1)
    # The power of D is one more field, above the symbol fields; it is never
    # negative, so it takes no bias and (key + bias) >> top reads it.
    top = len(symbols) * width
    shift = dict(zip(symbols, range(0, top, width)))
    bias = half * sum(1 << at for at in shift.values())

    def pack(p: Polynomial) -> Packed:
        out: Packed = {}
        for k, c in p._terms.items():
            key = 0
            for s, e in k:
                if not -bound <= e <= bound:
                    raise ArithmeticError(f"exponent {s}^{e} exceeds the packing bound {bound}")
                key += e << shift[s]
            out[key] = c
        return out

    pw = pack(wp)
    # w*D(m) is the sum over symbols s of e_s * m * (w * rule(s)/s): one move
    # (shift of s, key, coefficient) per term of rule(s)/s and term of w.
    # Each term of w also moves m one power of D up, the w * c_(k-1) of c'_k.
    moves = [(shift[s], wk + rk, wc * rc) for s, r in rules.items()
             for rk, rc in pack(r).items() for wk, wc in pw.items()]
    ups = [(wk + (1 << top), wc) for wk, wc in pw.items()]
    row: Packed = {0: 1}
    for _ in range(n):
        acc: Packed = {}
        get = acc.get
        for key, c in row.items():
            if not c:  # a term cancelled in the row; keep it from spreading
                continue
            biased = key + bias
            for at, tk, tc in moves:
                e = (biased >> at & mask) - half
                if e:
                    k = key + tk
                    acc[k] = get(k, 0) + c * (e * tc)
            for tk, tc in ups:
                k = key + tk
                acc[k] = get(k, 0) + c * tc
        row = acc
    # Split the row by D's power, then convert each coefficient as its packed
    # form is dropped, so the packed and the converted row are never held
    # whole at once.
    parts: list[Packed] = [{} for _ in range(n + 1)]
    for key, c in row.items():
        parts[(key + bias) >> top][key] = c
    row.clear()
    # Per symbol, exponent -> its (symbol, exponent) pair, so the keys built
    # here share pair tuples as products do.
    fields = [(s, {}) for s in symbols]
    coeffs = []
    for k, part in enumerate(parts):
        parts[k] = None
        terms: dict[Pairs, Scalar] = {}
        for key, c in part.items():
            key += bias
            pairs = []
            for s, shared in fields:
                e = (key & mask) - half
                if e:
                    pair = shared.get(e)
                    if pair is None:
                        pair = shared[e] = (s, e)
                    pairs.append(pair)
                key >>= width
            terms[tuple(pairs)] = c
        coeffs.append(Polynomial._collect(terms))
    return NormalForm(grammar=grammar, multiplier=wp, order=n, coeffs=tuple(coeffs))
