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
the one int sum_i e_i << (i*width), so a product is one addition.  The row's
keys carry a bias of ``half = 2**(width-1)`` in every symbol field, so every
field is nonnegative and Laurent exponents need no special case: a field
reads as ``(key >> at & mask) - half``.  The keys of w and of the rules are
packed without the bias, so adding one to a row key keeps the bias.  The
width is the least that holds every exponent in [-bound, bound], and packing
an exponent outside that bound raises ``ArithmeticError``.  The whole row
sum_k c_k D^k is one dict, the power k of D being one more bit field above
the symbol fields, read as ``key >> top``.  A step is one loop over the row
per move, moves outer and terms inner.  Each term of w is one up move, into
the field of D one power up (the w*c_(k-1) part); the first seeds the step's
dict in one comprehension.  Each term of w * rule(s)/s is one derivative
move, weighted by the exponent e_s a term m reads from its field for s (the
w*D(c_k) part).  Each move multiplies m by one term of w and at most one
term of a rule(s)/s, so after n steps no exponent exceeds n*(W + R), with W
and R the largest exponent magnitudes in w and in the rules; that bound sets
the field width.  At the end the row splits by D's power and each
coefficient converts back to pair keys once.  Two variants were measured and
are not used: a list of the row's (key, c) pairs, taken once per step, holds
a second copy of the row and raised the expand benchmark's peak RSS; and a
per-move table indexed by field value has 2**width entries, which no bound
limits (``x**(2**70)`` takes a field of more than 70 bits).

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
    if wp.is_zero:  # w = 0 has no up move: (0*D)^0 = 1, and (0*D)^n = 0 after
        coeffs = (ZERO,) * (n + 1) if n else (ONE,)
        return NormalForm(grammar=grammar, multiplier=wp, order=n, coeffs=coeffs)
    rules = {s: r * variable(s) ** -1 for s, r in grammar.rules.items()}
    symbols = sorted(wp.variables().union(rules, *(r.variables() for r in rules.values())))
    # One step multiplies each monomial by a term of w and at most one term
    # of some rule(s)/s, so after n steps no exponent exceeds n times the
    # sum of their largest; taking n at least 1 also fits w*rule(s)/s.
    bound = max(n, 1) * (_max_exponent([wp]) + _max_exponent(rules.values()))
    width = bound.bit_length() + 1
    mask, half = (1 << width) - 1, 1 << (width - 1)
    # The power of D is one more field, above the symbol fields; it is never
    # negative, so it takes no bias and key >> top reads it.
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
    # Move keys are unbiased, so adding one to a biased row key keeps it biased.
    moves = [(shift[s], wk + rk, wc * rc) for s, r in rules.items()
             for rk, rc in pack(r).items() for wk, wc in pw.items()]
    (up, uc), *ups = [(wk + (1 << top), wc) for wk, wc in pw.items()]
    row: Packed = {bias: 1}
    for _ in range(n):
        # A term that cancelled in the row is skipped by every move, so it
        # does not spread.
        acc: Packed = {key + up: c * uc for key, c in row.items() if c}
        get = acc.get
        for tk, tc in ups:
            for key, c in row.items():
                if c:
                    k = key + tk
                    acc[k] = get(k, 0) + c * tc
        for at, tk, tc in moves:
            for key, c in row.items():
                e = (key >> at & mask) - half
                if e and c:
                    k = key + tk
                    acc[k] = get(k, 0) + c * (e * tc)
        row = acc
    # Split the row by D's power, then convert each coefficient as its packed
    # form is dropped, so the packed and the converted row are never held
    # whole at once.
    parts: list[Packed] = [{} for _ in range(n + 1)]
    for key, c in row.items():
        parts[key >> top][key] = c
    row.clear()
    # Per symbol, exponent -> its (symbol, exponent) pair, so the keys built
    # here share pair tuples as products do.
    fields = [(s, {}) for s in symbols]
    coeffs = []
    for k, part in enumerate(parts):
        parts[k] = None
        terms: dict[Pairs, Scalar] = {}
        for key, c in part.items():
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
