"""Sparse multivariate Laurent polynomials over exact scalars.

Everything else in the package computes with one value type: a polynomial
is a finite map from monomials to nonzero coefficients, and a monomial is
a finite map from symbol names to nonzero signed exponents, so Laurent
terms like ``3*x*y^-1`` are representable.  Coefficients are Python ints
(arbitrary precision); the series layer additionally feeds in
``fractions.Fraction`` values, which are normalised back to ints whenever
the denominator clears.  Floats are rejected.

Rendering and parsing share one canonical text form: terms are sorted in
descending graded-lexicographic order (total degree first, then exponents
compared symbol by symbol in alphabetical order), exponents are written
``x^2``, and all products use an explicit ``*``.  ``parse(p.render())``
returns ``p`` for every polynomial with integer coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Raised when evaluating a negative exponent at a zero coordinate."""


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def _norm_scalar(c: Scalar) -> Scalar:
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"exact scalar (int or Fraction) required, got {type(c).__name__}")


@total_ordering
class Monomial:
    """Product of symbol powers; exponents are nonzero signed integers.

    Ordering is graded lexicographic: compare total degree first, then
    exponents symbol by symbol with symbols taken alphabetically.
    """

    __slots__ = ("pairs", "degree", "_hash")

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        if isinstance(exponents, Monomial):
            pairs = exponents.pairs
        else:
            items = exponents.items() if isinstance(exponents, Mapping) else exponents
            merged: dict[str, int] = {}
            for name, exp in items:
                if not isinstance(exp, int):
                    raise TypeError(f"integer exponent required for {name!r}")
                merged[name] = merged.get(name, 0) + exp
            pairs = tuple(sorted((s, e) for s, e in merged.items() if e))
        self.pairs = pairs
        self.degree = sum(e for _, e in pairs)
        self._hash = hash(pairs)

    def exponent(self, name: str) -> int:
        for s, e in self.pairs:
            if s == name:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        if not other.pairs:
            return self
        if not self.pairs:
            return other
        d = dict(self.pairs)
        for s, e in other.pairs:
            ne = d.pop(s, 0) + e
            if ne:
                d[s] = ne
        return Monomial(d)

    def without(self, name: str) -> "Monomial":
        return Monomial(tuple((s, e) for s, e in self.pairs if s != name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        if self.degree != other.degree:
            return self.degree < other.degree
        a, b = self.pairs, other.pairs
        i = j = 0
        while i < len(a) or j < len(b):
            sa = a[i][0] if i < len(a) else None
            sb = b[j][0] if j < len(b) else None
            if sb is None or (sa is not None and sa < sb):
                name, ea = a[i]
                eb = 0
            elif sa is None or sb < sa:
                name, eb = b[j]
                ea = 0
            else:
                ea, eb = a[i][1], b[j][1]
            if ea != eb:
                return ea < eb
            if sa is not None and (sb is None or sa <= sb):
                i += 1
            if sb is not None and (sa is None or sb <= sa):
                j += 1
        return False

    def render(self) -> str:
        if not self.pairs:
            return "1"
        return "*".join(s if e == 1 else f"{s}^{e}" for s, e in self.pairs)

    def __repr__(self) -> str:
        return f"Monomial({dict(self.pairs)!r})"


class Polynomial:
    """Immutable sparse polynomial: map Monomial -> nonzero exact scalar."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Scalar] = {}
        for m, c in items:
            if not isinstance(m, Monomial):
                m = Monomial(m)
            if c:
                acc[m] = acc.get(m, 0) + c
        self._terms = {m: _norm_scalar(c) for m, c in acc.items() if c}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return ZERO

    @staticmethod
    def one() -> "Polynomial":
        return ONE

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        return Polynomial({Monomial(): c})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for m in self._terms:
            out.update(s for s, _ in m.pairs)
        return out

    def degree(self) -> int:
        """Max total degree over terms (0 for the zero polynomial)."""
        return max((m.degree for m in self._terms), default=0)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed."""
        degs = {m.degree for m in self._terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def coefficient(self, monomial: Monomial | Mapping[str, int]) -> Scalar:
        if not isinstance(monomial, Monomial):
            monomial = Monomial(monomial)
        return self._terms.get(monomial, 0)

    def constant_term(self) -> Scalar:
        return self._terms.get(_EMPTY, 0)

    def slices(self, name: str) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of ``name``, which is divided out."""
        buckets: dict[int, dict[Monomial, Scalar]] = {}
        for m, c in self._terms.items():
            e = m.exponent(name)
            rest = m.without(name) if e else m
            buckets.setdefault(e, {})[rest] = c
        return {e: Polynomial(d) for e, d in sorted(buckets.items())}

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: "Polynomial | Scalar") -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        return None

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        acc = dict(self._terms)
        for m, c in other._terms.items():
            nc = acc.pop(m, 0) + c
            if nc:
                acc[m] = nc
        return Polynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        acc: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # Only unit monomials are invertible in the Laurent ring.
            if len(self._terms) == 1:
                ((m, c),) = self._terms.items()
                if c in (1, -1):
                    inv = Monomial({s: -e for s, e in m.pairs})
                    return Polynomial({inv: c}) ** (-n) if n != -1 else Polynomial({inv: c})
            raise ValueError("cannot raise a non-unit polynomial to a negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution ----------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Partial derivative: term-wise power rule, Laurent exponents allowed."""
        acc: dict[Monomial, Scalar] = {}
        for m, c in self._terms.items():
            e = m.exponent(name)
            if not e:
                continue
            lowered = Monomial(tuple((s, x - 1 if s == name else x) for s, x in m.pairs))
            acc[lowered] = acc.get(lowered, 0) + c * e
        return Polynomial(acc)

    def subs(self, bindings: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Simultaneous substitution; unbound symbols pass through.

        Negative exponents only accept bindings that are unit monomials
        (anything else has no Laurent-polynomial inverse).
        """
        if not bindings:
            return self
        bound = {}
        for name, v in bindings.items():
            p = self._coerce(v)
            if p is None:
                raise TypeError(f"binding for {name!r} is not a polynomial or exact scalar")
            bound[name] = p
        total = ZERO
        for m, c in self._terms.items():
            unbound = []
            factor = None
            for s, e in m.pairs:
                v = bound.get(s)
                if v is None:
                    unbound.append((s, e))
                    continue
                piece = v ** e
                factor = piece if factor is None else factor * piece
            term = Polynomial({Monomial(unbound): c})
            total = total + (term if factor is None else term * factor)
        return total

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Exact evaluation at a rational point; poles raise PoleError."""
        total = Fraction(0)
        for m, c in self._terms.items():
            val = Fraction(c)
            for s, e in m.pairs:
                x = Fraction(point[s])
                if not x and e < 0:
                    raise PoleError(f"{s}^{e} evaluated at {s} = 0")
                val *= x ** e
            total += val
        return _norm_scalar(total)

    # -- equality, hashing, rendering -------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in canonical (descending graded-lex) order."""
        return [(m, self._terms[m]) for m in sorted(self._terms, reverse=True)]

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            negative = c < 0
            mag = -c if negative else c
            if not m.pairs:
                body = str(mag)
            elif mag == 1:
                body = m.render()
            else:
                body = f"{mag}*{m.render()}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<Polynomial {self.render()}>"

    # -- JSON form ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"monomial": dict(m.pairs), "coeff": str(c)}
                for m, c in self.sorted_terms()
            ]
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Polynomial":
        acc: dict[Monomial, Scalar] = {}
        for entry in data["terms"]:
            m = Monomial({str(s): int(e) for s, e in entry["monomial"].items()})
            acc[m] = acc.get(m, 0) + _norm_scalar(Fraction(entry["coeff"]))
        return Polynomial(acc)


_EMPTY = Monomial()
ZERO = Polynomial()
ONE = Polynomial({_EMPTY: 1})


def variable(name: str) -> Polynomial:
    """The polynomial consisting of the single symbol ``name``."""
    return Polynomial({Monomial({name: 1}): 1})


def mono(coeff: Scalar = 1, /, **exponents: int) -> Polynomial:
    """Single-term polynomial, e.g. ``mono(4, x=2, y=2)`` is ``4*x^2*y^2``."""
    return Polynomial({Monomial(exponents): coeff})


# -- parsing ---------------------------------------------------------------

# Each nested parenthesis costs the recursive-descent parser four stack
# frames; this bound keeps deep input a ParseError, not a RecursionError.
MAX_PAREN_DEPTH = 100

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Polynomial:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        sign = self.signs()
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exp = self.signed_int()
            try:
                base = base ** exp
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        return base if sign == 1 else -base

    def atom(self) -> Polynomial:
        kind, value, pos = self.advance()
        if kind == "int":
            # A "/" between two integer literals denotes an exact rational.
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "/":
                self.advance()
                dkind, dvalue, dpos = self.advance()
                if dkind != "int":
                    raise ParseError("expected an integer denominator", dpos)
                if int(dvalue) == 0:
                    raise ParseError("zero denominator", dpos)
                return Polynomial.constant(Fraction(int(value), int(dvalue)))
            return Polynomial.constant(int(value))
        if kind == "name":
            return variable(value)
        if kind == "op" and value == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a number, symbol or '('", pos)

    def signs(self) -> int:
        """Consume a run of unary signs; +1 or -1 for their product."""
        sign = 1
        kind, value, _ = self.peek()
        while kind == "op" and value in "+-":
            if value == "-":
                sign = -sign
            self.advance()
            kind, value, _ = self.peek()
        return sign

    def signed_int(self) -> int:
        sign = self.signs()
        kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        return sign * int(value)


def parse(text: str) -> Polynomial:
    """Parse canonical (or any reasonable infix) polynomial text."""
    return _Parser(text).parse()
