"""Sparse multivariate Laurent polynomials over exact scalars.

Everything else in the package computes with one value type: a polynomial
is a finite map from monomials to nonzero coefficients, and a monomial is
a finite map from symbol names to nonzero signed exponents, so Laurent
terms like ``3*x*y^-1`` are representable.  Coefficients are Python ints
(arbitrary precision); the series layer additionally feeds in
``fractions.Fraction`` values, which are normalised back to ints whenever
the denominator clears.  Floats are rejected.  A symbol name is an ASCII
letter or underscore followed by ASCII letters, digits and underscores,
the one name rule that the parser, ``Polynomial(...)`` and the grammar and
CLI front ends share.

Rendering and parsing share one canonical text form: terms are sorted in
descending graded-lexicographic order (total degree first, then exponents
compared symbol by symbol in alphabetical order), exponents are written
``x^2``, and all products use an explicit ``*``.  ``parse(p.render())``
returns ``p`` for every polynomial with integer coefficients.

A monomial has one format, public and private: its canonical pair tuple
(``Pairs``), (symbol, exponent) tuples sorted by symbol, with no zero
exponent, ``()`` for the constant monomial.  A polynomial stores its terms
keyed by those tuples, and every ring operation merges them (``_pairs_mul``)
into a dict that the one trusted constructor, ``Polynomial._collect``,
closes.  ``terms()`` and ``sorted_terms()`` yield the stored tuples
themselves.  The public constructors ``Polynomial(...)``, ``mono`` and
``parse`` accept an exponent map or any iterable of (symbol, exponent)
pairs per term, and ``_canonical_pairs`` validates it and brings it to the
canonical form.  ``*``, ``diff``, ``subs`` and ``Grammar.derive`` stay on
pair tuples: iterating ``derive`` is the independent reference the
normal-form kernel is tested against, so the two share no code.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

Scalar = Union[int, Fraction]
Pairs = tuple[tuple[str, int], ...]
Exponents = Union[Mapping[str, int], Iterable[tuple[str, int]]]

# The one rule for symbol names: the tokenizer reads exactly these, and
# ``Polynomial(...)``, ``Grammar.from_text`` and the CLI accept no other.
_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


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


def _pairs_mul(a: Pairs, b: Pairs) -> Pairs:
    """Product of two canonical pair tuples: a sorted merge that adds exponents."""
    if not b:
        return a
    if not a:
        return b
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        sa, ea = a[i]
        sb, eb = b[j]
        if sa == sb:
            e = ea + eb
            if e:
                out.append((sa, e))
            i += 1
            j += 1
        elif sa < sb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def _exponent(pairs: Pairs, name: str) -> int:
    for s, e in pairs:
        if s == name:
            return e
    return 0


def _grlex_key(symbols: list[str]) -> Callable[[Pairs], list[int]]:
    """Graded-lex sort key over ``symbols`` (sorted, covering every pair tuple keyed).

    The key is the total degree followed by the exponent of each symbol in
    turn, 0 where absent, so list order is the graded-lex order.
    """
    index = {s: i for i, s in enumerate(symbols, 1)}
    width = len(symbols) + 1

    def key(pairs: Pairs) -> list[int]:
        k = [0] * width
        for s, e in pairs:
            k[index[s]] = e
        k[0] = sum(k)  # the total degree: k[0] is still 0 here
        return k

    return key


def _render_pairs(pairs: Pairs) -> str:
    return "*".join([s if e == 1 else f"{s}^{e}" for s, e in pairs]) or "1"


def _canonical_pairs(exponents: Exponents) -> Pairs:
    """The canonical pair tuple of an exponent map or an iterable of (symbol, exponent) pairs.

    Repeated symbols add up and zero exponents drop out.  A bad symbol name
    raises ValueError; a string where pairs belong, or an exponent that is not
    an int, raises TypeError.
    """
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    merged: dict[str, int] = {}
    # A string would unpack letter by letter, as if it held pairs.
    for item in (items,) if isinstance(items, str) else items:
        if isinstance(item, str):
            raise TypeError(f"(symbol, exponent) pairs required, got string {item!r}")
        name, exp = item
        if not _SYMBOL.fullmatch(name):
            raise ValueError(f"bad symbol name {name!r}")
        if not isinstance(exp, int):
            raise TypeError(f"integer exponent required for {name!r}")
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((s, e) for s, e in merged.items() if e))


class Polynomial:
    """Immutable sparse polynomial: map canonical pairs -> nonzero exact scalar."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Pairs, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Pairs, Scalar] = {}
        for m, c in items:
            m = _canonical_pairs(m)
            c = _norm_scalar(c)
            if c:
                acc[m] = acc.get(m, 0) + c
        self._terms = {m: _norm_scalar(c) for m, c in acc.items() if c}

    @classmethod
    def _collect(cls, acc: dict[Pairs, Scalar]) -> "Polynomial":
        """Trusted constructor over a dict of canonical pairs to exact scalars.

        Zero coefficients are dropped and Fractions with denominator 1
        become ints; keys are not checked.
        """
        p = object.__new__(cls)
        p._terms = {m: c if type(c) is int else _norm_scalar(c) for m, c in acc.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        # 0 + c stores a bool as its int, so constant(True) renders "1".
        return Polynomial._collect({(): 0 + _norm_scalar(c)})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Pairs, Scalar]]:
        """The (pairs, coeff) terms, each pair tuple the stored key itself."""
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> set[str]:
        return {s for k in self._terms for s, _ in k}

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed."""
        degs = {sum(e for _, e in k) for k in self._terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def coefficient(self, monomial: Exponents) -> Scalar:
        return self._terms.get(_canonical_pairs(monomial), 0)

    def constant_term(self) -> Scalar:
        return self._terms.get((), 0)

    def slices(self, name: str) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of ``name``, which is divided out."""
        buckets: dict[int, dict[Pairs, Scalar]] = {}
        for m, c in self._terms.items():
            e = _exponent(m, name)
            rest = tuple(p for p in m if p[0] != name) if e else m
            buckets.setdefault(e, {})[rest] = c
        return {e: Polynomial._collect(d) for e, d in sorted(buckets.items())}

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: "Polynomial | Scalar", message: str | None = None) -> "Polynomial | None":
        """``value`` as a polynomial; None if it is neither one nor an exact scalar,
        or TypeError(message) if a message is given."""
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        if message is not None:
            raise TypeError(message)
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
        return Polynomial._collect(acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._collect({m: -c for m, c in self._terms.items()})

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
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        # A constant factor only scales the other side's coefficients.
        if len(a) == 1 and () in a:
            a, b = b, a
        if len(b) == 1 and () in b:
            k = b[()]
            return Polynomial._collect({m: c * k for m, c in a.items()})
        right = b.items()
        acc: dict[Pairs, Scalar] = {}
        get = acc.get
        for m1, c1 in a.items():
            for p2, c2 in right:
                key = _pairs_mul(m1, p2)
                acc[key] = get(key, 0) + c1 * c2
        return Polynomial._collect(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # Only unit monomials are invertible in the Laurent ring.
            if len(self._terms) == 1:
                ((m, c),) = self._terms.items()
                if c in (1, -1):
                    inv = Polynomial._collect({tuple((s, -e) for s, e in m): c})
                    return inv ** (-n) if n != -1 else inv
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
        inverse = ((name, -1),)
        acc: dict[Pairs, Scalar] = {}
        for m, c in self._terms.items():
            e = _exponent(m, name)
            if e:
                acc[_pairs_mul(m, inverse)] = c * e
        return Polynomial._collect(acc)

    def subs(self, bindings: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Simultaneous substitution; unbound symbols pass through.

        Negative exponents only accept bindings that are unit monomials
        (anything else has no Laurent-polynomial inverse).
        """
        if not bindings:
            return self
        bound = {}
        for name, v in bindings.items():
            bound[name] = self._coerce(
                v, f"binding for {name!r} is not a polynomial or exact scalar")
        # One accumulator for every term keeps this linear in the terms produced.
        acc: dict[Pairs, Scalar] = {}
        get = acc.get
        for m, c in self._terms.items():
            unbound = []
            factor = ONE
            for s, e in m:
                v = bound.get(s)
                if v is None:
                    unbound.append((s, e))
                else:
                    factor = factor * v ** e
            rest = tuple(unbound)
            for fm, fc in factor._terms.items():
                key = _pairs_mul(rest, fm)
                acc[key] = get(key, 0) + c * fc
        return Polynomial._collect(acc)

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Exact evaluation at a rational point; poles raise PoleError.

        Each value must be an int or a Fraction; anything else raises TypeError.
        """
        total = Fraction(0)
        for m, c in self._terms.items():
            val = Fraction(c)
            for s, e in m:
                x = Fraction(_norm_scalar(point[s]))
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
        # A constant equals its scalar (see __eq__), so it hashes like it.
        if self._terms.keys() <= {()}:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    def _sorted_keys(self) -> list[Pairs]:
        """Term keys in canonical (descending graded-lex) order."""
        if len(self._terms) < 2:
            return list(self._terms)
        return sorted(self._terms, key=_grlex_key(sorted(self.variables())), reverse=True)

    def sorted_terms(self) -> list[tuple[Pairs, Scalar]]:
        """The (pairs, coeff) terms in canonical (descending graded-lex) order."""
        terms = self._terms
        return [(k, terms[k]) for k in self._sorted_keys()]

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for k in self._sorted_keys():
            c = self._terms[k]
            negative = c < 0
            mag = -c if negative else c
            if not k:
                body = str(mag)
            elif mag == 1:
                body = _render_pairs(k)
            else:
                body = f"{mag}*{_render_pairs(k)}"
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
                {"monomial": dict(k), "coeff": str(self._terms[k])}
                for k in self._sorted_keys()
            ]
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Polynomial":
        return Polynomial(
            (t["monomial"], Fraction(c) if isinstance(c := t["coeff"], str) else c)
            for t in data["terms"]
        )


ZERO = Polynomial()
ONE = Polynomial.constant(1)


def variable(name: str) -> Polynomial:
    """The polynomial consisting of the single symbol ``name``."""
    return Polynomial([({name: 1}, 1)])


def mono(coeff: Scalar = 1, /, **exponents: int) -> Polynomial:
    """Single-term polynomial, e.g. ``mono(4, x=2, y=2)`` is ``4*x^2*y^2``."""
    return Polynomial([(exponents, coeff)])


# -- parsing ---------------------------------------------------------------

# Each nested parenthesis costs the recursive-descent parser four stack
# frames; this bound keeps deep input a ParseError, not a RecursionError.
MAX_PAREN_DEPTH = 100

_TOKEN = re.compile(rf"(?P<int>\d+)|(?P<name>{_SYMBOL.pattern})|(?P<op>[-+*^()/])")


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
