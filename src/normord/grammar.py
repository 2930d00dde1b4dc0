"""Substitution rules acting as a derivation on polynomials.

A grammar maps symbol names to replacement polynomials.  It induces the
unique linear operator D on polynomials that satisfies the Leibniz rule
and sends each symbol to its replacement; symbols without a rule behave
as constants and are annihilated.  On a single term this is the usual
formal chain rule:

    D(c * s1^e1 * ... * sk^ek) = c * sum_i ei * s1^e1 ... si^(ei-1) ... * rule(si)

Rule text uses the form ``"x -> y^2; y -> x*y"`` (whitespace optional).
A small registry of named presets covers the grammars exercised by the
verification checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .poly import _SYMBOL, Pairs, ParseError, Polynomial, Scalar, _pairs_mul, parse

# Preset grammars are data, not code: name -> rule text.
PRESETS: dict[str, str] = {
    "stirling-second": "x -> 1",
    "stirling-dual": "a -> a*b; b -> b",
    "eulerian-ab": "a -> a*b; b -> a*b",
    "eulerian-xy": "x -> y; y -> y",
    "eulerian-full": "x -> 1; y -> 1",
    "pq-eulerian": "x -> y; y -> p*y",
    "second-order": "x -> y^2; y -> y^2",
    "trivariate-second-order": "x -> x*y*z; y -> x*y*z; z -> x*y*z",
    "full-ternary": "x -> 1; y -> 1; z -> 1",
    "elementary-symmetric": "u -> 3; v -> 2*u; w -> v",
    "pair-symmetric": "u -> v; v -> 2",
    "type-b": "x -> x*y^2; y -> x^2*y",
    "swap": "x -> y; y -> x",
    "type-b-split": "x -> y^2; y -> x*y",
    "exp-surrogate": "a -> a",
}


@dataclass(frozen=True)
class Grammar:
    """Finite set of rules symbol -> polynomial, applied as a derivation."""

    rules: Mapping[str, Polynomial] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[str, Polynomial] = {}
        for name, rhs in self.rules.items():
            if not isinstance(name, str):
                raise TypeError(f"rule key {name!r} is not a symbol name")
            if not _SYMBOL.fullmatch(name):
                raise ValueError(f"bad rule symbol {name!r}")
            clean[name] = Polynomial._coerce(rhs, f"rule for {name!r} is not a polynomial")
        object.__setattr__(self, "rules", clean)
        # derive's rule table, built once: for each symbol s, the terms of
        # rule(s)/s as (pairs, coeff).  Not a field, so == and repr still see
        # only the rules; hash raises TypeError, as the rules are a dict.
        object.__setattr__(self, "_table", {
            name: tuple((_pairs_mul(k, ((name, -1),)), c) for k, c in p._terms.items())
            for name, p in clean.items()
        })

    @staticmethod
    def from_text(text: str) -> "Grammar":
        """Parse ``"x -> y^2; y -> x*y"`` style rule text."""
        rules: dict[str, Polynomial] = {}
        # Error positions count from the start of ``text``, not of the rule.
        start = 0
        for chunk in text.split(";"):
            offset, start = start, start + len(chunk) + 1
            if not chunk.strip():
                continue
            head, sep, body = chunk.partition("->")
            at = offset + len(head) - len(head.lstrip())
            if not sep:
                raise ParseError(f"rule {chunk.strip()!r} is missing '->'", at)
            name = head.strip()
            if not _SYMBOL.fullmatch(name):
                raise ParseError(f"bad rule symbol {name!r}", at)
            if name in rules:
                raise ParseError(f"duplicate rule for {name!r}", at)
            try:
                rules[name] = parse(body)
            except ParseError as exc:
                raise ParseError(exc.message, offset + len(head) + len(sep) + exc.position) from None
        return Grammar(rules)

    @staticmethod
    def preset(name: str) -> "Grammar":
        try:
            text = PRESETS[name]
        except KeyError:
            known = ", ".join(sorted(PRESETS))
            raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
        return Grammar.from_text(text)

    def render_rules(self) -> str:
        return "; ".join(f"{s} -> {p.render()}" for s, p in sorted(self.rules.items()))

    def __str__(self) -> str:
        return self.render_rules()

    def derive(self, f: Polynomial | Scalar) -> Polynomial:
        """Apply the induced derivation once."""
        p = Polynomial._coerce(f, "derive expects a polynomial or exact scalar")
        # e * m/s * rule(s) for each symbol s of each term m, with m/s * rule(s)
        # read as m * (rule(s)/s) off the table.
        table: dict[str, tuple[tuple[Pairs, Scalar], ...]] = self._table
        acc: dict[Pairs, Scalar] = {}
        get = acc.get
        for pairs, c in p._terms.items():
            for s, e in pairs:
                rule = table.get(s)
                if rule is None:
                    continue
                weight = c * e
                for rp, rc in rule:
                    key = _pairs_mul(pairs, rp)
                    acc[key] = get(key, 0) + weight * rc
        return Polynomial._collect(acc)

    def derive_power(self, f: Polynomial | Scalar, n: int) -> Polynomial:
        """Apply the derivation ``n`` times (``n >= 0``)."""
        if n < 0:
            raise ValueError("repeat count must be nonnegative")
        p = Polynomial._coerce(f, "derive_power expects a polynomial or exact scalar")
        for _ in range(n):
            p = self.derive(p)
        return p
