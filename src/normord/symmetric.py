"""Expansions in the elementary symmetric basis.

``e_expand`` peels a polynomial symmetric in x, y, z into powers of e1, e2,
e3, and ``gamma_expand`` peels each z^k slice of a polynomial in the same
way in x and y: the gamma basis (xy)^l * (x+y)^(d-2l) is e2^l * e1^(d-2l)
there.  The peel is also the symmetry test, so an asymmetric input raises
ValueError from the peel itself.  ``normord.triangles`` re-exports both.
"""

from __future__ import annotations

from math import prod

from .poly import ONE, ZERO, Polynomial, Scalar, _exponent, variable

# e_expand's basis, and gamma_expand's pair with the symbol that slices it.
_E_BASIS = ("x", "y", "z")
_PAIR, _SLICE = ("x", "y"), "z"


def _elementary(f: Polynomial, symbols: tuple[str, ...], what: str) -> dict[tuple[int, ...], int]:
    """Peel f into sum c * e1^i_1 * ... * em^i_m over the m distinct symbols.

    The fundamental theorem of symmetric functions: the lex-leading term
    c * s1^a_1 * ... * sm^a_m of a symmetric residual has a_1 >= ... >= a_m,
    and c * e1^(a_1 - a_2) * ... * em^a_m has the same leading term.  Each
    step lowers the leading term among finitely many monomials; a peel that
    ends at zero writes f in e1, ..., em, so f is symmetric.  An unsorted
    leading exponent is therefore the one symmetry test: it raises
    ValueError naming ``what``.  Symbols outside the basis and negative
    exponents are rejected first, since either would break that walk.
    """
    extra = f.variables() - set(symbols)
    if extra:
        raise ValueError(f"{what} involves symbols outside the basis: {sorted(extra)}")
    if any(e < 0 for m, _ in f.terms() for _, e in m):
        raise ValueError("negative exponents have no expansion in this basis")
    e = [ONE]  # e0, e1, ...: taking in a symbol v turns e_j into e_j + v * e_(j-1)
    for v in map(variable, symbols):
        e = [a + v * b for a, b in zip(e + [ZERO], [ZERO] + e)]
    out: dict[tuple[int, ...], int] = {}
    residual = f
    while not residual.is_zero:
        lead, c = max(residual.terms(), key=lambda t: [_exponent(t[0], s) for s in symbols])
        a = [_exponent(lead, s) for s in symbols] + [0]
        index = tuple(a[j] - a[j + 1] for j in range(len(symbols)))
        if any(i < 0 for i in index):
            raise ValueError(f"{what} is not symmetric in {', '.join(symbols)}")
        residual = residual - c * prod(map(pow, e[1:], index), start=ONE)
        out[index] = c
    return out


def gamma_expand(f: Polynomial | Scalar) -> dict[tuple[int, int], int]:
    """Expand each z^k slice in the basis (xy)^l * (x+y)^(d-2l) = e2^l * e1^(d-2l).

    Every slice must be an ordinary polynomial in x and y, homogeneous and
    symmetric under swapping them.  Returns the mapping (k, l) ->
    coefficient; coefficients may be negative for inputs outside the
    positivity results.
    """
    f = Polynomial._coerce(f, "gamma_expand expects a polynomial or exact scalar")
    out: dict[tuple[int, int], int] = {}
    for k, g in f.slices(_SLICE).items():
        if k < 0:
            raise ValueError(f"negative power of {_SLICE!r}")
        if g.homogeneous_degree() is None:
            raise ValueError(f"slice at {_SLICE}^{k} is not homogeneous")
        for (_, l), c in _elementary(g, _PAIR, f"slice at {_SLICE}^{k}").items():
            out[(k, l)] = c
    return out


def e_expand(f: Polynomial | Scalar) -> dict[tuple[int, int, int], int]:
    """Expand a polynomial symmetric in x, y, z in the elementary basis.

    Returns (i, j, k) -> coefficient with f = sum c * e1^i * e2^j * e3^k,
    where e1, e2, e3 are the elementary symmetric polynomials in x, y, z.
    Raises ValueError if f is not symmetric.
    """
    f = Polynomial._coerce(f, "e_expand expects a polynomial or exact scalar")
    return _elementary(f, _E_BASIS, "input")
