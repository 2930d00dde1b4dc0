"""Coefficient triangles built from their recurrences, plus assembled polynomials.

Each family of normal-order coefficients (or classical companion numbers)
is generated bottom-up from its defining recurrence, so the triangles serve
as an independent computation path against operator expansions and
brute-force enumeration.  Bessel is the one exception: its rows are the
closed form (n+j)!/(2^j (n-j)! j!), the side that the ``bessel-closed-form``
check holds against the diagonal recurrence.  One walk,
``family_rows(family, max_n)``, checks the family and its start level and
pairs each level start..max_n with its row, holding only the step state it
last made: a shaped family folds its step over the levels from its base
row as columns, each row a new dict read off the columns in index order;
beta folds its dict step from a copy of its base row; Ap weights each entry
of A's walk; bessel maps its closed form over the levels, and catalan
convolves the numbers its own walk has built.  Every row but beta's
iterates in index order.  ``family_row`` steps a new walk to its level and
reads that state alone, so each call returns a new dict that no other
caller shares; ``build_triangle`` and ``normord triangle`` read one walk
for all their levels.  Keys are plain index tuples.

Families, their step and their row keys.  Thirteen families share one of
two step shapes and state only their move table, each weight an integer
affine form in (n, k, l); each step works a column at a time, the run of
entries along the last index.  Beta keeps its own dict step, and Ap is
read off A's walk: Ap(n; k, l) = A(n; k, l) * p^(l - k), so Ap stores
polynomials in p:

    pair      A, a, gamma, C          (k, l)     unit move to (k+1, l+1)
    pair      B, E, W                 (k, l)     unit move to (k+1, l)
    single    S2, S1, eulerian, eulerian2, eulerianB, lah    (k,)
    own step  beta                    (k, j, l)
    rows      Ap                      (k, l)     A's rows, entry c at (k, l) as c * p^(l-k)
    rows      bessel                  (j,)       closed form (n+j)!/(2^j (n-j)! j!)
    rows      catalan                 ()         one number per row

``row_polynomial(family, n, exps)`` turns a row into a polynomial through an
exponent map ``{symbol: form}``, each form an integer affine form over (n,
*index, 1) in the layout of the move tables.  ``assemble`` names
14 generating polynomials in the standard symbol layout (x/y graded by leaf
type, z marking the operator power, and u/v/w/q for the elementary-symmetric
family): nine read a family row under one exponent map.  Four, and
``ctilde_xx``, state only the coefficients (a, b, c) of a first-order
derivative recurrence, f -> (a + i*b)*f + c*df/ds at step i from f = 1,
which one stepper iterates; ``second-order-xyz`` takes three partials from
xyz in its own loop.  ``e_expand`` peels a polynomial symmetric in x, y, z
into powers of e1, e2, e3, and ``gamma_expand`` peels each z^k slice of a
polynomial in the same way in x and y: the gamma basis (xy)^l * (x+y)^(d-2l)
is e2^l * e1^(d-2l) there.  The peel is also the symmetry test, so an
asymmetric input raises ValueError from the peel itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from math import factorial, prod
from operator import add, mul
from typing import Callable, Iterator, Mapping, Union

from .poly import (
    ONE,
    ZERO,
    Pairs,
    Polynomial,
    Scalar,
    _SYMBOL,
    _exponent,
    _pairs_mul,
    variable,
)

Entry = Union[int, Polynomial]
Row = Mapping[tuple, Entry]

_X, _Z = variable("x"), variable("z")
_X2 = _X * _X
_XYZ = _X * variable("y") * _Z


# A shaped step maps the columns of the row at level n to those of level
# n+1.  A column (prefix, lo, values) is the run of entries along the last
# index: entry prefix + (lo + i,) holds values[i].  _single's row is one
# column; _pair's are one per k, consecutive from the first.  Thirteen
# families step by _pair or _single, bound by functools.partial to their
# move table: each weight an integer affine form, (c_n, c_k, c_l, c_0) for
# c_n*n + c_k*k + c_l*l + c_0 over two indices and (c_n, c_k, c_0) over one,
# so along a column each move's weights are one range and each move is one
# C-level map(mul, ...).  A column's keep and mid runs, and the unit move
# carried over from column k-1, are summed by map(add, ...), padded to one
# span where their starts or lengths differ; zero ends are trimmed.  Beta, with four moves over three indices
# and columns of about three entries, keeps its own dict step, each move
# added in place.  Ap is not stepped: Ap(n; k, l) = A(n; k, l) * p^(l - k),
# since mid is the one move of A that changes l - k and the one that
# carries p, so Ap's rows are A's walk with each entry weighted.
Column = tuple[tuple, int, list]
Columns = list[Column]
Step = Callable[[Columns, int], Columns]
Form = tuple[int, ...]
_ZERO = (0,)


def _spread(col: list, c: int, sc: int, d: int, sd: int) -> list:
    """len(col) + 1 values: col times weights c, c + sc, ... in place plus d, d + sd, ... one up."""
    m = len(col)
    kept = map(mul, range(c, c + sc * m, sc) if sc else repeat(c, m), col)
    moved = map(mul, range(d, d + sd * m, sd) if sd else repeat(d, m), col)
    return list(map(add, chain(kept, _ZERO), chain(_ZERO, moved)))


def _column(prefix: tuple, lo: int, vals: list) -> Column:
    """The column of ``vals`` from ``lo``, its zero ends trimmed."""
    while vals and not vals[-1]:
        vals.pop()
    first = next(compress(count(), vals), 0)
    return prefix, lo + first, vals[first:] if first else vals


def _pair(cols: Columns, n: int, keep: Form, mid: Form, dl: int) -> Columns:
    """(k, l) keeps weight keep, moves to (k, l+1) by mid and to (k+1, l+dl) by 1."""
    kn, kk, kl, k0 = keep
    mn, mk, ml, m0 = mid
    k0 += kn * n
    m0 += mn * n
    nxt: Columns = []
    # Column k-1's unit move into column k: its values from l = ulo.
    ulo, unit = cols[0][1], ()
    for prefix, lo, col in cols:
        (k,) = prefix
        vals = _spread(col, k0 + kk * k + kl * lo, kl, m0 + mk * k + ml * lo, ml)
        u = len(unit)
        start = min(lo, ulo)
        if ulo == lo and u <= len(vals):
            vals[:u] = map(add, vals, unit)
        else:
            # Pad both runs to one span: vals from lo, unit from ulo.
            end = max(lo + len(vals), ulo + u)
            carried = chain(repeat(0, ulo - start), unit, repeat(0, end - ulo - u))
            vals = chain(repeat(0, lo - start), vals, repeat(0, end - lo - len(vals)))
            vals = list(map(add, vals, carried))
        nxt.append(_column(prefix, start, vals))
        ulo, unit = lo + dl, col
    nxt.append(((k + 1,), ulo, unit))
    return nxt


def _single(cols: Columns, n: int, stay: Form, up: Form) -> Columns:
    """(k,) keeps weight stay and moves to (k+1,) by up."""
    sn, sk, s0 = stay
    un, uk, u0 = up
    ((prefix, lo, col),) = cols
    return [_column(prefix, lo, _spread(col, s0 + sn * n + sk * lo, sk, u0 + un * n + uk * lo, uk))]


def _step_beta(prev: Row, n: int) -> dict:
    nxt: dict = {}
    get = nxt.get
    for (k, j, l), v in prev.items():
        if w := (l + k) * v:
            nxt[key] = w if (old := get(key := (k, j + 1, l))) is None else old + w
        if w := 2 * j * v:
            nxt[key] = w if (old := get(key := (k, j - 1, l + 1))) is None else old + w
        if w := 3 * (2 * n - 2 * k - 2 * j - 3 * l) * v:
            nxt[key] = w if (old := get(key := (k, j, l + 1))) is None else old + w
        nxt[key] = v if (old := get(key := (k + 1, j, l))) is None else old + v
    return nxt


def _row_bessel(n: int) -> dict:
    row: dict = {}
    for j in range(n + 1):
        num = factorial(n + j)
        den = (1 << j) * factorial(n - j) * factorial(j)
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"bessel entry ({n}, {j}) is not an integer")
        row[(j,)] = q
    return row


def _rows_catalan() -> Iterator[dict]:
    # Each Catalan number is the convolution of all before it.
    c = [1]
    while True:
        yield {(): c[-1]}
        m = len(c)
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))


@dataclass(frozen=True)
class FamilySpec:
    """A family's index names, start level and base row, and how its rows are made.

    A stepped family folds ``step`` over the levels from its base row.  A
    shaped step maps columns to columns, starting from one column per base
    entry, and each row is read off its columns in index order; with
    ``columns`` False (beta) the step maps a dict row to the next, whose
    entries come in step order.  A family without a step walks ``rows()``,
    and ``read``, when given, makes each row of a state of that walk.
    """

    indices: tuple[str, ...]
    start: int
    base: Mapping[tuple, Entry]
    step: Step | Callable[[Row, int], dict] | None = None
    rows: Callable[[], Iterator] | None = None
    read: Callable[[Columns], dict] | None = None
    columns: bool = True


def _states(spec: FamilySpec) -> Iterator:
    """The step states of a stepped family from its start level up, each stepped from the last."""
    base = ([(idx[:-1], idx[-1], [v]) for idx, v in spec.base.items()] if spec.columns
            else dict(spec.base))
    return accumulate(count(spec.start), spec.step, initial=base)


def _row(cols: Columns) -> dict:
    """The row held by ``cols`` as a new dict in index order, its zero entries left out."""
    row: dict = {}
    for prefix, lo, col in cols:
        row.update(compress(zip(zip(*map(repeat, prefix), count(lo)), col), col))
    return row


def _p_power(e: int, c: int) -> Polynomial:
    return Polynomial._collect({(("p", e),) if e else (): c})


def _ap_row(cols: Columns) -> dict:
    """Ap's row off the columns of A's: each entry c of A at (k, l) as c * p^(l - k)."""
    return _row([((k,), lo, list(map(_p_power, count(lo - k), col))) for (k,), lo, col in cols])


FAMILIES: dict[str, FamilySpec] = {
    "A": FamilySpec(("k", "l"), 1, {(1, 1): 1}, partial(
        _pair, keep=(0, 0, 1, 0), mid=(1, 0, -1, 0), dl=1)),
    "Ap": FamilySpec(("k", "l"), 1, {(1, 1): ONE}, rows=lambda: _states(FAMILIES["A"]),
                     read=_ap_row),
    "a": FamilySpec(("k", "l"), 1, {(1, 1): 1}, partial(
        _pair, keep=(0, 0, 1, 0), mid=(1, 1, -1, 0), dl=1)),
    "gamma": FamilySpec(("k", "l"), 1, {(1, 1): 1}, partial(
        _pair, keep=(0, 0, 1, 0), mid=(2, 2, -4, 0), dl=1)),
    "C": FamilySpec(("k", "l"), 1, {(1, 1): 1}, partial(
        _pair, keep=(0, 0, 1, 0), mid=(2, -1, -1, 0), dl=1)),
    "beta": FamilySpec(("k", "j", "l"), 1, {(1, 0, 0): 1}, _step_beta, columns=False),
    "B": FamilySpec(("k", "l"), 1, {(1, 0): 1}, partial(
        _pair, keep=(0, 1, 2, 0), mid=(2, -1, -2, 0), dl=0)),
    "E": FamilySpec(("k", "l"), 1, {(1, 0): 1}, partial(
        _pair, keep=(0, 1, 2, 0), mid=(2, -2, -2, 0), dl=0)),
    "W": FamilySpec(("k", "l"), 1, {(1, 0): 1}, partial(
        _pair, keep=(0, 1, 2, 0), mid=(1, -1, -2, 0), dl=0)),
    "S2": FamilySpec(("k",), 0, {(0,): 1}, partial(
        _single, stay=(0, 1, 0), up=(0, 0, 1))),
    "S1": FamilySpec(("k",), 0, {(0,): 1}, partial(
        _single, stay=(1, 0, 0), up=(0, 0, 1))),
    "eulerian": FamilySpec(("k",), 0, {(0,): 1}, partial(
        _single, stay=(0, 1, 0), up=(1, -1, 1))),
    # Gap insertion in Stirling permutations: a new pair lands in one of
    # the 2n+1 gaps; descents are preserved or created accordingly.
    "eulerian2": FamilySpec(("k",), 1, {(1,): 1}, partial(
        _single, stay=(0, 1, 0), up=(2, -1, 1))),
    "eulerianB": FamilySpec(("k",), 0, {(0,): 1}, partial(
        _single, stay=(0, 2, 1), up=(2, -2, 1))),
    "lah": FamilySpec(("k",), 1, {(1,): 1}, partial(
        _single, stay=(1, 1, 0), up=(0, 0, 1))),
    "bessel": FamilySpec(("j",), 0, {(0,): 1}, rows=lambda: map(_row_bessel, count())),
    "catalan": FamilySpec((), 0, {(): 1}, rows=_rows_catalan),
}

FAMILY_NAMES: tuple[str, ...] = tuple(FAMILIES)


def family_spec(family: str) -> FamilySpec:
    """The spec of ``family``; ``KeyError`` naming the known families if there is none."""
    spec = FAMILIES.get(family)
    if spec is None:
        known = ", ".join(FAMILY_NAMES)
        raise KeyError(f"unknown family {family!r}; known families: {known}")
    return spec


def _walk(family: str, max_n: int) -> tuple[range, Iterator, Callable | None]:
    """The levels start..max_n of a family, its walk's states and the function that reads one.

    A state is its row itself where the reader is None.  The family and its
    start level are checked at the call, before any step.
    """
    spec = family_spec(family)
    if max_n < spec.start:
        raise ValueError(f"family {family!r} starts at n = {spec.start}")
    levels = range(spec.start, max_n + 1)
    if spec.step is None:
        return levels, spec.rows(), spec.read
    return levels, _states(spec), _row if spec.columns else None


def family_rows(family: str, max_n: int) -> Iterator[tuple[int, dict[tuple, Entry]]]:
    """(n, row n) for n = start..max_n of a family, each row a new dict.

    The family and its start level are checked at the call, before any row.
    Every family's rows but beta's iterate in index order.
    """
    levels, states, read = _walk(family, max_n)
    # The levels come first in zip, so no row past max_n is stepped.
    return zip(levels, states if read is None else map(read, states))


def family_row(family: str, n: int) -> dict[tuple, Entry]:
    """Row n of a family as a new dict keyed by the index tuple, read from a walk of its own.

    The walk steps to level n and reads that level's state alone.
    """
    levels, states, read = _walk(family, n)
    state = deque(zip(levels, states), maxlen=1)[0][1]
    return state if read is None else read(state)


def build_triangle(family: str, max_n: int) -> dict[tuple, Entry]:
    """Rows start..max_n of a family in one dict keyed (n, *index)."""
    return {(n, *idx): v for n, row in family_rows(family, max_n) for idx, v in row.items()}


# -- assembled polynomials -------------------------------------------------

# An exponent map {symbol: form}: each form (c_n, c_index..., c_0) gives the
# symbol's exponent c_n*n + sum c_i*index_i + c_0 at level n.
ExponentMap = Mapping[str, Form]


def indexed_polynomial(entries: Mapping[tuple, Entry], n: int, exps: ExponentMap) -> Polynomial:
    """Sum of entry * prod(symbol^e) over ``entries``, each e read from its form in ``exps``.

    Entries that land on the same monomial add up; polynomial entries (the
    ``Ap`` family) are multiplied through.  The map is checked once: a map
    that is not a mapping, or a form coefficient that is not an int, raises
    TypeError; a bad symbol name, or a form whose length is not the index
    length + 2, raises ValueError.
    """
    if not isinstance(exps, Mapping):
        raise TypeError(f"exponent map {{symbol: form}} required, got {type(exps).__name__}")
    width = len(next(iter(entries), ())) + 2
    for s, form in exps.items():
        if not isinstance(s, str) or not _SYMBOL.fullmatch(s):
            raise ValueError(f"bad symbol name {s!r}")
        if not isinstance(form, tuple) or not all(isinstance(c, int) for c in form):
            raise TypeError(f"form of {s!r} must be a tuple of ints, got {form!r}")
        if entries and len(form) != width:
            raise ValueError(f"form of {s!r} has length {len(form)}, not {width}")
    # Fold n into each form once; sorted symbols and no zero exponent make
    # each key canonical as built.
    folded = [(s, f[1:-1], f[-1] + f[0] * n) for s, f in sorted(exps.items())]
    acc: dict[Pairs, Scalar] = {}
    for idx, v in entries.items():
        m = tuple([(s, e) for s, cs, c0 in folded if (e := sum(map(mul, cs, idx), c0))])
        # An int entry is one constant term.
        for k, c in v.terms() if isinstance(v, Polynomial) else (((), v),):
            key = _pairs_mul(m, k)
            acc[key] = acc.get(key, 0) + c
    return Polynomial._collect(acc)


def row_polynomial(family: str, n: int, exps: ExponentMap) -> Polynomial:
    """Row n of a family as a polynomial, each index mapped through the forms of ``exps``."""
    return indexed_polynomial(family_row(family, n), n, exps)


def _from_row(family: str, exps: ExponentMap, n: int) -> Polynomial:
    return ONE if n == 0 else row_polynomial(family, n, exps)


def _linear(
    a: Polynomial, b: Polynomial, c: Polynomial, s: str = "x"
) -> Callable[[int], Polynomial]:
    """n -> f_n for the derivative recurrence with coefficients a, b, c in ``s``.

    f_0 = 1 and f_(i+1) = (a + i*b) * f_i + c * df_i/ds.
    """

    def level(n: int) -> Polynomial:
        if n < 0:
            raise ValueError(f"level {n} is below the first level 0")
        f = ONE
        for i in range(n):
            f = (a + i * b) * f + c * f.diff(s)
        return f

    return level


def _assemble_second_order_xyz(n: int) -> Polynomial:
    if n == 0:
        return ONE
    f = _XYZ
    for _ in range(n - 1):
        f = _XYZ * (f.diff("x") + f.diff("y") + f.diff("z"))
    return f


ASSEMBLERS: dict[str, Callable[[int], Polynomial]] = {
    "A": partial(_from_row, "A", {"x": (0, 0, 1, 0), "y": (1, 0, -1, 0), "z": (0, 1, 0, 0)}),
    "Ap": partial(_from_row, "Ap", {"x": (0, 0, 1, 0), "y": (1, 0, -1, 0), "z": (0, 1, 0, 0)}),
    "a": partial(_from_row, "a", {"x": (0, 0, 1, 0), "y": (1, 1, -1, 0), "z": (0, 1, 0, 0)}),
    "Ct": partial(_from_row, "C", {"x": (0, 0, 1, 0), "y": (2, -1, -1, 0), "z": (0, 1, 0, 0)}),
    "beta": partial(_from_row, "beta", {"u": (2, -2, -2, -3, 0), "v": (0, 0, 1, 0, 0),
                                        "w": (0, 1, 0, 1, 0), "q": (0, 1, 0, 0, 0)}),
    "B": partial(_from_row, "B", {"x": (0, 1, 2, 0), "y": (2, -1, -2, 0), "z": (0, 1, 0, 0)}),
    "E": partial(_from_row, "E", {"x": (0, 1, 2, 0), "y": (2, -2, -2, 0), "z": (0, 1, 0, 0)}),
    "W": partial(_from_row, "W", {"x": (0, 1, 2, 0), "y": (1, -1, -2, 0), "z": (0, 1, 0, 0)}),
    "eulerian-x": _linear(_X, _X, _X - _X2),
    "type-b-x": _linear(ONE + _X, 2 * _X, 2 * (_X - _X2)),
    "second-order-x": partial(_from_row, "eulerian2", {"x": (0, 1, 0)}),
    "second-order-xyz": _assemble_second_order_xyz,
    "flag-ascent-plateau-x": _linear(_X, 2 * _X2, _X - _X * _X2),
    "updown-run-x": _linear(_X, _X2, _X - _X * _X2),
}


def assemble(name: str, n: int) -> Polynomial:
    """Generating polynomial of a family at level n (exact, recurrence-built)."""
    fn = ASSEMBLERS.get(name)
    if fn is None:
        known = ", ".join(sorted(ASSEMBLERS))
        raise KeyError(f"unknown assembly {name!r}; known: {known}")
    if n < 0:
        raise ValueError("level must be nonnegative")
    return fn(n)


def ctilde_xx(n: int) -> Polynomial:
    """Diagonal x = y of the second-order family, via its own recurrence."""
    return _linear(_X * _Z, 2 * _X2, -_X2 * _Z, "z")(n)


def rising_factorial(name: str, n: int) -> Polynomial:
    """The product v(v+1)...(v+n-1) in the symbol ``name``."""
    return _linear(variable(name), ONE, ZERO, name)(n)


# -- symmetric-basis expansions -------------------------------------------

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


def gamma_expand(f: Polynomial) -> dict[tuple[int, int], int]:
    """Expand each z^k slice in the basis (xy)^l * (x+y)^(d-2l) = e2^l * e1^(d-2l).

    Every slice must be an ordinary polynomial in x and y, homogeneous and
    symmetric under swapping them.  Returns the mapping (k, l) ->
    coefficient; coefficients may be negative for inputs outside the
    positivity results.
    """
    out: dict[tuple[int, int], int] = {}
    for k, g in f.slices(_SLICE).items():
        if k < 0:
            raise ValueError(f"negative power of {_SLICE!r}")
        if g.homogeneous_degree() is None:
            raise ValueError(f"slice at {_SLICE}^{k} is not homogeneous")
        for (_, l), c in _elementary(g, _PAIR, f"slice at {_SLICE}^{k}").items():
            out[(k, l)] = c
    return out


def e_expand(f: Polynomial) -> dict[tuple[int, int, int], int]:
    """Expand a polynomial symmetric in x, y, z in the elementary basis.

    Returns (i, j, k) -> coefficient with f = sum c * e1^i * e2^j * e3^k,
    where e1, e2, e3 are the elementary symmetric polynomials in x, y, z.
    Raises ValueError if f is not symmetric.
    """
    return _elementary(f, _E_BASIS, "input")
