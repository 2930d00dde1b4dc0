"""Coefficient triangles built from their recurrences, plus assembled polynomials.

Each family of normal-order coefficients (or classical companion numbers)
is generated bottom-up from its defining recurrence, so the triangles serve
as an independent computation path against operator expansions and
brute-force enumeration.  Bessel is the one exception: its rows are the
closed form (n+j)!/(2^j (n-j)! j!), the side that the ``bessel-closed-form``
check holds against the diagonal recurrence.  One walk per read checks the
family and its start level and pairs each level start..max_n with its
state, holding only the state it last made.  A shaped family folds its step
over the levels from its base row as columns, the runs of entries along the
last index; Ap weights each entry of A's columns, and bessel's closed form
makes one column per level.  Beta folds its dict step from a copy of its
base row, and catalan convolves the numbers its own walk has built, one
dict row {(): c} per level.  ``family_columns(family, max_n)`` hands out
each level's columns in index order, the walk's own state where it is
columns, and ``normord triangle`` formats its rows from them;
``family_rows`` hands out each row as a new dict, read off the columns in
index order (beta's in step order).  ``family_row`` steps a new walk to its
level and reads that state alone, so each call returns a new dict that no
other caller shares; ``build_triangle`` reads one walk for all its levels.
Keys are plain index tuples.

Families, their step and their row keys.  Thirteen families share one of
two step shapes and state only their move table, each weight an integer
affine form in (n, k, l); each step works a column at a time.  Beta keeps
its own dict step, and Ap is read off A's walk: Ap(n; k, l) = A(n; k, l) *
p^(l - k), so Ap stores polynomials in p:

    pair      A, a, gamma, C          (k, l)     unit move to (k+1, l+1)
    pair      B, E, W                 (k, l)     unit move to (k+1, l)
    single    S2, S1, eulerian, eulerian2, eulerianB, lah    (k,)
    own step  beta                    (k, j, l)
    rows      Ap                      (k, l)     A's columns, entry c at (k, l) as c * p^(l-k)
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
xyz in its own loop.  The symmetric-basis expanders ``e_expand`` and
``gamma_expand`` live in ``normord.symmetric``, a module of their own so
that this one stays under 4,096 parser tokens, past which CPython compiles
a module with a larger peak; they are re-exported here, where the check
registry and the benchmark's tracer read them.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from math import factorial
from operator import add, mul
from typing import Callable, Iterator, Mapping, Union

from .poly import (
    ONE,
    ZERO,
    Pairs,
    Polynomial,
    Scalar,
    _SYMBOL,
    _pairs_mul,
    variable,
)
from .symmetric import e_expand, gamma_expand

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


def _bessel_columns(n: int) -> Columns:
    col = []
    for j in range(n + 1):
        num = factorial(n + j)
        den = (1 << j) * factorial(n - j) * factorial(j)
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"bessel entry ({n}, {j}) is not an integer")
        col.append(q)
    return [((), 0, col)]


def _rows_catalan() -> Iterator[dict]:
    # Each Catalan number is the convolution of all before it.
    c = [1]
    while True:
        yield {(): c[-1]}
        c.append(sum(map(mul, c, reversed(c))))


@dataclass(frozen=True)
class FamilySpec:
    """A family's index names, start level and base row, and how its rows are made.

    A stepped family folds ``step`` over the levels from its base row.  A
    shaped step maps columns to columns, starting from one column per base
    entry; with ``columns`` False (beta) the step maps a dict row to the
    next, whose entries come in step order.  A family without a step walks
    ``rows()``, whose states are columns where ``columns`` is True (Ap,
    bessel) and dict rows otherwise (catalan).  ``read`` maps a state that
    is columns to the family's columns: Ap's states are A's columns, and by
    default ``read`` copies the list of the state's own.
    """

    indices: tuple[str, ...]
    start: int
    base: Mapping[tuple, Entry]
    step: Step | Callable[[Row, int], dict] | None = None
    rows: Callable[[], Iterator] | None = None
    read: Callable[[Columns], Columns] = list
    columns: bool = True


def _states(spec: FamilySpec) -> Iterator:
    """The step states of a stepped family from its start level up, each stepped from the last."""
    base = _grouped(spec.base) if spec.columns else dict(spec.base)
    return accumulate(count(spec.start), spec.step, initial=base)


def _row(cols: Columns) -> dict:
    """The row held by ``cols`` as a new dict in index order, its zero entries left out."""
    row: dict = {}
    for prefix, lo, col in cols:
        row.update(compress(zip(zip(*map(repeat, prefix), count(lo)), col), col))
    return row


def _p_power(e: int, c: int) -> Polynomial:
    return Polynomial._collect({(("p", e),) if e else (): c})


def _ap_columns(cols: Columns) -> Columns:
    """Ap's columns off A's: each entry c of A at (k, l) as c * p^(l - k)."""
    return [((k,), lo, list(map(_p_power, count(lo - k), col))) for (k,), lo, col in cols]


def _grouped(row: Row) -> Columns:
    """A dict row as columns in index order, one per entry; catalan's {(): c} is ((), 0, [c])."""
    return [(idx[:-1], *(idx[-1:] or (0,)), [v]) for idx, v in sorted(row.items())]


FAMILIES: dict[str, FamilySpec] = {
    "A": FamilySpec(("k", "l"), 1, {(1, 1): 1}, partial(
        _pair, keep=(0, 0, 1, 0), mid=(1, 0, -1, 0), dl=1)),
    "Ap": FamilySpec(("k", "l"), 1, {(1, 1): ONE}, rows=lambda: _states(FAMILIES["A"]),
                     read=_ap_columns),
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
    "bessel": FamilySpec(("j",), 0, {(0,): 1}, rows=lambda: map(_bessel_columns, count())),
    "catalan": FamilySpec((), 0, {(): 1}, rows=_rows_catalan, columns=False),
}

FAMILY_NAMES: tuple[str, ...] = tuple(FAMILIES)


def family_spec(family: str) -> FamilySpec:
    """The spec of ``family``; ``KeyError`` naming the known families if there is none."""
    spec = FAMILIES.get(family)
    if spec is None:
        known = ", ".join(FAMILY_NAMES)
        raise KeyError(f"unknown family {family!r}; known families: {known}")
    return spec


def _walk(family: str, max_n: int) -> tuple[range, Iterator, FamilySpec]:
    """The levels start..max_n of a family, its walk's states and its spec.

    The family and its start level are checked at the call, before any step.
    """
    spec = family_spec(family)
    if max_n < spec.start:
        raise ValueError(f"family {family!r} starts at n = {spec.start}")
    return range(spec.start, max_n + 1), _states(spec) if spec.step else spec.rows(), spec


def family_rows(family: str, max_n: int) -> Iterator[tuple[int, dict[tuple, Entry]]]:
    """(n, row n) for n = start..max_n of a family, each row a new dict.

    The family and its start level are checked at the call, before any row.
    Every family's rows but beta's iterate in index order.
    """
    levels, states, spec = _walk(family, max_n)
    # The levels come first in zip, so no row past max_n is stepped.
    return zip(levels, map(_row, map(spec.read, states)) if spec.columns else states)


def family_columns(family: str, max_n: int) -> Iterator[tuple[int, Columns]]:
    """(n, the columns of row n) for n = start..max_n of a family, in index order.

    A column (prefix, lo, values) holds values[i] at index prefix + (lo + i,),
    and a zero value is no entry; catalan's one column ((), 0, [c]) holds c at
    its index ().  A stepped family's columns are those of its walk's own
    state, whose value lists the next step reuses, so they are to be read,
    never changed.  The family and its start level are checked at the call,
    before any row.
    """
    levels, states, spec = _walk(family, max_n)
    return zip(levels, map(spec.read if spec.columns else _grouped, states))


def family_row(family: str, n: int) -> dict[tuple, Entry]:
    """Row n of a family as a new dict keyed by the index tuple, read from a walk of its own.

    The walk steps to level n and reads that level's state alone.
    """
    levels, states, spec = _walk(family, n)
    state = deque(zip(levels, states), maxlen=1)[0][1]
    return _row(spec.read(state)) if spec.columns else state


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
