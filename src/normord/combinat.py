"""Brute-force enumeration of labelled objects together with their statistics.

These enumerators are the independent oracles of the package: they build
every object of a class by direct insertion, compute statistics by naive
scanning, and never consult recurrences or operator expansions.  Every
insertion enumerator, here and in :mod:`normord.forests`, is one
depth-first walk, :func:`grow`, from the empty object through ``n``
insertions; each states only its insertion step ``children(obj, i)``.  The
walk is one loop over a stack of child iterators, one per insertion made,
so an object costs the same at any depth.

An enumerator checks its cap when called and returns its walk, which
yields the raw objects: one-line, signed or Stirling words, or tuples of
blocks.  :data:`SCANS` holds each kind's named statistic scans of one raw
object, and ``_ENUMERATORS`` its enumerator, both keyed like :data:`CAPS`.
Every tally of objects into a polynomial goes through one accumulator,
:func:`tally`, which counts exponent keys and builds one monomial per
distinct key; :func:`stat_polynomial` feeds it the assigned statistics of
a kind's objects, and only those, through :func:`stat_keys`.  ``normord
enumerate`` applies the same scans to each raw object of the walk.

Conventions that matter and are easy to get wrong:

* ``cdes`` uses the standard cycle form (each cycle led by its minimum,
  cycles sorted by their minima) and counts adjacent drops inside a
  cycle; there is no wrap-around pair.
* ``udrun`` prepends 0 to the one-line word before counting maximal
  monotone runs; the empty word has 0 runs.
* Type B descents prepend 0 to the signed one-line word.
* Stirling-permutation ascents prepend 0; descents append 0; plateaus
  use interior positions only.  Ascent-plateaus exclude both borders.
* Lists (blocks of a partition into lists) are padded with 0 at both
  ends before counting ascents, descents, valleys and double descents.
  On positive letters the 0 at the far end never makes an ascent and the
  0 in front never makes a descent, so list ascents and descents are the
  Stirling-permutation scans summed over blocks.

One table, :data:`CAPS`, holds the size cap of every enumerator, forests
included, and :func:`check_cap` reads it each time an enumerator is called.
The caps keep full enumerations test-sized; to go beyond, raise the entry.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, count
from itertools import permutations as _one_line_words
from itertools import product as _product
from operator import eq, gt, lt, neg
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .poly import Polynomial

T = TypeVar("T")

# Keyed by the object names of ``normord enumerate --objects``.
CAPS = {
    "permutations": 9,
    "signed-permutations": 7,
    "stirling-permutations": 7,
    "list-partitions": 7,
    "stirling-lists": 5,
    "binary-forests": 9,
    "full-binary-forests": 9,
    "ternary-forests": 7,
    "full-ternary-forests": 7,
}


def check_cap(kind: str, n: int) -> None:
    """Reject a non-int or negative size, or one past the kind's ``CAPS`` entry, read at each call."""
    if not isinstance(n, int):
        raise TypeError(f"size must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > CAPS[kind]:
        raise ValueError(f"{kind} enumeration capped at n = {CAPS[kind]} (requested {n})")


def grow(start: T, steps: int, children: Callable[[T, int], Iterable[T]]) -> Iterator[T]:
    """Every object reached from ``start`` by ``steps`` insertions, depth first.

    ``children(obj, i)`` yields, in order, the objects that insertion ``i``
    (counted from 0) makes from ``obj``; an object is yielded once all
    ``steps`` insertions are made, so ``steps == 0`` yields ``start`` alone.
    The walk keeps one child iterator per insertion made so far on a stack
    and yields the last insertion's objects straight from its iterator.
    """
    if not isinstance(steps, int):
        raise TypeError(f"steps must be an int, got {type(steps).__name__}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        yield start
        return
    stack = [iter(children(start, 0))]
    push, pop = stack.append, stack.pop
    while stack:
        depth = len(stack)
        if depth == steps:
            yield from pop()
            continue
        for obj in stack[-1]:
            push(iter(children(obj, depth)))
            break
        else:
            pop()


# -- permutation statistics ------------------------------------------------


def descents(word: tuple[int, ...]) -> int:
    return sum(map(gt, word, word[1:]))


def excedances(word: tuple[int, ...]) -> int:
    return sum(map(gt, word, count(1)))


def standard_cycles(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles each led by their minimum, sorted by those minima."""
    n = len(word)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = word[v - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


# cyc and cdes both read the cycle form; reading both of one word builds it once.
_word_cycles = lru_cache(maxsize=1)(standard_cycles)


def cycle_descents(word: tuple[int, ...]) -> int:
    return sum(map(descents, _word_cycles(word)))


def updown_runs(word: tuple[int, ...]) -> int:
    if not word:
        return 0
    seq = (0,) + word
    runs = 1
    for i in range(2, len(seq)):
        if (seq[i] > seq[i - 1]) != (seq[i - 1] > seq[i - 2]):
            runs += 1
    return runs


def type_b_descents(word: tuple[int, ...]) -> int:
    return sum(map(gt, (0,) + word, word))


# -- Stirling permutation statistics ---------------------------------------


def stirling_ascents(word: tuple[int, ...]) -> int:
    return sum(map(lt, (0,) + word, word))


def stirling_descents(word: tuple[int, ...]) -> int:
    return sum(map(gt, word, word[1:] + (0,)))


def plateaus(word: tuple[int, ...]) -> int:
    return sum(map(eq, word, word[1:]))


def ascent_plateaus(word: tuple[int, ...]) -> int:
    return sum(
        1
        for i in range(1, len(word) - 1)
        if word[i - 1] < word[i] and word[i] == word[i + 1]
    )


def flag_ascent_plateaus(word: tuple[int, ...]) -> int:
    flag = 1 if len(word) >= 2 and word[0] == word[1] else 0
    return 2 * ascent_plateaus(word) + flag


# -- list statistics (blocks padded with 0 on both sides) ------------------


def list_valleys(block: tuple[int, ...]) -> int:
    seq = (0,) + block + (0,)
    return sum(
        1
        for i in range(1, len(seq) - 1)
        if seq[i - 1] > seq[i] and seq[i] < seq[i + 1]
    )


def list_double_descents(block: tuple[int, ...]) -> int:
    seq = (0,) + block + (0,)
    return sum(
        1
        for i in range(1, len(seq) - 1)
        if seq[i - 1] > seq[i] and seq[i] > seq[i + 1]
    )


# -- enumerators -----------------------------------------------------------


def permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of [n] as one-line words, in lexicographic order."""
    check_cap("permutations", n)
    return _one_line_words(range(1, n + 1))


def _signings(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every sign choice on ``word``, each letter positive before negative."""
    return _product(*zip(word, map(neg, word)))


def signed_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All signed permutations of [n]: each one-line word under every sign choice."""
    check_cap("signed-permutations", n)
    return chain.from_iterable(map(_signings, _one_line_words(range(1, n + 1))))


def _stirling_words(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All Stirling permutations of {v^2 : v in values}; values ascending."""

    def children(word: tuple[int, ...], i: int) -> Iterator[tuple[int, ...]]:
        v = values[i]
        for pos in range(len(word) + 1):
            yield word[:pos] + (v, v) + word[pos:]

    return grow((), len(values), children)


def stirling_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All Stirling permutations of {1^2, ..., n^2} as words."""
    check_cap("stirling-permutations", n)
    return _stirling_words(tuple(range(1, n + 1)))


def _list_insertions(blocks: tuple[tuple[int, ...], ...], m: int):
    v = m + 1
    for bi, block in enumerate(blocks):
        for pos in range(len(block) + 1):
            grown = block[:pos] + (v,) + block[pos:]
            yield blocks[:bi] + (grown,) + blocks[bi + 1 :]
    yield blocks + ((v,),)


def list_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of [n] into ordered lists, as tuples of blocks sorted by their minima."""
    check_cap("list-partitions", n)
    return grow((), n, _list_insertions)


def _set_insertions(blocks: tuple[tuple[int, ...], ...], m: int):
    v = m + 1
    for bi, block in enumerate(blocks):
        yield blocks[:bi] + (block + (v,),) + blocks[bi + 1 :]
    yield blocks + ((v,),)


def _stirling_fillings(blocks: tuple[tuple[int, ...], ...]) -> Iterator[tuple]:
    """Every choice of one Stirling permutation of each block's values."""
    return _product(*map(_stirling_words, blocks))


def stirling_lists(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of {1^2, ..., n^2} into blocks of Stirling permutations.

    Each set partition of [n] (blocks sorted by their minima) is filled with
    every choice of one Stirling permutation per block.
    """
    check_cap("stirling-lists", n)
    return chain.from_iterable(map(_stirling_fillings, grow((), n, _set_insertions)))


# Keyed like CAPS; the one table through which tallies and the CLI reach an enumerator.
_ENUMERATORS = {
    "permutations": permutations,
    "signed-permutations": signed_permutations,
    "stirling-permutations": stirling_permutations,
    "list-partitions": list_partitions,
    "stirling-lists": stirling_lists,
}


def _summed(scan: Callable[[tuple[int, ...]], int]) -> Callable[..., int]:
    """The scan of a tuple of blocks that sums ``scan`` over its blocks."""
    return lambda blocks: sum(map(scan, blocks))


# Each statistic-bearing kind's named scans of one raw object.
SCANS: Mapping[str, Mapping[str, Callable[..., int]]] = {
    "permutations": {
        "des": descents,
        "exc": excedances,
        "cyc": lambda word: len(_word_cycles(word)),
        "cdes": cycle_descents,
        "udrun": updown_runs,
    },
    "signed-permutations": {"des_b": type_b_descents},
    "stirling-permutations": {
        "asc": stirling_ascents,
        "des": stirling_descents,
        "plat": plateaus,
        "ap": ascent_plateaus,
        "fap": flag_ascent_plateaus,
    },
    "list-partitions": {
        "blocks": len,
        "asc": _summed(stirling_ascents),
        "des": _summed(stirling_descents),
        "val": _summed(list_valleys),
        "dd": _summed(list_double_descents),
    },
    "stirling-lists": {
        "blocks": len,
        "asc": _summed(stirling_ascents),
        "des": _summed(stirling_descents),
        "plat": _summed(plateaus),
    },
}


def tally(keys: Iterable[tuple[int, ...]], symbols: tuple[str, ...]) -> Polynomial:
    """Sum over keys of the product symbol^exponent, pairing ``symbols`` with each key.

    Equal keys are counted first, so one monomial is built per distinct
    key; a symbol named twice sums its exponents.  A key whose length is not
    ``len(symbols)`` raises ValueError.
    """
    return Polynomial(
        (zip(symbols, key, strict=True), count) for key, count in Counter(keys).items()
    )


def stat_keys(kind: str, n: int, names: tuple[str, ...]) -> Iterator[tuple[int, ...]]:
    """The statistics ``names``, in that order, of each object of ``kind`` on [n].

    Only the named scans run.  The names and the cap are checked when
    called: a name the kind lacks raises KeyError naming it.
    """
    if kind not in SCANS:
        raise KeyError(f"no statistics for objects {kind!r}; known: {', '.join(SCANS)}")
    scans = SCANS[kind]
    missing = [name for name in names if name not in scans]
    if missing:
        raise KeyError(f"no statistic {missing[0]!r} on {kind}; known: {', '.join(scans)}")
    named = [scans[name] for name in names]
    walk = _ENUMERATORS[kind](n)
    if len(named) == 1:
        return zip(map(named[0], walk))  # the 1-tuple keys, built in C
    return map(lambda obj: tuple([scan(obj) for scan in named]), walk)


def stat_polynomial(kind: str, n: int, assignment: Mapping[str, str]) -> Polynomial:
    """Tally, over the objects of ``kind`` on [n], the product symbol^statistic.

    ``assignment`` maps statistic names to symbol names (a non-mapping
    raises TypeError); only the assigned statistics are computed.
    """
    if not isinstance(assignment, Mapping):
        raise TypeError("assignment {statistic: symbol} required, "
                        f"got {type(assignment).__name__}")
    return tally(stat_keys(kind, n, tuple(assignment)), tuple(assignment.values()))
