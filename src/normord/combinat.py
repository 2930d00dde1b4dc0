"""Brute-force enumeration of labelled objects together with their statistics.

These generators are the independent oracles of the package: they build
every object of a class by direct insertion, compute statistics by naive
scanning, and never consult recurrences or operator expansions.  Each
yields StatRecord values with a canonical text encoding and a dict of
named integer statistics.  Every tally of objects into a polynomial goes
through one accumulator, :func:`tally`, which counts exponent keys and
builds one monomial per distinct key; :func:`stat_polynomial` feeds it the
statistics of records.

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

Default size caps keep full enumerations inside a test-friendly budget;
pass a larger ``cap`` explicitly to go beyond.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations as _one_line_words
from itertools import product as _product
from typing import Iterable, Iterator, Mapping

from .poly import Monomial, Polynomial

CAPS = {
    "permutations": 9,
    "signed_permutations": 7,
    "stirling_permutations": 7,
    "list_partitions": 7,
    "stirling_lists": 5,
}


@dataclass(frozen=True)
class StatRecord:
    object_id: str
    stats: Mapping[str, int]


def _check_cap(kind: str, n: int, cap: int | None) -> None:
    limit = CAPS[kind] if cap is None else cap
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > limit:
        raise ValueError(f"{kind} enumeration capped at n = {limit} (requested {n})")


# -- permutation statistics ------------------------------------------------


def descents(word: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def excedances(word: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(word, start=1) if v > i)


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


def cycle_descents(word: tuple[int, ...]) -> int:
    return sum(descents(c) for c in standard_cycles(word))


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
    seq = (0,) + word
    return sum(1 for i in range(len(seq) - 1) if seq[i] > seq[i + 1])


# -- Stirling permutation statistics ---------------------------------------


def stirling_ascents(word: tuple[int, ...]) -> int:
    seq = (0,) + word
    return sum(1 for i in range(len(seq) - 1) if seq[i] < seq[i + 1])


def stirling_descents(word: tuple[int, ...]) -> int:
    seq = word + (0,)
    return sum(1 for i in range(len(seq) - 1) if seq[i] > seq[i + 1])


def plateaus(word: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(word) - 1) if word[i] == word[i + 1])


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


def list_ascents(block: tuple[int, ...]) -> int:
    seq = (0,) + block + (0,)
    return sum(1 for i in range(len(seq) - 1) if seq[i] < seq[i + 1])


def list_descents(block: tuple[int, ...]) -> int:
    seq = (0,) + block + (0,)
    return sum(1 for i in range(len(seq) - 1) if seq[i] > seq[i + 1])


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


# -- object generators -----------------------------------------------------


def permutations(n: int, *, cap: int | None = None) -> Iterator[StatRecord]:
    """All permutations of [n] with des, exc, cyc, cdes and udrun."""
    _check_cap("permutations", n, cap)
    for word in _one_line_words(range(1, n + 1)):
        cycles = standard_cycles(word)
        yield StatRecord(
            object_id=",".join(map(str, word)),
            stats={
                "des": descents(word),
                "exc": excedances(word),
                "cyc": len(cycles),
                "cdes": sum(descents(c) for c in cycles),
                "udrun": updown_runs(word),
            },
        )


def signed_permutations(n: int, *, cap: int | None = None) -> Iterator[StatRecord]:
    """All signed permutations of [n] with the type B descent count."""
    _check_cap("signed_permutations", n, cap)
    for word in _one_line_words(range(1, n + 1)):
        for signs in _product((1, -1), repeat=n):
            signed = tuple(s * v for s, v in zip(signs, word))
            yield StatRecord(
                object_id=",".join(map(str, signed)),
                stats={"des_b": type_b_descents(signed)},
            )


def _stirling_words(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All Stirling permutations of {v^2 : v in values}; values ascending."""

    def extend(word: tuple[int, ...], i: int) -> Iterator[tuple[int, ...]]:
        if i == len(values):
            yield word
            return
        v = values[i]
        for pos in range(len(word) + 1):
            yield from extend(word[:pos] + (v, v) + word[pos:], i + 1)

    yield from extend((), 0)


def stirling_permutations(n: int, *, cap: int | None = None) -> Iterator[StatRecord]:
    """All Stirling permutations of {1^2, ..., n^2} with their statistics."""
    _check_cap("stirling_permutations", n, cap)
    for word in _stirling_words(tuple(range(1, n + 1))):
        yield StatRecord(
            object_id=",".join(map(str, word)),
            stats={
                "asc": stirling_ascents(word),
                "des": stirling_descents(word),
                "plat": plateaus(word),
                "ap": ascent_plateaus(word),
                "fap": flag_ascent_plateaus(word),
            },
        )


def _list_partition_shapes(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of [n] into ordered lists; blocks sorted by their minima."""

    def extend(blocks: tuple[tuple[int, ...], ...], m: int):
        if m == n:
            yield blocks
            return
        v = m + 1
        for bi, block in enumerate(blocks):
            for pos in range(len(block) + 1):
                grown = block[:pos] + (v,) + block[pos:]
                yield from extend(blocks[:bi] + (grown,) + blocks[bi + 1 :], m + 1)
        yield from extend(blocks + ((v,),), m + 1)

    if n == 0:
        yield ()
    else:
        yield from extend(((1,),), 1)


def list_partitions(n: int, *, cap: int | None = None) -> Iterator[StatRecord]:
    """Partitions of [n] into lists, with block count and padded-word stats."""
    _check_cap("list_partitions", n, cap)
    for blocks in _list_partition_shapes(n):
        yield StatRecord(
            object_id="|".join(",".join(map(str, b)) for b in blocks),
            stats={
                "blocks": len(blocks),
                "asc": sum(list_ascents(b) for b in blocks),
                "des": sum(list_descents(b) for b in blocks),
                "val": sum(list_valleys(b) for b in blocks),
                "dd": sum(list_double_descents(b) for b in blocks),
            },
        )


def _set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    def extend(blocks: tuple[tuple[int, ...], ...], m: int):
        if m == n:
            yield blocks
            return
        v = m + 1
        for bi, block in enumerate(blocks):
            yield from extend(blocks[:bi] + (block + (v,),) + blocks[bi + 1 :], m + 1)
        yield from extend(blocks + ((v,),), m + 1)

    if n == 0:
        yield ()
    else:
        yield from extend(((1,),), 1)


def stirling_lists(n: int, *, cap: int | None = None) -> Iterator[StatRecord]:
    """Partitions of {1^2, ..., n^2} into blocks of Stirling permutations.

    Statistics are summed over blocks, each block word padded with 0 at
    both ends for ascents and descents; plateaus are interior.
    """
    _check_cap("stirling_lists", n, cap)
    for blocks in _set_partitions(n):
        per_block = [list(_stirling_words(b)) for b in blocks]
        for choice in _product(*per_block):
            yield StatRecord(
                object_id="|".join(",".join(map(str, w)) for w in choice),
                stats={
                    "blocks": len(choice),
                    "asc": sum(stirling_ascents(w) for w in choice),
                    "des": sum(stirling_descents(w) for w in choice),
                    "plat": sum(plateaus(w) for w in choice),
                },
            )


def tally(keys: Iterable[tuple[int, ...]], symbols: tuple[str, ...]) -> Polynomial:
    """Sum over keys of the product symbol^exponent, pairing ``symbols`` with each key.

    Equal keys are counted first, so one monomial is built per distinct
    key; a symbol named twice sums its exponents.
    """
    return Polynomial((Monomial(zip(symbols, key)), count) for key, count in Counter(keys).items())


def stat_polynomial(
    records: Iterable[StatRecord], assignment: Mapping[str, str]
) -> Polynomial:
    """Tally sum over records of the product symbol^statistic.

    ``assignment`` maps statistic names to symbol names; every assigned
    statistic must be present on every record.
    """
    stats = tuple(assignment)

    def keys() -> Iterator[tuple[int, ...]]:
        for rec in records:
            try:
                key = tuple(rec.stats[stat] for stat in stats)
            except KeyError as exc:
                raise KeyError(
                    f"record {rec.object_id!r} has no statistic {exc.args[0]!r}"
                ) from None
            yield key

    return tally(keys(), tuple(assignment.values()))
