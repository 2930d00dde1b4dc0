"""Increasing plane forests with typed leaves, grown by vertex insertion.

A forest is an ordered sequence of planted increasing plane trees whose
root labels increase left to right and whose internal labels partition
[n].  Each flavor fixes how many children an internal node has, which
leaf letters a fresh node brings, and what a brand-new one-node tree
carries:

    binary        root slot: (x,)        node slots: (x, y)
    full-binary   root slots: (x, y)     node slots: (x, y)
    ternary       root slot: (x,)        node slots: (x, y, y)
    full-ternary  root slots: (x, y, z)  node slots: (x, y, z)

A forest is stored as its encoding, such as ``1(x,2(x,y)) + 3(x)``: each
node is its label followed by its children in parentheses, and the trees
are joined by `` + ``.  The letters x, y and z occur in it only as
leaves, left to right in preorder.  Vertex m+1 is added either at an
existing leaf, whose letter becomes ``m+1(<node slots>)``, or as a new
rightmost root; the leaves are tried in that preorder, then the new root.
This insertion procedure generates every forest exactly once, which the
tests verify by checking encodings for duplicates against known counts.

:func:`grow_forests` checks the flavor and the cap when called and returns
the walk of encodings.  A tally, and each line of ``normord enumerate``,
reads an encoding with one :func:`census`.
"""

from __future__ import annotations

from typing import Iterator

from .combinat import check_cap, grow

# flavor -> (root slots, node slots), as the encoding writes them
FLAVORS = {
    "binary": ("x", "x,y"),
    "full-binary": ("x,y", "x,y"),
    "ternary": ("x", "x,y,y"),
    "full-ternary": ("x,y,z", "x,y,z"),
}


def census(word: str) -> tuple[int, int, int, int]:
    """The x, y and z leaf counts of an encoding, then its tree count."""
    return word.count("x"), word.count("y"), word.count("z"), word.count("+") + (word != "")


def grow_forests(flavor: str, n: int) -> Iterator[str]:
    """The encodings of all forests of the flavor on [n], one at a time."""
    if flavor not in FLAVORS:
        known = ", ".join(FLAVORS)
        raise KeyError(f"unknown forest flavor {flavor!r}; known: {known}")
    check_cap(f"{flavor}-forests", n)
    root_slots, node_slots = FLAVORS[flavor]

    def children(word: str, m: int) -> Iterator[str]:
        fresh = f"{m + 1}({node_slots})"
        for pos, letter in enumerate(word):
            if letter in "xyz":
                yield word[:pos] + fresh + word[pos + 1 :]
        root = f"{m + 1}({root_slots})"
        yield f"{word} + {root}" if word else root

    return grow("", n, children)
