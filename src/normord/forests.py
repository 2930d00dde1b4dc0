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

Vertex m+1 is added either at an existing leaf (consuming that leaf,
spawning the node slots) or as a new rightmost root.  This insertion
procedure generates every forest exactly once, which the tests verify by
checking encodings for duplicates against known counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

Node = tuple  # (label, children); children are Node or leaf letter strings
Tree = Node
Leaves = tuple[int, int, int]  # counts of x, y, z leaves

FLAVORS: dict[str, dict[str, tuple[str, ...]]] = {
    "binary": {"root": ("x",), "node": ("x", "y")},
    "full-binary": {"root": ("x", "y"), "node": ("x", "y")},
    "ternary": {"root": ("x",), "node": ("x", "y", "y")},
    "full-ternary": {"root": ("x", "y", "z"), "node": ("x", "y", "z")},
}

CAPS = {
    "binary": 9,
    "full-binary": 9,
    "ternary": 7,
    "full-ternary": 7,
}


@dataclass(frozen=True)
class Forest:
    flavor: str
    trees: tuple[Tree, ...]
    leaves: Leaves

    @property
    def k(self) -> int:
        return len(self.trees)

    def leaf_count(self, letter: str) -> int:
        return self.leaves["xyz".index(letter)]

    def encode(self) -> str:
        return " + ".join(_encode_tree(t) for t in self.trees)


def _encode_tree(node: Union[Node, str]) -> str:
    if isinstance(node, str):
        return node
    label, children = node
    return f"{label}({','.join(_encode_tree(c) for c in children)})"


def _attachments(
    node: Node, fresh: Node
) -> Iterator[tuple[Node, str]]:
    """All ways to replace one leaf of ``node`` by ``fresh``; yields the
    rebuilt node and the letter of the consumed leaf."""
    label, children = node
    for idx, child in enumerate(children):
        if isinstance(child, str):
            rebuilt = (label, children[:idx] + (fresh,) + children[idx + 1 :])
            yield rebuilt, child
        else:
            for sub, eaten in _attachments(child, fresh):
                yield (label, children[:idx] + (sub,) + children[idx + 1 :]), eaten


def grow_forests(flavor: str, n: int, *, cap: int | None = None) -> Iterator[Forest]:
    """All forests of the flavor on [n], one at a time."""
    spec = FLAVORS.get(flavor)
    if spec is None:
        known = ", ".join(FLAVORS)
        raise KeyError(f"unknown forest flavor {flavor!r}; known: {known}")
    limit = CAPS[flavor] if cap is None else cap
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > limit:
        raise ValueError(f"{flavor} forests capped at n = {limit} (requested {n})")

    root_letters = spec["root"]
    node_letters = spec["node"]

    def delta(letters: tuple[str, ...], eaten: str = "") -> Leaves:
        return tuple(letters.count(c) - eaten.count(c) for c in "xyz")

    root_delta = delta(root_letters)
    eat_delta = {eaten: delta(node_letters, eaten) for eaten in "xyz"}

    def extend(trees: tuple[Tree, ...], counts: Leaves, d: Leaves, m: int):
        counts = (counts[0] + d[0], counts[1] + d[1], counts[2] + d[2])
        if m == n:
            yield Forest(flavor=flavor, trees=trees, leaves=counts)
            return
        fresh = (m + 1, node_letters)
        for ti, tree in enumerate(trees):
            for rebuilt, eaten in _attachments(tree, fresh):
                grown = trees[:ti] + (rebuilt,) + trees[ti + 1 :]
                yield from extend(grown, counts, eat_delta[eaten], m + 1)
        yield from extend(trees + ((m + 1, root_letters),), counts, root_delta, m + 1)

    if n == 0:
        yield Forest(flavor=flavor, trees=(), leaves=(0, 0, 0))
        return
    yield from extend(((1, root_letters),), (0, 0, 0), root_delta, 1)
