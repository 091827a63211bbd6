"""Named diagram families and one representative per isomorphism class.

Paths, cycles, stars and complete graphs give the associahedra,
cyclohedra, stellohedra and permutohedra (Carr–Devadoss 2006).  Vertices
are named "1".."n", except that a star's centre is "0" and its leaves
"1".."legs".  Edges are infinite unless a path or cycle is given a
``label``.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .diagram import Diagram, bits, is_connected


def _numbered(n: int, pairs, label) -> Diagram:
    edges = [pair if label is None else (*pair, label) for pair in pairs]
    return Diagram.from_edges([str(i + 1) for i in range(n)], edges)


def path(n: int, label=None) -> Diagram:
    return _numbered(n, [(i, i + 1) for i in range(n - 1)], label)


def cycle(n: int, label=None) -> Diagram:
    return _numbered(n, [(i, (i + 1) % n) for i in range(n)], label)


def complete(n: int) -> Diagram:
    return _numbered(n, combinations(range(n), 2), None)


def star(legs: int) -> Diagram:
    edges = [(0, i) for i in range(1, legs + 1)]
    return Diagram.from_edges([str(i) for i in range(legs + 1)], edges)


def labeled_connected(n: int) -> tuple[Diagram, ...]:
    """Every connected diagram on the vertices "1".."n", by edge-subset bitmask."""
    pairs = list(combinations(range(n), 2))
    out = []
    for selector in range(1 << len(pairs)):
        D = _numbered(n, [pairs[k] for k in bits(selector)], None)
        if is_connected(D, D.full):
            out.append(D)
    return tuple(out)


def _canonical_form(D: Diagram) -> tuple[tuple[int, int], ...]:
    """The least sorted edge list over all relabelings; equal exactly for isomorphic graphs."""
    edges = [(i, j) for i in range(D.n) for j in bits(D.adj[i]) if i < j]
    return min(
        tuple(sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in edges))
        for p in permutations(range(D.n))
    )


def connected_reps(n: int) -> tuple[Diagram, ...]:
    """The first diagram of ``labeled_connected(n)`` in each isomorphism class."""
    reps = {}
    for D in labeled_connected(n):
        reps.setdefault(_canonical_form(D), D)
    return tuple(reps.values())
