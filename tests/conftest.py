import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import settings

from graphassoc import families
from graphassoc.diagram import Diagram, DiagramError

settings.register_profile("fast", max_examples=50, deadline=None)
settings.load_profile("fast")


path_diagram = families.path
cycle_diagram = families.cycle
star_diagram = families.star
complete_diagram = families.complete
labeled_connected = lru_cache(maxsize=None)(families.labeled_connected)
connected_reps = lru_cache(maxsize=None)(families.connected_reps)


def rref(M):
    """Reduced row echelon form and pivot columns (copy, input untouched): the dense oracle.

    Entries are taken as Fractions, so int input is reduced exactly too.
    """
    A = [[Fraction(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        scale = A[r][c]
        A[r] = [x / scale for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                factor = A[i][c]
                A[i] = [x - factor * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def bareiss_rank(M) -> int:
    """Rank of a dense integer row-list matrix by fraction-free elimination (Bareiss 1968).

    The fast oracle for integer matrices, sharing no code with the library's
    eliminator: the input is copied, each step scales the rows below the
    pivot by the pivot and divides them exactly by the previous pivot, so
    every entry stays an integer (a minor of the input).
    """
    A = [list(row) for row in M]
    rank, previous = 0, 1
    for c in range(len(A[0]) if A else 0):
        pivot = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        top = A[rank]
        p = top[c]
        for i in range(rank + 1, len(A)):
            x = A[i][c]
            A[i] = [(p * a - x * b) // previous for a, b in zip(A[i], top)]
        previous = p
        rank += 1
    return rank


def shuffle_number(beta, alpha) -> int:
    """Transpositions needed to move ``beta`` to the front of ``alpha``: the walking oracle.

    ``beta`` must be a subsequence of ``alpha`` in the same order; with
    1-based positions j_1 < ... < j_p the count is ``sum(j_t - t)``.
    """
    positions = []
    cursor = 0
    for x in beta:
        while cursor < len(alpha) and alpha[cursor] != x:
            cursor += 1
        if cursor == len(alpha):
            raise DiagramError("beta is not an ordered subset of alpha")
        positions.append(cursor + 1)
        cursor += 1
    return sum(j - t for t, j in enumerate(positions, start=1))


def relabelings(D, count=2, seed=0):
    """A few nontrivial labeled isomorphs of D (names permuted in place)."""
    import random

    rng = random.Random(seed)
    out = []
    perms = list(itertools.permutations(range(D.n)))[1:]
    rng.shuffle(perms)
    for perm in perms[:count]:
        edges = []
        for i in range(D.n):
            for j in range(i + 1, D.n):
                if D.adj[i] & (1 << j):
                    edges.append((perm[i], perm[j], D.label(i, j)))
        out.append(Diagram.from_edges([str(i + 1) for i in range(D.n)], edges))
    return out


@pytest.fixture(scope="session")
def small_diagrams():
    """All labeled connected diagrams with at most 4 vertices."""
    out = []
    for n in range(1, 5):
        out.extend(labeled_connected(n))
    return out


@pytest.fixture(scope="session")
def five_vertex_reps():
    return connected_reps(5)
