"""Exact linear algebra: one sparse eliminator for ranks, dense solves.

Ranks and Smith normal forms go through ``eliminate``: the matrix is
given as columns of ``{row: value}`` (``columns`` converts dense rows)
and each step pivots in the shortest remaining column, on its entry
whose row is shortest, which keeps fill-in low on the sparse boundary
and Dynkin matrices.  Over Q any nonzero entry may pivot, so nothing is
left over and the pivot count is the rank.  Over Z only units may
pivot: removing a unit pivot is a reduction of the chain complex
(Kaczynski-Mrozek-Slusarek 1998) that leaves the Smith normal form of
the rest unchanged, so an empty leftover block certifies that every
invariant factor is 1.

Solves (``solve_columns``) are dense: lists of row lists of
``Fraction``, vectors as tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush


def rref(M):
    """Reduced row echelon form and pivot columns (copy, input untouched)."""
    A = [list(row) for row in M]
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


def columns(M):
    """The columns ``{row: value}`` of a dense row-list matrix, zero columns included."""
    cols = [{} for _ in (M[0] if M else ())]
    for r, row in enumerate(M):
        for c, v in enumerate(row):
            if v:
                cols[c][r] = v
    return cols


def eliminate(cols, unit_pivots: bool):
    """Sparse elimination of a matrix given as columns ``{row: value}``.

    The input columns are left untouched.  Returns the number of pivots
    taken and the block left over, as dense rows (empty when every
    column was eliminated).  With ``unit_pivots`` only entries +1 and -1
    may pivot and the arithmetic stays integral; otherwise any nonzero
    entry may.
    """
    cols = {c: dict(col) for c, col in enumerate(cols) if col}
    rows = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)
    heap = [(len(col), c) for c, col in cols.items()]
    heapify(heap)
    pivots = 0
    while heap:
        size, pc = heappop(heap)
        pivot_col = cols.get(pc)
        if pivot_col is None or len(pivot_col) != size:
            continue  # a stale entry: the column was eliminated or changed
        candidates = [
            r for r, v in pivot_col.items() if not unit_pivots or v == 1 or v == -1
        ]
        if not candidates:
            continue  # no unit yet; the column is queued again if it changes
        pr = min(candidates, key=lambda r: (len(rows[r]), r))
        del cols[pc]
        for r in pivot_col:
            rows[r].discard(pc)
        pv = pivot_col.pop(pr)
        inv = pv if unit_pivots else 1 / Fraction(pv)
        for c in rows.pop(pr):
            col = cols[c]
            f = col.pop(pr) * inv
            for r, v in pivot_col.items():
                nv = col.get(r, 0) - f * v
                if nv:
                    if r not in col:
                        rows[r].add(c)
                    col[r] = nv
                elif r in col:
                    del col[r]
                    rows[r].discard(c)
            if col:
                heappush(heap, (len(col), c))
            else:
                del cols[c]
        pivots += 1
    left_rows = sorted({r for col in cols.values() for r in col})
    leftover = [[col.get(r, 0) for col in cols.values()] for r in left_rows]
    return pivots, leftover


def rank(M) -> int:
    """Rank over Q of a dense row-list matrix of ints or Fractions."""
    return eliminate(columns(M), unit_pivots=False)[0]


def solve_columns(basis, vec):
    """Coefficients expressing ``vec`` in the given column vectors, or None."""
    return _solve_cached(tuple(tuple(v) for v in basis), tuple(vec))


@lru_cache(maxsize=1 << 18)
def _solve_cached(basis, vec):
    if not basis:
        return None if any(x != 0 for x in vec) else ()
    n = len(basis[0])
    aug = [[basis[j][i] for j in range(len(basis))] + [vec[i]] for i in range(n)]
    A, pivots = rref(aug)
    if len(basis) in pivots:
        return None
    coords = [Fraction(0)] * len(basis)
    for r, c in enumerate(pivots):
        coords[c] = A[r][-1]
    return tuple(coords)


def subspace_leq(sub, sup) -> bool:
    """True iff span(sub) is contained in span(sup), columns as vectors."""
    return all(solve_columns(sup, v) is not None for v in sub)


def product_is_zero(A, B) -> bool:
    """True iff the matrix product A @ B vanishes, exploiting sparsity."""
    if not A or not B:
        return True
    a_cols = columns(A)
    for c in range(len(B[0])):
        acc = {}
        for k, row in enumerate(B):
            b = row[c]
            if b:
                for r, v in a_cols[k].items():
                    acc[r] = acc.get(r, 0) + v * b
        if any(x != 0 for x in acc.values()):
            return False
    return True


def independent_columns(vectors):
    """A maximal independent subfamily, keeping the original order."""
    kept = []
    for v in vectors:
        if solve_columns(kept, v) is None:
            kept.append(tuple(Fraction(x) for x in v))
    return tuple(kept)
