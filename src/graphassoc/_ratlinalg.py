"""Exact linear algebra on integers: one sparse eliminator for ranks, factored spans.

Ranks and Smith normal forms go through ``eliminate``: the matrix is
given as columns of ``{row: value}`` (``columns`` converts dense rows)
and each step pivots in the shortest remaining column, on its entry
whose row is shortest, which keeps fill-in low on the sparse boundary
and Dynkin matrices.  Over Z only units may pivot, each a factor 1 of
the Smith normal form, so an empty leftover block certifies that every
invariant factor is 1.  Over Q any nonzero entry may pivot, so nothing
is left over and the pivot count is the rank.  Both run one integer
loop, and the module builds no ``Fraction``: over Q a ``Fraction``
column is first scaled to a primitive integer vector, which leaves the
rank unchanged, and a non-unit pivot updates fraction-free (Bareiss
1968), scaling the column by the pivot instead of dividing by it and
then dividing out the column's content.

``reduce_complex`` ranks a chain complex by clearing (Chen and Kerber,
"Persistent homology computation with a twist", 2011).  If d has pivots
on rows I and columns J, the block d[I, J] is nonsingular (eliminated,
it is triangular with the pivots on its diagonal), so e . d = 0 makes
each column i in I of the next differential e a combination of e's
other columns, and emptying them keeps e's rank.  Under unit pivots
d[I, J] is unimodular, so the combination is integral: e's image
lattice, and with it e's Smith normal form, stays too.

Subspaces are factored once into a ``Span``: one echelon pass over the
spanning vectors, on integer multiples of them, gives the independent
subfamily, primitive integer echelon rows and integer equations
cutting the span out, so membership is a check of those equations and
the coordinates of a member in the reduced echelon basis are its
entries at the pivots.  No linear system is solved per vector, and the
primitive integer rows ``ints`` are the span's one echelon form: a
reader wanting the reduced rows divides a row by its pivot entry.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class Span:
    """The span of a family of vectors in Q^dim, factored by one echelon pass.

    ``independent`` is the maximal independent subfamily in input order,
    each vector the tuple it was given (a vector is kept iff it is not in
    the span of those before it); ``ints`` holds primitive integer echelon
    rows, one per pivot of the ascending ``pivots``: the span's one echelon
    form, a row divided by its pivot entry being a reduced row echelon
    basis vector; ``equations`` holds, for each coordinate c off the
    pivots, integers ``(c, L, terms)`` with ``L * w[c] == sum(w[p] * x)``
    over the terms ``(p, x)``, for every w in the span.  The pass stops
    once the rank reaches ``dim``; a vector of another length is a ValueError.
    """

    __slots__ = ("independent", "ints", "pivots", "equations")

    def __init__(self, vectors, dim: int):
        kept, rows, pivots = [], [], []  # rows: primitive integer echelon rows
        for v in vectors:
            _check_length(v, dim)
            if len(pivots) == dim:
                continue
            w = _primitive(v)
            for row, p in zip(rows, pivots):
                if w[p]:
                    w = _clear(w, row, p)
            lead = next((c for c, x in enumerate(w) if x), None)
            if lead is None:
                continue
            kept.append(tuple(v))
            at = bisect(pivots, lead)
            pivots.insert(at, lead)
            rows.insert(at, w)
        for i in reversed(range(len(rows))):  # back substitution: clear above each pivot
            row, p = rows[i], pivots[i]
            for k in range(i):
                if rows[k][p]:
                    rows[k] = _clear(rows[k], row, p)
        self.independent = tuple(kept)
        self.ints = tuple(map(tuple, rows))
        self.pivots = tuple(pivots)
        L = lcm(*(row[p] for row, p in zip(rows, pivots)))
        self.equations = tuple(
            (c, L, tuple((p, row[c] * L // row[p]) for p, row in zip(pivots, rows) if row[c]))
            for c in sorted(set(range(dim)) - set(pivots)))

    def contains(self, w) -> bool:
        """True iff w (a vector in Q^dim) lies in the span."""
        _check_length(w, len(self.pivots) + len(self.equations))
        return all(L * w[c] == sum(w[p] * x for p, x in terms) for c, L, terms in self.equations)


def _check_length(v, dim: int):
    """A ``ValueError`` unless the vector v has ``dim`` entries."""
    if len(v) != dim:
        raise ValueError(f"a vector of length {len(v)} in a span of dim {dim}")


@lru_cache(maxsize=256)
def _solve_cached(basis, dim: int) -> Span:
    """The factored span of a tuple of basis tuples in Q^dim, cached per basis."""
    return Span(basis, dim)


def columns(M):
    """The columns ``{row: value}`` of a dense row-list matrix, zero columns included."""
    cols = [{} for _ in (M[0] if M else ())]
    for r, row in enumerate(M):
        for c, v in enumerate(row):
            if v:
                cols[c][r] = v
    return cols


def _clear(w, row, p):
    """The primitive part of ``(row[p]/g) * w - (w[p]/g) * row``, zero at p: fraction-free."""
    g = gcd(row[p], w[p])
    s, f = row[p] // g, w[p] // g
    w = [s * a - f * b if b else s * a for a, b in zip(w, row)]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _primitive(values):
    """Ints or Fractions scaled by a positive rational to a primitive integer list.

    The scale makes the entries coprime integers; a zero vector stays zero.
    All-int values skip the denominator pass.
    """
    w = list(values)
    if any(type(x) is not int for x in w):
        den = lcm(*(x.denominator for x in w))
        w = [x.numerator * (den // x.denominator) for x in w]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def eliminate(cols, unit_pivots: bool):
    """Sparse elimination of a matrix given as columns ``{row: value}``.

    The input columns are left untouched.  Returns the pivoted columns'
    positions, in pivot order, the row each pivoted on, and the block left
    over, as dense rows (empty when every column was eliminated).  With
    ``unit_pivots`` only entries +1 and -1 may pivot; otherwise any nonzero
    entry may, once a ``Fraction`` column is scaled to a primitive integer
    vector.  A unit pivot p updates by ``col - (x * p) * pivot_col``; any
    other takes the fraction-free ``(p/g) * col - (x/g) * pivot_col`` with
    g = gcd(p, x), after which the column's content is divided out.  Either
    way the entries stay integers when the input's are.
    """
    cols = {c: dict(col) if unit_pivots or all(type(v) is int for v in col.values())
            else dict(zip(col, _primitive(col.values()))) for c, col in enumerate(cols) if col}
    rows = {}
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)
    heap = [(len(col), c) for c, col in cols.items()]
    heapify(heap)
    pivoted, pivot_rows = [], []
    while heap:
        size, pc = heappop(heap)
        pivot_col = cols.get(pc)
        if pivot_col is None or len(pivot_col) != size:
            continue  # a stale entry: the column was eliminated or changed
        candidates = pivot_col
        if unit_pivots:
            candidates = [r for r, v in pivot_col.items() if v == 1 or v == -1]
        if not candidates:
            continue  # no unit yet; the column is queued again if it changes
        pr = min(candidates, key=lambda r: (len(rows[r]), r))
        del cols[pc]
        for r in pivot_col:
            rows[r].discard(pc)
        pv = pivot_col.pop(pr)
        unit = pv == 1 or pv == -1
        for c in rows.pop(pr):
            col = cols[c]
            x = col.pop(pr)
            if unit:
                f = x * pv
            else:
                g = gcd(pv, x)
                s, f = pv // g, x // g
                for r in col:
                    col[r] *= s
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
                if not unit:
                    g = gcd(*col.values())
                    if g != 1:
                        for r in col:
                            col[r] //= g
                heappush(heap, (len(col), c))
            else:
                del cols[c]
        pivoted.append(pc)
        pivot_rows.append(pr)
    left_rows = sorted({r for col in cols.values() for r in col})
    leftover = [[col.get(r, 0) for col in cols.values()] for r in left_rows]
    return pivoted, pivot_rows, leftover


def reduce_complex(diffs, reduce) -> list:
    """``reduce(cols)``, a ``(result, pivot_rows)`` pair, of each differential of a complex in
    composable order, with the columns of the previous one's pivot rows emptied: the results."""
    results, cleared = [], ()
    for cols in diffs:
        result, rows = reduce([{} if c in cleared else col for c, col in enumerate(cols)])
        results.append(result)
        cleared = set(rows)
        del cols  # drop each differential before the next is built
    return results


def rank(M) -> int:
    """Rank over Q of a dense row-list matrix of ints or Fractions."""
    return len(eliminate(columns(M), unit_pivots=False)[0])


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
