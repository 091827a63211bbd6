"""The oriented chain complex of nested sets and its integer homology.

A cell is a nested set; its orientation data is an enumeration of the
unsaturated elements together with a total order on each alpha set.
Transposing two adjacent unsaturated elements rescales a cell by
``(-1)^((|a1|-1)(|a2|-1))`` and reordering an alpha set by the sign of
the permutation, so every oriented cell reduces to a canonical
representative with a sign.  The boundary operator drops one cell
dimension by splitting an alpha set; the complex computes the homology
of the associahedron (contractible, so acyclic).

The k-cells are ``faces(D, k)``.  Each diagram's complex is built once
by ``cell_complex`` and cached as one map from a cell's tube bitmask to
its place and every boundary as sparse signed columns, each sign read
off popcounts of alpha bitmasks; it keeps no oriented cells.
``chain_basis`` and ``boundary_cell`` orient faces on demand, and
``boundary_matrix`` is a dense view of the columns.  ``homology``
eliminates the boundaries from the top dimension down with clearing
(``chain_homology``).

Sign convention: under the volume-form identification with the faces of
the convex realization, this boundary is the negative of the geometric
cellular boundary.  The global sign changes no kernel, image or
homology group.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

from ._ratlinalg import columns, eliminate, reduce_complex
from .diagram import Diagram, DiagramError, InvariantError, Value, bits, check_index, check_mask
from .nested import NestedSet, _tube_table, enumeration_key, faces


class OrientedCell(Value):
    """A nested set with ordered orientation data.

    ``orientation`` lists the unsaturated elements in enumeration order
    (``nested.enumeration_key``), each with its alpha vertices as an
    ordered tuple.
    """

    nested: NestedSet
    orientation: tuple[tuple[int, tuple[int, ...]], ...]
    __slots__ = _fields = ("nested", "orientation")

    @property
    def dim(self) -> int:
        return self.nested.dim

    def validate(self):
        expected = {B: alpha for B, alpha in self.nested.unsaturated()}
        listed = [B for B, _ in self.orientation]
        if sorted(listed) != sorted(expected):
            raise DiagramError("orientation must enumerate the unsaturated elements")
        if len(set(listed)) != len(listed):
            raise DiagramError("duplicated unsaturated element in orientation")
        for B, order in self.orientation:
            if sorted(order) != list(bits(expected[B])):
                raise DiagramError("alpha order must be a permutation of the alpha set")


def oriented(H: NestedSet) -> OrientedCell:
    """The canonical orientation: canonical enumeration, ascending alpha orders."""
    return OrientedCell(H, tuple((B, tuple(bits(a))) for B, a in H.unsaturated()))


def canonicalize(cell: OrientedCell) -> tuple[OrientedCell, int]:
    """Reduce to the canonical representative, returning it with the relation sign.

    Each pair of entries listed against the canonical enumeration adds
    ``(|a1|-1)(|a2|-1)`` to the sign exponent, and each inversion in an
    alpha order adds 1.
    """
    cell.validate()
    canon = oriented(cell.nested)
    place = {B: i for i, (B, _) in enumerate(canon.orientation)}
    entries = cell.orientation
    swaps = sum((len(a) - 1) * (len(b) - 1) for i, (A, a) in enumerate(entries)
                for B, b in entries[i + 1:] if place[A] > place[B])
    inversions = sum(x > y for _, order in entries for i, x in enumerate(order) for y in order[i + 1:])
    return canon, (-1) ** (swaps + inversions)


def shuffle(beta: int, alpha: int) -> int:
    """Transpositions moving beta (in alpha) to alpha's front: per v in beta, alpha - beta below v."""
    check_mask(beta)
    check_mask(alpha)
    if beta < 0 or alpha < 0:
        raise DiagramError(f"mask {min(beta, alpha):#x} is negative")
    if beta & ~alpha:
        raise DiagramError("beta must be a subset of alpha")
    rest, count = alpha & ~beta, 0
    while beta:
        v = beta & -beta
        count += (rest & (v - 1)).bit_count()
        beta ^= v
    return count


@lru_cache(maxsize=8)
def cell_complex(D: Diagram):
    """The oriented cell complex of D as ``(position, boundary)``.

    The k-cells are ``faces(D, k)``, each in its canonical orientation
    (``oriented``).  ``position`` maps the bitmask of a cell's tubes'
    ``nested._tube_table`` positions to its place in its dimension
    (``cell_index``), and ``boundary[k]`` holds one column ``{row: +-1}``
    per k-cell (empty for k = 0).

    A face of a cell is the cell plus one tube T compatible with all its
    tubes.  T splits the alpha set of the entry (B, alpha) with T inside
    B and meeting alpha into beta = T & alpha and rest (``shuffle``
    counts the transpositions).  ``(B, rest)`` keeps B's place in the
    enumeration and beta and rest stay ascending, so only ``(T, beta)``,
    listed before ``(B, rest)``, moves: passing entries e adds
    ``(|beta|-1) * sum(|alpha_e|-1)`` to the sign exponent.
    """
    tubes, pos, compatible, _vertices = _tube_table(D)
    full, position, boundary = (1 << len(tubes)) - 1, {}, []
    for k in range(D.n):  # every (k-1)-cell has its position before a k-cell's faces are read
        cols = []
        for c, H in enumerate(faces(D, k)):
            entries = H.unsaturated()
            have, free = 0, full
            for m in H.elements[:-1]:
                have, free = have | 1 << pos[m], free & compatible[pos[m]]
            position[have] = c
            # prefix[j]: the sum of |alpha_e| - 1 over the first j entries
            prefix = [0, *accumulate(alpha.bit_count() - 1 for _, alpha in entries)]
            col, new = {}, free & ~have  # a vertex (k = 0) has no new tube
            while new:
                low = new & -new
                new ^= low
                T = tubes[low.bit_length() - 1]
                for i, (B, alpha) in enumerate(entries):  # the one entry with T in B meeting alpha
                    beta = T & alpha
                    if beta and T & ~B == 0:
                        break
                size = beta.bit_count()
                exponent = prefix[i] + size - 1 + shuffle(beta, alpha)
                if size >= 2:
                    slot = bisect_left(entries, enumeration_key(T), key=lambda e: enumeration_key(e[0]))
                    lo, hi = sorted((slot, i))
                    # passing (B, rest) counts |rest| - 1 = |alpha| - 1 - size
                    passed = prefix[hi] - prefix[lo] - (size if slot > i else 0)
                    exponent += (size - 1) * passed
                face = position.get(have | low)
                if face is None:
                    raise InvariantError("boundary face is not a new nested set")
                col[face] = -1 if exponent & 1 else 1
            cols.append(col)
        boundary.append(tuple(cols))
    return position, tuple(boundary)


def cell_index(D: Diagram, H: NestedSet) -> int | None:
    """H's place in ``chain_basis(D, H.dim)``, or None when H is not a face of D."""
    pos = _tube_table(D)[1]
    proper = H.elements[:-1]
    if H.elements[-1:] == (D.full,) and all(m in pos for m in proper):
        return cell_complex(D)[0].get(sum(1 << pos[m] for m in proper))
    return None


def boundary_cell(D: Diagram, cell: OrientedCell) -> dict[OrientedCell, int]:
    """Signed boundary of one oriented cell, over canonical representatives.

    The cell's column of ``cell_complex(D)``, times the sign that brings
    ``cell`` to canonical form, over the oriented faces it names.
    """
    cell, sign = canonicalize(cell)
    c = cell_index(D, cell.nested)
    if c is None:
        raise DiagramError("cell is not a face of the diagram")
    col = cell_complex(D)[1][cell.dim][c]
    rows = faces(D, cell.dim - 1) if col else ()  # a vertex's column is empty
    return {oriented(rows[r]): sign * v for r, v in col.items()}


def boundary(D: Diagram, chain: dict[OrientedCell, int]) -> dict[OrientedCell, int]:
    """Boundary of a homogeneous integer chain (sparse, canonical cells)."""
    dims = {cell.dim for cell in chain}
    if len(dims) > 1:
        raise DiagramError("chain mixes dimensions")
    out: dict[OrientedCell, int] = {}
    for cell, coeff in chain.items():
        for face_cell, face_coeff in boundary_cell(D, cell).items():
            total = out.get(face_cell, 0) + coeff * face_coeff
            if total:
                out[face_cell] = total
            else:
                out.pop(face_cell, None)
    return out


def chain_basis(D: Diagram, k: int) -> list[OrientedCell]:
    """Canonical oriented cells of dimension k, in ``faces(D, k)`` order."""
    return [oriented(H) for H in faces(D, k)]


def boundary_matrix(D: Diagram, k: int) -> list[list[int]]:
    """Dense view of the boundary operator in the canonical cell bases.

    Rows are (k-1)-cells, columns k-cells; for ``k = 0`` the matrix has
    no rows.
    """
    check_index(k, D.n - 1, "dimension")
    boundary = cell_complex(D)[1]
    M = [[0] * len(boundary[k]) for _ in boundary[k - 1]] if k else []
    for c, col in enumerate(boundary[k]):
        for r, v in col.items():
            M[r][c] = v
    return M


# ---------------------------------------------------------------------------
# Smith normal form and homology


def smith_normal_form(M) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Sparse elimination on +-1 pivots yields a factor 1 per pivot.  On the
    block it leaves over, the least nonzero entry p moves to the corner
    and its column and row are reduced by floor division.  The least
    nonzero remainder there, smaller than |p|, is the next pivot, so the
    whole block is searched only after a factor: with none left, |p| is a
    factor and its row and column are dropped.  diag(a, b) and
    diag(gcd(a, b), lcm(a, b)) have the same Smith form, so a last pass
    over the pairs of factors orders them by divisibility.  The block is
    empty on the boundary matrices of every connected diagram with at
    most five vertices and of C6, C7, K6 and the 5-leg star.
    """
    return _smith(columns(M))[0]


def _smith(cols) -> tuple[list[int], list[int]]:
    """``smith_normal_form`` on columns ``{row: value}``, and the rows its unit pivots took."""
    pivoted, pivot_rows, A = eliminate(cols, unit_pivots=True)
    factors, near = [], []
    while pool := near or [(abs(v), r, c) for r, row in enumerate(A) for c, v in enumerate(row) if v]:
        _, r0, c0 = min(pool)
        A[0], A[r0] = A[r0], A[0]
        for row in A:
            row[0], row[c0] = row[c0], row[0]
        top = A[0]
        p = top[0]
        for row in A[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, top)]
        for c in range(1, len(top)):
            q = top[c] // p
            for row in A:
                row[c] -= q * row[0]
        near = [(abs(v), 0, c) for c, v in enumerate(top) if c and v]
        near += [(abs(row[0]), r, 0) for r, row in enumerate(A) if r and row[0]]
        if not near:
            factors.append(abs(p))
            A = [row[1:] for row in A[1:]]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = gcd(a, b), lcm(a, b)
    return [1] * len(pivoted) + factors, pivot_rows


def chain_homology(sizes, boundary) -> list[tuple[int, list[int]]]:
    """Integer homology of a chain complex, one (betti, torsion) per degree.

    ``sizes[k]`` counts the k-cells; ``boundary[k]``, k >= 1, holds d_k as
    one column ``{row: value}`` per k-cell.  The boundaries are reduced
    from the top down by ``_ratlinalg.reduce_complex``: d_k is eliminated
    without the columns of the k-cells that unit pivots of d_{k+1} sat
    on, which keeps its invariant factors.  The dense Smith pivots of a
    leftover block clear nothing: a non-unit pivot's block is not unimodular.
    """
    snfs = [[], *reduce_complex(boundary[:0:-1], _smith)[::-1]]
    return [(size - len(below) - len(above), [d for d in above if d > 1])
            for size, below, above in zip(sizes, snfs, [*snfs[1:], []])]


def homology(D: Diagram) -> list[tuple[int, list[int]]]:
    """Integer homology of the nested-set complex, one (betti, torsion) per degree.

    ``chain_homology`` of ``cell_complex(D)``, the cellular chain complex
    of a contractible polytope: Z in degree 0, nothing above.
    """
    boundary = cell_complex(D)[1]
    return chain_homology([len(cols) for cols in boundary], boundary)


def homology_json(D: Diagram) -> dict:
    report = []
    for betti, torsion in homology(D):
        entry = {"betti": betti}
        if torsion:
            entry["torsion"] = torsion
        report.append(entry)
    return {"H": report}
