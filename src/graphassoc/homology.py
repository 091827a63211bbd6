"""The oriented chain complex of nested sets and its integer homology.

A cell is a nested set; its orientation data is an enumeration of the
unsaturated elements together with a total order on each alpha set.
Transposing two adjacent unsaturated elements rescales a cell by
``(-1)^((|a1|-1)(|a2|-1))`` and reordering an alpha set by the sign of
the permutation, so every oriented cell reduces to a canonical
representative with a sign.  The boundary operator drops one cell
dimension by splitting an alpha set; the complex computes the homology
of the associahedron (contractible, so acyclic).

Each diagram's complex is built once by ``cell_complex`` and cached:
the canonical cells of each dimension, a cell -> index map and every
boundary as sparse signed columns, with each sign computed by
arithmetic on the canonical data.  ``boundary_cell``, ``chain_basis``
and ``homology`` read it; ``boundary_matrix`` is a dense view of it.

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

from ._ratlinalg import columns, eliminate, rank  # rank: re-exported for callers of this module
from .diagram import Diagram, DiagramError, InvariantError, Value, bits
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

    def __init__(self, nested: NestedSet, orientation: tuple[tuple[int, tuple[int, ...]], ...]):
        object.__setattr__(self, "nested", nested)
        object.__setattr__(self, "orientation", orientation)

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


def shuffle_number(beta, alpha) -> int:
    """Transpositions needed to move ``beta`` to the front of ``alpha``.

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


@lru_cache(maxsize=8)
def cell_complex(D: Diagram):
    """The oriented cell complex of D as ``(cells, index, boundary)``, by dimension k.

    ``cells[k]`` holds the canonical oriented cells over ``faces(D, k)``,
    ``index[k]`` maps a cell's elements to its position, and
    ``boundary[k]`` one column ``{row: +-1}`` per k-cell (empty for k = 0).

    A face of a cell is the cell plus one tube T compatible with all its
    tubes (``nested._tube_table``).  T splits the alpha set of the entry
    (B, alpha) with T inside B and meeting alpha into beta = T & alpha
    and rest.  ``(B, rest)`` keeps B's place in the enumeration and beta
    and rest stay ascending, so only ``(T, beta)``, listed before
    ``(B, rest)``, moves: passing entries e adds
    ``(|beta|-1) * sum(|alpha_e|-1)`` to the sign exponent.
    """
    cells = tuple(tuple(oriented(H) for H in faces(D, k)) for k in range(D.n))
    index = tuple({cell.nested.elements: i for i, cell in enumerate(row)} for row in cells)
    tubes, pos, compatible, _vertices = _tube_table(D)
    # each cell's position keyed by the bitmask of its tubes' positions (D itself, last, has none)
    by_mask = [{sum(1 << pos[m] for m in cell.nested.elements[:-1]): i for i, cell in enumerate(row)}
               for row in cells]
    boundary = [tuple({} for _ in cells[0])]
    for k in range(1, D.n):
        cols = []
        for have, c in by_mask[k].items():
            entries = cells[k][c].orientation
            keys = [enumeration_key(B) for B, _ in entries]
            # prefix[j]: the sum of |alpha_e| - 1 over the first j entries
            prefix = [0, *accumulate(len(alpha) - 1 for _, alpha in entries)]
            free = (1 << len(tubes)) - 1
            for t in bits(have):
                free &= compatible[t]
            col = {}
            for t in bits(free & ~have):
                T = tubes[t]
                for i, (B, alpha) in enumerate(entries):  # the one entry with T in B meeting alpha
                    beta = tuple(v for v in alpha if T >> v & 1)
                    if beta and T & ~B == 0:
                        break
                size = len(beta)
                exponent = prefix[i] + size - 1 + shuffle_number(beta, alpha)
                if size >= 2:
                    slot = bisect_left(keys, enumeration_key(T))
                    lo, hi = sorted((slot, i))
                    # passing (B, rest) counts |rest| - 1 = |alpha| - 1 - size
                    passed = prefix[hi] - prefix[lo] - (size if slot > i else 0)
                    exponent += (size - 1) * passed
                row = by_mask[k - 1].get(have | 1 << t)
                if row is None:
                    raise InvariantError("boundary face is not a new nested set")
                col[row] = (-1) ** exponent
            cols.append(col)
        boundary.append(tuple(cols))
    return cells, index, tuple(boundary)


def boundary_cell(D: Diagram, cell: OrientedCell) -> dict[OrientedCell, int]:
    """Signed boundary of one oriented cell, over canonical representatives.

    The cell's column of ``cell_complex(D)``, times the sign that brings
    ``cell`` to canonical form.
    """
    cell, sign = canonicalize(cell)
    cells, index, boundary = cell_complex(D)
    k = cell.dim
    c = index[k].get(cell.nested.elements) if 0 <= k < D.n else None
    if c is None:
        raise DiagramError("cell is not a face of the diagram")
    return {cells[k - 1][r]: sign * v for r, v in boundary[k][c].items()}


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
    if not 0 <= k <= D.n - 1:
        raise DiagramError(f"dimension {k} out of range")
    return list(cell_complex(D)[0][k])


def boundary_matrix(D: Diagram, k: int) -> list[list[int]]:
    """Dense view of the boundary operator in the canonical cell bases.

    Rows are (k-1)-cells, columns k-cells; for ``k = 0`` the matrix has
    no rows.
    """
    if not 0 <= k <= D.n - 1:
        raise DiagramError(f"dimension {k} out of range")
    cells, _, boundary = cell_complex(D)
    M = [[0] * len(cells[k]) for _ in cells[k - 1]] if k else []
    for c, col in enumerate(boundary[k]):
        for r, v in col.items():
            M[r][c] = v
    return M


def boundary_matrix_json(D: Diagram, k: int) -> dict:
    if not 0 <= k <= D.n - 1:
        raise DiagramError(f"dimension {k} out of range")
    cells, _, boundary = cell_complex(D)
    return {
        "rows": len(cells[k - 1]) if k > 0 else 0,
        "cols": len(cells[k]),
        "entries": sorted([r, c, v] for c, col in enumerate(boundary[k]) for r, v in col.items()),
    }


# ---------------------------------------------------------------------------
# Smith normal form and homology


def smith_normal_form(M) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Sparse elimination on +-1 pivots yields a factor 1 per pivot.  On the
    block it leaves over, the least nonzero entry p moves to the corner
    and its column and row are reduced by floor division.  A nonzero
    remainder, smaller than |p|, is the next pivot; otherwise |p| is a
    factor and its row and column are dropped.  diag(a, b) and
    diag(gcd(a, b), lcm(a, b)) have the same Smith form, so a last pass
    over the pairs of factors orders them by divisibility.  The block is
    empty on the boundary matrices of every connected diagram with at
    most five vertices and of C6, C7, K6 and the 5-leg star.
    """
    return _smith(columns(M))


def _smith(cols) -> list[int]:
    """``smith_normal_form`` of the matrix with columns ``{row: value}``."""
    pivots, A = eliminate(cols, unit_pivots=True)
    factors = []
    while any(map(any, A)):
        _, r0, c0 = min((abs(v), r, c) for r, row in enumerate(A) for c, v in enumerate(row) if v)
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
        if not any(top[1:]) and not any(row[0] for row in A[1:]):
            factors.append(abs(p))
            A = [row[1:] for row in A[1:]]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = gcd(a, b), lcm(a, b)
    return [1] * pivots + factors


def homology(D: Diagram) -> list[tuple[int, list[int]]]:
    """Integer homology of the nested-set complex, one (betti, torsion) per degree.

    The complex is the cellular chain complex of a contractible polytope,
    so the expected answer is Z in degree 0 and nothing above.
    """
    cells, _, boundary = cell_complex(D)
    snfs = {k: _smith(boundary[k]) for k in range(1, D.n)}
    out = []
    for k, row in enumerate(cells):
        betti = len(row) - len(snfs.get(k, [])) - len(snfs.get(k + 1, []))
        out.append((betti, [d for d in snfs.get(k + 1, []) if d > 1]))
    return out


def homology_json(D: Diagram) -> dict:
    report = []
    for betti, torsion in homology(D):
        entry = {"betti": betti}
        if torsion:
            entry["torsion"] = torsion
        report.append(entry)
    return {"H": report}
