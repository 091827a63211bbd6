"""The oriented chain complex of nested sets and its integer homology.

A cell is a nested set; its orientation data is an enumeration of the
unsaturated elements together with a total order on each alpha set.
Transposing two adjacent unsaturated elements rescales a cell by
``(-1)^((|a1|-1)(|a2|-1))`` and reordering an alpha set by the sign of
the permutation, so every oriented cell reduces to a canonical
representative with a sign.  The boundary operator drops one cell
dimension by splitting an alpha set; the complex computes the homology
of the associahedron (contractible, so acyclic).

Sign convention: under the volume-form identification with the faces of
the convex realization, this boundary is the negative of the geometric
cellular boundary.  The global sign changes no kernel, image or
homology group.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations

from ._ratlinalg import eliminate, rank  # rank: re-exported for callers of this module
from .diagram import Diagram, DiagramError, InvariantError, bits, component_containing, is_compatible
from .nested import NestedSet, element_key, faces


@dataclass(frozen=True)
class OrientedCell:
    """A nested set with ordered orientation data.

    ``orientation`` lists the unsaturated elements in enumeration order,
    each with its alpha vertices as an ordered tuple.
    """

    nested: NestedSet
    orientation: tuple[tuple[int, tuple[int, ...]], ...]

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


def _perm_sign(seq, target) -> int:
    order = [target.index(x) for x in seq]
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def canonicalize(cell: OrientedCell) -> tuple[OrientedCell, int]:
    """Reduce to the canonical representative, returning it with the relation sign."""
    cell.validate()
    entries = list(cell.orientation)
    sign = 1
    # bubble sort of the enumeration, each adjacent swap contributes eq-or-1 sign
    key = lambda e: ((e[0] & -e[0]).bit_length(), bin(e[0]).count("1"))
    for i in range(len(entries)):
        for j in range(len(entries) - 1 - i):
            if key(entries[j]) > key(entries[j + 1]):
                a, b = entries[j], entries[j + 1]
                sign *= (-1) ** ((len(a[1]) - 1) * (len(b[1]) - 1))
                entries[j], entries[j + 1] = b, a
    fixed = []
    for B, order in entries:
        ascending = tuple(sorted(order))
        sign *= _perm_sign(order, ascending)
        fixed.append((B, ascending))
    return OrientedCell(cell.nested, tuple(fixed)), sign


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


def boundary_cell(D: Diagram, cell: OrientedCell) -> dict[OrientedCell, int]:
    """Signed boundary of one oriented cell, over canonical representatives.

    The cell's nested set is validated once; each face adds one element
    ``D_beta``, which meets alpha and so is new, and only its
    compatibility with the others is checked.
    """
    cell, base_sign = canonicalize(cell)
    if cell.dim == 0:
        return {}
    out: dict[OrientedCell, int] = {}
    H = cell.nested
    H.validate()
    entries = cell.orientation
    prefix = 0  # running exponent sum (|alpha_1|-1) + ... + (|alpha_{i-1}|-1)
    for i, (B, alpha) in enumerate(entries):
        alpha_mask = sum(1 << v for v in alpha)
        for size in range(1, len(alpha)):
            for beta in combinations(alpha, size):
                beta_mask = sum(1 << v for v in beta)
                D_beta = component_containing(
                    D, alpha_mask & ~beta_mask, beta_mask, within=B
                )
                if D_beta == 0:
                    continue
                sign = (
                    base_sign
                    * (-1) ** prefix
                    * (-1) ** (len(beta) - 1)
                    * (-1) ** shuffle_number(beta, alpha)
                )
                if not all(is_compatible(D, D_beta, m) for m in H.elements):
                    raise InvariantError("boundary face is not a nested set")
                elements = list(H.elements)
                insort(elements, D_beta, key=element_key)
                G = NestedSet(D, tuple(elements))
                rest = tuple(v for v in alpha if v not in beta)
                induced_or = list(entries[:i])
                if len(beta) >= 2:
                    induced_or.append((D_beta, beta))
                if len(rest) >= 2:
                    induced_or.append((B, rest))
                induced_or.extend(entries[i + 1:])
                canon, extra = canonicalize(OrientedCell(G, tuple(induced_or)))
                coeff = out.get(canon, 0) + sign * extra
                if coeff:
                    out[canon] = coeff
                else:
                    out.pop(canon, None)
        prefix += len(alpha) - 1
    return out


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
    """Canonical oriented cells of dimension k, in deterministic order."""
    return [oriented(H) for H in faces(D, k)]


def boundary_matrix(D: Diagram, k: int) -> list[list[int]]:
    """The matrix of the boundary operator in the canonical cell bases.

    Rows are (k-1)-cells, columns k-cells; for ``k = 0`` the matrix has
    no rows.
    """
    if not 0 <= k <= D.n - 1:
        raise DiagramError(f"dimension {k} out of range")
    cols = chain_basis(D, k)
    if k == 0:
        return []
    rows = chain_basis(D, k - 1)
    index = {cell: r for r, cell in enumerate(rows)}
    M = [[0] * len(cols) for _ in rows]
    for c, cell in enumerate(cols):
        for face_cell, coeff in boundary_cell(D, cell).items():
            M[index[face_cell]][c] = coeff
    return M


def boundary_matrix_json(D: Diagram, k: int) -> dict:
    M = boundary_matrix(D, k)
    entries = [
        [r, c, v] for r, row in enumerate(M) for c, v in enumerate(row) if v
    ]
    return {
        "rows": len(chain_basis(D, k - 1)) if k > 0 else 0,
        "cols": len(chain_basis(D, k)),
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# Smith normal form and homology


def smith_normal_form(M) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Sparse elimination on +-1 pivots yields a factor 1 per pivot; the
    dense reduction below runs only on the block it leaves over.  That
    block is empty on the boundary matrices of every connected diagram
    with at most five vertices and of C6, C7, K6 and the 5-leg star.
    """
    pivots, A = eliminate(M, unit_pivots=True)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    factors = [1] * pivots
    top = 0
    while True:
        pivot = None
        best = None
        for r in range(top, rows):
            for c in range(top, cols):
                v = abs(A[r][c])
                if v and (best is None or v < best):
                    best, pivot = v, (r, c)
        if pivot is None:
            break
        r0, c0 = pivot
        A[top], A[r0] = A[r0], A[top]
        for row in A:
            row[top], row[c0] = row[c0], row[top]
        while True:
            # clear the pivot column
            reduced = False
            for r in range(top + 1, rows):
                if A[r][top]:
                    q = A[r][top] // A[top][top]
                    for c in range(top, cols):
                        A[r][c] -= q * A[top][c]
                    if A[r][top]:
                        A[top], A[r] = A[r], A[top]
                        reduced = True
            if reduced:
                continue
            for c in range(top + 1, cols):
                if A[top][c]:
                    q = A[top][c] // A[top][top]
                    for r in range(top, rows):
                        A[r][c] -= q * A[r][top]
                    if A[top][c]:
                        for row in A:
                            row[top], row[c] = row[c], row[top]
                        reduced = True
            if not reduced:
                break
        # enforce divisibility towards the remaining block
        d = abs(A[top][top])
        stray = None
        for r in range(top + 1, rows):
            for c in range(top + 1, cols):
                if A[r][c] % d:
                    stray = r
                    break
            if stray is not None:
                break
        if stray is not None:
            for c in range(top, cols):
                A[top][c] += A[stray][c]
            continue
        factors.append(d)
        top += 1
        if top >= rows or top >= cols:
            break
    return factors


def homology(D: Diagram) -> list[tuple[int, list[int]]]:
    """Integer homology of the nested-set complex, one (betti, torsion) per degree.

    The complex is the cellular chain complex of a contractible polytope,
    so the expected answer is Z in degree 0 and nothing above.
    """
    n = D.n
    counts = [len(faces(D, k)) for k in range(n)]
    mats = {k: boundary_matrix(D, k) for k in range(1, n)}
    snfs = {k: smith_normal_form(mats[k]) for k in mats}
    out = []
    for k in range(n):
        rank_k = len(snfs[k]) if k in snfs else 0
        rank_k1 = len(snfs[k + 1]) if k + 1 in snfs else 0
        betti = counts[k] - rank_k - rank_k1
        torsion = [d for d in snfs.get(k + 1, []) if d > 1]
        out.append((betti, torsion))
    return out


def homology_json(D: Diagram) -> dict:
    report = []
    for betti, torsion in homology(D):
        entry = {"betti": betti}
        if torsion:
            entry["torsion"] = torsion
        report.append(entry)
    return {"H": report}
