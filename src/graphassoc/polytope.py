"""Convex realization of the associahedron over exact rationals.

The polytope lives in the hyperplane ``sum(t) = c(D)`` of R^|D| and is cut
out by one inequality ``sum(t over B) >= c(B)`` per proper connected
subdiagram B, for any superadditive weight function c.  Faces correspond
to nested sets; all arithmetic is exact (``fractions.Fraction``), with no
tolerances anywhere.

Whether a slice of the polytope is nonempty is decided by pairwise
compatibility and returned with a checked certificate: a vertex on the
slice, or a Farkas combination of the constraints that sums to ``0 > 0``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .diagram import (Diagram, DiagramError, InvariantError, Value, bits, components,
                       is_compatible, is_connected)
from .nested import NestedSet, boundary_cycle, connected_subdiagrams, faces, maximal_nested_sets


class RealizationError(DiagramError):
    """Weight function failing the superadditivity requirement."""


class Realization(Value):
    """A diagram with a superadditive weight on its connected subdiagrams.

    ``_table`` is the weights as a lookup, built once per realization.
    """

    diagram: Diagram
    weights: tuple[tuple[int, Fraction], ...]
    _fields = ("diagram", "weights")
    __slots__ = _fields + ("_table",)

    def __init__(self, diagram: Diagram, weights: tuple[tuple[int, Fraction], ...]):
        super().__init__(diagram, weights)
        object.__setattr__(self, "_table", dict(weights))

    def weight(self, mask: int) -> Fraction:
        """c(B); disconnected arguments sum over their components."""
        table = self._table
        if mask in table:
            return table[mask]
        total = Fraction(0)
        for comp in components(self.diagram, mask):
            total += table[comp]
        return total


def make_realization(D: Diagram, overrides=None) -> Realization:
    """Build a realization, default weight ``c(B) = 3^|B|``.

    Overrides must cover every connected subdiagram and are rejected
    unless ``c(B1 | B2) > c(B1) + c(B2)`` for every incompatible pair.
    """
    masks = connected_subdiagrams(D)
    if overrides is None:
        table = {m: Fraction(3) ** bin(m).count("1") for m in masks}
    else:
        table = {m: Fraction(overrides[m]) for m in masks}
    for m, c in table.items():
        if c <= 0:
            raise RealizationError(f"weight of {D.vertex_names(m)} must be positive")
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if not is_compatible(D, a, b):
                if table[a | b] <= table[a] + table[b]:
                    raise RealizationError(
                        "superadditivity fails on "
                        f"{D.vertex_names(a)} / {D.vertex_names(b)}"
                    )
    return Realization(D, tuple(sorted(table.items())))


def vertex_coordinates(R: Realization, F: NestedSet) -> tuple[Fraction, ...]:
    """The vertex of the polytope labeled by a maximal nested set.

    Solved by the triangular recursion ``t at alpha(B) = c(B) - sum of
    c over the maximal elements of F inside B``.
    """
    if not F.is_maximal():
        raise DiagramError("vertex coordinates need a maximal nested set")
    D = R.diagram
    t = [Fraction(0)] * D.n
    for B in F.elements:  # elements sorted by size: children come first
        alpha = F.alpha_set(B)
        inner = F.inner_union(B)
        t[next(bits(alpha))] = R.weight(B) - (R.weight(inner) if inner else Fraction(0))
    return tuple(t)


# ---------------------------------------------------------------------------
# certified feasibility


def _check_vertex_witness(R: Realization, Bs) -> None:
    """Extend the compatible family Bs to a vertex and check it lies on the face."""
    D = R.diagram
    chosen = set(Bs) | {D.full}
    for m in connected_subdiagrams(D):
        if all(is_compatible(D, m, c) for c in chosen):
            chosen.add(m)
    t = vertex_coordinates(R, NestedSet.make(D, chosen))
    for B in connected_subdiagrams(D):
        s, c = sum(t[k] for k in bits(B)), R.weight(B)
        if s < c or (s != c and (B == D.full or B in Bs)):
            raise InvariantError(f"vertex witness fails the constraint of {D.vertex_names(B)}")


def _check_farkas(R: Realization, B1: int, B2: int) -> None:
    """Check the combination t(B1|B2) + sum of t(C) - t(B1) - t(B2) proves emptiness.

    C runs over the components of B1 & B2.  The rows with coefficient +1
    are tube constraints ``t(B) >= c(B)`` and the rows with -1 are
    equalities of the face, so a zero linear form with a positive gap
    ``c(B1|B2) + sum c(C) - c(B1) - c(B2)`` is a contradiction ``0 > 0``.
    """
    D = R.diagram
    plus = [B1 | B2] + components(D, B1 & B2)
    form = [sum(m >> k & 1 for m in plus) - (B1 >> k & 1) - (B2 >> k & 1) for k in range(D.n)]
    if any(form) or not all(is_connected(D, m) for m in plus):
        raise InvariantError("the Farkas combination is not a zero form over tube rows")
    gap = sum(R.weight(m) for m in plus) - R.weight(B1) - R.weight(B2)
    if gap <= 0:
        raise InvariantError(
            f"no positive Farkas gap on {D.vertex_names(B1)} / {D.vertex_names(B2)}"
        )


def is_face_nonempty(R: Realization, Bs, cross_check: bool = False) -> bool:
    """Exact feasibility of the polytope sliced along the given hyperplanes.

    The slice is nonempty exactly when the subdiagrams are pairwise
    compatible.  The verdict is returned only with a certificate that has
    passed its check, else ``InvariantError`` is raised: a vertex of the
    polytope on every hyperplane, or a Farkas combination for an
    incompatible pair.  ``cross_check`` is accepted and changes nothing,
    since the certificate is always checked.
    """
    D = R.diagram
    Bs = list(Bs)
    for B in Bs:
        if B == 0 or B == D.full or not is_connected(D, B):
            raise DiagramError("face hyperplanes need proper connected subdiagrams")
    for i, a in enumerate(Bs):
        for b in Bs[i + 1:]:
            if not is_compatible(D, a, b):
                _check_farkas(R, a, b)
                return False
    _check_vertex_witness(R, Bs)
    return True


# ---------------------------------------------------------------------------
# exports


def _fmt(q: Fraction) -> str:
    return str(q)


def export_polytope(R: Realization) -> dict:
    """JSON V- and H-representation with exact rational coordinates.

    When the affine dimension is at most 3 the document also carries the
    OFF text (floating point, for viewers; the exact data stays in the
    coordinate strings).
    """
    D = R.diagram
    verts = [
        {
            "face": F.vertex_lists(),
            "coords": [_fmt(c) for c in vertex_coordinates(R, F)],
        }
        for F in maximal_nested_sets(D)
    ]
    hrep = {
        "equality": {"B": list(D.names), "rhs": _fmt(R.weight(D.full))},
        "inequalities": [
            {"B": D.vertex_names(B), "rhs": _fmt(R.weight(B))}
            for B in connected_subdiagrams(D)
            if B != D.full
        ],
    }
    doc = {"vertices": verts, "h_representation": hrep}
    off = off_text(R)
    if off is not None:
        doc["off"] = off
    return doc


def off_text(R: Realization) -> str | None:
    """OFF file for polytopes of affine dimension at most 3, else None.

    The hyperplane coordinate t_n is redundant and dropped; remaining
    coordinates are padded with zeros up to three.
    """
    D = R.diagram
    dim = D.n - 1
    if dim > 3:
        return None
    mns = maximal_nested_sets(D)
    index = {F.elements: i for i, F in enumerate(mns)}
    polygons = []
    if dim == 2:
        polygons.append([index[F.elements] for F in boundary_cycle(D, NestedSet.make(D, [D.full]))])
    elif dim == 3:
        for H in faces(D, 2):
            polygons.append([index[F.elements] for F in boundary_cycle(D, H)])
    lines = ["OFF", f"{len(mns)} {len(polygons)} 0"]
    for F in mns:
        coords = list(vertex_coordinates(R, F))[: max(D.n - 1, 1)]
        coords += [Fraction(0)] * (3 - len(coords))
        lines.append(" ".join(str(float(c)) for c in coords))
    for poly in polygons:
        lines.append(" ".join([str(len(poly))] + [str(i) for i in poly]))
    return "\n".join(lines) + "\n"


def parse_export(text: str) -> dict:
    """Round-trip helper: re-parse an exported JSON document with exact rationals."""
    doc = json.loads(text)
    for v in doc["vertices"]:
        v["coords"] = [Fraction(s) for s in v["coords"]]
    return doc
