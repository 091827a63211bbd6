"""Convex realization of the associahedron over exact rationals.

The polytope lives in the hyperplane ``sum(t) = c(D)`` of R^|D| and is cut
out by one inequality ``sum(t over B) >= c(B)`` per proper connected
subdiagram B, for positive weights c with a positive ``_gap`` on every
incompatible pair of tubes.  Faces correspond to nested sets; all
arithmetic is exact (``fractions.Fraction``), with no tolerances anywhere.

Whether a slice of the polytope is nonempty is decided by pairwise
compatibility and returned with a checked certificate: a vertex on the
slice, or a Farkas combination of the constraints that sums to ``0 > 0``.
Vertices are computed and checked on the weights scaled to integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .diagram import (Diagram, DiagramError, InvariantError, Value, bits, check_mask, components,
                      is_connected)
from .nested import (NestedSet, _skeleton, _tube_table, boundary_cycle, connected_subdiagrams,
                     faces, maximal_nested_sets)


class RealizationError(DiagramError):
    """Weights that are not one positive weight per connected subdiagram with a positive ``_gap``."""


def _name(D: Diagram, mask: int) -> list[str] | str:
    """The vertex names of a subset mask, and any other mask by its value."""
    return f"mask {mask:#x}" if mask & ~D.full else D.vertex_names(mask)


class Realization(Value):
    """A diagram with a weight on each connected subdiagram and on no other mask.

    ``_scaled`` holds the weights times ``_scale``, their least common
    denominator, as integers.  The gap is checked by ``make_realization``.
    """

    diagram: Diagram
    weights: tuple[tuple[int, Fraction], ...]
    _fields = ("diagram", "weights")
    __slots__ = _fields + ("_scale", "_scaled")

    def __init__(self, diagram: Diagram, weights: tuple[tuple[int, Fraction], ...]):
        super().__init__(diagram, weights)
        table = dict(weights)
        m = min(set(table).symmetric_difference(connected_subdiagrams(diagram)), default=None)
        if m is not None:
            raise RealizationError(f"no weight for {_name(diagram, m)}" if m not in table else
                                   f"weight for {_name(diagram, m)}, not a connected subdiagram")
        scale = lcm(*(c.denominator for c in table.values()))
        scaled = {m: c.numerator * (scale // c.denominator) for m, c in table.items()}
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_scaled", scaled)

    def weight(self, mask: int) -> Fraction:
        """c(B) for a subdiagram B with a weight; ``RealizationError`` for any other int mask."""
        check_mask(mask)
        if mask not in self._scaled:
            raise RealizationError(f"no weight for {_name(self.diagram, mask)}")
        return Fraction(self._scaled[mask], self._scale)


def make_realization(D: Diagram, overrides=None) -> Realization:
    """Build a realization, default weight ``c(B) = 3^|B|``.

    Overrides give a positive weight to each connected subdiagram and no
    other mask; ``_gap`` must be positive on every incompatible pair of tubes.
    A weight is an int or a ``Fraction``: a bool, a float or a string is none.
    """
    if overrides is None:
        overrides = {m: 3 ** bin(m).count("1") for m in connected_subdiagrams(D)}
    if bad := [m for m, c in overrides.items() if type(c) is not int and type(c) is not Fraction]:
        raise RealizationError(f"weight of {_name(D, bad[0])} is not an int or a Fraction")
    table = {m: Fraction(c) for m, c in overrides.items()}
    R = Realization(D, tuple(sorted(table.items())))
    for m, c in R.weights:
        if c <= 0:
            raise RealizationError(f"weight of {D.vertex_names(m)} must be positive")
    tubes, _pos, compatible, _vertices = _tube_table(D)  # D is compatible with every tube
    failing = [(a, b) for i, a in enumerate(tubes) for j, b in enumerate(tubes)
               if a < b and not compatible[i] >> j & 1 and _gap(R, a, b) <= 0]
    if failing:
        a, b = min(failing)  # the first in increasing mask order
        raise RealizationError(f"no positive gap on {D.vertex_names(a)} / {D.vertex_names(b)}")
    return R


def _gap(R: Realization, B1: int, B2: int) -> int:
    """``_scale`` times c(B1 | B2) + sum of c(C) - c(B1) - c(B2), C the components of B1 & B2."""
    w, meet = R._scaled, B1 & B2  # a connected meet is a tube, an empty one adds nothing
    inner = w[meet] if meet in w else sum(w[C] for C in components(R.diagram, meet)) if meet else 0
    return w[B1 | B2] + inner - w[B1] - w[B2]


def vertex_coordinates(R: Realization, F: NestedSet) -> tuple[Fraction, ...]:
    """The vertex of the polytope labeled by a maximal nested set.

    Solved by the triangular recursion ``t at alpha(B) = c(B) - sum of
    c over the maximal elements of F inside B``.
    """
    F.check_maximal(R.diagram)
    return tuple(Fraction(t, R._scale) for t in _scaled_vertex(R, F.elements))


def _scaled_vertex(R: Realization, elements) -> list[int]:
    """``_scale`` times the ``vertex_coordinates`` of these elements, given smallest first."""
    t, covered, w = [0] * R.diagram.n, 0, R._scaled
    for B in elements:  # the elements before B that meet it lie inside it
        alpha = B & ~covered
        if alpha.bit_count() != 1:
            raise InvariantError(f"{R.diagram.vertex_names(B)} has no single alpha vertex")
        t[alpha.bit_length() - 1] = w[B] - sum(t[k] for k in bits(B & covered))
        covered |= B
    return t


# ---------------------------------------------------------------------------
# certified feasibility


def _check_vertex_witness(R: Realization, Bs, t: list[int]) -> None:
    """Check that the scaled point t meets every tube constraint, with equality on D and on Bs."""
    D, w, tight = R.diagram, R._scaled, {R.diagram.full, *Bs}
    tubes, _pos, _compatible, vertices = _tube_table(D)
    for B, vs in zip((D.full,) + tubes, (range(D.n),) + vertices):
        s = sum(map(t.__getitem__, vs))
        if s < w[B] or (s != w[B] and B in tight):
            raise InvariantError(f"vertex witness fails the constraint of {D.vertex_names(B)}")


def _check_farkas(R: Realization, B1: int, B2: int) -> None:
    """Check the combination t(B1|B2) + sum of t(C) - t(B1) - t(B2) proves emptiness.

    C runs over the components of B1 & B2.  The rows with coefficient +1
    are tube constraints ``t(B) >= c(B)`` and the rows with -1 are
    equalities of the face, so a zero linear form with a positive
    ``_gap`` is a contradiction ``0 > 0``.
    """
    D = R.diagram
    plus = [B1 | B2] + components(D, B1 & B2)
    form = [sum(m >> k & 1 for m in plus) - (B1 >> k & 1) - (B2 >> k & 1) for k in range(D.n)]
    if any(form) or not all(is_connected(D, m) for m in plus):
        raise InvariantError("the Farkas combination is not a zero form over tube rows")
    if _gap(R, B1, B2) <= 0:
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
    tubes, pos, compatible, _vertices = _tube_table(D)
    Bs, allowed = list(Bs), (1 << len(tubes)) - 1
    for B in Bs:
        D.check_subset(B)
        if B not in pos:
            raise DiagramError("face hyperplanes need proper connected subdiagrams")
        allowed &= compatible[pos[B]]
    for i, a in enumerate(Bs):
        for b in Bs[i + 1:]:
            if not compatible[pos[a]] >> pos[b] & 1:
                _check_farkas(R, a, b)
                return False
    free = allowed  # the witness: Bs and, in table order, each tube compatible with all chosen
    while free:
        low = free & -free
        allowed &= compatible[low.bit_length() - 1]
        free = allowed & -(low << 1)
    _check_vertex_witness(R, Bs, _scaled_vertex(R, [tubes[i] for i in bits(allowed)] + [D.full]))
    return True


# ---------------------------------------------------------------------------
# exports


def export_polytope(R: Realization) -> dict:
    """JSON V- and H-representation with exact rational coordinates.

    When the affine dimension is at most 3 the document also carries the
    OFF text (floating point, for viewers; the exact data stays in the
    coordinate strings).
    """
    D = R.diagram
    verts = [{"face": F.vertex_lists(), "coords": [str(c) for c in vertex_coordinates(R, F)]}
             for F in maximal_nested_sets(D)]
    hrep = {
        "equality": {"B": list(D.names), "rhs": str(R.weight(D.full))},
        "inequalities": [{"B": D.vertex_names(B), "rhs": str(R.weight(B))}
                         for B in connected_subdiagrams(D) if B != D.full],
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
    mns, index = _skeleton(D)[:2]
    # the 2-faces; a polygon's one 2-face is D itself
    polygons = [[index[F.elements] for F in boundary_cycle(D, H)]
                for H in (faces(D, 2) if dim >= 2 else ())]
    lines = ["OFF", f"{len(mns)} {len(polygons)} 0"]
    for F in mns:
        coords = [t / R._scale for t in _scaled_vertex(R, F.elements)][: max(D.n - 1, 1)]
        lines.append(" ".join(map(str, (coords + [0.0, 0.0])[:3])))
    for poly in polygons:
        lines.append(" ".join([str(len(poly))] + [str(i) for i in poly]))
    return "\n".join(lines) + "\n"
