"""Nested sets: the face poset of the graph associahedron.

A nested set on a connected diagram D is a family of pairwise compatible
connected subdiagrams containing D itself.  Nested sets ordered by
reverse inclusion form the face poset of a convex polytope of dimension
``|D| - 1``; a nested set of cardinality k labels a face of dimension
``|D| - k``, and the maximal nested sets (cardinality ``|D|``) label the
vertices.

The nested-set complex of a graph is flag, so the nested sets are D plus
the cliques of the compatibility graph on proper connected subdiagrams;
they are enumerated once per diagram and every face accessor reads that.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import repeat

from .diagram import (
    Diagram,
    DiagramError,
    Value,
    bits,
    check_index,
    check_mask,
    component_containing,
    components,
    induced,
    is_compatible,
    is_connected,
    mask_of,
    quotient,
)


def element_key(mask: int):
    """Canonical sort key for nested set elements: size, then vertex list."""
    vs = tuple(bits(mask))
    return (len(vs), vs)


def enumeration_key(mask: int):
    """Sort key of the canonical enumeration of unsaturated elements: least vertex, then size."""
    return ((mask & -mask).bit_length(), mask.bit_count())


class NestedSet(Value):
    """An immutable nested set; ``elements`` is canonically sorted.

    The hash reads ``elements`` only (equal nested sets have equal
    elements); equality compares the diagram too.  The enumeration builds
    its records in bulk with ``_records``, which sets the two slots
    directly; every other caller goes through ``__init__``.
    """

    diagram: Diagram
    elements: tuple[int, ...]
    __slots__ = _fields = ("diagram", "elements")

    def __init__(self, diagram: Diagram, elements: tuple[int, ...]):
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def _records(cls, D: Diagram, tuples: list) -> tuple["NestedSet", ...]:
        """``tuple(NestedSet(D, e) for e in tuples)`` with no Python-level ``__init__`` call."""
        records = tuple(map(object.__new__, repeat(cls, len(tuples))))
        any(map(cls.diagram.__set__, records, repeat(D)))  # each __set__ returns None
        any(map(cls.elements.__set__, records, tuples))
        return records

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements and self.diagram == other.diagram

    def __hash__(self):
        return hash(self.elements)

    @staticmethod
    def make(D: Diagram, masks) -> "NestedSet":
        masks = sorted({check_mask(m) for m in masks}, key=element_key)
        H = NestedSet(D, tuple(masks))
        H.validate()
        return H

    @staticmethod
    def from_vertex_lists(D: Diagram, lists) -> "NestedSet":
        """Build from vertex-index lists; the full diagram may be omitted."""
        return NestedSet.make(D, {D.full} | {mask_of(vs) for vs in lists})

    def validate(self):
        D = self.diagram
        if D.full not in self.elements:
            raise DiagramError("nested set must contain the full diagram")
        for m in self.elements:
            D.check_subset(m)
            if not is_connected(D, m):
                raise DiagramError(f"element {D.vertex_names(m)} is not connected")
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1:]:
                if not is_compatible(D, a, b):
                    raise DiagramError(
                        f"incompatible elements {D.vertex_names(a)} / {D.vertex_names(b)}"
                    )

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.diagram.n - len(self.elements)

    def check_maximal(self, D: Diagram) -> None:
        """Raise ``DiagramError`` unless this is a maximal nested set of D."""
        if (self.diagram is not D and self.diagram != D) or len(self.elements) != D.n:
            raise DiagramError("not a maximal nested set of D")

    def inner_union(self, B: int) -> int:
        """Union of the maximal elements properly contained in B (i_H(B)).

        Every proper sub-element lies inside a maximal one, so this is
        also the union of all elements properly contained in B.
        """
        if B not in self.elements:
            raise DiagramError("element not in the nested set")
        inner = 0
        for m in self.elements:
            if m != B and m & ~B == 0:
                inner |= m
        return inner

    def alpha_set(self, B: int) -> int:
        """The vertices of B not covered by smaller elements; always nonempty."""
        return B & ~self.inner_union(B)

    def unsaturated(self) -> list[tuple[int, int]]:
        """The (element, alpha-set) pairs with at least two alpha vertices.

        Ordered by ``enumeration_key``, the canonical enumeration used for
        orientations.
        """
        return sorted(self._unsaturated_pass(), key=lambda pair: enumeration_key(pair[0]))

    def _unsaturated_pass(self) -> list[tuple[int, int]]:
        """The pairs of ``unsaturated``, smallest element first.

        One pass: elements come smallest first and any two are nested or
        disjoint, so every element before B lies inside B or misses it,
        and alpha(B) is B minus the union of those before it.
        """
        out = []
        covered = 0
        for B in self.elements:
            alpha = B & ~covered
            if alpha & (alpha - 1):
                out.append((B, alpha))
            covered |= B
        return out

    def vertex_lists(self) -> list[list[str]]:
        return [self.diagram.vertex_names(m) for m in self.elements]


@lru_cache(maxsize=32)
def connected_subdiagrams(D: Diagram) -> tuple[int, ...]:
    """All connected subdiagram masks, in increasing bitmask order."""
    found = set()
    # grow each connected set by one adjacent vertex at a time
    layer = {1 << i for i in range(D.n)}
    while layer:
        found |= layer
        nxt = set()
        for m in layer:
            for v in bits(D.neighbors(m)):
                grown = m | (1 << v)
                if grown not in found:
                    nxt.add(grown)
        layer = nxt - found
    return tuple(sorted(found))


@lru_cache(maxsize=32)
def _tube_table(D: Diagram):
    """The compatibility graph of D's proper tubes, built once per diagram.

    Returns ``(tubes, pos, compatible, vertices)``: the tubes in
    ``element_key`` order, so a later one is never a proper subset of an
    earlier one, the position of each, the bitmask of the positions of the
    tubes compatible with it (itself included) and its vertex indices.
    """
    keyed = sorted((element_key(m), m) for m in connected_subdiagrams(D) if m != D.full)
    tubes, compatible = tuple(m for _k, m in keyed), [1 << i for i in range(len(keyed))]
    for i, a in enumerate(tubes):
        near = a | D.neighbors(a)
        for j in range(i + 1, len(tubes)):
            if a & ~tubes[j] == 0 or not near & tubes[j]:  # nested or orthogonal
                compatible[i] |= 1 << j
                compatible[j] |= 1 << i
    vertices = tuple(vs for (_size, vs), _m in keyed)
    return tubes, {m: i for i, m in enumerate(tubes)}, tuple(compatible), vertices


@lru_cache(maxsize=32)
def _nested_families(D: Diagram) -> tuple[NestedSet, ...]:
    """Every nested set of D, ordered by cardinality, then by its elements' vertex lists.

    Cliques of ``_tube_table`` grow in position order on an explicit stack of
    ``(chosen, allowed, code)``, so a face's tubes come in ``element_key`` order with
    D last and no Python frame is pushed per face.  A face's elements are one
    concatenation ``chosen + (tube, D.full)``; its prefix ``chosen + (tube,)`` is built
    and pushed only when a compatible later tube remains.  Each tube is ranked once by
    its vertex list, and each face carries the integer whose base-``radix`` digits are
    its tubes' ranks.  Faces of one cardinality have as many digits: sorting each
    cardinality's bucket on these codes compares their vertex lists lexicographically.
    The records are built in bulk by ``NestedSet._records``.
    """
    if not is_connected(D, D.full):
        raise DiagramError("ambient diagram must be connected")
    tubes, _pos, compatible, vertices = _tube_table(D)
    rank = {i: r for r, i in enumerate(sorted(range(len(tubes)), key=vertices.__getitem__))}
    radix, tail, buckets = len(tubes) + 1, [(t, D.full) for t in tubes], [{} for _ in range(D.n)]
    buckets[0][0] = (D.full,)
    stack = [((), (1 << len(tubes)) - 1, 0)] if tubes else []
    while stack:
        chosen, allowed, code = stack.pop()
        bucket, code = buckets[len(chosen) + 1], code * radix
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            face = code + rank[i]
            bucket[face] = chosen + tail[i]
            if more := allowed & compatible[i]:  # compatible tubes after i
                stack.append((chosen + (tubes[i],), more, face))
    return NestedSet._records(D, [e for b in buckets for e in map(b.__getitem__, sorted(b))])


def all_nested_sets(D: Diagram) -> tuple[NestedSet, ...]:
    """All nested sets, ordered by dimension (highest first), then canonically."""
    return _nested_families(D)


def maximal_nested_sets(D: Diagram) -> tuple[NestedSet, ...]:
    """All nested sets of cardinality |D|, in deterministic order."""
    return faces(D, 0)


def faces(D: Diagram, dim: int) -> tuple[NestedSet, ...]:
    """All faces of the given dimension (nested sets of cardinality |D|-dim)."""
    check_index(dim, D.n - 1, "dimension")
    families, size = _nested_families(D), D.n - dim
    return families[bisect_left(families, size, key=len):bisect_right(families, size, key=len)]


def f_vector(D: Diagram) -> list[int]:
    return [len(faces(D, k)) for k in range(D.n)]


def face_factorization(D: Diagram, H: NestedSet) -> list[Diagram]:
    """Quotient diagrams ``B / i_H(B)`` over the unsaturated elements of H.

    The face labeled H is the product of the associahedra of these
    diagrams; their dimensions ``|factor| - 1`` add up to ``dim(H)``.
    """
    out = []
    for B, alpha in H.unsaturated():
        sub, old_to_new = induced(D, B)
        inner = mask_of(old_to_new[v] for v in bits(B & ~alpha))  # i_H(B) = B - alpha, in sub
        out.append(quotient(sub, inner)[0] if inner else sub)
    return out


@lru_cache(maxsize=8)
def _skeleton(D: Diagram):
    """The 1-skeleton of D's associahedron, built once per diagram.

    Returns ``(verts, index, adjacent, holders)``: the maximal nested sets,
    the position of each by its ``elements``, each vertex's neighbours as
    one bitset over vertex positions, and for each proper tube the bitset
    of the vertices holding it.

    Each (n-1)-element nested set, an edge, lies in exactly two vertices.
    It is keyed by the bitmask of its proper tubes' ``_tube_table``
    positions: a vertex's key with the dropped tube's bit cleared.
    """
    verts = maximal_nested_sets(D)
    bit = {B: 1 << i for B, i in _tube_table(D)[1].items()}
    ends, holders, adjacent = {}, dict.fromkeys(bit, 0), [0] * len(verts)
    for i, F in enumerate(verts):
        tubes = F.elements[:-1]  # D itself, the largest element, comes last
        key, here = sum(map(bit.__getitem__, tubes)), 1 << i
        for B in tubes:
            j = ends.setdefault(key ^ bit[B], i)
            if j != i:  # the edge's other end, seen first
                adjacent[i] |= 1 << j
                adjacent[j] |= here
            holders[B] |= here
    index = {F.elements: i for i, F in enumerate(verts)}
    return verts, index, tuple(adjacent), holders


def _holding(D: Diagram, tubes) -> int:
    """The bitset of the skeleton's vertices holding every one of ``tubes``: a face of D."""
    verts, _index, _adjacent, holders = _skeleton(D)
    face = (1 << len(verts)) - 1
    for B in tubes:
        if B != D.full:
            face &= holders.get(B, 0)
    return face


def edge_graph(D: Diagram) -> tuple[tuple[NestedSet, ...], list[tuple[int, int]]]:
    """The 1-skeleton: maximal nested sets, joined when they differ by one element."""
    verts, _index, adjacent = _skeleton(D)[:3]
    return verts, [(i, j) for i, row in enumerate(adjacent) for j in bits(row) if i < j]


class TwoFace(enum.Enum):
    SQUARE = "square"
    PENTAGON = "pentagon"
    HEXAGON = "hexagon"


def split_components(D: Diagram, B: int, alpha: int) -> dict[int, int]:
    """For each vertex z of ``alpha``: the component of ``B - z`` holding the rest of alpha.

    The value is 0 when ``B - z`` separates the other alpha vertices.  For
    a 3-vertex alpha set, two of them are joined in the quotient
    ``B / i_H(B)`` exactly when the split at the third is nonzero (the
    quotient lemma of ``diagram.quotient_components``).  Each value is one
    flood fill of ``B - z`` from a vertex of the rest of alpha.
    """
    if alpha & ~B:
        raise DiagramError("alpha must be a subset of B")
    return {z: component_containing(D, 1 << z, alpha & ~(1 << z), within=B) for z in bits(alpha)}


@lru_cache(maxsize=4096)
def _shape(D: Diagram, B: int, alpha: int):
    """``(kind, ((i, s_i), (j, s_j), (k, s_k)))`` of a 2-face whose one unsaturated element B has ``alpha``.

    Each alpha vertex comes with its ``split_components`` value, in word order.
    By the quotient lemma there, ``B / i_H(B)`` is a triangle (a hexagon) when
    all three splits are nonzero, else a path (a pentagon) whose middle, first,
    has the empty split; the other vertices ascend.
    """
    splits = tuple(sorted(split_components(D, B, alpha).items(), key=lambda zs: zs[1] != 0))
    return (TwoFace.HEXAGON if splits[0][1] else TwoFace.PENTAGON), splits


def _non_square_key(H: NestedSet):
    """A 2-face's unsaturated ``(B, alpha)``; ``None`` if two unsaturated elements make a square."""
    if H.dim != 2:
        raise DiagramError("classification needs a 2-dimensional face")
    unsat = H._unsaturated_pass()
    return None if len(unsat) == 2 else unsat[0]


def classify_two_face(D: Diagram, H: NestedSet) -> TwoFace:
    """Classify a 2-face: a square by ``_non_square_key``, else the kind ``_shape`` reads."""
    key = _non_square_key(H)
    return TwoFace.SQUARE if key is None else _shape(D, *key)[0]


def two_faces(D: Diagram) -> list[tuple[NestedSet, TwoFace]]:
    """Every 2-face with its kind, in ``faces(D, 2)`` order; none below 3 vertices."""
    return [(H, classify_two_face(D, H)) for H in faces(D, 2)] if D.n >= 3 else []


def boundary_cycle(D: Diagram, H: NestedSet) -> list[NestedSet]:
    """The vertices of a 2-face in cyclic order along its boundary.

    A walk on the 1-skeleton from the first vertex containing H, each step
    to the least-index unvisited neighbour that contains H too.
    """
    if H.dim != 2:
        raise DiagramError("boundary cycle needs a 2-dimensional face")
    verts, _index, adjacent = _skeleton(D)[:3]
    face = _holding(D, H.elements)
    if not face:
        raise DiagramError("no vertex of the associahedron contains the face")
    cycle, near = [], face
    while near:
        i = (near & -near).bit_length() - 1
        cycle.append(i)
        face ^= 1 << i
        near = adjacent[i] & face
    return [verts[i] for i in cycle]


def face_poset_json(D: Diagram, dim: int | None = None) -> dict:
    """JSON-able face-poset export: every face, or those of one dimension, with alpha data."""
    return {
        "faces": [
            {
                "elements": H.vertex_lists(),
                "dim": H.dim,
                "unsaturated": [
                    {"B": D.vertex_names(B), "alpha": D.vertex_names(a)}
                    for B, a in H.unsaturated()
                ],
            }
            for H in (all_nested_sets(D) if dim is None else faces(D, dim))
        ]
    }


def two_faces_json(D: Diagram) -> dict:
    """JSON-able 2-face census: every 2-face with its kind, and the count of each kind."""
    pairs = two_faces(D)
    return {
        "twofaces": [{"elements": H.vertex_lists(), "kind": kind.value} for H, kind in pairs],
        "counts": {kind.value: sum(k is kind for _, k in pairs) for kind in TwoFace},
    }


def _greedy_chain(D: Diagram, start: int, S: int) -> list[int]:
    """The tubes ``start < ... < S``, grown by S's least-index neighbour; S must be connected."""
    chain = [start]
    while start != S:
        step = D.neighbors(start) & S
        if not step:
            raise DiagramError(f"{D.vertex_names(S)} is not connected")
        start |= step & -step
        chain.append(start)
    return chain


def first_maximal_nested_set(D: Diagram, S: int | None = None) -> tuple[int, ...]:
    """The least maximal nested set on the connected subdiagram S, as masks of D.

    It is the first family of ``maximal_nested_sets(induced(D, S))``: the chain
    grown from S's least vertex v0 by its least-index neighbour in S.  A second
    singleton {j} would sort after every tube holding v0, so the least family is
    a chain, and the least neighbour gives the least vertex list at each size.
    """
    S = D.full if S is None else S
    if not is_connected(D, S):
        raise DiagramError("need a connected subdiagram")
    return tuple(_greedy_chain(D, S & -S, S))


def ascending_chain(D: Diagram, B: int) -> list[int]:
    """Connected subdiagrams ``B = C_0 < C_1 < ... < D``, grown as in ``first_maximal_nested_set``.

    Each step adds the least-index vertex adjacent to the current set.
    """
    if not is_connected(D, B):
        raise DiagramError("chain must start from a connected subdiagram")
    return _greedy_chain(D, B, D.full)


def irreducible_cell(D: Diagram, B: int, alpha: int) -> NestedSet:
    """A nested set whose unique unsaturated element is B with the given alpha set.

    Built from the chain of ``first_maximal_nested_set`` on each component
    of ``B - alpha`` plus ``ascending_chain`` from B to D: chains of tubes
    throughout, so nothing is enumerated.  The components are connected,
    so their chains are grown without a second connectivity check.
    """
    if alpha & ~B:
        raise DiagramError("alpha must be a subset of B")
    masks = set(ascending_chain(D, B))
    for comp in components(D, B & ~alpha):
        masks.update(_greedy_chain(D, comp & -comp, comp))
    H = NestedSet.make(D, masks)
    if H.alpha_set(B) != alpha:
        raise DiagramError("construction failed to realize the alpha set")
    return H
