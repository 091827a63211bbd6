"""Labeled diagrams, subdiagrams and the quotient/lifting calculus.

A diagram is a finite simple graph whose vertices are named identifiers
and whose edges carry a multiplicity in ``{3, 4, ...}`` or ``INFINITY``.
Non-adjacent pairs implicitly carry multiplicity 2.  A subdiagram is a
vertex subset together with all edges between its members; throughout
this package subdiagrams are plain integer bitmasks over the ambient
vertex order (bit ``i`` = vertex with canonical index ``i``).

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from operator import attrgetter

INFINITY = float("inf")

MAX_VERTICES = 64


class DiagramError(ValueError):
    """Invalid diagram data or an operation applied outside its domain."""


class ParseError(DiagramError):
    """Malformed diagram source text."""


class CapacityError(DiagramError):
    """More vertices than the bitmask representation supports."""


class InvariantError(DiagramError):
    """A computed result failed its own consistency check."""


def bits(mask: int):
    """Iterate over the set bit positions of ``mask`` in increasing order."""
    if mask < 0:
        raise DiagramError(f"mask {mask:#x} is negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(rows, mask: int) -> int:
    """The OR of ``rows[v]`` over the set bits v of the nonnegative ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def check_index(value, top: int, noun: str) -> None:
    """Refuse a degree, dimension or vertex that is not an int in ``0..top``; a bool is none."""
    if type(value) is not int or not 0 <= value <= top:
        raise DiagramError(f"{noun} {value} out of range 0..{top}")


def check_mask(mask) -> int:
    """The mask, refused unless it is an int; a bool is none, though it hashes and counts as 0 or 1."""
    if type(mask) is not int:
        raise DiagramError(f"mask {mask!r} is not an int")
    return mask


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        if i < 0:
            raise DiagramError(f"vertex index {i} is negative")
        m |= 1 << i
    return m


class Value:
    """Base of the package's immutable records.

    A subclass names its fields in ``_fields`` and keeps them, with any
    derived state, in ``__slots__`` (``__slots__ = _fields = (...)`` when
    there is none).  Instances are built positionally, compare and hash
    by class and fields, refuse assignment with ``AttributeError`` and
    pickle and copy by rebuilding from their fields.  Nothing is
    generated: each class gets one ``attrgetter`` over its fields.
    Classes built in hot loops define their own ``__init__``, since the
    generic one loops over the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Diagram(Value):
    """An edge-labeled simple graph on named vertices.

    ``names`` fixes the canonical vertex order, ``adj[i]`` is the bitmask
    of neighbours of vertex ``i`` and ``edge_labels`` stores the label of
    each edge as ``((i, j), label)`` with ``i < j``.  Labels of declared
    edges are at least 3 (or ``INFINITY``); non-edges are implicitly 2.

    The hash, ``n`` and ``full`` are computed once here: every cache
    keyed on a diagram looks the hash up, and the nested-set code reads
    the other two in its inner loops.
    """

    names: tuple[str, ...]
    adj: tuple[int, ...]
    edge_labels: tuple[tuple[tuple[int, int], float], ...]
    _fields = ("names", "adj", "edge_labels")
    n: int
    full: int  # bitmask of the whole vertex set
    __slots__ = _fields + ("_labels", "_hash", "n", "full")

    def __init__(self, names, adj, edge_labels=()):
        set_field = object.__setattr__
        set_field(self, "names", names)
        set_field(self, "adj", adj)
        set_field(self, "edge_labels", edge_labels)
        if not self.names:
            raise DiagramError("diagram needs at least one vertex")
        if len(self.names) > MAX_VERTICES:
            raise CapacityError(
                f"{len(self.names)} vertices exceed the {MAX_VERTICES}-bit capacity"
            )
        if len(set(self.names)) != len(self.names):
            raise DiagramError("duplicate vertex identifier")
        for i, row in enumerate(self.adj):
            if row >> len(self.names):
                raise DiagramError("adjacency bit outside vertex range")
            if row & (1 << i):
                raise DiagramError(f"loop at vertex {self.names[i]}")
            for j in bits(row):
                if not self.adj[j] & (1 << i):
                    raise DiagramError("adjacency not symmetric")
        labels = {}
        for (i, j), label in self.edge_labels:
            if not (type(i) is type(j) is int and 0 <= min(i, j) <= max(i, j) < len(names)):  # no bool
                raise DiagramError("edge endpoint out of range")
            if not self.adj[i] & (1 << j):
                raise DiagramError("label on a non-edge")
            if i > j:  # ``label`` looks an edge up as (min, max)
                raise DiagramError(f"edge label key {(i, j)} is not ordered i < j")
            if (i, j) in labels:
                raise DiagramError(f"edge {(i, j)} is labelled twice")
            if not (label == INFINITY or type(label) is int and label >= 3):  # nor 3.0 nor True
                raise DiagramError(f"edge label {label} must be >= 3 or infinity")
            labels[i, j] = label
        set_field(self, "_labels", labels)
        set_field(self, "_hash", hash((names, adj, edge_labels)))
        set_field(self, "n", len(names))
        set_field(self, "full", (1 << len(names)) - 1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key(self) == other._key(other))

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_edges(names, edges=()) -> "Diagram":
        """Build a diagram from vertex names and ``(i, j)`` or ``(i, j, label)`` edges."""
        names = tuple(str(x) for x in names)
        n = len(names)
        adj = [0] * n
        labels = {}
        for edge in edges:
            if type(edge) not in (tuple, list) or len(edge) not in (2, 3):
                raise DiagramError(f"edge {edge!r} is not (i, j) or (i, j, label)")
            i, j, label = (*edge, INFINITY)[:3]
            if not (type(i) is type(j) is int and 0 <= i < n and 0 <= j < n):  # no bool
                raise DiagramError("edge endpoint out of range")
            key = (min(i, j), max(i, j))
            if key in labels and labels[key] != label:
                raise DiagramError(f"conflicting labels on edge {key}")
            labels[key] = label
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        ordered = tuple(sorted(labels.items()))
        return Diagram(names, tuple(adj), ordered)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DiagramError(f"unknown vertex {name!r}") from None

    def vertex_names(self, mask: int) -> list[str]:
        self.check_subset(mask)
        return [self.names[i] for i in bits(mask)]

    def check_subset(self, mask: int):
        if type(mask) is not int:  # ``check_mask`` inline: this runs in the 2-face inner loops
            raise DiagramError(f"mask {mask!r} is not an int")
        if mask & ~self.full:
            raise DiagramError(f"mask {mask:#x} is not a subset of the vertex set")

    def label(self, i: int, j: int) -> float:
        """The multiplicity m_ij; 2 exactly when i and j are non-adjacent."""
        if not (type(i) is type(j) is int and 0 <= i < self.n and 0 <= j < self.n):  # no bool
            raise DiagramError(f"vertex index out of range 0..{self.n - 1}")
        if i == j:
            raise DiagramError("no label on a vertex pair (i, i)")
        if not self.adj[i] & (1 << j):
            return 2
        return self._labels.get((min(i, j), max(i, j)), INFINITY)

    def neighbors(self, mask: int) -> int:
        """Vertices outside ``mask`` joined to it by an edge."""
        self.check_subset(mask)
        return _union(self.adj, mask) & ~mask


def parse_diagram(text: str) -> Diagram:
    """Parse the line-oriented diagram grammar.

    Line 1: ``vertices: <id> <id> ...``; line 2 (optional for edgeless
    diagrams): ``edges: <id>-<id>[:<label>] ...`` with label in
    ``{3, 4, ...}`` or ``inf``.  ``#`` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].startswith("vertices:"):
        raise ParseError("first line must be 'vertices: ...'")
    names = lines[0][len("vertices:"):].split()
    if not names:
        raise ParseError("no vertices declared")
    index = {v: i for i, v in enumerate(names)}
    edges = []
    if len(lines) > 1:
        if not lines[1].startswith("edges:"):
            raise ParseError("second line must be 'edges: ...'")
        if len(lines) > 2:
            raise ParseError("trailing content after the edges line")
        for token in lines[1][len("edges:"):].split():
            head, _, labeltext = token.partition(":")
            a, sep, b = head.partition("-")
            if not sep or not a or not b:
                raise ParseError(f"malformed edge {token!r}")
            for v in (a, b):
                if v not in index:
                    raise ParseError(f"edge references unknown vertex {v!r}")
            if labeltext in ("", "inf"):
                label = INFINITY
            else:
                try:
                    label = int(labeltext)
                except ValueError:
                    raise ParseError(f"bad label in {token!r}") from None
            edges.append((index[a], index[b], label))
    try:
        return Diagram.from_edges(names, edges)
    except (ParseError, CapacityError):
        raise
    except DiagramError as exc:
        raise ParseError(str(exc)) from exc


def flood_fill(D: Diagram, seed: int, S: int) -> int:
    """The vertices of ``S`` reachable from ``seed`` by edges inside ``S``.

    ``seed`` is kept whole, so a one-vertex seed in ``S`` gives its component;
    it must be a subset of D's vertex set.
    """
    if seed < 0 or S < 0:
        raise DiagramError(f"mask {min(seed, S):#x} is negative")
    if seed > D.full:  # nonnegative, so it has a bit outside the vertex set
        raise DiagramError(f"seed {seed:#x} is not a subset of the vertex set")
    comp = frontier = seed
    while frontier:
        frontier = _union(D.adj, frontier) & S & ~comp
        comp |= frontier
    return comp


def components(D: Diagram, S: int) -> list[int]:
    """Connected components of the induced subgraph on ``S``.

    Returned as disjoint masks sorted by least vertex index; the empty
    set yields an empty list.
    """
    D.check_subset(S)
    out = []
    remaining = S
    while remaining:
        comp = flood_fill(D, remaining & -remaining, S)
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(D: Diagram, S: int) -> bool:
    return S != 0 and len(components(D, S)) == 1


def is_orthogonal(D: Diagram, S1: int, S2: int) -> bool:
    """True iff S1, S2 are disjoint and no edge joins them.

    Overlapping subdiagrams are never orthogonal.
    """
    D.check_subset(S1)
    D.check_subset(S2)
    if S1 & S2:
        return False
    return not (D.neighbors(S1) & S2)


def is_compatible(D: Diagram, S1: int, S2: int) -> bool:
    """True iff one contains the other or they are orthogonal."""
    if S1 & ~S2 == 0 or S2 & ~S1 == 0:
        D.check_subset(S1 | S2)
        return True
    return is_orthogonal(D, S1, S2)


def component_containing(D: Diagram, removed: int, anchor: int, within: int | None = None) -> int:
    """The component of ``within - removed`` containing all of ``anchor``.

    ``within`` defaults to the whole diagram.  Returns the empty mask when
    ``anchor`` is split across several components (or is empty).
    """
    ctx = D.full if within is None else within
    D.check_subset(ctx)
    if removed < 0:
        raise DiagramError(f"mask {removed:#x} is negative")
    if anchor & removed:
        raise DiagramError("anchor meets the removed set")
    if anchor & ~ctx:
        raise DiagramError("anchor outside the context subdiagram")
    comp = flood_fill(D, anchor & -anchor, ctx & ~removed)
    return comp if anchor & ~comp == 0 else 0


def quotient(D: Diagram, B: int) -> tuple[Diagram, dict[int, int]]:
    """The quotient diagram on ``V(D) - V(B)`` and the old->new vertex map.

    Two surviving vertices are adjacent iff they are adjacent in D or both
    non-orthogonal to a common connected component of B.  Edges already in
    D keep their labels; newly created edges are labeled ``INFINITY``.
    """
    D.check_subset(B)
    if B == 0 or B == D.full:
        raise DiagramError("quotient needs a proper nonempty subdiagram")
    b_neighbors = [D.neighbors(comp) for comp in components(D, B)]
    survivors = [i for i in bits(D.full & ~B)]
    old_to_new = {old: new for new, old in enumerate(survivors)}
    edges = []
    for x, a in enumerate(survivors):
        for b in survivors[x + 1:]:
            pair = (1 << a) | (1 << b)
            if D.adj[a] & (1 << b):
                edges.append((x, old_to_new[b], D.label(a, b)))
            elif any(nbrs & pair == pair for nbrs in b_neighbors):
                edges.append((x, old_to_new[b], INFINITY))
    Q = Diagram.from_edges([D.names[i] for i in survivors], edges)
    return Q, old_to_new


def quotient_components(D: Diagram, B: int, S: int) -> list[int]:
    """Components of ``S`` in the quotient D/B, as masks of D sorted by least vertex.

    ``S`` must be a set of surviving vertices (disjoint from B).  Lemma:
    they are the S-parts of the components of ``S | B`` in D, because an
    edge of D/B is an edge of D or a path through one component of B, and
    a path of D inside ``S | B`` leaves S only to cross one component of B.
    """
    D.check_subset(S)
    if S & B:
        raise DiagramError("subdiagram of the quotient meets B")
    D.check_subset(B)
    return sorted((comp & S for comp in components(D, S | B) if comp & S), key=lambda m: m & -m)


def lift(D: Diagram, B: int, A: int) -> int:
    """Lift a connected subdiagram ``A`` of D/B back into D.

    The lift is the component of ``A | B`` that contains ``A``: by the
    quotient lemma (see ``quotient_components``) all of ``A`` lies in one
    component, and the components of B in it are exactly those
    non-orthogonal to ``A``, since two components of B are never joined
    by an edge.  It is connected in D, and its quotient image is ``A``.
    """
    if A == 0:
        raise DiagramError("cannot lift the empty subdiagram")
    if len(quotient_components(D, B, A)) != 1:
        raise DiagramError("subdiagram is not connected in the quotient")
    return component_containing(D, 0, A, within=A | B)


def induced(D: Diagram, S: int) -> tuple[Diagram, dict[int, int]]:
    """The full subdiagram on ``S`` as a standalone diagram, with old->new map."""
    D.check_subset(S)
    if S == 0:
        raise DiagramError("induced subdiagram needs at least one vertex")
    kept = list(bits(S))
    old_to_new = {old: new for new, old in enumerate(kept)}
    edges = []
    for x, a in enumerate(kept):
        for b in kept[x + 1:]:
            if D.adj[a] & (1 << b):
                edges.append((x, old_to_new[b], D.label(a, b)))
    return Diagram.from_edges([D.names[i] for i in kept], edges), old_to_new
