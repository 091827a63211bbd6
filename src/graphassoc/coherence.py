"""Support theory of pairs of maximal nested sets and symbolic relation words.

Pairs of maximal nested sets are oriented edge-paths on the associahedron;
their support and central support localize the formal associators attached
to them.  The relation words produced here (generalized pentagon and
hexagon words, braid relations, monodromy words and twist rewrites) are
free-group words over tagged letters: nothing is ever evaluated in an
algebra.
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import (
    Diagram,
    DiagramError,
    INFINITY,
    InvariantError,
    Value,
    _union,
    bits,
    check_index,
    component_containing,
    components,
    is_connected,
    is_orthogonal,
)
from .nested import (
    NestedSet,
    _holding,
    _non_square_key,
    _shape,
    _skeleton,
    connected_subdiagrams,
    faces,
    irreducible_cell,
    maximal_nested_sets,
)


# ---------------------------------------------------------------------------
# letters and words


class LocalGenerator(Value):
    """The formal local monodromy S_i attached to a vertex."""

    vertex: int
    __slots__ = _fields = ("vertex",)


class AssociatorSymbol(Value):
    """The formal associator of a connected subdiagram and an ordered vertex pair.

    Canonical letters store the ascending pair; the descending variant is
    its formal inverse.
    """

    support: int
    pair: tuple[int, int]
    __slots__ = _fields = ("support", "pair")

    def __init__(self, support: int, pair: tuple[int, int]):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "pair", pair)


class TwistSymbol(Value):
    """A twist letter attached to a connected subdiagram and one of its vertices."""

    support: int
    vertex: int
    __slots__ = _fields = ("support", "vertex")


Letter = tuple[object, int]


class RelationWord(Value):
    """A free-group word over tagged letters, with a relation-kind tag."""

    kind: str
    letters: tuple[Letter, ...]
    __slots__ = _fields = ("kind", "letters")

    def __init__(self, kind: str, letters: tuple[Letter, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)


def associator_letter(B: int, source: int, target: int) -> Letter:
    """Canonicalized letter for the associator (B; source, target)."""
    _check_pair(B, source, target)
    if source < target:
        return (AssociatorSymbol(B, (source, target)), 1)
    return (AssociatorSymbol(B, (target, source)), -1)


def _check_pair(B: int, i: int, j: int) -> None:
    """Refuse a vertex pair that is not two distinct vertices of the positive mask ``B``."""
    if i == j:
        raise DiagramError("the two vertices must be distinct")
    if not type(i) is type(j) is int or B <= 0 or i < 0 or j < 0 or not (B >> i & 1 and B >> j & 1):
        raise DiagramError("both vertices must lie in B")


def invert_word(word: RelationWord) -> RelationWord:
    return RelationWord(word.kind, tuple((sym, -e) for sym, e in reversed(word.letters)))


# ---------------------------------------------------------------------------
# support and central support


def symmetric_difference(F: NestedSet, G: NestedSet) -> list[int]:
    fs, gs = set(F.elements), set(G.elements)
    return sorted(fs ^ gs)


def is_elementary(F: NestedSet, G: NestedSet) -> bool:
    return len(set(F.elements) - set(G.elements)) == 1


def support(D: Diagram, F: NestedSet, G: NestedSet) -> int:
    """Union of the symmetric difference; empty when F = G.

    For elementary pairs this is the unique unsaturated element of the
    intersection, which is re-derived as a cross-check.
    """
    return _support(D, F, G)[0]


def _support(D: Diagram, F: NestedSet, G: NestedSet) -> tuple[int, int]:
    """``(supp, zsupp)`` of a pair; on every call, before the memo is read, both ends
    are checked maximal, and after it an elementary pair's meet is cross-checked."""
    F.check_maximal(D)
    G.check_maximal(D)
    supp, zsupp, meet = _pair_supports(D, F.elements, G.elements)
    if meet is not None:
        _check_meet(meet, supp)
    return supp, zsupp


@lru_cache(maxsize=16)
def _pair_supports(D: Diagram, f: tuple, g: tuple):
    """``(supp, zsupp, meet)`` of the pair with elements ``f`` and ``g``; ``meet``, the
    validated nested set of their common elements, only for an elementary pair."""
    fs, gs = set(f), set(g)
    delta = fs ^ gs
    supp = 0
    for m in delta:
        supp |= m
    meet = NestedSet.make(D, fs & gs) if len(fs - gs) == 1 else None
    return supp, _minus_neighbours(D, supp, delta), meet


def _check_meet(meet: NestedSet, supp: int) -> None:
    unsat = meet.unsaturated()
    if len(unsat) != 1 or unsat[0][0] != supp:
        raise InvariantError("support disagrees with the unsaturated element of the meet")


def kappa(D: Diagram, collection) -> list[int]:
    """Connected subdiagrams orthogonal to or contained in every member.

    Lemma: the result is closed under connected subsets, because
    containment in and orthogonality to a member pass to subsets; so
    every vertex of a result is itself a (singleton) result.
    """
    collection = tuple(collection)
    for C in collection:
        D.check_subset(C)
    out = []
    for B in connected_subdiagrams(D):
        if all(B & ~C == 0 or is_orthogonal(D, B, C) for C in collection):
            out.append(B)
    return out


def central_support(D: Diagram, F: NestedSet, G: NestedSet) -> int:
    """Union of the kappa-elements of the symmetric difference inside the support.

    By the lemma of ``kappa`` that union is the set of vertices v of the
    support with {v} in kappa, and {v} is in kappa exactly when v is not a
    neighbour of any member C: the support minus ``D.neighbors(C)``.
    """
    return _support(D, F, G)[1]


@lru_cache(maxsize=1024)
def _neighbours(D: Diagram, C: int) -> int:
    """``D.neighbors(C)``, kept per tube for the central supports."""
    return D.neighbors(C)


def _minus_neighbours(D: Diagram, supp: int, delta) -> int:
    """The central support from a known support: ``supp`` minus the neighbours of Δ."""
    for C in delta:
        supp &= ~_neighbours(D, C)
    return supp


@lru_cache(maxsize=4096)
def _edge_supports(D: Diagram, i: int, j: int) -> tuple[int, int]:
    """``(support, central support)`` of the 1-skeleton edge between vertex positions i < j,
    read off its two exchanged tubes, with the edge's meet cross-checked."""
    verts = _skeleton(D)[0]
    fs, gs = set(verts[i].elements), set(verts[j].elements)
    if len(fs - gs) != 1:  # both hold n tubes, so gs - fs has as many
        raise InvariantError("a 1-skeleton edge must exchange exactly one tube")
    (b,), (c,) = fs - gs, gs - fs
    _check_meet(NestedSet(D, tuple(m for m in verts[i].elements if m != b)), b | c)
    return b | c, _minus_neighbours(D, b | c, (b, c))


def are_equivalent(D: Diagram, pair1, pair2) -> bool:
    """Ordered pairs are equivalent when both one-sided differences agree."""
    (F, G), (F2, G2) = pair1, pair2
    for H in (F, G, F2, G2):
        H.check_maximal(D)
    return (
        set(F.elements) - set(G.elements) == set(F2.elements) - set(G2.elements)
        and set(G.elements) - set(F.elements) == set(G2.elements) - set(F2.elements)
    )


# ---------------------------------------------------------------------------
# elementary pairs <-> diagrammatic triples


def triple_from_pair(D: Diagram, G: NestedSet, F: NestedSet) -> tuple[int, int, int]:
    """The triple (support; alpha_G, alpha_F) classifying an elementary pair."""
    if not is_elementary(G, F):
        raise DiagramError("pair is not elementary")
    B = support(D, G, F)
    alpha_g = G.alpha_set(B)
    alpha_f = F.alpha_set(B)
    ag, af = next(bits(alpha_g)), next(bits(alpha_f))
    if ag == af:
        raise DiagramError("degenerate elementary pair")
    return B, ag, af


def pair_from_triple(D: Diagram, B: int, alpha_g: int, alpha_f: int) -> tuple[NestedSet, NestedSet]:
    """The canonical elementary pair (G, F) with the given support triple.

    F keeps the component of ``B - alpha_f`` containing ``alpha_g`` and
    symmetrically for G; both share the elements of ``irreducible_cell``
    on B with alpha set {alpha_g, alpha_f}.
    """
    _check_pair(B, alpha_g, alpha_f)
    shared = irreducible_cell(D, B, (1 << alpha_g) | (1 << alpha_f)).elements
    B1 = component_containing(D, 1 << alpha_f, 1 << alpha_g, within=B)
    B2 = component_containing(D, 1 << alpha_g, 1 << alpha_f, within=B)
    F = NestedSet.make(D, shared + (B1,))
    G = NestedSet.make(D, shared + (B2,))
    if triple_from_pair(D, G, F) != (B, alpha_g, alpha_f):
        raise InvariantError("triple round-trip failed")
    return G, F


# ---------------------------------------------------------------------------
# good elementary sequences


def good_elementary_sequence(D: Diagram, F: NestedSet, G: NestedSet) -> list[NestedSet]:
    """An elementary path from F to G staying inside the face of their intersection.

    Every step shares the intersection, has support inside supp(F, G) and
    treats each component of the central support as the supports axiom
    requires; the output is re-checked clause by clause.  The search runs
    on D's cached 1-skeleton in bitsets over vertex positions.  The face
    of the intersection is the AND of the holder sets of its proper tubes.
    Breadth-first layers (the neighbours of the last layer, inside the
    face, not seen from that end) grow from F, ``ahead[k]`` at distance k,
    and from G, ``behind[k]``, each round at the end whose last layer has
    fewer bits, until the last two meet; an empty layer means the face is
    disconnected.  While the balls grown are disjoint, F and G are more
    than rF - 1 + rG apart, so the first meeting gives d = rF + rG, and
    ``ahead[rF] & behind[rG]`` holds exactly the vertices at distances rF
    and rG (an earlier layer cannot meet, as d would be smaller).  A walk
    back keeps ``ahead[k] & _union(adjacent, kept)``, by induction the
    vertices at distances k from F and d - k from G: those on shortest
    paths, as a walk back from G over layers grown from F alone keeps.
    The path walks forward from F by the least-index kept neighbour, then
    by the least-index neighbour in ``behind[d - k]``, which is kept too:
    its distance from F is at least d - (d - k) = k.

    This is the shortest path that is lexicographically least by vertex
    position, which is also what a queue search over ascending neighbour
    lists returns: by induction on the layer, the queue takes a layer's
    vertices in the order of their least shortest paths from F (a vertex
    is entered from the first-taken neighbour of the layer before, and
    lists ascend), so G's parent chain is the least of its shortest paths.
    """
    F.check_maximal(D)
    G.check_maximal(D)
    if F.elements == G.elements:
        return [F]
    verts, index, adjacent, _holders = _skeleton(D)
    start, goal = index.get(F.elements), index.get(G.elements)
    if start is None or goal is None:
        raise DiagramError("not a maximal nested set of D")
    face = _holding(D, set(F.elements) & set(G.elements))
    ahead, behind = [1 << start], [1 << goal]
    unseen = [face & ~ahead[0], face & ~behind[0]]  # per end, in the order (ahead, behind)
    while not ahead[-1] & behind[-1]:
        side = ahead[-1].bit_count() > behind[-1].bit_count()
        layers = behind if side else ahead
        frontier = _union(adjacent, layers[-1]) & unseen[side]
        if not frontier:
            raise DiagramError("face of the intersection is disconnected; poset corrupt")
        unseen[side] ^= frontier
        layers.append(frontier)
    ahead[-1] = kept = ahead[-1] & behind.pop()
    for k in range(len(ahead) - 2, 0, -1):
        ahead[k] = kept = ahead[k] & _union(adjacent, kept)
    path = [start]
    for layer in ahead[1:] + behind[::-1]:
        step = adjacent[path[-1]] & layer
        path.append((step & -step).bit_length() - 1)
    _check_steps(D, path, face, *_support(D, F, G))
    return [verts[i] for i in path]


def transport_good_sequence(D: Diagram, seq, F2: NestedSet, G2: NestedSet) -> list[NestedSet]:
    """Transport a good sequence along an equivalence of pairs.

    Equivalent pairs share their one-sided differences, so replacing the
    common intersection of the original pair by that of ``(F2, G2)`` step
    by step yields a good sequence whose steps are equivalent to the
    original ones.
    """
    if not seq:
        raise DiagramError("sequence endpoints are wrong")
    F, G = seq[0], seq[-1]
    if not are_equivalent(D, (F, G), (F2, G2)):
        raise DiagramError("pairs are not equivalent")
    meet = set(F.elements) & set(G.elements)
    meet2 = set(F2.elements) & set(G2.elements)
    out = []
    for H in seq:
        extras = set(H.elements) - meet
        out.append(NestedSet.make(D, meet2 | extras))
    validate_good_sequence(D, F2, G2, out)
    return out


def validate_good_sequence(D: Diagram, F: NestedSet, G: NestedSet, seq) -> None:
    """Raise unless ``seq`` satisfies every clause required of a good sequence.

    Every member must be a vertex of D's cached 1-skeleton, checked before
    any step; the steps are then checked by ``_check_steps``.
    """
    if not seq or seq[0].elements != F.elements or seq[-1].elements != G.elements:
        raise DiagramError("sequence endpoints are wrong")
    index = _skeleton(D)[1]
    for H in seq:
        H.check_maximal(D)
    path = [index.get(H.elements) for H in seq]
    if None in path:
        raise DiagramError("not a maximal nested set of D")
    face = _holding(D, set(F.elements) & set(G.elements))
    _check_steps(D, path, face, *_support(D, F, G))


def _check_steps(D: Diagram, path, face: int, supp_fg: int, zsupp_fg: int) -> None:
    """Raise unless the vertex positions ``path`` step as a good sequence of a pair (F, G).

    The caller gives ``face`` (the vertices holding F & G) and the pair's
    supports.  Every step must be an edge of D's cached 1-skeleton into the
    face: from a vertex holding F & G, a step leaves it exactly when it
    drops one of its tubes.  A step's supports are ``_edge_supports``; a
    central-support component is orthogonal to a step's support exactly
    when that support misses the component and its neighbours.
    """
    adjacent = _skeleton(D)[2]
    zcomps = [(comp, comp | D.neighbors(comp)) for comp in components(D, zsupp_fg)]
    for i, j in zip(path, path[1:]):
        if not adjacent[i] >> j & 1:
            raise DiagramError("non-elementary step")
        if not face >> j & 1:
            raise DiagramError("step loses the intersection")
        supp_step, zsupp_step = _edge_supports(D, i, j) if i < j else _edge_supports(D, j, i)
        if supp_step & ~supp_fg:
            raise DiagramError("step support leaves supp(F, G)")
        for comp, near in zcomps:
            if near & supp_step and comp & ~zsupp_step:
                raise DiagramError("central support clause violated")


# ---------------------------------------------------------------------------
# relation words


def elementary_letter(D: Diagram, G: NestedSet, F: NestedSet) -> Letter:
    """The diagrammatic letter of the elementary associator from F to G."""
    B, ag, af = triple_from_pair(D, G, F)
    return associator_letter(B, ag, af)


def general_associator_letters(D: Diagram, G: NestedSet, F: NestedSet) -> list[Letter]:
    """Letters (in product order) expanding the associator from F to G."""
    seq = good_elementary_sequence(D, F, G)
    out = []
    for H, K in zip(seq, seq[1:]):
        out.append(elementary_letter(D, K, H))
    out.reverse()
    return out


def relations_by_face(D: Diagram) -> list[tuple[NestedSet, RelationWord]]:
    """Pairs (2-face, coherence word) for the pentagonal and hexagonal 2-faces.

    Both words walk the hexagon over the alpha vertices (i, j, k) and their
    splits, unpacked from ``nested._shape`` in word order; a pentagon's i is
    the quotient's middle, so its split is empty and that letter is dropped.
    A word depends only on the face's (B, alpha), so it is built once and
    shared by those faces.
    """
    out, words = [], {}
    for H in faces(D, 2) if D.n >= 3 else ():
        key = _non_square_key(H)
        if key is None:
            continue
        if key not in words:
            kind, ((i, s_i), (j, s_j), (k, s_k)) = _shape(D, *key)
            B = key[0]
            letters = [(B, k, i), (s_i, k, j), (B, i, j), (s_j, i, k), (B, j, k), (s_k, j, i)]
            word = tuple(associator_letter(*letter) for letter in letters if letter[0])
            words[key] = RelationWord(f"{kind.value}{len(word)}", word)
        out.append((H, words[key]))
    return out


def pentagon_relations(D: Diagram) -> list[RelationWord]:
    """One coherence word per pentagonal or hexagonal 2-face.

    Square 2-faces impose no condition and are omitted; together with the
    orientation convention these words generate all coherence relations.
    """
    return [word for _face, word in relations_by_face(D)]


def braid_relations(D: Diagram, include_commuting: bool = False) -> list[RelationWord]:
    """Braid relation words, one per vertex pair with finite multiplicity.

    Each word is LHS * RHS^{-1} of the alternating relation with m_ij
    factors per side, the S_i factor conjugated by the two-vertex
    associator.  Pairs with m_ij = 2 reduce to plain commutation and are
    emitted only on request.
    """
    out = []
    for i in range(D.n):
        for j in range(i + 1, D.n):
            m = D.label(i, j)
            if m == INFINITY:
                continue
            if m == 2:
                if include_commuting:
                    si, sj = LocalGenerator(i), LocalGenerator(j)
                    out.append(
                        RelationWord("braid", ((si, 1), (sj, 1), (si, -1), (sj, -1)))
                    )
                continue
            phi = associator_letter((1 << i) | (1 << j), i, j)
            conj_si = (phi, (LocalGenerator(i), 1), (phi[0], -phi[1]))
            sj = ((LocalGenerator(j), 1),)
            lhs = sum(((conj_si, sj)[t % 2] for t in range(int(m))), ())
            rhs = sum(((sj, conj_si)[t % 2] for t in range(int(m))), ())
            out.append(RelationWord("braid", lhs + invert_word(RelationWord("braid", rhs)).letters))
    return out


def monodromy_word(D: Diagram, F: NestedSet, i: int) -> RelationWord:
    """The word conjugating S_i into the braid-group image at the base point F.

    When the singleton {i} already lies in F the word is the single
    letter S_i; otherwise the associator to the deterministically chosen
    maximal nested set through {i} is expanded into elementary letters.
    """
    F.check_maximal(D)
    check_index(i, D.n - 1, "vertex")
    single = 1 << i
    if single in F.elements:
        return RelationWord("monodromy", ((LocalGenerator(i), 1),))
    G_i = next(H for H in maximal_nested_sets(D) if single in H.elements)
    prefix = RelationWord("monodromy", tuple(general_associator_letters(D, F, G_i)))
    # the return trip inverts the same expansion, keeping the word a conjugate
    letters = prefix.letters + ((LocalGenerator(i), 1),) + invert_word(prefix).letters
    return RelationWord("monodromy", letters)


def twist_associator(D: Diagram, B: int, alpha_j: int, alpha_i: int) -> RelationWord:
    """The twisted associator as a five-letter word, empty components dropped."""
    _check_pair(B, alpha_j, alpha_i)
    if not is_connected(D, B):
        raise DiagramError("B must be connected")
    c_i = component_containing(D, 1 << alpha_j, 1 << alpha_i, within=B)
    c_j = component_containing(D, 1 << alpha_i, 1 << alpha_j, within=B)
    letters = [
        (TwistSymbol(B, alpha_j), 1),
        (TwistSymbol(c_i, alpha_i), 1) if c_i else None,
        associator_letter(B, alpha_j, alpha_i),
        (TwistSymbol(c_j, alpha_j), -1) if c_j else None,
        (TwistSymbol(B, alpha_i), -1),
    ]
    return RelationWord("twist", tuple(l for l in letters if l is not None))


# ---------------------------------------------------------------------------
# JSON export


def _letter_json(D: Diagram, letter: Letter, names: dict) -> dict:
    sym, exp = letter
    if isinstance(sym, LocalGenerator):
        body = {"type": "S", "vertex": D.names[sym.vertex]}
    elif isinstance(sym, AssociatorSymbol):
        body = {"type": "Phi", "B": list(names[sym.support]),
                "pair": [D.names[sym.pair[0]], D.names[sym.pair[1]]]}
    else:
        body = {"type": "a", "B": list(names[sym.support]), "alpha": D.names[sym.vertex]}
    return {"letter": body, "exp": exp}


def sequence_json(D: Diagram, F: NestedSet, G: NestedSet) -> dict:
    """The good elementary sequence from F to G, each step as vertex lists."""
    return {"sequence": [H.vertex_lists() for H in good_elementary_sequence(D, F, G)]}


def support_json(D: Diagram, F: NestedSet, G: NestedSet) -> dict:
    """Support and central support of the pair (F, G) as vertex lists."""
    supp, zsupp = _support(D, F, G)
    return {"supp": D.vertex_names(supp), "zsupp": D.vertex_names(zsupp)}


def presentation_json(D: Diagram) -> dict:
    """The symbolic presentation: generator inventory plus relation words.

    Each distinct word is encoded once, and relations repeating it (the
    2-faces of one (B, alpha)) list that same object, so the payload is
    a read-only document: copy it before changing any part.
    """
    names = {B: D.vertex_names(B) for B in connected_subdiagrams(D)}  # holds every support
    phis = []
    twists = []
    for B, B_names in names.items():
        for a in bits(B):
            twists.append({"B": list(B_names), "alpha": D.names[a]})
            for b in bits(B):
                if a < b:
                    phis.append({"B": list(B_names), "pair": [D.names[a], D.names[b]]})
    relations, encoded = [], {}  # keyed by word identity: hashing a word rehashes its letters
    for word in pentagon_relations(D) + braid_relations(D):
        if id(word) not in encoded:
            encoded[id(word)] = {"kind": word.kind,
                                 "word": [_letter_json(D, l, names) for l in word.letters]}
        relations.append(encoded[id(word)])
    return {
        "generators": {"S": list(D.names), "Phi": phis, "a": twists},
        "relations": relations,
    }
