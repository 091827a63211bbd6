import itertools
import json
import random
import re
from collections import deque

import pytest
from hypothesis import given, strategies as st

from graphassoc import coherence, nested
from graphassoc.coherence import (
    AssociatorSymbol,
    LocalGenerator,
    RelationWord,
    TwistSymbol,
    are_equivalent,
    associator_letter,
    braid_relations,
    central_support,
    elementary_letter,
    good_elementary_sequence,
    invert_word,
    is_elementary,
    kappa,
    monodromy_word,
    pair_from_triple,
    pentagon_relations,
    presentation_json,
    relations_by_face,
    support,
    symmetric_difference,
    transport_good_sequence,
    triple_from_pair,
    twist_associator,
    validate_good_sequence,
)
from graphassoc.diagram import Diagram, DiagramError, InvariantError, bits, components, is_orthogonal
from graphassoc.nested import (
    NestedSet,
    TwoFace,
    boundary_cycle,
    classify_two_face,
    connected_subdiagrams,
    edge_graph,
    faces,
    maximal_nested_sets,
)
from conftest import (
    complete_diagram,
    connected_reps,
    cycle_diagram,
    labeled_connected,
    path_diagram,
    relabelings,
    star_diagram,
)

P2 = path_diagram(2, label=3)
P3 = path_diagram(3)
P5 = path_diagram(5)
C3 = cycle_diagram(3)


def ns(D, *lists):
    return NestedSet.from_vertex_lists(D, lists)


def elementary_pairs(D):
    mns = maximal_nested_sets(D)
    for F in mns:
        for G in mns:
            if is_elementary(F, G):
                yield F, G


# -- support -------------------------------------------------------------------


def test_support_examples():
    F, G = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])
    assert support(P3, F, G) == 0b011
    F2, G2 = ns(P3, [0, 1], [0]), ns(P3, [1, 2], [2])
    assert support(P3, F2, G2) == P3.full
    assert support(P3, F, F) == 0


def test_support_rejects_non_maximal():
    with pytest.raises(DiagramError):
        support(P3, ns(P3, [0, 1]), ns(P3, [0, 1], [0]))


def test_central_support_examples():
    assert central_support(P3, ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])) == 0
    assert central_support(P3, ns(P3, [0], [2]), ns(P3, [0, 1], [0])) == 0b001
    assert central_support(P3, ns(P3, [0, 1], [0]), ns(P3, [1, 2], [2])) == 0
    F = ns(P3, [0, 1], [0])
    assert central_support(P3, F, F) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_elementary_support_formulas(n):
    """On elementary pairs the general definitions restrict to the edge formulas."""
    for D in labeled_connected(n):
        for F, G in elementary_pairs(D):
            meet = NestedSet.make(D, set(F.elements) & set(G.elements))
            unsat = meet.unsaturated()
            assert len(unsat) == 1
            B, alpha = unsat[0]
            assert support(D, F, G) == B
            assert central_support(D, F, G) == B & ~alpha


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_central_support_is_union_of_kappa_inside_support(n):
    """The neighbour-removal formula agrees with the kappa definition on every pair."""
    for D in connected_reps(5) if n == 5 else labeled_connected(n):
        mns = maximal_nested_sets(D)
        for i, F in enumerate(mns):
            for G in mns[i:]:  # (G, F) has the same symmetric difference and support
                delta = symmetric_difference(F, G)
                supp = support(D, F, G)
                expected = 0
                if delta:
                    for B in kappa(D, delta):
                        if B & ~supp == 0:
                            expected |= B
                assert central_support(D, F, G) == central_support(D, G, F) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kappa_disjoint_from_symmetric_difference(n):
    for D in labeled_connected(n):
        mns = maximal_nested_sets(D)
        for F in mns:
            for G in mns:
                delta = symmetric_difference(F, G)
                if not delta:
                    continue
                assert set(kappa(D, delta)).isdisjoint(delta)
                for B in kappa(D, delta):
                    for C in delta:
                        assert is_orthogonal(D, B, C) or (B & ~C == 0 and B != C)


@given(st.data())
def test_pair_support_invariants_on_random_pairs(data):
    n = data.draw(st.integers(2, 4))
    D = data.draw(st.sampled_from(labeled_connected(n)))
    mns = maximal_nested_sets(D)
    F = data.draw(st.sampled_from(mns))
    G = data.draw(st.sampled_from(mns))
    sym_diff, supp, zsupp = symmetric_difference(F, G), support(D, F, G), central_support(D, F, G)
    union = 0
    for m in sym_diff:
        union |= m
    assert supp == union
    assert zsupp & ~supp == 0
    assert support(D, G, F) == supp
    assert central_support(D, G, F) == zsupp
    if sym_diff:
        assert set(kappa(D, list(sym_diff))).isdisjoint(sym_diff)


def test_pair_support_fields():
    F, G = ns(P3, [0], [2]), ns(P3, [0, 1], [0])
    supp, zsupp = support(P3, F, G), central_support(P3, F, G)
    assert supp == P3.full and zsupp == 0b001
    assert set(symmetric_difference(F, G)) == {0b100, 0b011}
    assert zsupp & ~supp == 0


# -- equivalence ------------------------------------------------------------------


def test_equivalence_examples():
    F, G = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])
    assert are_equivalent(P3, (F, G), (F, G))
    assert not are_equivalent(P3, (F, G), (G, F))
    F1 = ns(P5, [0, 1], [0], [3, 4], [3])
    G1 = ns(P5, [0, 1], [1], [3, 4], [3])
    F2 = ns(P5, [0, 1], [0], [3, 4], [4])
    G2 = ns(P5, [0, 1], [1], [3, 4], [4])
    assert are_equivalent(P5, (F1, G1), (F2, G2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_equivalence_matches_triples(n):
    for D in labeled_connected(n):
        pairs = list(elementary_pairs(D))
        triples = [triple_from_pair(D, F, G) for F, G in pairs]
        for (F, G), t1 in zip(pairs, triples):
            for (F2, G2), t2 in zip(pairs, triples):
                assert are_equivalent(D, (F, G), (F2, G2)) == (t1 == t2)


def test_equivalent_pairs_share_supports():
    for D in labeled_connected(4)[::5]:
        pairs = list(elementary_pairs(D))
        for (F, G) in pairs:
            for (F2, G2) in pairs:
                if are_equivalent(D, (F, G), (F2, G2)):
                    assert support(D, F, G) == support(D, F2, G2)
                    assert central_support(D, F, G) == central_support(D, F2, G2)


# -- triples ------------------------------------------------------------------------


def test_triple_from_pair_examples():
    G, F = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])
    assert triple_from_pair(P3, G, F) == (0b011, 1, 0)
    G2, F2 = ns(P3, [0, 1], [0]), ns(P3, [0], [2])
    assert triple_from_pair(P3, G2, F2) == (P3.full, 2, 1)
    with pytest.raises(DiagramError):
        triple_from_pair(P3, ns(P3, [0, 1], [0]), ns(P3, [1, 2], [2]))


def test_pair_from_triple_examples():
    G, F = pair_from_triple(P3, 0b011, 1, 0)
    assert [P3.vertex_names(m) for m in G.elements] == [["1"], ["1", "2"], ["1", "2", "3"]]
    assert [P3.vertex_names(m) for m in F.elements] == [["2"], ["1", "2"], ["1", "2", "3"]]
    G, F = pair_from_triple(P3, P3.full, 2, 1)
    assert [P3.vertex_names(m) for m in G.elements] == [["1"], ["1", "2"], ["1", "2", "3"]]
    assert [P3.vertex_names(m) for m in F.elements] == [["1"], ["3"], ["1", "2", "3"]]
    with pytest.raises(DiagramError):
        pair_from_triple(P3, 0b011, 1, 1)
    with pytest.raises(DiagramError):
        pair_from_triple(P3, 0b011, 2, 0)


def test_broken_triple_roundtrip_is_invariant_error(monkeypatch):
    import graphassoc.coherence as coherence

    monkeypatch.setattr(coherence, "triple_from_pair", lambda D, G, F: (0, 0, 0))
    with pytest.raises(InvariantError):
        pair_from_triple(P3, 0b011, 1, 0)


def test_support_disagreeing_with_meet_is_invariant_error(monkeypatch):
    G, F = pair_from_triple(P3, 0b011, 1, 0)
    monkeypatch.setattr(NestedSet, "unsaturated", lambda self: [])
    with pytest.raises(InvariantError):
        support(P3, G, F)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triple_roundtrip_exhaustive(n):
    for D in labeled_connected(n):
        for B in connected_subdiagrams(D):
            for ag in bits(B):
                for af in bits(B):
                    if ag == af:
                        continue
                    G, F = pair_from_triple(D, B, ag, af)
                    assert is_elementary(G, F)
                    assert triple_from_pair(D, G, F) == (B, ag, af)


# -- good elementary sequences ----------------------------------------------------


def test_good_sequence_examples():
    F, G = ns(P3, [0, 1], [0]), ns(P3, [1, 2], [2])
    seq = good_elementary_sequence(P3, F, G)
    assert len(seq) >= 3
    assert seq[0].elements == F.elements and seq[-1].elements == G.elements
    assert good_elementary_sequence(P3, F, F) == [F]
    F1 = ns(P5, [0, 1], [0], [3, 4], [3])
    G1 = ns(P5, [0, 1], [1], [3, 4], [3])
    seq = good_elementary_sequence(P5, F1, G1)
    assert len(seq) == 2
    assert support(P5, seq[0], seq[1]) == 0b00011


@pytest.mark.parametrize("n", [2, 3, 4])
def test_good_sequences_validate_everywhere(n):
    for D in labeled_connected(n):
        mns = maximal_nested_sets(D)
        for F in mns:
            for G in mns:
                seq = good_elementary_sequence(D, F, G)
                if F.elements != G.elements:
                    validate_good_sequence(D, F, G, seq)


def test_transport_produces_stepwise_equivalent_sequences():
    P6 = path_diagram(6)
    F1 = ns(P6, [0, 1, 2], [0, 1], [0], [4, 5], [4])
    G1 = ns(P6, [0, 1, 2], [1, 2], [2], [4, 5], [4])
    F2 = ns(P6, [0, 1, 2], [0, 1], [0], [4, 5], [5])
    G2 = ns(P6, [0, 1, 2], [1, 2], [2], [4, 5], [5])
    assert are_equivalent(P6, (F1, G1), (F2, G2))
    seq1 = good_elementary_sequence(P6, F1, G1)
    assert len(seq1) > 2
    seq2 = transport_good_sequence(P6, seq1, F2, G2)
    assert len(seq1) == len(seq2)
    for (H, K), (H2, K2) in zip(zip(seq1, seq1[1:]), zip(seq2, seq2[1:])):
        assert are_equivalent(P6, (H, K), (H2, K2))


def test_validator_rejects_bad_sequences():
    F, G = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])
    detour = ns(P3, [1, 2], [2])
    with pytest.raises(DiagramError):
        validate_good_sequence(P3, F, G, [F, detour, G])
    Q3 = path_diagram(3, label=4)  # the masks of P3, another diagram
    with pytest.raises(DiagramError, match="not a maximal nested set of D"):
        validate_good_sequence(P3, F, G, [NestedSet(Q3, H.elements) for H in (F, G)])


@pytest.mark.parametrize("D", [path_diagram(4), cycle_diagram(4), complete_diagram(4), star_diagram(3),
                               path_diagram(5), cycle_diagram(5)],
                         ids=["P4", "C4", "K4", "star3", "P5", "C5"])
def test_a_walk_is_refused_exactly_when_a_vertex_loses_the_intersection(D):
    """Random 1-skeleton walks of 1 to 6 steps from F to G: every other clause
    holds on such walks, so the validator refuses one exactly when one of its
    vertices lacks an element of F & G, and says so."""
    rng = random.Random(30)
    verts, edges = edge_graph(D)
    nbrs = [[] for _ in verts]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    refused = 0
    for _ in range(1000):
        steps = [rng.randrange(len(verts))]
        for _ in range(rng.randint(1, 6)):
            steps.append(rng.choice(nbrs[steps[-1]]))
        walk = [verts[i] for i in steps]
        meet = set(walk[0].elements) & set(walk[-1].elements)
        if all(meet <= set(H.elements) for H in walk):
            validate_good_sequence(D, walk[0], walk[-1], walk)
        else:
            refused += 1
            with pytest.raises(DiagramError, match="^step loses the intersection$"):
                validate_good_sequence(D, walk[0], walk[-1], walk)
    assert 100 < refused < 900


def test_empty_sequence_has_wrong_endpoints():
    F, G = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])
    with pytest.raises(DiagramError, match="sequence endpoints are wrong"):
        validate_good_sequence(P3, F, G, [])


def test_support_refuses_a_nested_set_of_another_diagram():
    F, G = ns(P3, [0, 1], [0]), maximal_nested_sets(path_diagram(4))[0]
    for pair in ((F, G), (G, F)):
        with pytest.raises(DiagramError, match="not a maximal nested set of D"):
            support(P3, *pair)


def test_monodromy_word_refuses_a_nested_set_of_another_diagram():
    F = maximal_nested_sets(path_diagram(4))[0]
    with pytest.raises(DiagramError, match="not a maximal nested set of D"):
        monodromy_word(P3, F, 0)


def breadth_first_oracle(D):
    """The vertices of D and a path search over them, independent of the cached skeleton.

    Neighbours come from the pairwise definition in ascending order; a
    search may enter any vertex that holds the intersection of its ends.
    """
    verts = maximal_nested_sets(D)
    sets = [set(H.elements) for H in verts]
    adj = [[j for j, t in enumerate(sets) if len(s - t) == 1] for s in sets]

    def search(start, goal):
        meet = sets[start] & sets[goal]
        allowed = {k for k, s in enumerate(sets) if meet <= s}
        parent = {start: None}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if cur == goal:
                break
            for j in adj[cur]:
                if j in allowed and j not in parent:
                    parent[j] = cur
                    queue.append(j)
        path, node = [], goal
        while node is not None:
            path.append(verts[node])
            node = parent[node]
        return path[::-1]

    return verts, search


def test_good_sequences_match_breadth_first_oracle():
    rng = random.Random(2026)
    cases = [(D, None) for n in range(1, 5) for D in connected_reps(n)]
    cases += [(D, 150) for D in connected_reps(5)]
    cases += [(D, 400) for D in (cycle_diagram(6), path_diagram(6), complete_diagram(5))]
    for D, count in cases:
        verts, search = breadth_first_oracle(D)
        n = len(verts)
        if count is None:
            pairs = itertools.product(range(n), repeat=2)
        else:
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
        for i, j in pairs:
            assert good_elementary_sequence(D, verts[i], verts[j]) == search(i, j), (D.names, i, j)


@pytest.mark.parametrize("D", [cycle_diagram(7), complete_diagram(6), path_diagram(7)],
                         ids=["C7", "K6", "P7"])
def test_good_sequences_match_the_oracle_on_large_diagrams(D):
    """The bitset layers return the queue search's path where faces and layers are widest."""
    rng = random.Random(32)
    verts, search = breadth_first_oracle(D)
    for _ in range(100):
        i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
        assert good_elementary_sequence(D, verts[i], verts[j]) == search(i, j), (i, j)


def test_an_empty_layer_is_a_disconnected_face(monkeypatch):
    """A face whose holder bitset misses every vertex between F and G stops the search."""
    P4 = path_diagram(4)
    F, G = ns(P4, [0], [0, 1], [0, 1, 2]), ns(P4, [2], [1, 2], [0, 1, 2])  # two steps apart
    verts, index, adjacent, holders = nested._skeleton(P4)
    assert len(good_elementary_sequence(P4, F, G)) == 3
    corrupt = dict(holders)
    corrupt[0b111] = 1 << index[F.elements] | 1 << index[G.elements]
    monkeypatch.setattr(nested, "_skeleton", lambda D: (verts, index, adjacent, corrupt))
    monkeypatch.setattr(coherence, "_skeleton", nested._skeleton)
    with pytest.raises(DiagramError, match="face of the intersection is disconnected"):
        good_elementary_sequence(P4, F, G)


def test_an_empty_layer_on_gs_side_is_a_disconnected_face(monkeypatch):
    """A face holding F, G and F's neighbours that are not G's: F's end grows at least two
    vertices, so G's end, the smaller frontier, grows next and finds nothing."""
    P4 = path_diagram(4)
    F, G = ns(P4, [0], [0, 1], [0, 1, 2]), ns(P4, [2], [1, 2], [0, 1, 2])  # two steps apart
    verts, index, adjacent, holders = nested._skeleton(P4)
    i, j = index[F.elements], index[G.elements]
    only_f = adjacent[i] & ~adjacent[j]
    assert only_f.bit_count() >= 2
    corrupt = dict(holders)
    corrupt[0b111] = 1 << i | 1 << j | only_f
    monkeypatch.setattr(nested, "_skeleton", lambda D: (verts, index, adjacent, corrupt))
    monkeypatch.setattr(coherence, "_skeleton", nested._skeleton)
    with pytest.raises(DiagramError, match="face of the intersection is disconnected"):
        good_elementary_sequence(P4, F, G)


@pytest.mark.parametrize("D", [cycle_diagram(7), complete_diagram(6), path_diagram(7)],
                         ids=["C7", "K6", "P7"])
def test_good_sequences_match_the_oracle_inside_proper_faces(D):
    """Pairs sharing a proper tube, so the face searched is smaller than the polytope."""
    rng = random.Random(35)
    verts, search = breadth_first_oracle(D)
    for _ in range(60):
        i = rng.randrange(len(verts))
        tube = rng.choice(verts[i].elements[:-1])
        j = rng.choice([k for k, H in enumerate(verts) if tube in H.elements])
        assert len(set(verts[i].elements) & set(verts[j].elements)) >= 2
        assert good_elementary_sequence(D, verts[i], verts[j]) == search(i, j), (i, j)


@pytest.mark.parametrize("D", [path_diagram(5), cycle_diagram(5), complete_diagram(4), star_diagram(3)],
                         ids=["P5", "C5", "K4", "S3"])
def test_good_sequences_of_adjacent_and_equal_ends_match_the_oracle(D):
    """d = 1 (an elementary pair is its own sequence) and F = G (the one-vertex sequence)."""
    verts, search = breadth_first_oracle(D)
    index = {H.elements: k for k, H in enumerate(verts)}
    adjacent = list(elementary_pairs(D))
    assert adjacent
    for F, G in adjacent:
        assert good_elementary_sequence(D, F, G) == search(index[F.elements], index[G.elements]) == [F, G]
    for k, F in enumerate(verts):
        assert good_elementary_sequence(D, F, F) == search(k, k) == [F]


def test_one_pair_query_works_out_the_supports_once():
    """support, central_support and the search's validation share one memo entry per pair."""
    C5 = cycle_diagram(5)
    verts = maximal_nested_sets(C5)
    far = (verts[0], verts[-1])
    near = next(elementary_pairs(C5))
    coherence._pair_supports.cache_clear()
    for F, G in (far, near):
        support(C5, F, G)
        central_support(C5, F, G)
        good_elementary_sequence(C5, F, G)
    info = coherence._pair_supports.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_a_warm_pair_memo_still_refuses_a_relabeled_nested_set():
    """check_maximal runs before the memo is read, so equal elements on another diagram are refused."""
    E = next(E for E in relabelings(P3, count=5, seed=35) if E != P3)
    index = nested._skeleton(P3)[1]
    H = next(H for H in maximal_nested_sets(E) if H.elements in index)
    F = maximal_nested_sets(P3)[index[H.elements]]
    G = next(K for K in maximal_nested_sets(P3) if K != F)
    support(P3, F, G)
    support(P3, G, F)
    for ends in ((H, G), (G, H)):
        with pytest.raises(DiagramError, match="not a maximal nested set of D"):
            support(P3, *ends)


def test_the_pair_memo_is_small_and_bounded():
    maxsize = coherence._pair_supports.cache_parameters()["maxsize"]
    assert type(maxsize) is int and 0 < maxsize <= 64


def test_support_queries_enumerate_nothing():
    """On K20 support and central support read neither the tube list nor the tube table."""
    D = complete_diagram(20)
    G, F = pair_from_triple(D, D.full, 0, 1)
    before = connected_subdiagrams.cache_info().misses, nested._tube_table.cache_info().misses
    assert support(D, F, G) == D.full
    assert central_support(D, F, G) == D.full & ~0b11
    after = connected_subdiagrams.cache_info().misses, nested._tube_table.cache_info().misses
    assert after == before


def test_kappa_refuses_a_member_outside_the_diagram():
    for C in (-1, 0b1000):
        with pytest.raises(DiagramError, match="not a subset of the vertex set"):
            kappa(P3, [C])


@pytest.mark.parametrize("elements", [(1, 2, 7), (5, 7, 7)])
def test_sequence_end_outside_the_vertices_is_diagram_error(elements):
    bogus = NestedSet(P3, elements)
    F = maximal_nested_sets(P3)[0]
    for ends in ((bogus, F), (F, bogus)):
        with pytest.raises(DiagramError, match="not a maximal nested set"):
            good_elementary_sequence(P3, *ends)


def test_edge_cache_never_skips_the_support_cross_check(monkeypatch):
    P4 = path_diagram(4)
    F, G = ns(P4, [0, 1, 2], [0, 1], [0]), ns(P4, [1, 2, 3], [2, 3], [3])
    assert not is_elementary(F, G)
    coherence._skeleton.cache_clear()
    coherence._edge_supports.cache_clear()
    monkeypatch.setattr(NestedSet, "unsaturated", lambda self: [])
    with pytest.raises(InvariantError):
        good_elementary_sequence(P4, F, G)


def test_a_sequence_query_reads_the_face_of_the_meet_once(monkeypatch):
    """A search with F != G works out the face of F & G once and hands it to the
    step check; the validator works it out once."""
    D = cycle_diagram(5)
    calls = []
    holding = nested._holding

    def counting(*args):
        calls.append(args)
        return holding(*args)

    monkeypatch.setattr(coherence, "_holding", counting)
    verts = maximal_nested_sets(D)
    F, G = verts[0], verts[-1]
    seq = good_elementary_sequence(D, F, G)
    assert len(seq) > 2 and len(calls) == 1
    validate_good_sequence(D, F, G, seq)
    assert len(calls) == 2


def test_steps_must_join_enumerated_vertices():
    """A step through a family that is not a vertex of D is refused before its meet is read."""
    F, G = ns(P3, [0, 1], [0]), ns(P3, [1, 2], [2])
    bogus = NestedSet(P3, (0b001, 0b110, 0b111))  # {0} and {1, 2} are adjacent: not nested
    # every meet of [F, X, Y, G] passes the unsaturated cross-check; X and Y hold the disconnected {0, 2}
    X, Y = NestedSet(P3, (0b001, 0b101, 0b111)), NestedSet(P3, (0b100, 0b101, 0b111))
    for seq in ([F, bogus, G], [F, X, Y, G]):
        with pytest.raises(DiagramError, match="not a maximal nested set of D"):
            validate_good_sequence(P3, F, G, seq)


def validator_oracle(D, verts, F, G, seq):
    """The message ``validate_good_sequence`` must raise on ``seq``, or None, by set rules.

    Every member must be an enumerated vertex, checked before any step.
    A step is elementary when its two element sets differ in one element
    and keeps F & G when both of its vertices hold it; its support is the
    union of the symmetric difference.
    """
    if any(H.elements not in {V.elements for V in verts} for H in seq):
        return "not a maximal nested set of D"
    meet = set(F.elements) & set(G.elements)

    def union(H, K):
        out = 0
        for m in set(H.elements) ^ set(K.elements):
            out |= m
        return out

    zcomps = components(D, central_support(D, F, G))
    for H, K in zip(seq, seq[1:]):
        hs, ks = set(H.elements), set(K.elements)
        if len(hs - ks) != 1:
            return "non-elementary step"
        if not meet <= hs & ks:
            return "step loses the intersection"
        supp, zsupp = union(H, K), central_support(D, H, K)
        if supp & ~union(F, G):
            return "step support leaves supp(F, G)"
        if any(not is_orthogonal(D, comp, supp) and comp & ~zsupp for comp in zcomps):
            return "central support clause violated"
    return None


@pytest.mark.parametrize("D", [path_diagram(4), cycle_diagram(4), complete_diagram(4), star_diagram(3),
                               path_diagram(5), cycle_diagram(5)],
                         ids=["P4", "C4", "K4", "star3", "P5", "C5"])
def test_validator_matches_the_set_rules_oracle(D):
    """Seeded sequences mixing 1-skeleton steps with jumps, repeated vertices and
    members that are not vertices: the validator accepts exactly what the oracle
    accepts and raises the oracle's message.  Inside the face of F & G every
    edge also meets both support clauses, so neither side refuses one for them."""
    rng = random.Random(31)
    verts, edges = edge_graph(D)
    nbrs = [[] for _ in verts]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    tubes = [B for B in connected_subdiagrams(D) if B != D.full]
    seen = set()
    for _ in range(600):
        cur = rng.randrange(len(verts))
        seq = [verts[cur]]
        for _ in range(rng.randint(1, 6)):
            move = rng.random()
            if move < 0.7:
                cur = rng.choice(nbrs[cur])
            elif move < 0.82:
                cur = rng.randrange(len(verts))
            if move < 0.9:
                seq.append(verts[cur])
            else:  # one proper tube swapped for any tube: never a vertex of D
                elements = list(verts[cur].elements)
                elements[rng.randrange(D.n - 1)] = rng.choice(tubes)
                if set(elements) not in [set(V.elements) for V in verts]:
                    seq.append(NestedSet(D, tuple(elements)))
        want = validator_oracle(D, verts, seq[0], seq[-1], seq)
        seen.add(want)
        if want is None:
            validate_good_sequence(D, seq[0], seq[-1], seq)
        else:
            with pytest.raises(DiagramError, match=f"^{re.escape(want)}$"):
                validate_good_sequence(D, seq[0], seq[-1], seq)
    assert seen == {None, "not a maximal nested set of D", "non-elementary step",
                    "step loses the intersection"}


def test_support_clauses_read_each_edges_kept_supports(monkeypatch):
    """The two support clauses, which no walk inside the face of F & G violates,
    refuse an edge whose kept supports do, each with its own message."""
    index = nested._skeleton(P3)[1]
    kept = {}
    monkeypatch.setattr(coherence, "_edge_supports", lambda D, i, j: kept[i, j])
    F, G = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])  # supp(F, G) = {0, 1}
    edge = tuple(sorted((index[F.elements], index[G.elements])))
    kept[edge] = (P3.full, 0)
    with pytest.raises(DiagramError, match=r"^step support leaves supp\(F, G\)$"):
        validate_good_sequence(P3, F, G, [F, G])
    F, G = ns(P3, [0], [2]), ns(P3, [0, 1], [0])  # central support {0}
    edge = tuple(sorted((index[F.elements], index[G.elements])))
    kept[edge] = (P3.full, 0)
    with pytest.raises(DiagramError, match="^central support clause violated$"):
        validate_good_sequence(P3, F, G, [F, G])
    monkeypatch.undo()
    coherence._edge_supports.cache_clear()
    validate_good_sequence(P3, F, G, [F, G])
    assert coherence._edge_supports.cache_info().currsize == 1
    assert coherence._edge_supports(P3, *edge) == (P3.full, 0b001)
    assert coherence._edge_supports.cache_info().hits == 1


def test_pair_queries_leave_the_skeleton_unchanged():
    """Searches and validations keep what they learn about edges out of the cached skeleton."""
    C5 = cycle_diagram(5)
    coherence._skeleton.cache_clear()
    skeleton = coherence._skeleton(C5)
    before = [dict(part) if isinstance(part, dict) else part for part in skeleton]
    verts = skeleton[0]
    rng = random.Random(33)
    for _ in range(50):
        F, G = rng.choice(verts), rng.choice(verts)
        validate_good_sequence(C5, F, G, good_elementary_sequence(C5, F, G))
    assert coherence._skeleton(C5) is skeleton
    assert list(skeleton) == before


def test_a_corrupted_edge_is_an_invariant_error_when_its_supports_are_first_read(monkeypatch):
    """An adjacency bit joining two vertices that differ in more than one tube
    passes the step tests but not the exchange read when the edge memo misses."""
    P4 = path_diagram(4)
    verts, index, adjacent, holders = nested._skeleton(P4)
    F, G = ns(P4, [0], [0, 1], [0, 1, 2]), ns(P4, [2], [1, 2], [0, 1, 2])  # two steps apart
    i, j = index[F.elements], index[G.elements]
    assert not adjacent[i] >> j & 1
    corrupt = list(adjacent)
    corrupt[i] |= 1 << j
    corrupt[j] |= 1 << i
    monkeypatch.setattr(coherence, "_skeleton", lambda D: (verts, index, tuple(corrupt), holders))
    monkeypatch.setattr(coherence, "_edge_supports", coherence._edge_supports.__wrapped__)
    with pytest.raises(InvariantError, match="exchange exactly one tube"):
        validate_good_sequence(P4, F, G, [F, G])


def test_transport_refuses_an_empty_sequence():
    F, G = ns(P3, [0, 1], [0]), ns(P3, [0, 1], [1])
    with pytest.raises(DiagramError, match="sequence endpoints are wrong"):
        transport_good_sequence(P3, [], F, G)


# -- relation words ----------------------------------------------------------------


def mu_letters(D, H):
    """Independent boundary word of a 2-face, from the cycle of its vertices."""
    cycle = boundary_cycle(D, H)
    letters = [
        elementary_letter(D, G, F)
        for F, G in zip(cycle, cycle[1:] + cycle[:1])
    ]
    letters.reverse()
    return tuple(letters)


def cyclic_variants(letters):
    variants = set()
    word = RelationWord("check", tuple(letters))
    for base in (word.letters, invert_word(word).letters):
        for k in range(len(base)):
            variants.add(base[k:] + base[:k])
    return variants


def test_pentagon_word_counts():
    words = pentagon_relations(P3)
    assert [w.kind for w in words] == ["pentagon5"]
    assert len(words[0].letters) == 5
    words = pentagon_relations(C3)
    assert [w.kind for w in words] == ["hexagon6"]
    assert len(words[0].letters) == 6
    assert pentagon_relations(P2) == []


def test_pentagon_letters_are_canonical():
    for D in [P3, C3, P5, cycle_diagram(4)]:
        for word in pentagon_relations(D):
            for sym, exp in word.letters:
                assert isinstance(sym, AssociatorSymbol)
                assert sym.pair[0] < sym.pair[1]
                assert exp in (-1, 1)


def test_pentagon_words_match_boundary_cycles():
    """The template words agree with the face boundaries walked independently."""
    for D in [P3, C3, P5, cycle_diagram(4), path_diagram(4)]:
        for H, word in relations_by_face(D):
            assert tuple(word.letters) in cyclic_variants(mu_letters(D, H))


def test_reversed_cycle_gives_inverse_word():
    """Walking a 2-face the other way inverts its boundary word."""
    for D in [P3, C3]:
        for H, _ in relations_by_face(D):
            cycle = boundary_cycle(D, H)
            reversed_cycle = [cycle[0]] + cycle[:0:-1]
            forward = mu_letters(D, H)
            backward = [
                elementary_letter(D, G, F)
                for F, G in zip(reversed_cycle, reversed_cycle[1:] + reversed_cycle[:1])
            ]
            backward.reverse()
            inverse = tuple((sym, -e) for sym, e in reversed(forward))
            assert tuple(backward) == inverse


def test_relation_census_matches_two_face_census():
    for D in [P3, C3, P5, cycle_diagram(4)]:
        words = pentagon_relations(D)
        kinds = [classify_two_face(D, H) for H in faces(D, 2)]
        assert len(words) == sum(1 for k in kinds if k is not TwoFace.SQUARE)
        assert sum(1 for w in words if w.kind == "hexagon6") == sum(
            1 for k in kinds if k is TwoFace.HEXAGON
        )


def test_two_face_consumers_split_each_b_alpha_once(monkeypatch):
    """``two_faces`` then ``relations_by_face`` on C6 compute one split per
    distinct (B, alpha), and faces sharing a (B, alpha) get equal words."""
    D = cycle_diagram(6)
    calls = []
    split_components = nested.split_components

    def counting(*args):
        calls.append(args[1:])
        return split_components(*args)

    monkeypatch.setattr(nested, "split_components", counting)
    nested._shape.cache_clear()
    nested.two_faces(D)
    by_key = {}
    for H, word in relations_by_face(D):
        (key,) = H.unsaturated()
        assert by_key.setdefault(key, word) == word
    assert sorted(calls) == sorted(by_key)


def free_reduce(letters):
    """The free-group reduction of a word: adjacent powers of one symbol merge, zeros drop."""
    out = []
    for sym, e in letters:
        if out and out[-1][0] == sym:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((sym, merged))
        elif e:
            out.append((sym, e))
    return tuple(out)


def test_orientation_inverse_consistency():
    for word in pentagon_relations(P3) + pentagon_relations(C3):
        inv = invert_word(word)
        assert free_reduce(word.letters + inv.letters) == ()
        assert free_reduce(tuple(word.letters)) == word.letters


# -- braid relations -----------------------------------------------------------------


def count_local(letters, vertex):
    return sum(1 for sym, _ in letters if sym == LocalGenerator(vertex))


def test_braid_relation_m3():
    (word,) = braid_relations(P2)
    assert word.kind == "braid"
    assert count_local(word.letters, 0) == 3
    assert count_local(word.letters, 1) == 3


def test_braid_relations_infinite_label():
    assert braid_relations(path_diagram(2)) == []


def test_braid_relations_flag():
    D = path_diagram(3, label=3)
    assert len(braid_relations(D)) == 2
    rels = braid_relations(D, include_commuting=True)
    assert len(rels) == 3
    commuting = [w for w in rels if len(w.letters) == 4]
    assert len(commuting) == 1
    assert {sym.vertex for sym, _ in commuting[0].letters} == {0, 2}


def test_braid_word_reduces_to_identity_when_phi_killed():
    """Setting the associator to 1 must reduce the relation to plain braiding."""
    (word,) = braid_relations(P2)
    kept = [l for l in word.letters if isinstance(l[0], LocalGenerator)]
    reduced = free_reduce(kept)
    # S1 S2 S1 S2^-1 S1^-1 S2^-1 is the free form of the m=3 braid relation
    expected = (
        (LocalGenerator(0), 1),
        (LocalGenerator(1), 1),
        (LocalGenerator(0), 1),
        (LocalGenerator(1), -1),
        (LocalGenerator(0), -1),
        (LocalGenerator(1), -1),
    )
    assert reduced == expected


# -- monodromy words ------------------------------------------------------------------


def test_monodromy_word_examples():
    F = ns(P3, [0, 1], [0])
    assert monodromy_word(P3, F, 0).letters == ((LocalGenerator(0), 1),)
    word = monodromy_word(P3, F, 1)
    phi = AssociatorSymbol(0b011, (0, 1))
    assert word.letters == ((phi, -1), (LocalGenerator(1), 1), (phi, 1))
    word = monodromy_word(P2, ns(P2, [0]), 1)
    assert len(word.letters) == 3
    assert word.letters[0][0].support == P2.full


def test_monodromy_word_refuses_a_vertex_outside_the_diagram():
    F = ns(P3, [0, 1], [0])
    for i in (3, 7, -1):
        with pytest.raises(DiagramError, match=f"vertex {i} out of range 0..2"):
            monodromy_word(P3, F, i)


def test_monodromy_word_is_conjugation():
    for D in [P3, cycle_diagram(3)]:
        for F in maximal_nested_sets(D):
            for i in range(D.n):
                letters = monodromy_word(D, F, i).letters
                locals_ = [l for l in letters if isinstance(l[0], LocalGenerator)]
                assert locals_ == [(LocalGenerator(i), 1)]
                mid = letters.index((LocalGenerator(i), 1))
                prefix = RelationWord("w", tuple(letters[:mid]))
                suffix = tuple(letters[mid + 1:])
                assert invert_word(prefix).letters == suffix


# -- twists ---------------------------------------------------------------------------


def test_twist_associator_examples():
    word = twist_associator(P3, 0b011, 1, 0)
    assert word.letters == (
        (TwistSymbol(0b011, 1), 1),
        (TwistSymbol(0b001, 0), 1),
        associator_letter(0b011, 1, 0),
        (TwistSymbol(0b010, 1), -1),
        (TwistSymbol(0b011, 0), -1),
    )
    # dropping every twist letter leaves the bare associator
    bare = [l for l in word.letters if isinstance(l[0], AssociatorSymbol)]
    assert bare == [associator_letter(0b011, 1, 0)]
    word = twist_associator(P3, P3.full, 2, 0)
    supports = [l[0].support for l in word.letters if isinstance(l[0], TwistSymbol)]
    assert supports == [P3.full, 0b011, 0b110, P3.full]


def test_twist_rejects_bad_input():
    with pytest.raises(DiagramError):
        twist_associator(P3, 0b011, 0, 0)
    with pytest.raises(DiagramError):
        twist_associator(P3, 0b011, 2, 0)
    with pytest.raises(DiagramError):
        twist_associator(P3, 0b101, 2, 0)


@pytest.mark.parametrize("B", [-1, 0, 0b100, 0b001])
def test_associator_letter_refuses_a_support_without_both_endpoints(B):
    """The support must be a positive mask holding both endpoints; -1 holds every bit."""
    with pytest.raises(DiagramError, match="^both vertices must lie in B$"):
        associator_letter(B, 1, 2)
    assert associator_letter(0b110, 2, 1) == (AssociatorSymbol(0b110, (1, 2)), -1)


@pytest.mark.parametrize("call", [
    lambda: associator_letter(0b111, -1, 1),
    lambda: associator_letter(0b111, 1, -1),
    lambda: pair_from_triple(P3, P3.full, -1, 2),
    lambda: twist_associator(P3, P3.full, 2, -2),
], ids=["letter-source", "letter-target", "pair_from_triple", "twist"])
def test_pair_entries_refuse_a_negative_vertex_index(call):
    with pytest.raises(DiagramError, match="^both vertices must lie in B$"):
        call()


@pytest.mark.parametrize("vertex", [1.5, True], ids=["float", "bool"])
def test_a_vertex_index_that_is_not_an_int_is_refused(vertex):
    """A float or a bool is no vertex index: each entry refuses it with its own message."""
    F = ns(P3, [0, 1], [0])
    entries = {
        "label": (lambda: P3.label(vertex, 2), "vertex index out of range 0..2"),
        "monodromy_word": (lambda: monodromy_word(P3, F, vertex), f"vertex {vertex} out of range 0..2"),
        "associator_letter": (lambda: associator_letter(7, vertex, 2), "both vertices must lie in B"),
        "twist_associator": (lambda: twist_associator(P3, 7, vertex, 2), "both vertices must lie in B"),
        "pair_from_triple": (lambda: pair_from_triple(P3, 7, vertex, 2), "both vertices must lie in B"),
    }
    for name, (call, message) in entries.items():
        with pytest.raises(DiagramError) as err:
            call()
        assert str(err.value) == message, name


# -- presentation export ---------------------------------------------------------------


def test_presentation_json_shape():
    doc = presentation_json(P3)
    assert doc["generators"]["S"] == ["1", "2", "3"]
    kinds = {r["kind"] for r in doc["relations"]}
    assert kinds <= {"pentagon5", "hexagon6", "braid", "orientation"}
    for rel in doc["relations"]:
        for letter in rel["word"]:
            assert letter["exp"] in (-1, 1)
            assert letter["letter"]["type"] in {"S", "Phi", "a"}


PRESENTATION_DIAGRAMS = [D for n in range(1, 6) for D in connected_reps(n)] + [
    E for D in (cycle_diagram(6), path_diagram(6), complete_diagram(5), star_diagram(4))
    for E in relabelings(D, count=1, seed=17)
] + [path_diagram(4, label=3), cycle_diagram(4, label=4), path_diagram(3, label=6),
     Diagram.from_edges(["1", "2", "3", "4"], [(0, 1, 3), (1, 2), (1, 3, 5)])]


@pytest.mark.parametrize("D", PRESENTATION_DIAGRAMS, ids=lambda D: f"n{D.n}-adj{'.'.join(map(str, D.adj))}")
def test_presentation_json_matches_a_fresh_encoding_and_shares_repeats(D):
    """The payload serializes like one fresh ``_letter_json`` list per relation,
    and the relations of the 2-faces of one (B, alpha) are one object."""
    doc = presentation_json(D)
    names = {B: D.vertex_names(B) for B in connected_subdiagrams(D)}
    fresh = [
        {"kind": word.kind, "word": [coherence._letter_json(D, l, names) for l in word.letters]}
        for word in pentagon_relations(D) + braid_relations(D)
    ]
    assert json.dumps(doc) == json.dumps(dict(doc, relations=fresh))
    keys = [H.unsaturated()[0] for H, _word in relations_by_face(D)]
    by_key = {}
    for key, rel in zip(keys, doc["relations"]):
        assert by_key.setdefault(key, rel) is rel
    braids = doc["relations"][len(keys):]
    distinct = {id(rel) for rel in doc["relations"]}
    assert len(distinct) == len(by_key) + len(braids)


def test_presentation_json_splits_and_encodes_each_distinct_word_once(monkeypatch):
    """On a relabeled C6 with a cold split table: one ``split_components`` per
    distinct (B, alpha), one ``_letter_json`` per letter of each distinct word."""
    (D,) = relabelings(cycle_diagram(6), count=1, seed=17)
    splits, letters = [], []
    split_components, letter_json = nested.split_components, coherence._letter_json

    def counting_split(*args):
        splits.append(args[1:])
        return split_components(*args)

    def counting_letter(*args):
        letters.append(args[1])
        return letter_json(*args)

    monkeypatch.setattr(nested, "split_components", counting_split)
    monkeypatch.setattr(coherence, "_letter_json", counting_letter)
    nested._shape.cache_clear()
    doc = presentation_json(D)
    keys = {H.unsaturated()[0] for H in faces(D, 2) if len(H.unsaturated()) == 1}
    assert sorted(splits) == sorted(keys)
    words = {H.unsaturated()[0]: word for H, word in relations_by_face(D)}
    assert len(words) == len(keys) < len(doc["relations"])
    assert len(letters) == sum(len(word.letters) for word in words.values())
