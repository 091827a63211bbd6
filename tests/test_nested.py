import copy
import importlib.util
import json
import pickle
import re
import sys
from pathlib import Path

import pytest

from graphassoc.coherence import pair_from_triple
from graphassoc.diagram import (
    Diagram,
    DiagramError,
    bits,
    component_containing,
    components,
    induced,
    is_compatible,
    is_connected,
    mask_of,
)
from graphassoc.dynkin import ConstantCoefficients, dynkin_basis, verify_chain_map
from graphassoc.nested import (
    NestedSet,
    TwoFace,
    _nested_families,
    _non_square_key,
    _shape,
    _skeleton,
    all_nested_sets,
    ascending_chain,
    classify_two_face,
    boundary_cycle,
    connected_subdiagrams,
    edge_graph,
    element_key,
    f_vector,
    face_factorization,
    face_poset_json,
    faces,
    first_maximal_nested_set,
    irreducible_cell,
    maximal_nested_sets,
    split_components,
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

P2 = path_diagram(2)
P3 = path_diagram(3)
P5 = path_diagram(5)
C3 = cycle_diagram(3)


def ns(D, *lists):
    return NestedSet.from_vertex_lists(D, lists)


# -- independent oracles -----------------------------------------------------


def bracketings(n):
    """All complete bracketings of a word of n letters, by recursive splitting."""
    if n == 1:
        return [("x",)]
    out = []
    for split in range(1, n):
        for left in bracketings(split):
            for right in bracketings(n - split):
                out.append((left, right))
    return out


def brute_force_maximal_families(D):
    """Independent search: all |D|-element pairwise-compatible families with D."""
    import itertools

    conn = [m for m in range(1, D.full + 1) if is_connected(D, m)]
    found = []
    for combo in itertools.combinations(conn, D.n):
        if D.full not in combo:
            continue
        if all(
            is_compatible(D, a, b)
            for i, a in enumerate(combo)
            for b in combo[i + 1:]
        ):
            found.append(frozenset(combo))
    return found


# -- values -------------------------------------------------------------------


def test_nested_sets_are_immutable_values():
    H = ns(P3, [0, 1], [0])
    assert H == ns(P3, [0], [0, 1]) and hash(H) == hash(ns(P3, [0], [0, 1]))
    assert H != ns(P3, [0, 1], [1])
    # the same masks on another diagram: equal hashes are allowed, equality is not
    K = ns(C3, [0, 1], [0])
    assert K.elements == H.elements and K != H
    assert len({H, K}) == 2
    for clone in (pickle.loads(pickle.dumps(H)), copy.copy(H)):
        assert clone == H and hash(clone) == hash(H)
    with pytest.raises(AttributeError):
        H.elements = ()


# -- nestedness and enumeration ----------------------------------------------


def test_is_nested_examples():
    NestedSet(P3, (P3.full, 0b011, 0b001)).validate()
    with pytest.raises(DiagramError, match="incompatible elements"):
        NestedSet(P3, (P3.full, 0b011, 0b110)).validate()
    with pytest.raises(DiagramError, match="must contain the full diagram"):
        NestedSet(P3, (0b001,)).validate()


def test_is_nested_rejects_foreign_vertices():
    with pytest.raises(DiagramError, match="not a subset of the vertex set"):
        P3.check_subset(0b1000)
    with pytest.raises(DiagramError, match="not a subset of the vertex set"):
        NestedSet(P3, (P3.full, 0b1000)).validate()



def test_vertex_lists_refuse_a_negative_index():
    with pytest.raises(DiagramError, match="vertex index -1 is negative"):
        NestedSet.from_vertex_lists(P3, [[-1]])

def test_maximal_nested_sets_p2():
    mns = maximal_nested_sets(P2)
    assert [[P2.vertex_names(m) for m in F.elements] for F in mns] == [
        [["1"], ["1", "2"]],
        [["2"], ["1", "2"]],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_maximal_count_matches_bracketings(n):
    assert len(maximal_nested_sets(path_diagram(n))) == len(bracketings(n + 1))


def test_maximal_count_cycle_brute_force():
    assert len(maximal_nested_sets(C3)) == len(brute_force_maximal_families(C3))
    C4 = cycle_diagram(4)
    assert len(maximal_nested_sets(C4)) == len(brute_force_maximal_families(C4))


def test_face_accessors_share_one_enumeration():
    D = Diagram.from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    before = _nested_families.cache_info()
    f = f_vector(D)
    first = _nested_families.cache_info()
    by_dim = [faces(D, k) for k in range(D.n)]
    verts = maximal_nested_sets(D)
    every = all_nested_sets(D)
    after = _nested_families.cache_info()
    assert first.misses == before.misses + 1
    assert after.misses == first.misses and after.hits > first.hits
    assert f == [len(fs) for fs in by_dim]
    assert all(a is b for a, b in zip(verts, by_dim[0]))
    flat = [H for fs in reversed(by_dim) for H in fs]
    assert len(every) == len(flat) and all(a is b for a, b in zip(every, flat))
    for fs in by_dim:
        keys = [tuple(tuple(bits(m)) for m in H.elements) for H in fs]
        assert keys == sorted(keys)


def ordered_families(D):
    """Every nested set's elements in the documented order, without the tube table.

    Families of proper tubes grow in increasing mask order through
    ``is_compatible``; each family is sorted by (size, vertex list) with D
    added, and the families by ``(len(elements), vertex lists)``.
    """
    tubes = [m for m in range(1, D.full) if is_connected(D, m)]
    found = []

    def grow(family, start):
        found.append(family + (D.full,))
        for j in range(start, len(tubes)):
            if all(is_compatible(D, tubes[j], m) for m in family):
                grow(family + (tubes[j],), j + 1)

    grow((), 0)
    found = [tuple(sorted(F, key=lambda m: (m.bit_count(), tuple(bits(m))))) for F in found]
    return sorted(found, key=lambda F: (len(F), tuple(tuple(bits(m)) for m in F)))


ORDER_DIAGRAMS = [D for n in range(1, 6) for D in connected_reps(n)] + [
    E for D in (path_diagram(6), cycle_diagram(6), complete_diagram(5), star_diagram(4))
    for E in relabelings(D, count=2, seed=15)
]


@pytest.mark.parametrize("D", ORDER_DIAGRAMS, ids=lambda D: f"n{D.n}-adj{'.'.join(map(str, D.adj))}")
def test_enumeration_order_matches_oracle(D):
    every = all_nested_sets(D)
    assert [H.elements for H in every] == ordered_families(D)
    start = 0
    for size in range(1, D.n + 1):
        block = faces(D, D.n - size)
        assert block == every[start:start + len(block)]
        assert all(len(H) == size for H in block)
        start += len(block)
    assert start == len(every)


@pytest.mark.parametrize("D", ORDER_DIAGRAMS, ids=lambda D: f"n{D.n}-adj{'.'.join(map(str, D.adj))}")
def test_bulk_records_equal_constructed_records(D):
    """The enumeration's records, built without ``__init__``, behave as constructed ones.

    The cache is cleared first: an equal diagram enumerated earlier would own the records.
    """
    _nested_families.cache_clear()
    for H in all_nested_sets(D):
        assert type(H) is NestedSet and H.diagram is D
        built = NestedSet(D, H.elements)
        assert H == built and hash(H) == hash(built)
        assert pickle.loads(pickle.dumps(H)) == H and copy.copy(H) == H and copy.deepcopy(H) == H
        with pytest.raises(AttributeError):
            H.elements = ()


def test_cold_enumeration_runs_no_nested_set_init(monkeypatch):
    calls = []
    init = NestedSet.__init__
    monkeypatch.setattr(NestedSet, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    C6 = cycle_diagram(6)
    _nested_families.cache_clear()
    try:
        assert len(_nested_families(C6)) == sum(f_vector(C6))
    finally:
        _nested_families.cache_clear()
    assert calls == []


def test_faces_examples():
    assert [H.elements for H in faces(P3, 2)] == [(P3.full,)]
    assert len(faces(P3, 1)) == 5
    assert len(faces(P2, 0)) == 2
    with pytest.raises(DiagramError):
        faces(P3, 3)


def test_every_maximal_is_maximal():
    for F in maximal_nested_sets(P5):
        F.check_maximal(P5)
        free = [
            m
            for m in connected_subdiagrams(P5)
            if m not in F.elements
            and all(is_compatible(P5, m, e) for e in F.elements)
        ]
        assert free == []


# -- alpha sets, unsaturated elements, factorization ---------------------------


def test_alpha_set_examples():
    H = ns(P3, [0, 1], [0])
    assert H.alpha_set(0b011) == 0b010
    assert H.alpha_set(P3.full) == 0b100
    top = ns(P3)
    assert top.alpha_set(P3.full) == P3.full


def test_inner_union_is_union_of_maximal_sub_elements():
    for n in range(1, 6):
        for D in connected_reps(n):
            for H in all_nested_sets(D):
                for B in H.elements:
                    proper = [m for m in H.elements if m != B and m & ~B == 0]
                    maximal = [
                        m for m in proper
                        if not any(m != o and m & ~o == 0 for o in proper)
                    ]
                    expected = 0
                    for m in maximal:
                        expected |= m
                    assert H.inner_union(B) == expected


def test_alpha_set_requires_membership():
    with pytest.raises(DiagramError):
        ns(P3).alpha_set(0b011)


def test_unsaturated_examples():
    for F in maximal_nested_sets(P3):
        assert F.unsaturated() == []
    assert ns(P3).unsaturated() == [(P3.full, P3.full)]
    H = ns(P5, [0, 1], [3, 4])
    assert H.unsaturated() == [(0b00011, 0b00011), (0b11000, 0b11000)]
    assert H.alpha_set(P5.full) == 0b00100


def test_one_pass_unsaturated_matches_its_definition():
    """``unsaturated()`` equals the alpha-set definition, order included, and
    each split is the component of B - z holding the rest of alpha."""
    diagrams = [D for n in range(1, 6) for D in connected_reps(n)]
    for D in diagrams + [cycle_diagram(6), complete_diagram(5)]:
        for H in all_nested_sets(D):
            pairs = [(B, H.alpha_set(B)) for B in H.elements]
            expected = sorted(
                ((B, alpha) for B, alpha in pairs if len(list(bits(alpha))) >= 2),
                key=lambda pair: (min(bits(pair[0])), len(list(bits(pair[0])))),
            )
            assert H.unsaturated() == expected
            for B, alpha in expected:
                split = split_components(D, B, alpha)
                assert list(split) == list(bits(alpha))
                for z, comp in split.items():
                    rest = alpha & ~(1 << z)
                    assert comp == component_containing(D, 1 << z, rest, within=B)
                    holding = [c for c in components(D, B & ~(1 << z)) if rest & ~c == 0]
                    assert comp == (holding[0] if holding else 0)


def test_face_factorization_examples():
    assert [Q.names for Q in face_factorization(P3, ns(P3))] == [("1", "2", "3")]
    factors = face_factorization(P5, ns(P5, [0, 1], [3, 4]))
    assert [Q.names for Q in factors] == [("1", "2"), ("4", "5")]
    factors = face_factorization(P3, ns(P3, [1]))
    assert [Q.names for Q in factors] == [("1", "3")]
    assert is_connected(factors[0], factors[0].full)


def test_face_dimensions_add_up():
    for D in labeled_connected(4):
        for dim in range(D.n):
            for H in faces(D, dim):
                assert sum(Q.n - 1 for Q in face_factorization(D, H)) == dim


# -- edges and 2-faces ---------------------------------------------------------


@pytest.mark.parametrize("B, alpha", [(0b0011, 0b10000), (0b0011, 0b0100), (0b0110, 0b1011)])
def test_split_components_refuses_alpha_outside_b(B, alpha):
    with pytest.raises(DiagramError, match="^alpha must be a subset of B$"):
        split_components(path_diagram(4), B, alpha)


def test_edge_graph_examples():
    verts, edges = edge_graph(P2)
    assert len(verts) == 2 and edges == [(0, 1)]
    verts, edges = edge_graph(P3)
    assert len(verts) == 5 and len(edges) == 5
    degree = [0] * 5
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert degree == [2] * 5
    verts, edges = edge_graph(C3)
    assert len(verts) == 6 and len(edges) == 6


def test_edge_graph_matches_pairwise_definition():
    """Edges and cached positions follow the pairwise definition."""
    diagrams = [D for n in range(1, 6) for D in connected_reps(n)]
    for D in diagrams + [cycle_diagram(6), path_diagram(6), complete_diagram(5)]:
        verts, edges = edge_graph(D)
        skel_verts, index, _adjacent, _holders = _skeleton(D)
        assert skel_verts == verts == maximal_nested_sets(D)
        assert index == {F.elements: i for i, F in enumerate(verts)}
        sets = [set(F.elements) for F in verts]
        n = len(sets)
        expected = [(i, j) for i in range(n) for j in range(i + 1, n) if len(sets[i] - sets[j]) == 1]
        assert edges == expected, D.names


def test_skeleton_bitsets_match_rows_and_elements():
    """Each vertex's neighbour bitset is its row by the pairwise definition,
    and each proper tube's holder bitset the vertices whose elements hold it."""
    diagrams = [D for n in range(1, 6) for D in connected_reps(n)]
    for D in diagrams + [cycle_diagram(6), path_diagram(6), complete_diagram(5)]:
        verts, _index, adjacent, holders = _skeleton(D)
        sets = [set(F.elements) for F in verts]
        for i, s in enumerate(sets):
            assert list(bits(adjacent[i])) == [j for j, t in enumerate(sets) if len(s - t) == 1], D.names
        tubes = [B for B in connected_subdiagrams(D) if B != D.full]
        assert sorted(holders) == tubes, D.names
        for B in tubes:
            assert list(bits(holders[B])) == [i for i, s in enumerate(sets) if B in s]


def test_edge_graph_connected():
    for D in labeled_connected(4)[::4]:
        verts, edges = edge_graph(D)
        adj = {i: set() for i in range(len(verts))}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        assert len(seen) == len(verts)


def test_classify_examples():
    assert classify_two_face(P3, ns(P3)) is TwoFace.PENTAGON
    assert classify_two_face(C3, ns(C3)) is TwoFace.HEXAGON
    assert classify_two_face(P5, ns(P5, [0, 1], [3, 4])) is TwoFace.SQUARE
    with pytest.raises(DiagramError):
        classify_two_face(P5, ns(P5))


def test_classification_matches_boundary_length():
    expected = {TwoFace.SQUARE: 4, TwoFace.PENTAGON: 5, TwoFace.HEXAGON: 6}
    for D in [E for n in range(3, 6) for E in connected_reps(n)]:
        for H in faces(D, 2):
            kind = classify_two_face(D, H)
            assert len(boundary_cycle(D, H)) == expected[kind]


def _rescanned_boundary_cycle(D, H):
    """The oracle: from the first vertex containing H, step to the first unvisited vertex one tube away."""
    hset = set(H.elements)
    verts = [F for F in maximal_nested_sets(D) if hset <= set(F.elements)]
    cycle = [verts[0]]
    while len(cycle) < len(verts):
        cur = set(cycle[-1].elements)
        cycle.append(next(G for G in verts if G not in cycle and len(cur - set(G.elements)) == 1))
    return cycle


def test_boundary_cycle_matches_the_rescanning_oracle():
    for D in [E for n in range(3, 6) for E in connected_reps(n)]:
        for H in faces(D, 2):
            assert boundary_cycle(D, H) == _rescanned_boundary_cycle(D, H)


def test_boundary_cycle_refuses_a_face_no_vertex_contains():
    P4 = path_diagram(4)
    with pytest.raises(DiagramError, match="no vertex of the associahedron contains the face"):
        boundary_cycle(P4, NestedSet(P4, (0b1001, 0b1111)))  # {0, 3} is not a tube of P4


SPLIT_DIAGRAMS = [D for n in range(1, 6) for D in connected_reps(n)] + [
    E for D in (cycle_diagram(6), complete_diagram(5), star_diagram(4))
    for E in relabelings(D, count=1, seed=17)
]


@pytest.mark.parametrize("D", SPLIT_DIAGRAMS, ids=lambda D: f"n{D.n}-adj{'.'.join(map(str, D.adj))}")
def test_two_face_split_table_matches_recomputation(D):
    """Cold and warm reads of the (B, alpha) split cache equal a cache-free
    recomputation."""
    _shape.cache_clear()
    keys = set()
    for H in faces(D, 2) if D.n >= 3 else ():
        unsat = H.unsaturated()
        expected = None if len(unsat) == 2 else (*unsat[0], split_components(D, *unsat[0]))
        for _ in range(2):
            key = _non_square_key(H)
            found = None if key is None else (*key, dict(_shape(D, *key)[1]))
            assert found == expected
            if found is not None:
                keys.add(unsat[0])
    info = _shape.cache_info()
    assert info.misses == len(keys)
    for key in keys:
        _shape(D, *key)
    assert _shape.cache_info().hits == info.hits + len(keys)
    assert _shape.cache_info().misses == len(keys)


def test_paths_have_no_hexagons_star_does():
    for n in range(3, 6):
        D = path_diagram(n)
        kinds = {classify_two_face(D, H) for H in faces(D, 2)}
        assert TwoFace.HEXAGON not in kinds
    S3 = star_diagram(3)
    kinds = [classify_two_face(S3, H) for H in faces(S3, 2)]
    assert TwoFace.HEXAGON in kinds


# -- global invariants ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_function_exhaustive(n):
    for D in labeled_connected(n):
        for dim in range(D.n):
            for H in faces(D, dim):
                total = sum(
                    bin(H.alpha_set(B)).count("1") - 1 for B in H.elements
                )
                assert total == H.dim == D.n - len(H.elements)


def test_rank_function_five_vertex_reps(five_vertex_reps):
    for D in five_vertex_reps:
        for dim in range(D.n):
            for H in faces(D, dim):
                total = sum(bin(H.alpha_set(B)).count("1") - 1 for B in H.elements)
                assert total == H.dim


def test_codim_one_in_exactly_two_maximal(five_vertex_reps):
    universe = [D for n in (2, 3, 4) for D in labeled_connected(n)]
    universe += list(five_vertex_reps)
    for D in universe:
        mns = [set(F.elements) for F in maximal_nested_sets(D)]
        for H in faces(D, 1):
            hset = set(H.elements)
            assert sum(1 for F in mns if hset <= F) == 2


def test_facet_counts_factorize(five_vertex_reps):
    from graphassoc.diagram import induced, quotient

    for D in list(labeled_connected(4)) + list(five_vertex_reps):
        mns = [set(F.elements) for F in maximal_nested_sets(D)]
        for B in connected_subdiagrams(D):
            if B == D.full:
                continue
            containing = sum(1 for F in mns if B in F)
            sub, _ = induced(D, B)
            quot, _ = quotient(D, B)
            assert containing == len(maximal_nested_sets(sub)) * len(
                maximal_nested_sets(quot)
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_euler_characteristic(n):
    for D in connected_reps(n):
        assert sum((-1) ** k * c for k, c in enumerate(f_vector(D))) == 1


def test_relabeling_preserves_f_vector(five_vertex_reps):
    for D in five_vertex_reps[:5]:
        for E in relabelings(D, count=1):
            assert f_vector(E) == f_vector(D)


def test_face_poset_json_roundtrip():
    doc = face_poset_json(P3)
    assert json.loads(json.dumps(doc)) == doc
    assert len(doc["faces"]) == 11
    top = doc["faces"][0]
    assert top["dim"] == 2 and top["elements"] == [["1", "2", "3"]]


# -- canonical nested sets -----------------------------------------------------


def enumerated_first_maximal(D, S):
    """Oracle: the first maximal nested set enumerated on ``induced(D, S)``, lifted back to D."""
    sub, old_to_new = induced(D, S)
    new_to_old = {new: old for old, new in old_to_new.items()}
    lifted = [mask_of(new_to_old[v] for v in bits(m)) for m in maximal_nested_sets(sub)[0].elements]
    return tuple(sorted(lifted, key=element_key))


CHAIN_DIAGRAMS = [D for n in range(1, 6) for D in connected_reps(n)] + [
    E
    for seed, D in enumerate([path_diagram(6), cycle_diagram(6), complete_diagram(5), star_diagram(4)])
    for E in relabelings(D, count=2, seed=seed)
]


@pytest.mark.parametrize("D", CHAIN_DIAGRAMS, ids=lambda D: f"n{D.n}-adj{'.'.join(map(str, D.adj))}")
def test_first_maximal_nested_set_is_first_enumerated(D):
    for S in connected_subdiagrams(D):
        assert first_maximal_nested_set(D, S) == enumerated_first_maximal(D, S), S


def test_canonical_sets_on_a_disconnected_context_raise_diagram_error():
    D = Diagram.from_edges("abc", [(0, 1)])
    with pytest.raises(DiagramError, match="not connected"):
        ascending_chain(D, 0b1)
    with pytest.raises(DiagramError, match="not connected"):
        irreducible_cell(D, 0b11, 0b11)
    with pytest.raises(DiagramError, match="not connected"):
        pair_from_triple(D, 0b11, 0, 1)
    with pytest.raises(DiagramError, match="connected subdiagram"):
        first_maximal_nested_set(D, 0b101)


def test_canonical_sets_enumerate_no_subdiagram():
    """Irreducible cells and canonical pairs are chains: only the diagram passed in is enumerated."""
    _nested_families.cache_clear()  # earlier tests may have enumerated P5's subdiagrams
    assert verify_chain_map(P5, ConstantCoefficients(), 1)
    for p in range(P5.n + 1):
        for B, alpha in dynkin_basis(P5, p):
            if alpha:
                irreducible_cell(P5, B, mask_of(alpha))
            if len(alpha) == 2:
                pair_from_triple(P5, B, *alpha)
    assert _nested_families.cache_info().misses <= 1


def test_face_census_rows_add_up(monkeypatch, capsys):
    """Every row of ``scripts/face_census.py 5``: one word per pentagon or hexagon,
    and the three 2-face kinds together are f2 of the printed f-vector."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "face_census.py"
    spec = importlib.util.spec_from_file_location("face_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(sys, "argv", ["face_census.py", "5"])
    census.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["diagram", "f-vector", "squares", "pentagons", "hexagons", "words"]
    assert len(rows) == 5 + 3 + 2 + 4  # paths 1-5, cycles 3-5, stars 3-4, complete 2-5
    for row in rows:
        name, fvec, squares, pentagons, hexagons, words = re.fullmatch(
            r"(\S+)\s+(\[[\d, ]+\])\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)", row).groups()
        f = json.loads(fvec)
        squares, pentagons, hexagons, words = map(int, (squares, pentagons, hexagons, words))
        assert words == pentagons + hexagons, name
        assert squares + pentagons + hexagons == (f[2] if len(f) > 2 else 0), name


@pytest.mark.parametrize("D", SPLIT_DIAGRAMS, ids=lambda D: f"n{D.n}-adj{'.'.join(map(str, D.adj))}")
def test_each_shape_pairs_the_alpha_vertices_with_their_splits_in_word_order(D):
    """A pentagon's middle, whose split is empty, comes first and the other two
    ascend; in a hexagon all three splits are nonzero and the vertices ascend."""
    for H in faces(D, 2) if D.n >= 3 else ():
        key = _non_square_key(H)
        if key is None:
            continue
        kind, splits = _shape(D, *key)
        assert type(splits) is tuple and len(splits) == 3
        assert all(type(pair) is tuple and len(pair) == 2 for pair in splits)
        assert dict(splits) == split_components(D, *key)
        (i, s_i), (j, _), (k, _) = splits
        assert {i, j, k} == set(bits(key[1])) and j < k
        assert [s for _z, s in splits].count(0) == (kind is TwoFace.PENTAGON)
        assert (s_i == 0) == (kind is TwoFace.PENTAGON)
        assert kind is TwoFace.PENTAGON or i < j
