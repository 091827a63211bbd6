import copy
import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import assume, given, strategies as st

from graphassoc.diagram import (
    CapacityError,
    Diagram,
    DiagramError,
    INFINITY,
    ParseError,
    bits,
    component_containing,
    components,
    flood_fill,
    induced,
    is_compatible,
    is_connected,
    is_orthogonal,
    lift,
    mask_of,
    parse_diagram,
    quotient,
    quotient_components,
)
from graphassoc.coherence import kappa
from graphassoc.homology import shuffle
from graphassoc.nested import NestedSet, ascending_chain, first_maximal_nested_set
from graphassoc.polytope import is_face_nonempty, make_realization
from conftest import labeled_connected, path_diagram, star_diagram

P3 = path_diagram(3)


@st.composite
def diagrams(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    selector = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pairs[k] for k in range(len(pairs)) if (selector >> k) & 1]
    D = Diagram.from_edges([str(i + 1) for i in range(n)], edges)
    assume(is_connected(D, D.full))
    return D


def submask(draw, D):
    return draw(st.integers(0, D.full))


# -- parsing ---------------------------------------------------------------


def test_parse_two_vertex_labeled():
    D = parse_diagram("vertices: 1 2\nedges: 1-2:3")
    assert D.names == ("1", "2")
    assert D.label(0, 1) == 3


def test_parse_unlabeled_edges_default_to_infinity():
    D = parse_diagram("vertices: 1 2 3\nedges: 1-2 2-3")
    assert D.label(0, 1) == INFINITY
    assert D.label(1, 2) == INFINITY
    assert D.label(0, 2) == 2


def test_parse_single_vertex():
    D = parse_diagram("vertices: a\nedges:")
    assert D.names == ("a",)
    assert D.adj == (0,)


def test_parse_comments_and_inf():
    D = parse_diagram("# a diagram\nvertices: x y # trailing\nedges: x-y:inf\n")
    assert D.label(0, 1) == INFINITY


PARSE_ERRORS = {
    "vertices: 1 1\nedges:": "duplicate vertex identifier",
    "vertices: 1 2\nedges: 1-3": "edge references unknown vertex '3'",
    "vertices: 1 2\nedges: 1-2:2": "edge label 2 must be >= 3 or infinity",
    "vertices: 1 2\nedges: 1-1": "loop at vertex 1",
    "edges: 1-2": "first line must be 'vertices: ...'",
    "vertices: 1 2\nedges: 1-2:x": "bad label in '1-2:x'",
    "vertices: # none": "no vertices declared",
    "vertices: 1 2\nnodes: 1-2": "second line must be 'edges: ...'",
    "vertices: 1 2\nedges: 1-2\nedges: 2-1": "trailing content after the edges line",
    "vertices: 1 2\nedges: 12": "malformed edge '12'",
    "vertices: 1 2\nedges: 1-": "malformed edge '1-'",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert str(err.value) == PARSE_ERRORS[text]


def test_capacity_error():
    with pytest.raises(CapacityError):
        Diagram.from_edges([str(i) for i in range(65)])


def test_from_edges_loop_errors():
    """An in-range loop is reported by ``Diagram`` itself; an out-of-range one as out of range."""
    with pytest.raises(DiagramError, match="^loop at vertex a$"):
        Diagram.from_edges(["a", "b"], [(0, 0)])
    for loop in [(5, 5), (-1, -1)]:
        with pytest.raises(DiagramError, match="^edge endpoint out of range$"):
            Diagram.from_edges(["a", "b"], [loop])


# -- components / orthogonality / compatibility ----------------------------


def test_components_examples():
    assert components(P3, 0b101) == [0b001, 0b100]
    assert components(P3, 0b111) == [0b111]
    assert components(P3, 0) == []


def test_components_rejects_bad_subset():
    with pytest.raises(DiagramError):
        components(P3, 0b1000)


def test_orthogonality_examples():
    assert is_orthogonal(P3, 0b001, 0b100)
    assert not is_orthogonal(P3, 0b001, 0b110)
    assert not is_orthogonal(P3, 0b001, 0b001)


def test_compatibility_examples():
    assert is_compatible(P3, 0b001, 0b011)
    assert not is_compatible(P3, 0b011, 0b110)
    assert is_compatible(P3, 0b001, 0b100)


@given(diagrams(), st.data())
def test_compatibility_properties(D, data):
    S1 = data.draw(st.integers(0, D.full))
    S2 = data.draw(st.integers(0, D.full))
    assert is_compatible(D, S1, S2) == is_compatible(D, S2, S1)
    if S1 & ~S2 == 0 or S2 & ~S1 == 0:
        assert is_compatible(D, S1, S2)
    if is_orthogonal(D, S1, S2):
        assert is_compatible(D, S1, S2)


@given(diagrams(), st.data())
def test_components_partition(D, data):
    S = data.draw(st.integers(0, D.full))
    comps = components(D, S)
    union = 0
    for c in comps:
        assert is_connected(D, c)
        assert union & c == 0
        union |= c
        # maximality: adding any adjacent vertex of S leaves the component
        assert D.neighbors(c) & S & ~c == S & D.neighbors(c) & ~c
        for other in comps:
            if other != c:
                assert is_orthogonal(D, c, other)
    assert union == S


# -- component_containing ---------------------------------------------------


def test_component_containing_examples():
    assert component_containing(P3, 0b010, 0b001) == 0b001
    assert component_containing(P3, 0b010, 0b101) == 0
    assert component_containing(P3, 0, 0b001) == P3.full


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_component_containing_is_the_component_holding_anchor(n):
    """Each vertex is in the anchor, removed, elsewhere in ``within``, or outside it."""
    for D in labeled_connected(n):
        for roles in itertools.product(range(4), repeat=n):
            anchor, removed, rest = (mask_of(v for v in range(n) if roles[v] == r) for r in range(3))
            within = anchor | removed | rest
            holding = [c for c in components(D, anchor | rest) if anchor and anchor & ~c == 0]
            expected = holding[0] if holding else 0
            assert component_containing(D, removed, anchor, within=within) == expected


def test_component_containing_rejects_overlap():
    with pytest.raises(DiagramError):
        component_containing(P3, 0b011, 0b001)


@pytest.mark.parametrize("call", [lambda D: flood_fill(D, 1, -1), lambda D: flood_fill(D, -1, 1),
                                  lambda D: component_containing(D, -2, 1)],
                         ids=["flood_fill-S", "flood_fill-seed", "component_containing-removed"])
def test_mask_entries_refuse_a_negative_mask(call):
    with pytest.raises(DiagramError, match="is negative"):
        call(path_diagram(4))


@pytest.mark.parametrize("seed", [0b100000, 0b10000, 0b10001])
def test_flood_fill_refuses_a_seed_outside_the_vertex_set(seed):
    with pytest.raises(DiagramError, match="is not a subset of the vertex set"):
        flood_fill(path_diagram(4), seed, 0b1111)


# -- quotient and lift -------------------------------------------------------


def test_quotient_p3_middle():
    Q, vmap = quotient(P3, 0b010)
    assert Q.names == ("1", "3")
    assert Q.adj == (2, 1)
    assert Q.label(0, 1) == INFINITY
    assert vmap == {0: 0, 2: 1}


def test_quotient_star_center_gives_triangle():
    S3 = star_diagram(3)
    Q, _ = quotient(S3, 0b0001)
    assert Q.names == ("1", "2", "3")
    assert all(Q.adj[i] == (Q.full & ~(1 << i)) for i in range(3))


def test_quotient_p3_end_keeps_edge_label():
    D = Diagram.from_edges("123", [(0, 1, 3), (1, 2, 4)])
    Q, _ = quotient(D, 0b001)
    assert Q.names == ("2", "3")
    assert Q.label(0, 1) == 4


def test_quotient_rejects_empty_and_full():
    with pytest.raises(DiagramError):
        quotient(P3, 0)
    with pytest.raises(DiagramError):
        quotient(P3, P3.full)


def test_lift_examples():
    assert lift(P3, 0b010, 0b001) == 0b011
    assert lift(P3, 0b010, 0b101) == P3.full
    # lifting all of D/B returns D
    assert lift(P3, 0b001, 0b110) == P3.full


def _connected_masks(D):
    return [m for m in range(1, D.full + 1) if is_connected(D, m)]


def _quotient_connected(D, B, m):
    return len(quotient_components(D, B, m)) == 1


def _quotient_orthogonal(D, B, A1, A2):
    if A1 & A2:
        return False
    comps = quotient_components(D, B, A1 | A2)
    return all(not (c & A1 and c & A2) for c in comps)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_components_match_built_quotient(n):
    """Components of S in D/B, read off S | B in D, equal those of the built quotient."""
    for D in labeled_connected(n):
        for B in range(1, D.full):
            Q, old_to_new = quotient(D, B)
            new_to_old = {new: old for old, new in old_to_new.items()}
            rest = D.full & ~B
            S = rest
            while True:  # every subset of the survivors, the empty one included
                image = mask_of(old_to_new[v] for v in bits(S))
                expected = [mask_of(new_to_old[v] for v in bits(c)) for c in components(Q, image)]
                assert quotient_components(D, B, S) == expected
                if S == 0:
                    break
                S = (S - 1) & rest


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_lift_roundtrip_exhaustive(n):
    for D in labeled_connected(n):
        for B in range(1, D.full):
            b_comps = components(D, B)
            for A in range(1, D.full + 1):
                if A & B or not _quotient_connected(D, B, A):
                    continue
                lifted = lift(D, B, A)
                assert is_connected(D, lifted)
                assert lifted & ~B == A  # quotient image of the lift
            # round trip from the D side
            for C in _connected_masks(D):
                if C & ~B == 0:
                    continue
                image = C & ~B
                back = lift(D, B, image)
                expected = C
                for comp in b_comps:
                    if not is_orthogonal(D, comp, C):
                        expected |= comp
                assert back == expected
                if all(is_compatible(D, C, comp) for comp in b_comps):
                    assert back == C


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lift_preserves_containment_and_orthogonality(n):
    for D in labeled_connected(n)[:: (3 if n == 5 else 1)]:
        for B in range(1, D.full):
            conn_q = [
                m
                for m in range(1, D.full + 1)
                if m & B == 0 and _quotient_connected(D, B, m)
            ]
            lifts = {A: lift(D, B, A) for A in conn_q}
            for A1, L1 in lifts.items():
                for A2, L2 in lifts.items():
                    if A1 & ~A2 == 0:
                        assert L1 & ~L2 == 0
                    if _quotient_orthogonal(D, B, A1, A2):
                        assert is_orthogonal(D, L1, L2)


def test_label_rules():
    D = Diagram.from_edges("abc", [(0, 1, 5), (1, 2)])
    assert D.label(0, 1) == 5
    assert D.label(1, 2) == INFINITY
    assert D.label(0, 2) == 2
    with pytest.raises(DiagramError):
        D.label(1, 1)
    for i, j in [(0, 3), (-1, 1), (3, 0), (0, -1)]:  # no index wraps round or reads past the end
        with pytest.raises(DiagramError, match=r"^vertex index out of range 0\.\.2$"):
            D.label(i, j)


def test_vertex_name_roundtrip():
    D = parse_diagram("vertices: a b c\nedges: a-b b-c")
    assert D.vertex_names(0b101) == ["a", "c"]
    assert mask_of([D.index("a"), D.index("c")]) == 0b101
    assert list(bits(0b1011)) == [0, 1, 3]


def test_diagrams_are_immutable_values():
    text = "vertices: a b c\nedges: a-b:4 b-c"
    D, again = parse_diagram(text), parse_diagram(text)
    assert D is not again and D == again and hash(D) == hash(again)
    assert D != parse_diagram("vertices: a b c\nedges: a-b:5 b-c")
    assert D != parse_diagram("vertices: a b c\nedges: a-b:4")
    assert {D: 1}[again] == 1
    for clone in (pickle.loads(pickle.dumps(D)), copy.copy(D), copy.deepcopy(D)):
        assert clone == D and hash(clone) == hash(D)
        assert clone.label(0, 1) == 4
        assert (clone.n, clone.full) == (3, 0b111)
    with pytest.raises(AttributeError):
        D.names = ("x", "y", "z")
    with pytest.raises(AttributeError):
        del D.adj
    # n and full are held in slots, not fields: they stay out of repr, hash and pickle
    for name in ("n", "full"):
        with pytest.raises(AttributeError):
            setattr(D, name, 4)
        with pytest.raises(AttributeError):
            delattr(D, name)
    assert (D.n, D.full) == (3, 0b111)
    assert repr(D) == (
        "Diagram(names=('a', 'b', 'c'), adj=(2, 5, 2), edge_labels=(((0, 1), 4), ((1, 2), inf)))"
    )
    assert hash(D) == hash((D.names, D.adj, D.edge_labels))
    assert D.__reduce__() == (Diagram, (D.names, D.adj, D.edge_labels))


@pytest.mark.parametrize("method", ["vertex_names", "neighbors"])
@pytest.mark.parametrize("mask", [0b1000, -1])
def test_mask_readers_refuse_masks_outside_the_vertex_set(method, mask):
    with pytest.raises(DiagramError, match="is not a subset of the vertex set"):
        getattr(P3, method)(mask)
    assert P3.vertex_names(0b101) == ["1", "3"] and P3.neighbors(0b001) == 0b010


MASK_ENTRIES = {
    "vertex_names": lambda D, m: D.vertex_names(m),
    "neighbors": lambda D, m: D.neighbors(m),
    "components": components,
    "is_connected": is_connected,
    "induced": induced,
    "quotient": quotient,
    "kappa": lambda D, m: kappa(D, [m]),
    "is_face_nonempty": lambda D, m: is_face_nonempty(make_realization(D), [m]),
    "first_maximal_nested_set": first_maximal_nested_set,
    "ascending_chain": ascending_chain,
    "NestedSet.make": lambda D, m: NestedSet.make(D, [D.full, m]),
    # beside the mask 1, a set would keep 1 and drop a True equal to it
    "NestedSet.make-beside-1": lambda D, m: NestedSet.make(D, [1, m, D.full]),
    "shuffle-beta": lambda D, m: shuffle(m, 1),
    "shuffle-alpha": lambda D, m: shuffle(1, m),
    "Realization.weight": lambda D, m: make_realization(D).weight(m),
}


@pytest.mark.parametrize("entry", list(MASK_ENTRIES))
@pytest.mark.parametrize("mask", [1.5, True], ids=["float", "bool"])
def test_mask_entries_refuse_a_mask_that_is_not_an_int(entry, mask):
    """Each entry refuses the mask (``diagram.check_mask``) before reading it; a bool is not read as 1."""
    with pytest.raises(DiagramError) as err:
        MASK_ENTRIES[entry](path_diagram(4), mask)
    assert str(err.value) == f"mask {mask!r} is not an int"


MALFORMED_EDGES = {
    "label-str": ([(0, 1, "x")], "edge label x must be >= 3 or infinity"),
    "label-nan": ([(0, 1, float("nan"))], "edge label nan must be >= 3 or infinity"),
    "label-float": ([(0, 1, 3.0)], "edge label 3.0 must be >= 3 or infinity"),
    "label-bool": ([(0, 1, True)], "edge label True must be >= 3 or infinity"),
    "label-two": ([(0, 1, 2)], "edge label 2 must be >= 3 or infinity"),
    "endpoint-float": ([(0, 0.5)], "edge endpoint out of range"),
    "endpoint-bool": ([(0, True)], "edge endpoint out of range"),
    "endpoint-bool-first": ([(True, 0, 3)], "edge endpoint out of range"),
    "one-tuple": ([(0,)], "edge (0,) is not (i, j) or (i, j, label)"),
    "four-tuple": ([(0, 1, 3, 4)], "edge (0, 1, 3, 4) is not (i, j) or (i, j, label)"),
    "int": ([5], "edge 5 is not (i, j) or (i, j, label)"),
    "str": (["01"], "edge '01' is not (i, j) or (i, j, label)"),
}


@pytest.mark.parametrize("case", list(MALFORMED_EDGES))
def test_from_edges_refuses_a_malformed_edge(case):
    edges, message = MALFORMED_EDGES[case]
    with pytest.raises(DiagramError) as err:
        Diagram.from_edges(["a", "b"], edges)
    assert str(err.value) == message
    assert Diagram.from_edges(["a", "b"], [[0, 1, 3]]).edge_labels == (((0, 1), 3),)


@pytest.mark.parametrize("edge_labels, message", [
    ((((0, True), 3),), "edge endpoint out of range"),
    ((((0, 1.0), 3),), "edge endpoint out of range"),
    ((((0, 2), 3),), "edge endpoint out of range"),
    ((((0, 1), 3.0),), "edge label 3.0 must be >= 3 or infinity"),
    ((((0, 1), "x"),), "edge label x must be >= 3 or infinity"),
    ((((0, 1), True),), "edge label True must be >= 3 or infinity"),
    # ``label(0, 1)`` read inf past a reversed key, and the last of two labels
    ((((1, 0), 3),), "edge label key (1, 0) is not ordered i < j"),
    ((((0, 1), 3), ((0, 1), 4)), "edge (0, 1) is labelled twice"),
    ((((0, 1), 3), ((0, 1), 3)), "edge (0, 1) is labelled twice"),
], ids=["endpoint-bool", "endpoint-float", "endpoint-range", "label-float", "label-str", "label-bool",
        "key-reversed", "pair-twice", "pair-twice-same-label"])
def test_diagram_refuses_a_malformed_edge_label_entry(edge_labels, message):
    with pytest.raises(DiagramError) as err:
        Diagram(("a", "b"), (0b10, 0b01), edge_labels)
    assert str(err.value) == message
    assert Diagram(("a", "b"), (0b10, 0b01), (((0, 1), INFINITY),)).label(0, 1) == INFINITY


def test_bits_refuses_a_negative_mask_before_yielding():
    """A negative mask has infinitely many set bits: the loop runs in a
    subprocess, so a hang fails the test instead of stalling the suite."""
    code = (
        "from graphassoc.diagram import DiagramError, bits\n"
        "seen = 0\n"
        "try:\n"
        "    for _ in bits(-1):\n"
        "        seen += 1\n"
        "except DiagramError as err:\n"
        "    print(seen, err)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 mask -0x1 is negative\n"
    assert list(bits(0)) == [] and list(bits(0b1010)) == [1, 3]
