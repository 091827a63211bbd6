import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from graphassoc import diagram, nested, polytope
from graphassoc.diagram import Diagram, DiagramError, InvariantError, is_compatible
from graphassoc.nested import NestedSet, connected_subdiagrams, edge_graph, maximal_nested_sets
from graphassoc.polytope import (
    Realization,
    RealizationError,
    _check_vertex_witness,
    _scaled_vertex,
    export_polytope,
    is_face_nonempty,
    make_realization,
    off_text,
    vertex_coordinates,
)
from conftest import (
    complete_diagram,
    connected_reps,
    cycle_diagram,
    labeled_connected,
    path_diagram,
    relabelings,
)

P2 = path_diagram(2)
P3 = path_diagram(3)


def ns(D, *lists):
    return NestedSet.from_vertex_lists(D, lists)


def tsum(t, mask, n):
    return sum(t[i] for i in range(n) if (mask >> i) & 1)


# -- weights -----------------------------------------------------------------


def test_default_weights_p2():
    R = make_realization(P2)
    assert R.weight(0b01) == 3 and R.weight(0b10) == 3 and R.weight(0b11) == 9


def test_override_must_be_superadditive():
    table = {m: Fraction(3) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    table[P3.full] = Fraction(5)
    with pytest.raises(RealizationError):
        make_realization(P3, table)


def test_valid_override_accepted():
    table = {m: Fraction(4) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    R = make_realization(P3, table)
    assert R.weight(P3.full) == 64


def test_single_vertex():
    D = Diagram.from_edges("x")
    R = make_realization(D)
    assert R.weight(1) == 3
    (F,) = maximal_nested_sets(D)
    assert vertex_coordinates(R, F) == (3,)


def test_weights_must_be_positive():
    D = Diagram.from_edges("x")
    with pytest.raises(RealizationError):
        make_realization(D, {1: Fraction(0)})


def test_missing_weight_is_a_realization_error():
    with pytest.raises(RealizationError, match=r"no weight for \['2'\]"):
        make_realization(P3, {1: 3})
    table = {m: Fraction(3) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    del table[0b011]
    with pytest.raises(RealizationError, match=r"no weight for \['1', '2'\]"):
        Realization(P3, tuple(sorted(table.items())))
    R = make_realization(P3)  # a disconnected mask has no weight of its own
    with pytest.raises(RealizationError, match=r"no weight for \['1', '3'\]"):
        R.weight(0b101)
    for mask, named in ((0b1000, "mask 0x8"), (-1, "mask -0x1"), (0b1011, "mask 0xb")):
        with pytest.raises(RealizationError) as err:  # named by value, outside the vertex set
            R.weight(mask)
        assert str(err.value) == f"no weight for {named}"


def test_only_connected_subdiagrams_take_weights():
    table = {m: Fraction(3) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    for mask, named in ((0b101, "['1', '3']"), (0b1000, "mask 0x8"), (-1, "mask -0x1")):
        with pytest.raises(RealizationError) as err:
            make_realization(P3, {**table, mask: Fraction(1)})
        assert str(err.value) == f"weight for {named}, not a connected subdiagram"


@pytest.mark.parametrize("weight", ["x", float("nan"), None, float("inf"), True, 1.5, 3.0, "3"],
                         ids=["str", "nan", "none", "inf", "bool", "float", "whole-float", "digits"])
def test_a_weight_that_is_not_an_int_or_a_fraction_is_a_realization_error(weight):
    table = {m: Fraction(3) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    table[0b010] = weight
    with pytest.raises(RealizationError) as err:
        make_realization(P3, table)
    assert str(err.value) == "weight of ['2'] is not an int or a Fraction"
    table[0b010] = 3  # an int is admitted
    assert make_realization(P3, table).weight(0b010) == 3


def postnikov(D, y):
    """Postnikov's Minkowski sum of simplices: c(S) = sum of y(B) over the tubes B inside S."""
    tubes = connected_subdiagrams(D)
    return {S: sum(y[B] for B in tubes if B & ~S == 0) for S in tubes}


def crosses_every_wall(D, table):
    """Every vertex of the recursion lies strictly inside the half-space of each neighbour's new tube.

    For a 1-skeleton edge F - G with C the tube of G not in F, the vertex of F
    must have sum of t over C greater than c(C): the wall-crossing test.
    """
    R = Realization(D, tuple(sorted((m, Fraction(c)) for m, c in table.items())))
    verts, edges = edge_graph(D)
    t = [vertex_coordinates(R, F) for F in verts]
    for i, j in edges:
        for a, b in ((i, j), (j, i)):
            (C,) = set(verts[b].elements) - set(verts[a].elements)
            if tsum(t[a], C, D.n) <= table[C]:
                return False
    return True


def test_postnikov_weights_give_the_b_tree_vertices():
    """With y = 1 every tube is a simplex summand: t_i counts the tubes B with
    i in B inside F_i, the element of F whose alpha set is {i}."""
    for n in range(1, 6):
        for D in connected_reps(n):
            tubes = connected_subdiagrams(D)
            R = make_realization(D, postnikov(D, dict.fromkeys(tubes, 1)))
            for F in maximal_nested_sets(D):
                top = {F.alpha_set(B).bit_length() - 1: B for B in F.elements}
                expected = tuple(sum(1 for B in tubes if B >> i & 1 and B & ~top[i] == 0)
                                 for i in range(D.n))
                assert vertex_coordinates(R, F) == expected
    R = make_realization(P3, postnikov(P3, dict.fromkeys(connected_subdiagrams(P3), 1)))
    loday = sorted(vertex_coordinates(R, F) for F in maximal_nested_sets(P3))
    assert loday == [(1, 2, 3), (1, 4, 1), (2, 1, 3), (3, 1, 2), (3, 2, 1)]


def test_seeded_postnikov_tables_are_accepted_exactly_when_every_wall_is_crossed():
    """Small nonnegative y on the larger tubes and a positive y on each vertex:
    ``make_realization`` accepts a table exactly when the wall-crossing test
    passes, and an accepted table's vertices are tight exactly on their tubes."""
    rng = random.Random(30)
    verdicts = []
    for n in range(1, 6):
        for D in connected_reps(n):
            tubes = connected_subdiagrams(D)
            for _ in range(10):
                y = {B: rng.randint(1, 3) if B & (B - 1) == 0 else rng.choice((0, 1, 1, 2))
                     for B in tubes}
                table = postnikov(D, y)
                try:
                    R = make_realization(D, table)
                except RealizationError as err:
                    assert str(err).startswith("no positive gap on ")
                    R = None
                verdicts.append(R is not None)
                assert verdicts[-1] == crosses_every_wall(D, table)
                for F in maximal_nested_sets(D) if R else ():
                    t = vertex_coordinates(R, F)
                    for B in tubes:
                        s = tsum(t, B, D.n)
                        assert s == table[B] if B in F.elements else s > table[B]
    assert verdicts.count(True) > 30 and verdicts.count(False) > 30


def mixed_denominators(D):
    """Superadditive weights 3^|B| + 1/d with d cycling through 2, 3 and 7."""
    return {m: 3 ** bin(m).count("1") + Fraction(1, (2, 3, 7)[m % 3])
            for m in connected_subdiagrams(D)}


# -- vertex coordinates ---------------------------------------------------------


def test_vertex_coordinate_examples():
    assert vertex_coordinates(make_realization(P2), ns(P2, [0])) == (3, 6)
    R3 = make_realization(P3)
    assert vertex_coordinates(R3, ns(P3, [0, 1], [0])) == (3, 6, 18)
    assert vertex_coordinates(R3, ns(P3, [0], [2])) == (3, 21, 3)


def test_vertex_coordinates_need_maximal():
    with pytest.raises(DiagramError):
        vertex_coordinates(make_realization(P3), ns(P3, [0, 1]))


def test_vertex_coordinates_refuse_a_nested_set_of_another_diagram():
    F = maximal_nested_sets(path_diagram(4))[0]
    with pytest.raises(DiagramError, match="not a maximal nested set of D"):
        vertex_coordinates(make_realization(P3), F)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertices_feasible_and_tight_exactly_on_face(n):
    for D in connected_reps(n):
        R = make_realization(D)
        for F in maximal_nested_sets(D):
            t = vertex_coordinates(R, F)
            for B in connected_subdiagrams(D):
                s = tsum(t, B, D.n)
                if B in F.elements:
                    assert s == R.weight(B)
                else:
                    assert s > R.weight(B)


# -- LP feasibility ----------------------------------------------------------------


def test_feasibility_examples():
    R = make_realization(P3)
    assert is_face_nonempty(R, [0b011, 0b001], cross_check=True)
    assert not is_face_nonempty(R, [0b011, 0b110], cross_check=True)
    assert is_face_nonempty(R, [], cross_check=True)


def test_feasibility_rejects_bad_subdiagrams():
    R = make_realization(P3)
    with pytest.raises(DiagramError):
        is_face_nonempty(R, [P3.full])
    with pytest.raises(DiagramError):
        is_face_nonempty(R, [0b101])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_feasibility_iff_compatibility(n):
    diagrams = list(connected_reps(n))
    if n < 4:
        diagrams = list(labeled_connected(n))
    else:
        diagrams += relabelings(diagrams[-1], count=1)
    for D in diagrams:
        R = make_realization(D)
        proper = [m for m in connected_subdiagrams(D) if m != D.full]
        for r in range(1, 4):
            for Bs in itertools.combinations(proper, r):
                compat = all(
                    is_compatible(D, a, b)
                    for i, a in enumerate(Bs)
                    for b in Bs[i + 1:]
                )
                assert is_face_nonempty(R, Bs) == compat


@pytest.mark.parametrize("D", [complete_diagram(6), cycle_diagram(7)], ids=["K6", "C7"])
def test_feasibility_one_hyperplane_on_six_and_seven_vertices(D):
    R = make_realization(D)
    for B in connected_subdiagrams(D):
        if bin(B).count("1") == 2:
            assert is_face_nonempty(R, [B])
    if D.n == 6:
        assert not is_face_nonempty(R, [0b011, 0b110])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scaled_integer_weights_with_mixed_denominators(n):
    """Weights with denominators 2, 3 and 7: verdicts follow compatibility, and
    every vertex is tight exactly on its nested set, summed in Fractions."""
    for D in connected_reps(n):
        R = make_realization(D, mixed_denominators(D))
        assert R._scale == (3 if n == 1 else 42)
        proper = [m for m in connected_subdiagrams(D) if m != D.full]
        for r in range(1, 4):
            for Bs in itertools.combinations(proper, r):
                compat = all(is_compatible(D, a, b) for a, b in itertools.combinations(Bs, 2))
                assert is_face_nonempty(R, Bs) == compat
        for F in maximal_nested_sets(D):
            t = vertex_coordinates(R, F)
            assert all(type(x) is Fraction for x in t)
            for B in connected_subdiagrams(D):
                s = tsum(t, B, D.n)
                assert s == R.weight(B) if B in F.elements else s > R.weight(B)


def test_feasibility_makes_no_pairwise_compatibility_calls(monkeypatch):
    D = complete_diagram(5)
    R = make_realization(D)
    proper = [m for m in connected_subdiagrams(D) if m != D.full]
    calls = []
    for module in (diagram, nested, polytope):
        if hasattr(module, "is_compatible"):
            monkeypatch.setattr(module, "is_compatible", lambda *args: calls.append(args))
    verdicts = [is_face_nonempty(R, Bs) for Bs in itertools.combinations(proper[::3], 2)]
    assert True in verdicts and False in verdicts
    assert calls == []


def test_feasibility_certificate_rejects_broken_weights():
    table = {m: Fraction(3) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    table[P3.full] = Fraction(5)  # c(D) < c({1,2}) + c({2,3}) - c({2})
    R = Realization(P3, tuple(sorted(table.items())))
    with pytest.raises(InvariantError):
        is_face_nonempty(R, [0b011, 0b110])
    with pytest.raises(InvariantError):
        is_face_nonempty(R, [0b001])


def test_feasibility_certificate_rejects_broken_fractional_weights():
    table = {m: Fraction(7, 2) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    table[P3.full] = Fraction(5, 3)  # Farkas gap 5/3 + 7/2 - 49/4 - 49/4 < 0
    R = Realization(P3, tuple(sorted(table.items())))
    assert R._scale == 12
    with pytest.raises(InvariantError, match="Farkas"):
        is_face_nonempty(R, [0b011, 0b110])
    with pytest.raises(InvariantError, match="vertex witness"):
        is_face_nonempty(R, [0b001])


@pytest.mark.parametrize("D", [path_diagram(4), cycle_diagram(4), complete_diagram(4)],
                         ids=["P4", "C4", "K4"])
def test_vertex_certificate_checks_every_tube(D):
    """Raising c(X) above c(D) breaks only X's constraint at any witness on a
    vertex next to X, which the witness cannot contain: the check must see it."""
    default = make_realization(D)
    for X in connected_subdiagrams(D):
        if X == D.full:
            continue
        table = dict(default.weights)
        table[X] = table[D.full] + 1
        R = Realization(D, tuple(sorted(table.items())))
        Y = D.neighbors(X) & -D.neighbors(X)
        with pytest.raises(InvariantError, match="vertex witness"):
            is_face_nonempty(R, [Y])


def test_vertex_certificate_requires_equality_on_the_face():
    D = path_diagram(4)
    R = make_realization(D, mixed_denominators(D))
    for F in maximal_nested_sets(D):
        t = _scaled_vertex(R, F.elements)
        _check_vertex_witness(R, [], t)
        for B in connected_subdiagrams(D):
            if B == D.full:
                continue
            if B in F.elements:
                _check_vertex_witness(R, [B], t)
            else:
                with pytest.raises(InvariantError):
                    _check_vertex_witness(R, [B], t)
        for k in range(D.n):  # off the hyperplane of D, inside every other half-space
            raised = list(t)
            raised[k] += 1
            with pytest.raises(InvariantError):
                _check_vertex_witness(R, [], raised)
        # one scaled unit moved off a singleton of F: on D, one unit short on {k}
        k = next(B for B in F.elements if B & (B - 1) == 0).bit_length() - 1
        moved = list(t)
        moved[k] -= 1
        moved[(k + 1) % D.n] += 1
        with pytest.raises(InvariantError):
            _check_vertex_witness(R, [], moved)


def test_witness_needs_one_alpha_vertex_per_element():
    R = make_realization(P3)
    for elements in ([P3.full], [0b001, 0b011, 0b011, P3.full], [0b010, P3.full]):
        with pytest.raises(InvariantError, match="alpha"):
            _scaled_vertex(R, elements)


def test_feasibility_error_messages_are_pinned():
    R = make_realization(P3)
    messages = {
        0: "face hyperplanes need proper connected subdiagrams",
        P3.full: "face hyperplanes need proper connected subdiagrams",
        0b101: "face hyperplanes need proper connected subdiagrams",
        1 << P3.n: "mask 0x8 is not a subset of the vertex set",
    }
    for mask, message in messages.items():
        with pytest.raises(DiagramError) as info:
            is_face_nonempty(R, [0b001, mask])
        assert type(info.value) is DiagramError and str(info.value) == message


# -- exports ------------------------------------------------------------------------


def test_export_p2_vertices():
    doc = export_polytope(make_realization(P2))
    assert [v["coords"] for v in doc["vertices"]] == [["3", "6"], ["6", "3"]]


def test_export_vertex_count_matches_mns():
    for D in labeled_connected(4)[::6]:
        doc = export_polytope(make_realization(D))
        assert len(doc["vertices"]) == len(maximal_nested_sets(D))


def test_export_roundtrip_exact():
    R = make_realization(P3, {
        m: Fraction(7, 2) ** bin(m).count("1") for m in connected_subdiagrams(P3)
    })
    text = json.dumps(export_polytope(R))
    doc = json.loads(text)
    for v, F in zip(doc["vertices"], maximal_nested_sets(P3)):
        assert tuple(map(Fraction, v["coords"])) == vertex_coordinates(R, F)


def test_off_pentagon():
    text = off_text(make_realization(P3))
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "5 1 0"
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("5 ")


def test_off_three_dimensional_and_refused_above():
    P4 = path_diagram(4)
    lines = off_text(make_realization(P4)).splitlines()
    n_verts, n_faces, _ = map(int, lines[1].split())
    assert n_verts == 14 and n_faces == 9  # 3D associahedron: 14 vertices, 9 facets
    assert off_text(make_realization(path_diagram(5))) is None


# sha256 of json.dumps(export_polytope(R)) and of off_text(R) (None above three dimensions)
EXPORT_DIGESTS = [
    ("P4", path_diagram(4), None,
     "a252b1f709912e3ca61cf84a197fce3bf9ea52cb73b8ac51d1b2317a87baede9",
     "3b836bc9230e55f3235ff7e9158ba401ab728f7c36ca9e9756a3e7454a5d9152"),
    ("C4", cycle_diagram(4), None,
     "a39a8a2975cc5aff5f2a0d2c1b604aebd4fb500a54675037764fe9c1bf7ee1dd",
     "88a5352c719d7a4598485f90491f9422741ba16045e8a9bf969538f668feb796"),
    ("K4", complete_diagram(4), None,
     "30a4ec6eaab64171a304d143388bb4c0624aa356f1c76ffa2fb472441b83c94e",
     "39d40eb7e555f6d683d2cce9d7a5ca35713b0ff62def5d0ccd908ead8334603f"),
    ("K5", complete_diagram(5), None,
     "f1ff8946be406c7aaebede94c400490b21352289e03e6180e38a280b28310806", None),
    ("P6", path_diagram(6), None,
     "4a1ed0fd42a77061034f1425297b0e9eddac977862d6266d386f17952f188517", None),
    ("P3-7/2", P3, {m: Fraction(7, 2) ** bin(m).count("1") for m in connected_subdiagrams(P3)},
     "6432657447e3aee26069d112a98e8191aae1bbd059dc754d31fbb1cb1564da02",
     "46c2687ae5918795cdd13ce41b899ab540cd661b072dcfe441972476f4895624"),
]


@pytest.mark.parametrize("name, D, overrides, export_digest, off_digest", EXPORT_DIGESTS,
                         ids=[row[0] for row in EXPORT_DIGESTS])
def test_export_bytes_are_pinned(name, D, overrides, export_digest, off_digest):
    R = make_realization(D, overrides)
    assert hashlib.sha256(json.dumps(export_polytope(R)).encode()).hexdigest() == export_digest
    off = off_text(R)
    assert (off and hashlib.sha256(off.encode()).hexdigest()) == off_digest


def test_off_point_and_segment():
    assert off_text(make_realization(Diagram.from_edges("x"))) is not None
    assert off_text(make_realization(P2)) is not None
