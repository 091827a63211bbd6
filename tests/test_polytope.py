import itertools
import json
from fractions import Fraction

import pytest

from graphassoc.diagram import Diagram, DiagramError, InvariantError, is_compatible
from graphassoc.nested import NestedSet, connected_subdiagrams, maximal_nested_sets
from graphassoc.polytope import (
    Realization,
    RealizationError,
    export_polytope,
    is_face_nonempty,
    make_realization,
    off_text,
    parse_export,
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


# -- vertex coordinates ---------------------------------------------------------


def test_vertex_coordinate_examples():
    assert vertex_coordinates(make_realization(P2), ns(P2, [0])) == (3, 6)
    R3 = make_realization(P3)
    assert vertex_coordinates(R3, ns(P3, [0, 1], [0])) == (3, 6, 18)
    assert vertex_coordinates(R3, ns(P3, [0], [2])) == (3, 21, 3)


def test_vertex_coordinates_need_maximal():
    with pytest.raises(DiagramError):
        vertex_coordinates(make_realization(P3), ns(P3, [0, 1]))


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


def test_feasibility_certificate_rejects_broken_weights():
    table = {m: Fraction(3) ** bin(m).count("1") for m in connected_subdiagrams(P3)}
    table[P3.full] = Fraction(5)  # c(D) < c({1,2}) + c({2,3}) - c({2})
    R = Realization(P3, tuple(sorted(table.items())))
    with pytest.raises(InvariantError):
        is_face_nonempty(R, [0b011, 0b110])
    with pytest.raises(InvariantError):
        is_face_nonempty(R, [0b001])


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
    doc = parse_export(text)
    for v, F in zip(doc["vertices"], maximal_nested_sets(P3)):
        assert tuple(v["coords"]) == vertex_coordinates(R, F)


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


def test_off_point_and_segment():
    assert off_text(make_realization(Diagram.from_edges("x"))) is not None
    assert off_text(make_realization(P2)) is not None
