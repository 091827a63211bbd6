import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from graphassoc._ratlinalg import Span, _solve_cached, rank
from graphassoc.diagram import DiagramError, bits, parse_diagram
from graphassoc.dynkin import (
    CoefficientError,
    ConstantCoefficients,
    MatrixCoefficients,
    _differential_columns,
    _pairs,
    cellular_embedding_g,
    cochain_space,
    dynkin_basis,
    dynkin_cohomology,
    dynkin_complex,
    dynkin_differential,
    dynkin_json,
    random_coefficient_system,
    verify_chain_map,
)
from graphassoc.homology import boundary_matrix, chain_basis
from graphassoc.nested import NestedSet, face_poset_json, faces
from conftest import (
    complete_diagram,
    connected_reps,
    cycle_diagram,
    path_diagram,
    rref,
    star_diagram,
)

P1 = path_diagram(1)
P2 = path_diagram(2)
P3 = path_diagram(3)
C3 = cycle_diagram(3)

CONST = ConstantCoefficients()


def ns(D, *lists):
    return NestedSet.from_vertex_lists(D, lists)


def contained(sub, sup, dim):
    """True iff span(sub) lies in span(sup), both families of vectors in Q^dim."""
    return all(map(Span(sup, dim).contains, sub))


# -- basis ------------------------------------------------------------------------


def test_dynkin_basis_examples():
    assert dynkin_basis(P2, 1) == [(1, (0,)), (2, (1,)), (3, (0,)), (3, (1,))]
    assert dynkin_basis(P2, 2) == [(3, (0, 1))]
    assert dynkin_basis(P2, 0) == [(1, ()), (2, ()), (3, ())]
    with pytest.raises(DiagramError):
        dynkin_basis(P2, 3)


def test_constant_dimension_formula():
    from math import comb

    for D in [P3, C3, star_diagram(3)]:
        from graphassoc.nested import connected_subdiagrams

        for p in range(D.n + 1):
            expected = sum(
                comb(bin(B).count("1"), p) for B in connected_subdiagrams(D)
            )
            assert cochain_space(D, CONST, p).dim == expected


# -- differential -------------------------------------------------------------------


def test_degree_zero_differential_p2():
    d0 = dynkin_differential(P2, CONST, 0)
    assert len(d0) == 4 and len(d0[0]) == 3
    assert rank(d0) == 3
    # rows follow dynkin_basis(P2, 1); columns {1}, {2}, D
    assert d0 == [
        [1, 0, 0],
        [0, 1, 0],
        [0, -1, 1],
        [-1, 0, 1],
    ]


def test_degree_one_differential_p2():
    d1 = dynkin_differential(P2, CONST, 1)
    assert len(d1) == 1 and rank(d1) == 1
    # d m_(D;1,2) = m_(D;2) - m_({2};2) - m_(D;1) + m_({1};1)
    assert d1 == [[1, -1, -1, 1]]


def test_differential_squares_to_zero_constant():
    from graphassoc._ratlinalg import product_is_zero

    for D in [P3, C3, path_diagram(4)]:
        for p in range(D.n - 1):
            dp = dynkin_differential(D, CONST, p)
            dp1 = dynkin_differential(D, CONST, p + 1)
            assert product_is_zero(dp1, dp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_squares_to_zero_random_systems(seed):
    rng = random.Random(seed)
    for D in [P3, C3]:
        M = random_coefficient_system(D, 5, rng).validate(D)
        from graphassoc._ratlinalg import product_is_zero

        for p in range(D.n - 1):
            dp = dynkin_differential(D, M, p)
            dp1 = dynkin_differential(D, M, p + 1)
            assert product_is_zero(dp1, dp)


def test_top_differential_is_empty():
    assert dynkin_differential(P2, CONST, 2) == []


# -- cohomology -----------------------------------------------------------------------


def test_cohomology_examples():
    assert dynkin_cohomology(P2, CONST) == [0, 0, 0]
    assert dynkin_cohomology(P1, CONST) == [0, 0]


# (diagram, seed) -> (HD, dims) of random_coefficient_system(D, 2 + seed % 3, Random(100 + seed))
PINNED_RANDOM_SYSTEMS = {
    ("P4", 0): ([0, 5, 0, 0, 0], [9, 34, 30, 12, 2]),
    ("P4", 1): ([0, 3, 0, 0, 0], [19, 51, 44, 18, 3]),
    ("P4", 2): ([0, 1, 2, 0, 0], [10, 37, 47, 23, 4]),
    ("P4", 3): ([0, 2, 1, 0, 0], [8, 28, 29, 12, 2]),
    ("S3", 0): ([0, 6, 0, 0, 0], [10, 40, 36, 14, 2]),
    ("S3", 1): ([0, 2, 0, 0, 0], [23, 60, 53, 21, 3]),
    ("S3", 2): ([0, 1, 1, 0, 0], [10, 42, 55, 27, 4]),
    ("S3", 3): ([0, 2, 1, 0, 0], [7, 30, 34, 14, 2]),
    ("C4", 0): ([0, 9, 0, 0, 0], [10, 49, 44, 16, 2]),
    ("C4", 1): ([0, 4, 0, 0, 0], [27, 75, 65, 24, 3]),
    ("C4", 2): ([0, 1, 4, 0, 0], [17, 60, 74, 32, 4]),
    ("C4", 3): ([0, 1, 1, 0, 0], [11, 39, 42, 16, 2]),
    ("K4", 0): ([0, 6, 0, 0, 0], [16, 56, 48, 16, 2]),
    ("K4", 1): ([0, 2, 0, 0, 0], [28, 76, 67, 24, 3]),
    ("K4", 2): ([0, 2, 6, 0, 0], [16, 65, 81, 32, 4]),
    ("K4", 3): ([0, 1, 1, 0, 0], [17, 50, 47, 16, 2]),
    ("P5", 0): ([0, 6, 0, 0, 0, 0], [18, 64, 70, 42, 14, 2]),
    ("P5", 1): ([0, 3, 2, 0, 0, 0], [30, 90, 104, 63, 21, 3]),
    ("P5", 2): ([0, 1, 6, 0, 0, 0], [15, 68, 117, 83, 28, 4]),
    ("P5", 3): ([0, 2, 1, 0, 0, 0], [15, 55, 69, 42, 14, 2]),
}
PINNED_DIAGRAMS = {
    "P4": path_diagram(4),
    "S3": star_diagram(3),
    "C4": cycle_diagram(4),
    "K4": complete_diagram(4),
    "P5": path_diagram(5),
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_RANDOM_SYSTEMS))
def test_random_system_cohomology_is_pinned(name, seed):
    D = PINNED_DIAGRAMS[name]
    M = random_coefficient_system(D, 2 + seed % 3, random.Random(100 + seed))
    HD, dims = PINNED_RANDOM_SYSTEMS[(name, seed)]
    assert dynkin_json(D, M) == {"HD": HD, "dims": dims}


def _differentials_text(D, M):
    """Every differential of (D, M) as text: shape, then entries row by row as n/d."""
    mats = [dynkin_differential(D, M, p) for p in range(D.n + 1)]
    if not all(type(x) is Fraction for m in mats for row in m for x in row):
        return "an entry is not a Fraction"
    return ";".join(
        f"{len(m)}x{len(m[0]) if m else 0}:"
        + "|".join(",".join(f"{x.numerator}/{x.denominator}" for x in row) for row in m)
        for m in mats
    )


# sha256 of _differentials_text for the pinned systems above: the slot coordinates
# (echelon rows of each span, entries read at the target pivots) are a convention
PINNED_DIFFERENTIALS = {
    ("P4", 2): "ecc248e82b2962dc531acb38c1b450abdb3a34b5aec1de7719b78c9552b1d8f6",
    ("S3", 1): "00a98843686154ad037015c2352e0eedfe027d353ffefd8cfcae5316ae0642fc",
    ("C4", 3): "0d65113f79d3c85507b2e4faac45326f6dc111c0986e40b87853adb78a83af63",
    ("K4", 2): "7b0f5981096dfe53f9d6ba5430e5a38a49cdc1005504c026d1e1a20e345b8315",
    ("P5", 1): "54035504009e85bfcb6aa9d9016d30cbedac1985d94d4bd34aef6a7982e59354",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_DIFFERENTIALS))
def test_random_system_differentials_are_pinned(name, seed):
    D = PINNED_DIAGRAMS[name]
    M = random_coefficient_system(D, 2 + seed % 3, random.Random(100 + seed))
    digest = hashlib.sha256(_differentials_text(D, M).encode()).hexdigest()
    assert digest == PINNED_DIFFERENTIALS[(name, seed)]


def test_cohomology_is_dims_minus_rref_ranks_of_dense_differentials():
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for n in range(1, 5):
            for D in connected_reps(n):
                M = random_coefficient_system(D, 3, rng)
                dims = [cochain_space(D, M, p).dim for p in range(D.n + 1)]
                ranks = [len(rref(dynkin_differential(D, M, p))[1]) for p in range(D.n)] + [0]
                expected = [dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(D.n + 1)]
                assert dynkin_cohomology(D, M) == expected, (seed, D.names)


def test_cleared_ranks_match_uncleared_elimination_and_rref(monkeypatch):
    """Degree p + 1 is ranked without the columns of d_p's pivot rows, so it hands ``_rat_rank``
    all dim C^{p+1} columns, dim C^{p+1} - rank d_p of them nonempty, and each rank is the
    uncleared ``eliminate`` rank.  The dense ``rref`` rank is checked too up to four vertices,
    and on five with constant coefficients: on a random five-vertex system or C6 it takes
    seconds per diagram."""
    from graphassoc import dynkin

    seen, rat_rank = [], dynkin._rat_rank
    monkeypatch.setattr(dynkin, "_rat_rank", lambda cols: seen.append(cols) or rat_rank(cols))
    rng = random.Random(39)
    for D in [D for n in range(1, 6) for D in connected_reps(n)] + [cycle_diagram(6)]:
        for M in (CONST, random_coefficient_system(D, 2, rng)):
            seen.clear()
            report = dynkin_json(D, M)
            dims, dense = report["dims"], [dynkin_differential(D, M, p) for p in range(D.n)]
            ranks = [*map(rank, dense), 0]
            if D.n <= 4 or D.n == 5 and M is CONST:
                assert ranks[:-1] == [len(rref(d)[1]) for d in dense]
            assert [rat_rank(cols)[0] for cols in seen] == ranks[:-1]
            assert report["HD"] == [dims[p] - ranks[p] - ranks[p - 1] * (p > 0) for p in range(D.n + 1)]
            assert list(map(len, seen)) == dims[:-1]
            assert [sum(map(bool, cols)) for cols in seen] == [dims[0]] + [
                dims[p + 1] - ranks[p] for p in range(D.n - 1)], D.names


def test_degree_zero_cohomology_vanishes_everywhere():
    rng = random.Random(9)
    for n in range(1, 5):
        for D in connected_reps(n):
            assert dynkin_cohomology(D, CONST)[0] == 0
            M = random_coefficient_system(D, 4, rng).validate(D)
            assert dynkin_cohomology(D, M)[0] == 0


def test_degree_zero_differential_injective():
    for D in [P2, P3, C3]:
        d0 = dynkin_differential(D, CONST, 0)
        assert rank(d0) == cochain_space(D, CONST, 0).dim


# -- coefficient systems ----------------------------------------------------------------


def test_invalid_coefficient_system_rejected():
    bad = MatrixCoefficients(
        2,
        {
            (0b111, 0b000): ((Fraction(1), Fraction(0)),),
            (0b111, 0b100): ((Fraction(0), Fraction(1)),),
        },
    )
    with pytest.raises(CoefficientError):
        bad.validate(P3)


@pytest.mark.parametrize("B, message", [(0b10000, "has a B that is not a subset of the vertex set"),
                                        (0b101, "has a B that is not connected")],
                         ids=["outside", "disconnected"])
def test_validate_refuses_an_entry_no_slot_reads(B, message, monkeypatch):
    """On P4, an entry with B outside D or not connected is refused before any differential is built."""
    import graphassoc.dynkin as dynkin

    M = MatrixCoefficients(1, {(B, 0): [(1,)]})
    built = []
    monkeypatch.setattr(dynkin, "cochain_space", lambda *args: built.append(args))
    monkeypatch.setattr(dynkin, "_differential_columns", lambda *args: built.append(args))
    want = f"M(B, S) at vertex positions B={list(bits(B))}, S=[] {message}"
    with pytest.raises(CoefficientError, match=f"^{re.escape(want)}$"):
        M.validate(path_diagram(4))
    assert built == []


def test_unvalidated_broken_inclusion_fails_in_the_differential():
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    bad = MatrixCoefficients(2, {(0b11, 0b11): (e1,), (0b11, 0b10): (e2,)})
    with pytest.raises(CoefficientError) as err:
        dynkin_cohomology(P2, bad)
    assert str(err.value) == "subspace inclusion fails at slot B=['1', '2'], alpha=['1']"
    for D in (P3, C3):
        table = dict(random_coefficient_system(D, 3, random.Random(0)).table)
        table[(0b111, 0b100)] = ()  # the degree-2 slot (D, (1, 2)) gets the zero space
        with pytest.raises(CoefficientError) as err:
            dynkin_cohomology(D, MatrixCoefficients(3, table))
        assert str(err.value) == (
            "subspace inclusion fails at slot B=['1', '2', '3'], alpha=['1', '2']"
        )
    for D, alpha, named in ((P3, 0b001, "['1']"), (P3, 0b011, "['1', '2']"),
                            (C3, 0b011, "['1', '2']"), (path_diagram(4), 0b110, "['2', '3']")):
        bad = MatrixCoefficients(2, {(D.full, D.full & ~alpha): ()})  # the rest share one span
        with pytest.raises(CoefficientError) as err:
            dynkin_cohomology(D, bad)
        assert str(err.value) == f"subspace inclusion fails at slot B={list(D.names)}, alpha={named}"


def test_a_slot_mapping_into_its_own_span_is_not_checked(monkeypatch):
    """Every slot of the constant system shares one span: no membership check runs."""
    calls = []
    contains = Span.contains
    monkeypatch.setattr(Span, "contains", lambda span, w: calls.append(w) or contains(span, w))
    assert dynkin_json(cycle_diagram(6), CONST)["HD"][0] == 0
    assert calls == []


def test_basis_vectors_must_have_ambient_dim_entries():
    e1 = (Fraction(1), Fraction(0))
    for vec in ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(1),)):
        with pytest.raises(CoefficientError) as err:
            MatrixCoefficients(2, {(0b11, 0b11): (e1,), (0b11, 0b01): (e1, vec)})
        assert str(err.value) == (
            "basis vector of M(B, S) at vertex positions B=[0, 1], S=[0] "
            f"has {len(vec)} entries, not ambient_dim 2"
        )


def test_matrix_coefficients_reject_negative_dim_and_s_outside_b():
    with pytest.raises(CoefficientError) as err:
        MatrixCoefficients(-1)
    assert str(err.value) == "ambient_dim -1 is negative"
    e1 = (Fraction(1), Fraction(0))
    for S, named in ((0b100, "[2]"), (0b110, "[1, 2]")):
        with pytest.raises(CoefficientError) as err:
            MatrixCoefficients(2, {(0b011, 0b011): (e1,), (0b011, S): (e1,)})
        assert str(err.value) == f"M(B, S) at vertex positions B=[0, 1], S={named} has S outside B"
    assert MatrixCoefficients(0).span(0b1, 0b1).ints == ()


def test_matrix_coefficients_refuse_keys_that_are_not_masks():
    """A B that is not a positive mask, or a negative S, is refused before any
    message lists its bits, which never end for a negative mask: the tables run
    in a subprocess, so a hang fails the test instead of stalling the suite."""
    code = (
        "from graphassoc.dynkin import CoefficientError, MatrixCoefficients\n"
        "for table in ({(-1, 0): [(1,)], (0, 0): [(1,)]}, {(-1, 0): [(1.5,)]},\n"
        "              {(0, 0): [(1,)]}, {(1, -1): [(1,)]}):\n"
        "    try:\n"
        "        MatrixCoefficients(1, table)\n"
        "    except CoefficientError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    rule = "B must be positive, S not negative"
    assert proc.stdout.splitlines() == [f"M(B, S) at masks B=-1, S=0: {rule}"] * 2 + [
        f"M(B, S) at masks B=0, S=0: {rule}", f"M(B, S) at masks B=1, S=-1: {rule}"]


def test_matrix_coefficients_equality_ignores_derived_spans():
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    M1 = MatrixCoefficients(2, {(0b11, 0b11): (e1,)})
    M2 = MatrixCoefficients(2, {(0b11, 0b11): (e1, (Fraction(2), Fraction(0)))})
    assert M1.table == M2.table == {(0b11, 0b11): (e1,)}
    assert M1.span(0b11, 0b11) is not M2.span(0b11, 0b11)
    assert M1 == M2
    assert M1 != MatrixCoefficients(2, {(0b11, 0b11): (e2,)})
    assert M1 != MatrixCoefficients(3, {})
    with pytest.raises(TypeError):
        hash(M1)


def test_coefficient_json_roundtrip():
    rng = random.Random(4)
    M = random_coefficient_system(P3, 3, rng).validate(P3)
    doc = json.loads(json.dumps(M.to_json(P3)))
    M2 = MatrixCoefficients.from_json(P3, doc).validate(P3)
    from graphassoc.nested import connected_subdiagrams

    for B in connected_subdiagrams(P3):
        for S in range(B + 1):
            if S & ~B:
                continue
            assert contained(M.subspace(B, S), M2.subspace(B, S), 3)
            assert contained(M2.subspace(B, S), M.subspace(B, S), 3)


def test_validate_fails_exactly_where_the_differential_does():
    """Tables with one or two entries replaced: ``validate`` and the differential agree."""
    rng = random.Random(31)
    passed = failed = 0
    for n in range(1, 5):
        for D in connected_reps(n):
            for _ in range(6):
                table = dict(random_coefficient_system(D, 2, rng).table)
                for key in rng.sample(sorted(table), min(len(table), rng.choice((1, 2)))):
                    table[key] = tuple(
                        tuple(Fraction(rng.randint(-1, 1)) for _ in range(2))
                        for _ in range(rng.randint(0, 1))
                    )
                M = MatrixCoefficients(2, table)
                messages = []
                for check in (M.validate, lambda D: dynkin_cohomology(D, M)):
                    try:
                        check(D)
                        messages.append(None)
                    except CoefficientError as err:
                        messages.append(str(err))
                assert messages[0] == messages[1], (D, table)
                passed += messages[0] is None
                failed += messages[0] is not None
    assert passed and failed


def test_coefficient_json_rejects_a_missing_basis_and_a_repeated_pair():
    entry = {"B": ["1", "2"], "S": ["1"]}
    with pytest.raises(CoefficientError) as err:
        MatrixCoefficients.from_json(P2, {"ambient_dim": 1, "subspaces": [entry]})
    assert str(err.value) == "basis of M(B, S) at B=['1', '2'], S=['1'] is not a list of vectors"
    twice = [dict(entry, basis=[["1"]]), {"B": ["2", "1"], "S": ["1"], "basis": []}]
    with pytest.raises(CoefficientError) as err:
        MatrixCoefficients.from_json(P2, {"ambient_dim": 1, "subspaces": twice})
    assert str(err.value) == "M(B, S) at B=['1', '2'], S=['1'] is listed twice"


def test_coefficient_json_rejects_infinite_entries():
    """Each spelling json reads as an infinite float; the CLI table has the Infinity case."""
    for text in ("Infinity", "-Infinity", "1e400"):
        doc = json.loads('{"ambient_dim": 1, "subspaces": [{"B": ["1"], "S": [], "basis": [[%s]]}]}'
                         % text)
        with pytest.raises(CoefficientError) as err:
            MatrixCoefficients.from_json(P2, doc)
        assert str(err.value) == "basis of M(B, S) at B=['1'], S=[] has an entry that is not a rational"


@pytest.mark.parametrize("warm", [False, True], ids=["empty-cache", "after-constant"])
@pytest.mark.parametrize("vec", [(1.0,), (True, 0), ("1",), (Fraction(1), 0.5)])
def test_coefficient_entries_are_ints_or_fractions_whatever_the_cache_holds(vec, warm):
    """A float, a bool or a string entry is a ``CoefficientError`` naming the pair, cached line or not."""
    _solve_cached.cache_clear()
    if warm:
        ConstantCoefficients()  # caches the full line ((1,),), which equals ((1.0,),) and ((True,),)
    with pytest.raises(CoefficientError) as err:
        MatrixCoefficients(len(vec), {(1, 1): [vec]})
    assert str(err.value) == (
        "basis vector of M(B, S) at vertex positions B=[0], S=[0] has an entry that is not an int or a Fraction")


def test_whole_fraction_entries_are_stored_as_ints():
    _solve_cached.cache_clear()
    M = MatrixCoefficients(3, {(1, 1): [(Fraction(2), Fraction(1, 2), 0)], (1, 0): [(Fraction(-4, 2), 1, 5)]})
    entries = [(type(x), x) for vectors in M.table.values() for v in vectors for x in v]
    assert entries == [(int, 2), (Fraction, Fraction(1, 2)), (int, 0), (int, -2), (int, 1), (int, 5)]
    # from_json parses each entry to a Fraction, a JSON float included, before the constructor admits it
    doc = {"ambient_dim": 2, "subspaces": [{"B": ["1"], "S": ["1"], "basis": [["4/2", 1.5]]}]}
    (vector,) = MatrixCoefficients.from_json(P2, doc).table[(1, 1)]
    assert [(type(x), x) for x in vector] == [(int, 2), (Fraction, Fraction(3, 2))]


@pytest.mark.parametrize("degree", [1.5, True, 9], ids=["float", "bool", "int"])
def test_a_degree_that_is_not_an_int_is_out_of_range(degree):
    """Every degree or dimension check refuses a non-int, a bool included, or an int past
    the top with one message: the noun, the value and the range."""
    D = path_diagram(3)
    entries = {
        "faces": (lambda: faces(D, degree), "dimension", 2),
        "chain_basis": (lambda: chain_basis(D, degree), "dimension", 2),
        "face_poset_json": (lambda: face_poset_json(D, degree), "dimension", 2),
        "boundary_matrix": (lambda: boundary_matrix(D, degree), "dimension", 2),
        "dynkin_basis": (lambda: dynkin_basis(D, degree), "degree", 3),
        "dynkin_differential": (lambda: dynkin_differential(D, CONST, degree), "degree", 3),
        "cellular_embedding_g": (lambda: cellular_embedding_g(D, CONST, degree, [1]), "degree", 3),
    }
    for name, (call, noun, top) in entries.items():
        with pytest.raises(DiagramError) as err:
            call()
        assert str(err.value) == f"{noun} {degree} out of range 0..{top}", name


def test_g_refuses_a_disconnected_diagram_in_every_degree():
    D = parse_diagram("vertices: a b c\nedges: a-b\n")
    for k in range(D.n + 1):
        with pytest.raises(DiagramError, match="ambient diagram must be connected"):
            cellular_embedding_g(D, CONST, k, [1] * cochain_space(D, CONST, k).dim)
    with pytest.raises(DiagramError, match="ambient diagram must be connected"):
        verify_chain_map(D, CONST, 1)


def _entrywise_system(D, ambient_dim, rng):
    """The random system factored entry by entry: each entry's admissible seeds, in one Span."""
    seeds = {}
    for B0, T in _pairs(D):
        if rng.random() < 0.4:
            seeds[(B0, T)] = tuple(Fraction(rng.randint(-2, 2)) for _ in range(ambient_dim))
    seeds = sorted(seeds.items())
    table = {
        (B, S): [vec for (B0, T), vec in seeds if B0 & ~B == 0 and (S & B0) & ~T == 0]
        for B, S in _pairs(D)
    }
    return MatrixCoefficients(ambient_dim, table)


def test_random_system_matches_entrywise_factoring():
    """The seed walk gives each entry's factoring, shares one Span per family, keeps the stream."""
    entries = families = 0
    for n in range(1, 6):
        for D in connected_reps(n):
            for ambient_dim in range(5):
                for seed in (0, 1, 2)[:6 - n]:
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    M = random_coefficient_system(D, ambient_dim, rng)
                    oracle = _entrywise_system(D, ambient_dim, oracle_rng)
                    assert rng.random() == oracle_rng.random()
                    assert M.table == oracle.table
                    shared = {}
                    for key, family in M.table.items():
                        span, other = M.span(*key), oracle.span(*key)
                        assert (span.ints, span.pivots, span.equations) == (
                            other.ints, other.pivots, other.equations), (D.names, key)
                        assert shared.setdefault(family, span) is span
                    entries, families = entries + len(M.table), families + len(shared)
    assert families < entries / 2


def test_matrix_coefficients_factor_each_basis_object_once():
    P4 = path_diagram(4)
    M = random_coefficient_system(P4, 3, random.Random(5))
    copied = MatrixCoefficients(3, dict(M.table))
    assert copied == M
    spans = {id(copied.span(*key)) for key in M.table}
    assert len(spans) == len({id(family) for family in M.table.values()}) < len(M.table)
    for key, family in M.table.items():
        assert copied.span(*key).independent == family


def test_systems_built_from_a_table_or_its_json_share_every_span():
    """Equal bases are factored once, through ``_solve_cached``: a copy shares each Span object."""
    P4 = path_diagram(4)
    for seed in range(3):
        M = random_coefficient_system(P4, 3, random.Random(seed))
        doc = json.loads(json.dumps(M.to_json(P4)))
        for copy in (MatrixCoefficients(3, dict(M.table)), MatrixCoefficients.from_json(P4, doc)):
            assert copy == M
            for B, S in _pairs(P4):
                assert copy.span(B, S) is M.span(B, S), (seed, B, S)


def test_random_system_rejects_a_negative_dimension():
    with pytest.raises(CoefficientError) as err:
        random_coefficient_system(P3, -1, random.Random(0))
    assert str(err.value) == "ambient_dim -1 is negative"


def test_constant_coefficients_are_the_one_dimensional_table():
    """No listed entries, equality by table, unhashable, and the parent's ``to_json`` bytes."""
    assert ConstantCoefficients() == ConstantCoefficients()
    assert (CONST.ambient_dim, CONST.table) == (1, {})
    with pytest.raises(TypeError):
        hash(CONST)
    doc = json.dumps(CONST.to_json(cycle_diagram(5)))
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "08ddad12d17d742293d7947c4385c1adc5e4646210bcb2fc7045057930ac8f00")


def test_random_systems_are_monotone():
    rng = random.Random(12)
    M = random_coefficient_system(C3, 4, rng)
    assert contained(M.subspace(0b111, 0b011), M.subspace(0b111, 0b001), 4)


# -- cellular embedding -----------------------------------------------------------------


@pytest.mark.parametrize("extra", [1, -1])
def test_g_rejects_a_cochain_of_the_wrong_length(extra):
    """On P3 the degree-2 cochains have dim 5: one entry more or fewer is a DiagramError."""
    assert cochain_space(P3, CONST, 2).dim == 5
    vec = [Fraction(1)] * (5 + extra)
    with pytest.raises(DiagramError) as err:
        cellular_embedding_g(P3, CONST, 2, vec)
    assert str(err.value) == f"a cochain of {5 + extra} entries in a degree-2 space of dim 5"


def test_g_degree_zero_is_augmentation():
    space = cochain_space(P3, CONST, 0)
    vec = [Fraction(0)] * space.dim
    vec[space.index[(P3.full, ())]] = Fraction(5)
    assert cellular_embedding_g(P3, CONST, 0, vec) == (Fraction(5),)


def test_g_degree_two_support():
    """The basis cochain at (D, (1,2)) lands on cells whose unsaturated pair is it."""
    space = cochain_space(P3, CONST, 2)
    vec = [Fraction(0)] * space.dim
    vec[space.index[(P3.full, (0, 1))]] = Fraction(1)
    values = cellular_embedding_g(P3, CONST, 2, vec)
    cells = chain_basis(P3, 1)
    hits = [
        cell
        for cell, val in zip(cells, values)
        if any(x != 0 for x in val)
    ]
    assert len(hits) == 1
    (hit,) = hits
    assert hit.nested.elements == ns(P3, [2]).elements  # H = {D, {3}}
    assert hit.nested.unsaturated() == [(P3.full, 0b011)]


def _g_per_cell(D, M, k, vec):
    """The oracle for ``cellular_embedding_g``: each cell sums its slots' reduced rows times ``vec``.

    A slot's rows are the ``rref`` of its span's basis, not the library's ``Span.ints``.
    """
    space = cochain_space(D, M, k)

    def total(slots):
        out = [Fraction(0)] * space.ambient_dim
        for slot in slots:
            i = space.index[slot]
            for j, row in enumerate(rref(space.spans[i].independent)[0]):
                out = [x + vec[space.offsets[i] + j] * y for x, y in zip(out, row)]
        return tuple(out)

    if k == 0:
        return total([(D.full, ())])
    values = []
    for H in faces(D, k - 1):
        if k == 1:
            slots = [(B, tuple(bits(H.alpha_set(B)))) for B in H.elements]
        else:
            unsat = H.unsaturated()
            slots = [(B, tuple(bits(alpha))) for B, alpha in unsat] if len(unsat) == 1 else []
        values.append(total(slots))
    return values


def test_g_matches_the_per_cell_oracle():
    rng = random.Random(26)
    for n in range(1, 5):
        for D in connected_reps(n):
            for M in (CONST, random_coefficient_system(D, 3, rng)):
                for k in range(D.n + 1):
                    dim = cochain_space(D, M, k).dim
                    vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)]
                    got, expected = cellular_embedding_g(D, M, k, vec), _g_per_cell(D, M, k, vec)
                    assert got == expected and type(got) is type(expected), (D.names, k)
                    for value in [got] if k == 0 else got:
                        assert type(value) is tuple and all(type(x) is Fraction for x in value)


def test_g_is_a_chain_map_through_the_public_api():
    """The coboundary of g^k(x) is g^(k+1)(d x) for a random rational cochain x in each degree k < |D|.

    For k = 0 the coboundary maps the augmentation to every vertex with sign +1;
    above that it is the transpose of ``boundary_matrix(D, k)``.
    """
    rng = random.Random(29)
    nonzero = 0
    for n in range(1, 5):
        for D in connected_reps(n):
            for M in (CONST, random_coefficient_system(D, 3, rng)):
                for k in range(D.n):
                    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cochain_space(D, M, k).dim)]
                    dx = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in dynkin_differential(D, M, k)]
                    image, expected = cellular_embedding_g(D, M, k, x), cellular_embedding_g(D, M, k + 1, dx)
                    if k == 0:
                        coboundary = [image] * len(expected)
                    else:
                        B = boundary_matrix(D, k)
                        coboundary = [
                            tuple(sum((B[c][e] * value[a] for c, value in enumerate(image)), Fraction(0))
                                  for a in range(M.ambient_dim))
                            for e in range(len(expected))
                        ]
                    assert coboundary == expected, (D.names, k)
                    nonzero += any(map(any, expected))
    assert nonzero > 20


def test_chain_map_small_diagrams():
    assert verify_chain_map(P2, CONST, 50)
    assert verify_chain_map(C3, CONST, 20)
    assert verify_chain_map(P3, CONST, 20)


def test_chain_map_random_coefficients():
    for seed in (21, 22, 23):
        rng = random.Random(seed)
        for D in [P3, C3]:
            M = random_coefficient_system(D, 4, rng).validate(D)
            assert verify_chain_map(D, M, 5, rng=rng)


def test_chain_map_check_reads_only_the_integer_rows(monkeypatch):
    """From an empty span cache, building a random system, its cohomology and the check build no Fraction."""
    from graphassoc import dynkin

    def no_fractions(*args):
        raise AssertionError("Fraction called in the system, the chain-map check or the cohomology")

    for D in (P3, C3, path_diagram(4)):
        doc = dynkin_json(D, random_coefficient_system(D, 3, random.Random(7)))
        _solve_cached.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(dynkin, "Fraction", no_fractions)
            M = random_coefficient_system(D, 3, random.Random(7))
            assert verify_chain_map(D, M, 1)
            assert dynkin_json(D, M) == doc


def test_chain_map_detects_corruption(monkeypatch):
    from graphassoc import dynkin

    def corrupted(D, src, dst):
        cols = _differential_columns(D, src, dst)
        if src.degree == 1:
            cols[0][0] = cols[0].get(0, 0) + 1
        return cols

    monkeypatch.setattr(dynkin, "_differential_columns", corrupted)
    report = verify_chain_map(P3, CONST, 5)
    assert not report
    assert any("degree 1" in msg for msg in report.failures)


def _corrupted(diffs, p, r, c):
    """A ``dynkin._differential_columns`` returning ``diffs``, 1 added to entry (r, c) of degree p.

    The entry may be absent, that is zero, before the corruption.
    """
    bad = [dict(col) for col in diffs[p]]
    bad[c][r] = bad[c].get(r, 0) + 1
    return lambda D, src, dst: bad if src.degree == p else diffs[src.degree]


# system -> the seed of random_coefficient_system(D, 2, Random(seed)); "nonunit" has pivot entries ±2
RANDOM_SEEDS = {"random": 4, "nonunit": 3}


@pytest.mark.parametrize("name, system", [
    ("P4", "constant"), ("C4", "constant"), ("P4", "random"), ("P3", "nonunit")])
def test_chain_map_reports_every_single_entry_corruption_at_its_degree(name, system, monkeypatch):
    from graphassoc import dynkin

    D = {**PINNED_DIAGRAMS, "P3": P3}[name]
    M = CONST if system == "constant" else random_coefficient_system(
        D, 2, random.Random(RANDOM_SEEDS[system]))
    spaces, diffs = dynkin_complex(D, M)
    diffs = list(diffs)
    if system == "nonunit":  # the check scales each target row by L // its pivot entry
        leads = {row[p] for space in spaces for span in space.spans
                 for row, p in zip(span.ints, span.pivots)}
        assert leads - {1, -1}
    assert verify_chain_map(D, M, 1)
    for p, cols in enumerate(diffs):
        for r in range(spaces[p + 1].dim):
            for c in range(len(cols)):
                monkeypatch.setattr(dynkin, "_differential_columns", _corrupted(diffs, p, r, c))
                report = verify_chain_map(D, M, 1)
                assert report.failures == [f"chain-map identity fails at degree {p}"], (p, r, c)


def test_chain_map_report_ignores_trials_and_rng(monkeypatch):
    from graphassoc import dynkin

    diffs = list(dynkin_complex(P3, CONST)[1])
    for p in range(P3.n):
        monkeypatch.setattr(dynkin, "_differential_columns", _corrupted(diffs, p, 0, 0))
        reports = [
            verify_chain_map(P3, CONST, trials, rng=rng)
            for trials in (1, 50)
            for rng in (None, random.Random(3))
        ]
        assert all(report == reports[0] for report in reports)
        assert reports[0].failures == [f"chain-map identity fails at degree {p}"]
    with pytest.raises(DiagramError):
        verify_chain_map(P3, CONST, 0)


def test_chain_map_reports_a_basis_vector_g_kills(monkeypatch):
    """An irreducible cell of another slot: g^2 seems to kill each row of the slot."""
    from graphassoc import dynkin, nested

    def swapped(D, B, alpha):
        return nested.irreducible_cell(D, B, 0b110 if (B, alpha) == (D.full, 0b011) else alpha)

    monkeypatch.setattr(dynkin, "irreducible_cell", swapped)
    message = "g^2 kills the basis vector at B=['1', '2', '3'], alpha=['1', '2']"
    assert verify_chain_map(P3, CONST, 1).failures == [message]
    assert verify_chain_map(P3, MatrixCoefficients(2), 1).failures == [message, message]


def test_g_maps_unit_cochains_to_the_reduced_echelon_rows():
    """Multi-row slots: g of unit cochain j of a slot is row j of rref of its span's basis.

    It lands on every cell that reads the slot, and every other cell gets zero.
    Each slot of degree p >= 1 is read on some cell; in degree 0 only (D, ())
    is, on the augmentation.
    """
    rng = random.Random(25)
    for n in range(1, 4):
        for D in connected_reps(n):
            M = random_coefficient_system(D, 3, rng)
            for p in range(D.n + 1):
                space = cochain_space(D, M, p)
                for i, (slot, span) in enumerate(zip(space.slots, space.spans)):
                    reduced = rref(span.independent)[0]
                    assert len(reduced) == len(span.pivots)
                    for j, row in enumerate(reduced):
                        vec = [Fraction(0)] * space.dim
                        vec[space.offsets[i] + j] = Fraction(1)
                        image = cellular_embedding_g(D, M, p, vec)
                        hits = {value for value in ([image] if p == 0 else image) if any(value)}
                        read = p > 0 or slot == (D.full, ())
                        assert hits == ({tuple(row)} if read else set()), (D.names, p, i, j)


def test_image_characterization_clauses():
    """g^k images vanish on reducible cells and respect equivalence classes."""
    D = path_diagram(4)
    for k in range(2, D.n + 1):
        space = cochain_space(D, CONST, k)
        cells = chain_basis(D, k - 1)
        for i in range(len(space.slots)):
            vec = [Fraction(0)] * space.dim
            vec[space.offsets[i]] = Fraction(1)
            values = cellular_embedding_g(D, CONST, k, vec)
            by_class = {}
            for cell, val in zip(cells, values):
                unsat = cell.nested.unsaturated()
                if len(unsat) != 1:
                    assert all(x == 0 for x in val)
                else:
                    by_class.setdefault(unsat[0], set()).add(val)
            for vals in by_class.values():
                assert len(vals) == 1


def test_dynkin_json():
    doc = dynkin_json(P2, CONST)
    assert doc == {"HD": [0, 0, 0], "dims": [3, 4, 1]}


@pytest.mark.parametrize("name", ["P4", "C4"])
@pytest.mark.parametrize("system", ["constant", "random"])
def test_cohomology_ranks_each_degree_before_building_the_next(name, system, monkeypatch):
    """``dynkin_cohomology`` builds the columns of degree p + 1 only after it ranked
    degree p, so it holds one differential at a time."""
    from graphassoc import dynkin

    D = PINNED_DIAGRAMS[name]
    M = CONST if system == "constant" else random_coefficient_system(D, 2, random.Random(4))
    log, build, rat_rank = [], dynkin._differential_columns, dynkin._rat_rank

    def logged_build(D, src, dst):
        log.append(("build", src.degree))
        return build(D, src, dst)

    def logged_rank(cols):
        log.append(("rank", len(cols)))
        return rat_rank(cols)

    monkeypatch.setattr(dynkin, "_differential_columns", logged_build)
    monkeypatch.setattr(dynkin, "_rat_rank", logged_rank)
    dims = dynkin_json(D, M)["dims"]
    assert log == [event for p in range(D.n) for event in (("build", p), ("rank", dims[p]))]


@pytest.mark.parametrize("ambient_dim", [2.5, "3", None, True], ids=["float", "str", "none", "bool"])
def test_an_ambient_dim_that_is_not_an_int_is_refused(ambient_dim):
    """The constructor admits ``ambient_dim``; a random system refuses it before its first draw."""
    for build in (lambda: MatrixCoefficients(ambient_dim),
                  lambda: MatrixCoefficients.from_json(P3, {"ambient_dim": ambient_dim}),
                  lambda: random_coefficient_system(P3, ambient_dim, rng)):
        rng = random.Random(0)
        with pytest.raises(CoefficientError) as err:
            build()
        assert str(err.value) == "ambient_dim is not an integer"
        assert rng.getstate() == random.Random(0).getstate()


@pytest.mark.parametrize("trials", [0, "3", True, 1.5], ids=["zero", "str", "bool", "float"])
def test_verify_chain_map_refuses_trials_that_are_not_a_positive_int(trials):
    with pytest.raises(DiagramError) as err:
        verify_chain_map(P3, CONST, trials)
    assert str(err.value) == "need at least one trial"
