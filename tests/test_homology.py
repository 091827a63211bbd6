import copy
import hashlib
import importlib.util
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from graphassoc._ratlinalg import columns, eliminate, rank
from graphassoc.diagram import DiagramError, bits, component_containing, mask_of
from graphassoc.dynkin import ChainMapReport, ConstantCoefficients, verify_chain_map
from graphassoc.homology import (
    OrientedCell,
    _smith,
    boundary,
    boundary_cell,
    boundary_matrix,
    canonicalize,
    cell_complex,
    cell_index,
    chain_basis,
    chain_homology,
    homology,
    homology_json,
    oriented,
    shuffle,
    smith_normal_form,
)
from graphassoc.nested import NestedSet, faces
from conftest import (
    bareiss_rank,
    complete_diagram,
    connected_reps,
    cycle_diagram,
    labeled_connected,
    path_diagram,
    shuffle_number,
    star_diagram,
)

P2 = path_diagram(2)
P3 = path_diagram(3)
P5 = path_diagram(5)
C3 = cycle_diagram(3)


def ns(D, *lists):
    return NestedSet.from_vertex_lists(D, lists)


# -- values -------------------------------------------------------------------


def test_oriented_cells_are_immutable_values():
    cell = oriented(ns(P3, [0, 1]))
    assert cell == OrientedCell(ns(P3, [0, 1]), cell.orientation)
    assert {cell: 1}[oriented(ns(P3, [1, 0]))] == 1
    assert cell != OrientedCell(cell.nested, ((P3.full, (2, 1)),))
    for clone in (pickle.loads(pickle.dumps(cell)), copy.copy(cell)):
        assert clone == cell and hash(clone) == hash(cell)
    with pytest.raises(AttributeError):
        cell.orientation = ()


# -- canonical form -----------------------------------------------------------


def test_canonicalize_fixes_canonical_input():
    cell = oriented(ns(P3))
    assert canonicalize(cell) == (cell, 1)


def test_canonicalize_alpha_transposition():
    cell = OrientedCell(ns(P3), ((P3.full, (1, 0, 2)),))
    canon, sign = canonicalize(cell)
    assert canon.orientation == ((P3.full, (0, 1, 2)),)
    assert sign == -1


def test_canonicalize_unsaturated_swap():
    H = ns(P5, [0, 1], [3, 4])
    swapped = OrientedCell(H, ((0b11000, (3, 4)), (0b00011, (0, 1))))
    canon, sign = canonicalize(swapped)
    assert canon == oriented(H)
    assert sign == -1  # (2-1)(2-1) exponent


def test_canonicalize_rejects_malformed():
    with pytest.raises(DiagramError):
        canonicalize(OrientedCell(ns(P3), ()))
    with pytest.raises(DiagramError):
        canonicalize(OrientedCell(ns(P3), ((P3.full, (0, 1)),)))
    with pytest.raises(DiagramError):
        canonicalize(OrientedCell(ns(P3), ((P3.full, (0, 1, 2)), (P3.full, (0, 1, 2)))))


def _scramble(rng, cell):
    entries = list(cell.orientation)
    rng.shuffle(entries)
    scrambled = []
    sign = 1
    for B, alpha in entries:
        perm = list(alpha)
        rng.shuffle(perm)
        scrambled.append((B, tuple(perm)))
    return OrientedCell(cell.nested, tuple(scrambled))


def test_canonicalize_idempotent_and_involutive_signs():
    rng = random.Random(11)
    for D in [P3, P5, C3, cycle_diagram(4)]:
        for k in range(D.n):
            for H in faces(D, k):
                cell = oriented(H)
                for _ in range(3):
                    scrambled = _scramble(rng, cell)
                    canon, sign = canonicalize(scrambled)
                    assert canon == cell
                    assert sign in (-1, 1)
                    again, sign2 = canonicalize(canon)
                    assert (again, sign2) == (cell, 1)
                    # applying the move twice returns the original sign
                    back, sign3 = canonicalize(scrambled)
                    assert sign3 == sign


def test_scrambled_sign_prediction():
    """Sign of a scramble = parity product of the generating moves."""
    H = ns(P5, [0, 1], [3, 4])
    base = oriented(H)
    # swap the two unsaturated blocks and reverse one alpha pair: signs multiply
    cell = OrientedCell(H, ((0b11000, (4, 3)), (0b00011, (0, 1))))
    _, sign = canonicalize(cell)
    assert sign == (-1) * (-1)


def predicted_sign(cell, target):
    """Independent predictor: bubble the enumeration, then count inversions."""
    entries = list(cell.orientation)
    order = [B for B, _ in target.orientation]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(entries) - 1):
            if order.index(entries[i][0]) > order.index(entries[i + 1][0]):
                a, b = entries[i], entries[i + 1]
                sign *= (-1) ** ((len(a[1]) - 1) * (len(b[1]) - 1))
                entries[i], entries[i + 1] = b, a
                changed = True
    for (B, alpha), (_, target_alpha) in zip(entries, target.orientation):
        inversions = sum(
            1
            for i in range(len(alpha))
            for j in range(i + 1, len(alpha))
            if target_alpha.index(alpha[i]) > target_alpha.index(alpha[j])
        )
        sign *= (-1) ** inversions
    return sign


def test_random_scramble_signs_match_independent_predictor():
    rng = random.Random(23)
    for D in [P5, cycle_diagram(4)]:
        for k in range(2, D.n):
            for H in faces(D, k)[::3]:
                base = oriented(H)
                for _ in range(4):
                    scrambled = _scramble(rng, base)
                    canon, sign = canonicalize(scrambled)
                    assert canon == base
                    assert sign == predicted_sign(scrambled, base)


# -- shuffle numbers -------------------------------------------------------------


def test_shuffle_examples():
    assert shuffle_number((1, 3), (0, 1, 2, 3)) == 3
    assert shuffle_number((0,), (0, 1, 2)) == 0
    assert shuffle_number((0, 1, 2), (0, 1, 2)) == 0


def test_shuffle_rejects_non_subsequence():
    with pytest.raises(DiagramError):
        shuffle_number((3, 1), (0, 1, 2, 3))
    with pytest.raises(DiagramError):
        shuffle_number((9,), (0, 1))


def test_shuffle_refuses_a_negative_mask_before_counting():
    """A negative beta has infinitely many set bits: the count runs in a
    subprocess, so a hang fails the test instead of stalling the suite."""
    code = (
        "from graphassoc.diagram import DiagramError\n"
        "from graphassoc.homology import shuffle\n"
        "try:\n"
        "    shuffle(-1, 3)\n"
        "except DiagramError as err:\n"
        "    print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "mask -0x1 is negative\n"
    assert shuffle(0b0010, 0b1011) == 1


def test_shuffle_refuses_a_negative_alpha():
    with pytest.raises(DiagramError, match="^mask -0x1 is negative$"):
        shuffle(3, -1)


@pytest.mark.parametrize("beta, alpha", [(0b100, 0b011), (0b001, 0), (0b110, 0b011), (0b1000, 0b0111)])
def test_shuffle_refuses_a_beta_outside_alpha(beta, alpha):
    """The count is defined for beta inside alpha only, as the walking oracle requires."""
    with pytest.raises(DiagramError):
        shuffle_number(tuple(bits(beta)), tuple(bits(alpha)))
    with pytest.raises(DiagramError, match="^beta must be a subset of alpha$"):
        shuffle(beta, alpha)


def bubble_count(beta, alpha):
    """Oracle: literally bubble the beta elements to the front."""
    seq = list(alpha)
    count = 0
    target = 0
    for x in beta:
        pos = seq.index(x)
        while pos > target:
            seq[pos], seq[pos - 1] = seq[pos - 1], seq[pos]
            pos -= 1
            count += 1
        target += 1
    return count


@given(st.data())
def test_shuffle_matches_bubble_oracle(data):
    n = data.draw(st.integers(1, 7))
    alpha = tuple(range(n))
    size = data.draw(st.integers(1, n))
    beta = tuple(sorted(data.draw(st.permutations(range(n)))[:size]))
    assert shuffle_number(beta, alpha) == bubble_count(beta, alpha)


def test_popcount_shuffle_matches_walking_oracle():
    for alpha in range(1 << 7):
        beta = alpha
        while True:  # every subset of alpha, down to the empty one
            assert shuffle(beta, alpha) == shuffle_number(tuple(bits(beta)), tuple(bits(alpha)))
            if not beta:
                break
            beta = (beta - 1) & alpha


# -- boundary ----------------------------------------------------------------------


def test_cell_complex_cells_are_the_canonical_orientations():
    for D in [*(D for n in range(1, 6) for D in connected_reps(n)), cycle_diagram(6)]:
        boundary = cell_complex(D)[1]
        for k in range(D.n):
            cells = chain_basis(D, k)
            assert cells == [oriented(H) for H in faces(D, k)]
            assert len(cells) == len(boundary[k])
            assert [cell_index(D, cell.nested) for cell in cells] == list(range(len(cells)))


def test_cell_complex_and_chain_map_build_no_oriented_cell(monkeypatch):
    """The cached complex keeps columns and positions only; the chain-map check reads faces."""
    from graphassoc import homology as homology_module

    def no_cells(*args):
        raise AssertionError("OrientedCell built")

    monkeypatch.setattr(homology_module, "OrientedCell", no_cells)
    cell_complex.cache_clear()
    C6 = cycle_diagram(6)
    assert len(cell_complex(C6)[1]) == C6.n
    assert homology_json(C6) == {"H": [{"betti": 1}] + [{"betti": 0}] * 5}
    assert verify_chain_map(path_diagram(4), ConstantCoefficients(), 1)


def test_cell_of_another_diagram_is_not_a_face():
    H = ns(C3, [0, 2])  # {1, 3} is a tube of the 3-cycle, not of the 3-path
    assert cell_index(C3, H) is not None and cell_index(P3, H) is None
    with pytest.raises(DiagramError, match="not a face"):
        boundary_cell(P3, oriented(H))


def test_boundary_of_p2_top_cell():
    terms = boundary_cell(P2, oriented(ns(P2)))
    named = {
        tuple(tuple(P2.vertex_names(m)) for m in cell.nested.elements): coeff
        for cell, coeff in terms.items()
    }
    assert named == {((("1",), ("1", "2"))): 1, ((("2",), ("1", "2"))): -1}


def test_boundary_of_zero_cells_vanishes():
    for F in faces(P3, 0):
        assert boundary_cell(P3, oriented(F)) == {}


def test_boundary_squared_top_cell_p3():
    assert boundary(P3, boundary_cell(P3, oriented(ns(P3)))) == {}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_squared_exhaustive(n):
    for D in labeled_connected(n):
        for k in range(1, D.n):
            for cell in chain_basis(D, k):
                assert boundary(D, boundary_cell(D, cell)) == {}


def induced_boundary(D, cell):
    """Oracle: each face's induced orientation, unsorted, reduced by the validating canonicalize."""
    out = {}
    prefix = 0
    for i, (B, alpha) in enumerate(cell.orientation):
        alpha_mask = mask_of(alpha)
        for size in range(1, len(alpha)):
            for beta in combinations(alpha, size):
                beta_mask = mask_of(beta)
                D_beta = component_containing(D, alpha_mask & ~beta_mask, beta_mask, within=B)
                if not D_beta:
                    continue
                rest = tuple(v for v in alpha if v not in beta)
                induced = (
                    cell.orientation[:i]
                    + (((D_beta, beta),) if len(beta) >= 2 else ())
                    + (((B, rest),) if len(rest) >= 2 else ())
                    + cell.orientation[i + 1:]
                )
                G = NestedSet.make(D, cell.nested.elements + (D_beta,))
                canon, sign = canonicalize(OrientedCell(G, induced))
                out[canon] = (-1) ** (prefix + size - 1 + shuffle_number(beta, alpha)) * sign
        prefix += len(alpha) - 1
    return out


def test_boundary_signs_match_validating_canonicalize():
    diagrams = [D for n in range(1, 6) for D in connected_reps(n)] + [cycle_diagram(6)]
    for D in diagrams:
        for k in range(D.n):
            for cell in chain_basis(D, k):
                assert boundary_cell(D, cell) == induced_boundary(D, cell)


# sha256 of json.dumps(boundary_matrix(D, k)) for k = 0, 1, ...
BOUNDARY_DIGESTS = [
    (cycle_diagram(6), [
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "7b05b352584a8cfd1b2fe8d556e57519fda69e650c531168fe96d91b4a2b0dfd",
        "cd6d668a4d9ff8a5b02e64fd66034bffe36ead86ad1e078a475fbcd9e1a63358",
        "4a8081e4e7c1780c8f11c4543937030f7457e1602fa0ef0dda30547ea7d66ede",
        "96bb27228ad2b2f38a0e3cf13b5c3c6edb2231ac93bd0b52a9fa94657c82cdc9",
        "09a88ad8bf6f9b6fa8cdaec7843bba19c91f9b1477fb43015f8da469ef077c73",
    ]),
    (complete_diagram(5), [
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "17874419e61dcf650b5c8f183272bd2253dbec398e3a076b84f484d244188a17",
        "fcc7fcd44cf94bb099697e5b091852b473fc576b432260416f0082a69a1c63f5",
        "749a83a14699b8711beb340b6f1f360a48ed9b3636016094341c9c8161ddb94c",
        "16dce48d3daf50613814635d3bb926cbde53000d46289f76026abbb305479c39",
    ]),
    (path_diagram(6), [
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "331e749869e05aba709deab731ea71bc420947e804d2d8bee5997f2868667345",
        "d6f5c67c22c60330e92cb5019845dc7a633b9a567f6a3c39d61c9a78b4d9fac9",
        "5d3c50328bb4d4a2b50c0802aa64259c4b2d09baf8fae403a8580a8f8dd2f3b4",
        "c4ea92d9f0cc59257ad0e574121af30b5ad117e21603b67a7248c234a206009c",
        "135c473496e260899cdf0d58cc738edd618a1d033c595708549168bc3dbac683",
    ]),
    (star_diagram(4), [
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "40f723738c1d35aa45d03fd08749306eadd7847cf8bd964ce8cab8620d1f0545",
        "180dbc174138272949c5df38b2fd28042301996a709cd108edd00d8d466b8555",
        "f8bd27342f30646605a499a9c7317dfa7776b4340cfbb380c40744d217ea6b8d",
        "98b40578dcdad2f17555b77d228c7e8a77132320ca7f11c651aa115829ecadec",
    ]),
]


def test_boundary_matrices_are_pinned():
    for D, digests in BOUNDARY_DIGESTS:
        found = [
            hashlib.sha256(json.dumps(boundary_matrix(D, k)).encode()).hexdigest()
            for k in range(D.n)
        ]
        assert found == digests


def test_boundary_rejects_mixed_dimensions():
    cells = {oriented(faces(P3, 0)[0]): 1, oriented(faces(P3, 1)[0]): 1}
    with pytest.raises(DiagramError):
        boundary(P3, cells)


def test_boundary_matrix_examples():
    assert boundary_matrix(P2, 1) in ([[1], [-1]], [[-1], [1]])
    M = boundary_matrix(P3, 2)
    assert len(M) == 5 and len(M[0]) == 1
    assert sorted(abs(row[0]) for row in M) == [1, 1, 1, 1, 1]
    assert boundary_matrix(P2, 0) == []


# -- Smith normal form ---------------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    assert smith_normal_form([[1, -1]]) == [1]
    # no unit entries: the remainder loop, then the gcd/lcm pass
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[2, 3]]) == [1]
    assert smith_normal_form([[4, 6], [6, 4]]) == [2, 10]
    assert smith_normal_form([[6, 10], [10, 15]]) == [1, 10]
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == [1, 1, 30]


def minor_gcd(M, k):
    """Determinant-divisor oracle: gcd of all k x k minors."""
    import itertools

    rows, cols = len(M), len(M[0])

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            g = gcd(g, det([[M[r][c] for c in csel] for r in rsel]))
    return abs(g)


def assert_determinant_divisors(M):
    factors = smith_normal_form(M)
    for k in range(1, len(factors) + 1):
        prod = 1
        for d in factors[:k]:
            prod *= d
        assert prod == minor_gcd(M, k)
    if len(factors) < min(len(M), len(M[0])):
        assert minor_gcd(M, len(factors) + 1) == 0
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_snf_matches_determinant_divisors():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert_determinant_divisors(M)


def test_snf_on_leftover_blocks_matches_determinant_divisors():
    # few or no unit entries: the unit-pivot pass stops early and the
    # dense reduction has a block to work on
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 2]]) == [1, 2]
    assert eliminate(columns([[2, 4], [6, 8]]), unit_pivots=True) == ([], [], [[2, 4], [6, 8]])
    assert eliminate(columns([[1, 0], [0, 2]]), unit_pivots=True) == ([0], [0], [[2]])
    rng = random.Random(11)
    for entries in ([0, 2, -2, 3, -3], [0, 0, 1, -1, 2, -2, 3, -3]):
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
            assert_determinant_divisors(M)


# -- homology --------------------------------------------------------------------------


def test_unit_pivots_leave_no_block_on_boundary_matrices():
    for n in range(2, 6):
        for D in connected_reps(n):
            for k in range(1, D.n):
                M = boundary_matrix(D, k)
                pivoted, _, leftover = eliminate(columns(M), unit_pivots=True)
                assert leftover == [] and len(pivoted) == bareiss_rank(M)


def test_cell_complex_reads_faces_off_the_tube_table(monkeypatch):
    """With the faces and the tube table built, the boundary build makes no flood fill."""
    from graphassoc import diagram, homology as homology_module
    from graphassoc.nested import _tube_table

    C6 = cycle_diagram(6)
    _tube_table(C6)
    faces(C6, 0)
    calls = []
    fill = diagram.flood_fill
    monkeypatch.setattr(diagram, "flood_fill", lambda *args: calls.append(args) or fill(*args))
    homology_module.cell_complex.cache_clear()
    homology_module.cell_complex(C6)
    assert calls == []


def test_homology_eliminates_each_boundary_once(monkeypatch):
    """From the top dimension down, each boundary is eliminated once, on every column but
    those of the cells that unit pivots of the boundary above sat on."""
    from graphassoc import homology as homology_module

    C6 = cycle_diagram(6)
    boundaries = cell_complex(C6)[1]
    # every boundary column is nonempty, and each pivot of C6's boundaries is a unit
    ranks = [len(eliminate(cols, unit_pivots=True)[0]) for cols in boundaries] + [0]
    calls = []
    monkeypatch.setattr(homology_module, "eliminate",
                        lambda cols, **kw: calls.append((len(cols), sum(map(bool, cols))))
                        or eliminate(cols, **kw))
    assert homology(C6)[0] == (1, [])
    sizes = [len(chain_basis(C6, k)) for k in range(6)]
    assert calls == [(sizes[k], sizes[k] - ranks[k + 1]) for k in range(5, 0, -1)]


@pytest.fixture
def eliminated(monkeypatch):
    """Records (columns, invariant factors) of each boundary ``chain_homology`` eliminates."""
    from graphassoc import homology as homology_module

    seen = []

    def recording(cols):
        factors, pivot_rows = _smith(cols)
        seen.append((cols, factors))
        return factors, pivot_rows

    monkeypatch.setattr(homology_module, "_smith", recording)
    return seen


def assert_cleared_by_unit_pivots(eliminated, boundaries):
    """Each boundary was eliminated from the top down with its invariant factors, and each below
    the top without exactly the columns of the unit pivot rows of the one above, as handed over."""
    descending = boundaries[:0:-1]
    assert [factors for _, factors in eliminated] == [_smith(cols)[0] for cols in descending]
    for (cols, _), full, (above, _) in zip(eliminated[1:], descending[1:], eliminated):
        unit_rows = set(eliminate(above, unit_pivots=True)[1])
        assert [c for c, col in enumerate(cols) if not col] == sorted(unit_rows)
        assert all(col == full[c] for c, col in enumerate(cols) if c not in unit_rows)


def test_reduction_keeps_every_boundarys_invariant_factors(eliminated):
    diagrams = [D for n in range(1, 6) for D in connected_reps(n)]
    for D in diagrams + [cycle_diagram(6), complete_diagram(5)]:
        boundaries = cell_complex(D)[1]
        eliminated.clear()
        chain_homology([len(cols) for cols in boundaries], boundaries)
        assert_cleared_by_unit_pivots(eliminated, boundaries)
        # below the top, the columns cleared held entries
        assert all(sum(map(len, cols)) < sum(map(len, full))
                   for (cols, _), full in zip(eliminated[1:], boundaries[-2:0:-1]))


def simplicial_chain_complex(triangles):
    """Cell counts and boundary columns of the 2-dimensional simplicial complex on ``triangles``."""
    triangles = sorted(tuple(sorted(t)) for t in triangles)
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    vertices = sorted({v for t in triangles for v in t})
    vi = {v: i for i, v in enumerate(vertices)}
    ei = {e: i for i, e in enumerate(edges)}
    d1 = [{vi[b]: 1, vi[a]: -1} for a, b in edges]
    d2 = [{ei[b, c]: 1, ei[a, c]: -1, ei[a, b]: 1} for a, b, c in triangles]
    return [len(vertices), len(edges), len(triangles)], [[{}] * len(vertices), d1, d2]


def grid_surface(twist):
    """The 3 x 3 grid triangulation of the torus, or of the Klein bottle with ``twist``.

    Grid point (i, j) is vertex (i mod 3, j mod 3); with ``twist`` the top
    row is glued to the bottom one reflected.
    """
    def vertex(i, j):
        if twist and j == 3:
            i = -i
        return i % 3 * 3 + j % 3

    out = []
    for i in range(3):
        for j in range(3):
            out.append((vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)))
            out.append((vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1)))
    return out


# the six-vertex projective plane: the hemi-icosahedron
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
       (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]


@pytest.mark.parametrize("triangles, expected", [
    (RP2, [(1, []), (0, [2]), (0, [])]),
    (grid_surface(twist=False), [(1, []), (2, []), (1, [])]),
    (grid_surface(twist=True), [(1, []), (1, [2]), (0, [])]),
], ids=["projective-plane", "torus", "klein-bottle"])
def test_reduction_on_surfaces_with_known_homology(triangles, expected, eliminated):
    sizes, boundaries = simplicial_chain_complex(triangles)
    # a closed surface: distinct triangles, each edge on two of them
    assert len(set(map(frozenset, triangles))) == len(triangles)
    assert set(Counter(r for col in boundaries[2] for r in col).values()) == {2}
    assert chain_homology(sizes, boundaries) == expected
    assert_cleared_by_unit_pivots(eliminated, boundaries)
    # the torsion sits in a block no unit pivot reaches, whose pivots clear no column of d_1
    pivoted, _, leftover = eliminate(boundaries[2], unit_pivots=True)
    assert bool(leftover) == any(torsion for _, torsion in expected)
    assert sum(map(bool, eliminated[1][0])) == sizes[1] - len(pivoted)


def test_six_cycle_acyclic():
    H = homology(cycle_diagram(6))
    assert H[0] == (1, [])
    assert all(h == (0, []) for h in H[1:])


def test_acyclicity_sweep_exit_status(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "acyclicity_sweep.py"
    spec = importlib.util.spec_from_file_location("acyclicity_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["acyclicity_sweep.py", "4"])
    assert sweep.main() == 0
    out = capsys.readouterr().out
    assert out.count("chainmap=ok acyclic\n") == 10
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "623534775129e84d02af36097fd034a818530f95e912ae763e02564b2f23db7d")
    proved = sweep.verify_chain_map
    monkeypatch.setattr(sweep, "verify_chain_map", lambda *args: ChainMapReport(False, ["x"]))
    assert sweep.main() == 1
    assert capsys.readouterr().out.count("chainmap=FAILED UNEXPECTED\n") == 10
    monkeypatch.setattr(sweep, "verify_chain_map", proved)
    monkeypatch.setattr(sweep, "homology", lambda D: [(1, [2])] + [(0, [])] * (D.n - 1))
    assert sweep.main() == 1
    assert "UNEXPECTED" in capsys.readouterr().out


def test_homology_examples():
    assert homology(P3) == [(1, []), (0, []), (0, [])]
    assert homology(C3) == [(1, []), (0, []), (0, [])]
    assert homology(path_diagram(1)) == [(1, [])]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_acyclic_exhaustive(n):
    for D in labeled_connected(n):
        H = homology(D)
        assert H[0] == (1, [])
        assert all(h == (0, []) for h in H[1:])


def test_rank_nullity_accounting():
    for D in [P3, C3, cycle_diagram(4), path_diagram(4)]:
        counts = [len(chain_basis(D, k)) for k in range(D.n)]
        H = homology(D)
        for k in range(D.n):
            rank_k = rank(boundary_matrix(D, k)) if k >= 1 else 0
            rank_k1 = rank(boundary_matrix(D, k + 1)) if k + 1 <= D.n - 1 else 0
            assert rank_k + rank_k1 + H[k][0] == counts[k]


def test_euler_from_cells():
    for D in connected_reps(4):
        total = sum((-1) ** k * len(chain_basis(D, k)) for k in range(D.n))
        assert total == 1


def test_homology_json():
    assert homology_json(C3) == {"H": [{"betti": 1}, {"betti": 0}, {"betti": 0}]}
