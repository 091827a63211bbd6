import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from graphassoc import _ratlinalg
from graphassoc._ratlinalg import Span, columns, eliminate, product_is_zero, rank
from conftest import bareiss_rank, rref


def rref_rank(M):
    return len(rref(M)[1])


def test_rank_degenerate_shapes():
    assert rank([]) == rref_rank([]) == 0
    assert rank([[], []]) == rref_rank([[], []]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[0], [Fraction(3, 2)]]) == 1
    assert eliminate(columns([[0, 0, 0]]), unit_pivots=False) == ([], [], [])


def test_rank_matches_rref_on_random_matrices():
    rng = random.Random(3)
    for trial in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.random()

        def entry():
            if rng.random() > density:
                return 0
            if trial % 2:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return rng.randint(-3, 3)

        M = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.3:
            M[-1] = [a + 2 * b for a, b in zip(M[0], M[1])]  # a dependent row
        assert rank(M) == rref_rank(M)
        assert eliminate(columns(M), unit_pivots=False)[2] == []


def test_unit_pivots_revisit_columns_that_gain_a_unit():
    # column 0 has no unit until column 1's pivot is eliminated from it
    assert eliminate(columns([[2, 1]]), unit_pivots=True) == ([1], [0], [])
    assert eliminate(columns([[2, 1], [3, 1]]), unit_pivots=True) == ([1, 0], [0, 1], [])
    # sparse columns as given, with an empty column and unused rows: the
    # pivot of column 2 takes the only unit of column 1
    assert eliminate([{}, {0: 2, 3: 1}, {3: 1}], unit_pivots=True) == ([2], [3], [[2]])


def _random_family(rng, trial):
    """Rational vectors in Q^dim, some of them empty, zero, repeated or spanning."""
    dim = rng.randint(0, 5)
    size = rng.randint(0, 7)

    def entry():
        if rng.random() < 0.4:
            return 0
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if trial % 2 else rng.randint(-2, 2)

    family = [[entry() for _ in range(dim)] for _ in range(size)]
    if family and rng.random() < 0.3:
        family.append([0] * dim)
    if family and rng.random() < 0.3:
        family.insert(rng.randrange(len(family)), list(rng.choice(family)))
    if rng.random() < 0.2:
        family += [[int(i == j) for j in range(dim)] for i in range(dim)]
    rng.shuffle(family)
    return dim, family


def _reduced_rows(span):
    """The reduced row echelon basis of a span: each ``ints`` row divided by its pivot entry."""
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(span.ints, span.pivots)]


def test_product_is_zero_rejects_a_nonzero_product():
    """Dense and sparse: a product that cancels is zero, and one nonzero entry is seen
    in any column, the last included."""
    A = [[1, 2], [2, 4]]
    assert product_is_zero(A, [[2, -4], [-1, 2]])
    assert not product_is_zero(A, [[2, -4], [-1, 3]])
    assert not product_is_zero(A, [[1, 0], [0, 1]])
    sparse = [[0] * 6 for _ in range(5)]
    sparse[2][3], sparse[2][4] = 7, 7
    right = [[0] * 4 for _ in range(6)]
    right[3][1], right[4][1] = Fraction(1, 7), Fraction(-1, 7)
    assert product_is_zero(sparse, right)
    right[4][3] = -1
    assert not product_is_zero(sparse, right)


def test_span_matches_rref_oracle():
    rng = random.Random(17)
    shapes = set()
    for trial in range(300):
        dim, family = _random_family(rng, trial)
        span = Span(family, dim)
        exact = [[Fraction(x) for x in v] for v in family]  # the oracle divides
        greedy = []
        for v in exact:
            if rref_rank(greedy + [v]) > len(greedy):
                greedy.append(v)
        assert span.independent == tuple(map(tuple, greedy))
        r = len(greedy)
        reduced, pivots = rref(greedy)
        assert _reduced_rows(span) == reduced[:r]
        assert list(span.pivots) == pivots
        probes = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(3)]
        probes += [[sum(rng.randint(-2, 2) * v[i] for v in exact) for i in range(dim)]]
        probes += exact[:2] + [[Fraction(0)] * dim]
        for w in probes:
            assert span.contains(w) == (rref_rank(greedy + [w]) == r)
        shapes.add((len(family) == 0, r == dim, r < len(family)))
    assert len(shapes) >= 5  # empty, spanning and dependent families all occur


def test_span_ints_are_primitive_integer_multiples_of_rows():
    rng = random.Random(23)
    for trial in range(300):
        dim, family = _random_family(rng, trial)
        span = Span(family, dim)
        reduced = rref(span.independent)[0]
        assert len(span.ints) == len(reduced) == len(span.pivots)
        for ints, row, p in zip(span.ints, reduced, span.pivots):
            assert type(ints) is tuple and all(type(x) is int for x in ints)
            assert gcd(*ints) == 1 and ints[p] != 0
            assert list(ints) == [ints[p] * x for x in row]  # rows[i][p] is 1
        for c, L, terms in span.equations:
            assert all(type(x) is int for x in (c, L, *(x for term in terms for x in term)))


def test_span_contains_matches_rref_at_dim_zero_and_full_rank():
    rng = random.Random(31)
    seen = set()
    for trial in range(400):
        dim, family = _random_family(rng, trial)
        span = Span(family, dim)
        r = rref_rank(family)
        for _ in range(4):
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 0
                 for _ in range(dim)]
            assert span.contains(w) == (rref_rank(family + [w]) == r)
        assert span.contains([0] * dim)
        seen.add("dim 0" if dim == 0 else "full rank" if r == dim else "proper")
    assert seen == {"dim 0", "full rank", "proper"}


def test_span_rejects_vectors_of_the_wrong_length():
    with pytest.raises(ValueError, match="length 2 in a span of dim 1"):
        Span(((1,),), 1).contains((1, 5))
    with pytest.raises(ValueError, match="length 1 in a span of dim 2"):
        Span([[1, 2], [1]], 2)
    with pytest.raises(ValueError, match="length 1 in a span of dim 2"):
        Span([[1]], len([1, 0]))


def test_span_of_int_vectors_takes_one_lcm(monkeypatch):
    """All-int vectors skip the denominator pass: the one lcm is the equations' L."""
    vectors = [(2, 4, 0, 6), (0, 3, 3, 0), (2, 7, 3, 6), (1, 0, 0, 1)]
    calls = []
    monkeypatch.setattr(_ratlinalg, "lcm", lambda *xs: calls.append(xs) or lcm(*xs))
    span = Span(vectors, 4)
    assert len(calls) == 1
    assert span.ints == ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
    assert span.pivots == (0, 1, 2)
    assert span.equations == ((3, 1, ((0, 1), (1, 1), (2, -1))),)
    as_fractions = Span([tuple(map(Fraction, v)) for v in vectors], 4)
    assert (as_fractions.ints, as_fractions.pivots, as_fractions.equations) == (
        span.ints, span.pivots, span.equations)


def test_bareiss_rank_oracle_matches_rref():
    rng = random.Random(37)
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        entries = (0, 0, 1, -1)
        M = [[rng.choice(entries + (rng.randint(-9, 9),)) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.3:
            M[-1] = [a - 3 * b for a, b in zip(M[0], M[1])]  # a dependent row
        assert bareiss_rank(M) == rref_rank(M)


def test_rank_matches_rref_where_entries_grow():
    hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    assert rank(hilbert) == rref_rank(hilbert) == 8
    rng = random.Random(29)
    for r in range(7):
        # an m x r times an r x n product of integer matrices with entries up to 10^6
        m, n = rng.randint(r, 8), rng.randint(r, 8)
        A = [[rng.randint(-10**6, 10**6) for _ in range(r)] for _ in range(m)]
        B = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(r)]
        M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
        assert rref_rank(A) == rref_rank(B) == r  # so M has rank r
        assert rank(M) == rref_rank(M) == r
        scaled = [[Fraction(x, 7**c) for c, x in enumerate(row)] for row in M]
        assert rank(scaled) == r


def test_eliminate_leaves_fraction_columns_untouched():
    cols = [
        {0: Fraction(1, 2), 2: Fraction(-3, 4)},
        {0: Fraction(2, 3), 1: Fraction(5)},
        {2: Fraction(1)},
        {1: Fraction(3, 7), 2: Fraction(9, 2)},
    ]
    snapshot = [[(r, type(v), v) for r, v in col.items()] for col in cols]
    for unit_pivots in (False, True):
        eliminate(cols, unit_pivots)
        assert [[(r, type(v), v) for r, v in col.items()] for col in cols] == snapshot
    assert eliminate(cols, unit_pivots=False) == ([2, 0, 1], [2, 0, 1], [])


def test_span_rows_are_rref_fractions_with_large_denominators():
    rng = random.Random(41)
    for trial in range(40):
        dim = rng.randint(1, 6)

        def entry():
            if rng.random() < 0.2:
                return 0
            return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))

        family = [[entry() for _ in range(dim)] for _ in range(rng.randint(1, 6))]
        if trial % 3 == 0:
            family.append([sum(x) for x in zip(*family)])  # a dependent vector
        span = Span(family, dim)
        reduced, pivots = rref(span.independent)
        assert len(pivots) == len(span.independent) == rref_rank(family)
        assert list(span.pivots) == pivots
        assert _reduced_rows(span) == reduced[:len(pivots)]
        inputs = iter(family)  # each kept vector equals its input vector, in input order
        assert all(any(list(w) == v for v in inputs) for w in span.independent)
