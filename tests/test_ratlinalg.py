import random
from fractions import Fraction

from graphassoc._ratlinalg import Span, columns, eliminate, independent_columns, rank, subspace_leq
from conftest import rref


def rref_rank(M):
    return len(rref(M)[1])


def test_rank_degenerate_shapes():
    assert rank([]) == rref_rank([]) == 0
    assert rank([[], []]) == rref_rank([[], []]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[0], [Fraction(3, 2)]]) == 1
    assert eliminate(columns([[0, 0, 0]]), unit_pivots=False) == (0, [])


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
        assert eliminate(columns(M), unit_pivots=False)[1] == []


def test_unit_pivots_revisit_columns_that_gain_a_unit():
    # column 0 has no unit until column 1's pivot is eliminated from it
    assert eliminate(columns([[2, 1]]), unit_pivots=True) == (1, [])
    assert eliminate(columns([[2, 1], [3, 1]]), unit_pivots=True) == (2, [])
    # sparse columns as given, with an empty column and unused rows: the
    # pivot of column 2 takes the only unit of column 1
    assert eliminate([{}, {0: 2, 3: 1}, {3: 1}], unit_pivots=True) == (1, [[2]])


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
        assert independent_columns(family) == span.independent
        r = len(greedy)
        reduced, pivots = rref(greedy)
        assert [list(row) for row in span.rows] == reduced[:r]
        assert list(span.pivots) == pivots
        probes = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(3)]
        probes += [[sum(rng.randint(-2, 2) * v[i] for v in exact) for i in range(dim)]]
        probes += exact[:2] + [[Fraction(0)] * dim]
        for w in probes:
            assert span.contains(w) == (rref_rank(greedy + [w]) == r)
            assert subspace_leq([w], family) == span.contains(w)
        shapes.add((len(family) == 0, r == dim, r < len(family)))
    assert len(shapes) >= 5  # empty, spanning and dependent families all occur
