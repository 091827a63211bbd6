import random
from fractions import Fraction

from graphassoc._ratlinalg import columns, eliminate, rank, rref


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
