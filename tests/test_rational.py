from fractions import Fraction

from wreathlin.rational import nullspace, rref

F = Fraction


def _row(*pairs):
    return {i: F(v) for i, v in pairs}


def test_rank_of_independent_rows():
    rows = [_row((0, 1), (1, 2)), _row((1, 1), (2, 3))]
    assert len(rref(rows)) == 2


def test_rank_detects_dependence():
    rows = [_row((0, 1), (1, 2)), _row((0, 2), (1, 4)), _row((0, 1))]
    assert len(rref(rows)) == 2


def test_rref_normalizes_pivots():
    reduced = rref([_row((0, 2), (1, 4))])
    assert set(reduced) == {0}
    assert reduced[0] == {0: F(1), 1: F(2)}


def test_nullspace_of_empty_system_is_full_space():
    vecs = nullspace([], 3)
    assert vecs == [{0: F(1)}, {1: F(1)}, {2: F(1)}]


def test_nullspace_vectors_satisfy_system():
    # x0 = x1, x2 = 3 x3 over 4 unknowns
    rows = [_row((0, 1), (1, -1)), _row((2, 1), (3, -3))]
    vecs = nullspace(rows, 4)
    assert len(vecs) == 2
    for v in vecs:
        x = [v.get(c, F(0)) for c in range(4)]
        assert x[0] - x[1] == 0
        assert x[2] - 3 * x[3] == 0


def test_nullspace_exactness_avoids_float_pitfalls():
    # scaled tying constraints that would accumulate error in floating point
    rows = [
        _row((0, F(1, 3)), (1, F(-1, 3))),
        _row((1, F(1, 7)), (2, F(-1, 7))),
    ]
    vecs = nullspace(rows, 3)
    assert vecs == [{0: F(1), 1: F(1), 2: F(1)}]


def test_nullspace_rank_nullity():
    rows = [_row((i, 1), (i + 1, -1)) for i in range(5)]
    assert len(rref(rows)) == 5
    assert len(nullspace(rows, 6)) == 1
