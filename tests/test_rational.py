import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathlin.rational import _eliminate, _reduce_against, nullspace, rref


def _row(*pairs):
    return dict(pairs)


def test_rank_of_independent_rows():
    rows = [_row((0, 1), (1, 2)), _row((1, 1), (2, 3))]
    assert len(rref(rows)) == 2


def test_rank_detects_dependence():
    rows = [_row((0, 1), (1, -1)), _row((0, -2), (1, 2)), _row((1, 1), (2, -1)), _row((0, 1), (2, -1))]
    assert len(rref(rows)) == 2


def test_rref_normalizes_pivots():
    reduced = rref([_row((0, -1), (1, 4))])
    assert set(reduced) == {0}
    assert reduced[0] == {0: 1, 1: -4}


def test_rref_rejects_a_non_unit_pivot():
    # the second row reduces to {1: -2}, whose pivot 2 has no integer inverse
    with pytest.raises(ArithmeticError):
        rref([_row((0, 1), (1, 2)), _row((0, 1))])


def test_nullspace_of_empty_system_is_full_space():
    vecs = nullspace([], 3)
    assert vecs == [{0: 1}, {1: 1}, {2: 1}]


def test_nullspace_vectors_satisfy_system():
    # x0 = x1, x2 = 3 x3 over 4 unknowns
    rows = [_row((0, 1), (1, -1)), _row((2, 1), (3, -3))]
    vecs = nullspace(rows, 4)
    assert len(vecs) == 2
    for v in vecs:
        x = [v.get(c, 0) for c in range(4)]
        assert x[0] - x[1] == 0
        assert x[2] - 3 * x[3] == 0


def test_nullspace_exactness_avoids_float_pitfalls():
    # x0 = k x1 and x1 = k x2 with k = 10**20: the vector's x0 is k**2 = 10**40,
    # which a float holds only to 16 digits
    k = 10**20
    rows = [_row((0, 1), (1, -k)), _row((1, 1), (2, -k))]
    vecs = nullspace(rows, 3)
    assert vecs == [{2: 1, 0: k * k, 1: k}]
    assert all(isinstance(v, int) for v in vecs[0].values())


def test_nullspace_rank_nullity():
    rows = [_row((i, 1), (i + 1, -1)) for i in range(5)]
    assert len(rref(rows)) == 5
    assert len(nullspace(rows, 6)) == 1


def _components(edges, n):
    """Connected components of the graph on ``0..n-1`` with the given edges,
    by repeated relabelling to the least neighbour label."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return {frozenset(c for c in range(n) if label[c] == root) for root in set(label)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()), max_size=3 * n))))
def test_difference_rows_reduce_to_unit_coefficients_and_component_indicators(system):
    """Rows ``x_a - x_b`` (either sign, any order): every reduced coefficient
    is -1, 0 or 1, every nullspace vector is 0/1, and the vectors' supports
    are the connected components of the graph whose edges are the rows."""
    n, draws = system
    edges = [(a, b) for a, b, _ in draws if a != b]
    rows = [{a: 1, b: -1} if flip else {a: -1, b: 1} for a, b, flip in draws if a != b]
    for prow in rref(rows).values():
        assert set(prow.values()) <= {-1, 1}
    vecs = nullspace(rows, n)
    assert all(set(v.values()) == {1} for v in vecs)
    supports = [frozenset(v) for v in vecs]
    assert sum(map(len, supports)) == n
    assert set(supports) == _components(edges, n)


def _rref_scanning_every_pivot_row(rows):
    """Reference: the same Gauss-Jordan, back-substituting each new pivot by
    scanning every earlier pivot row for its column."""
    pivots = {}
    for row in rows:
        r = _reduce_against(row, pivots)
        if not r:
            continue
        p = min(r)
        if r[p] == -1:
            r = {c: -v for c, v in r.items()}
        elif r[p] != 1:
            raise ArithmeticError(f"pivot {r[p]} in column {p} is not 1 or -1")
        for prow in pivots.values():
            if p in prow:
                _eliminate(prow, p, r)
        pivots[p] = r
    return pivots


def _reduced_or_error(rows, solve):
    try:
        return [(p, list(r.items())) for p, r in solve(rows).items()]
    except ArithmeticError:
        return "ArithmeticError"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.dictionaries(st.integers(0, n - 1), st.sampled_from([-1, 1]), min_size=1), max_size=2 * n)))
def test_back_substitution_by_column_index_matches_scanning_every_row(rows):
    """The column index changes which rows are visited, not what they hold:
    on rows of -1 and 1, whose eliminations can cancel entries, pivots and
    rows agree with the reference, key order included, or both raise."""
    assert _reduced_or_error(rows, rref) == _reduced_or_error(rows, _rref_scanning_every_pivot_row)
