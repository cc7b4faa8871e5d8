"""Random symmetry structures for the property tests."""

from hypothesis import strategies as st

from wreathlin.structure import LEAF_KINDS, Prod, Wreath, degree


@st.composite
def structure_trees(draw, leaf_degree, max_degree, depth=3):
    """Random trees over ``LEAF_KINDS`` leaves of degree 1 to ``leaf_degree``
    with at most ``max_degree`` points; one-point and intransitive factors
    included."""
    if depth == 0 or max_degree < 2 or draw(st.integers(0, 2)) == 0:
        leaf = draw(st.sampled_from(list(LEAF_KINDS)))
        return leaf(draw(st.integers(1, min(leaf_degree, max_degree))))
    first = draw(structure_trees(leaf_degree, max_degree // 2, depth - 1))
    second = draw(structure_trees(leaf_degree, max_degree // degree(first), depth - 1))
    a, b = (first, second) if draw(st.booleans()) else (second, first)
    return draw(st.sampled_from([Prod, Wreath]))(a, b)
