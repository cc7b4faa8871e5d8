import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathlin.perm import (
    DegreeMismatchError,
    EnumerationLimitError,
    InvalidDegreeError,
    PermGroup,
    Permutation,
    compose,
    cyclic_group,
    direct_product_group,
    enumerate_group,
    identity,
    inverse,
    max_order_limit,
    orbit_labels,
    orbit_minima,
    perm_to_matrix,
    symmetric_group,
    trivial_group,
    wreath_block_matrix,
    wreath_element,
    wreath_product_group,
)


def test_identity_images():
    assert identity(3).images == (0, 1, 2)
    assert identity(1).images == (0,)


def test_identity_rejects_zero_degree():
    with pytest.raises(InvalidDegreeError):
        identity(0)


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation(images=(0, 0, 1))


def test_compose_applies_right_argument_first():
    swap = Permutation(images=(1, 0, 2))
    assert compose(swap, swap).images == (0, 1, 2)
    three_cycle = Permutation(images=(1, 2, 0))
    assert compose(three_cycle, three_cycle).images == (2, 0, 1)


def test_compose_with_identity_and_inverse():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = Permutation(images=tuple(rng.permutation(5).tolist()))
        assert compose(identity(5), p) == p
        assert compose(p, inverse(p)) == identity(5)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose(identity(3), identity(4))


def test_inverse_examples():
    assert inverse(Permutation(images=(0, 1, 2))).images == (0, 1, 2)
    assert inverse(Permutation(images=(1, 2, 0))).images == (2, 0, 1)
    p = Permutation(images=(3, 1, 0, 2))
    assert inverse(inverse(p)) == p


def test_cyclic_group_generator_and_order():
    g = cyclic_group(4)
    assert g.generators[0].images == (1, 2, 3, 0)
    assert len(enumerate_group(g, limit=100)) == 4
    assert len(enumerate_group(cyclic_group(1), limit=10)) == 1


def test_symmetric_group_orders():
    assert len(enumerate_group(symmetric_group(1), limit=10)) == 1
    assert len(enumerate_group(symmetric_group(3), limit=100)) == 6
    assert len(enumerate_group(symmetric_group(4), limit=100)) == 24


def test_trivial_group_enumeration():
    elems = enumerate_group(trivial_group(5), limit=10)
    assert elems.shape == (1, 5)
    assert {tuple(r) for r in elems} == {identity(5).images}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_orders_of_primitives(n):
    assert len(enumerate_group(cyclic_group(n), limit=1000)) == n
    assert len(enumerate_group(symmetric_group(n), limit=1000)) == math.factorial(n)


def test_direct_product_orders():
    g = direct_product_group(cyclic_group(2), cyclic_group(2))
    assert g.degree == 4
    assert len(g.generators) == 2
    assert len(enumerate_group(g, limit=100)) == 4
    big = direct_product_group(symmetric_group(3), symmetric_group(4))
    assert len(enumerate_group(big, limit=1000)) == 144


def test_direct_product_with_trivial_factor_acts_within_fibers():
    g = direct_product_group(trivial_group(2), symmetric_group(3))
    elems = enumerate_group(g, limit=100)
    assert len(elems) == 6
    for e in elems:
        for p in range(2):
            for q in range(3):
                img = e[p * 3 + q]
                assert img // 3 == p  # fiber never changes


def test_wreath_product_orders():
    g = wreath_product_group(cyclic_group(2), cyclic_group(2))
    assert len(enumerate_group(g, limit=100)) == 8
    g2 = wreath_product_group(symmetric_group(2), symmetric_group(3))
    assert len(enumerate_group(g2, limit=100)) == 48


def test_wreath_with_trivial_inner_is_block_permutation():
    g = wreath_product_group(trivial_group(3), symmetric_group(2))
    elems = enumerate_group(g, limit=100)
    assert len(elems) == 2
    for e in elems:
        # whole fibers move rigidly
        for p in range(2):
            base = e[p * 3]
            assert all(e[p * 3 + q] == base + q for q in range(3))


@pytest.mark.parametrize(
    "inner_n,outer_n",
    [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3)],
)
def test_wreath_order_formula(inner_n, outer_n):
    if inner_n * outer_n > 12:
        pytest.skip("degree beyond the checked range")
    g = wreath_product_group(symmetric_group(inner_n), symmetric_group(outer_n))
    expected = math.factorial(inner_n) ** outer_n * math.factorial(outer_n)
    assert len(enumerate_group(g, limit=200_000)) == expected


def test_enumeration_limit_error():
    with pytest.raises(EnumerationLimitError):
        enumerate_group(cyclic_group(7), limit=5)


@pytest.mark.parametrize("group, order", [
    (symmetric_group(5), 120),
    (cyclic_group(7), 7),
    (trivial_group(3), 1),
    (wreath_product_group(symmetric_group(3), trivial_group(2)), 36),
])
def test_enumeration_at_the_limit(group, order):
    """A group of order exactly ``limit`` enumerates; one element less raises."""
    elements = enumerate_group(group, limit=order)
    assert elements.shape == (order, group.degree)
    assert len({tuple(r) for r in elements}) == order
    assert tuple(elements[0]) == identity(group.degree).images
    if order > 1:
        with pytest.raises(EnumerationLimitError):
            enumerate_group(group, limit=order - 1)


def test_enumeration_rows_hold_images_beyond_one_byte():
    """The row dtype grows with the degree, so large images are not wrapped."""
    for n in (255, 256, 70_000):
        elements = enumerate_group(trivial_group(n), limit=1)
        assert elements.shape == (1, n)
        assert np.array_equal(elements[0], np.arange(n))
    rot = enumerate_group(cyclic_group(300), limit=300)
    assert {tuple(r) for r in rot} == {tuple(np.roll(np.arange(300), -k)) for k in range(300)}


def test_deep_closure_costs_one_lookup_per_element():
    """``C(n)`` is n breadth-first levels deep; each row is compared by hash,
    not against every row seen so far.  On a 2-core machine ``C(2000)``
    takes about 0.04 s; a closure that re-scans and copies every row seen at
    each level took 8.4 s, and a closure over ``Permutation`` objects 1.4 s."""
    n = 2000
    start = time.perf_counter()
    rot = enumerate_group(cyclic_group(n), limit=n)
    elapsed = time.perf_counter() - start
    assert np.array_equal(rot, (np.arange(n)[:, None] + np.arange(n)) % n)  # row k is the k-th power
    assert elapsed < 2.0


def test_capped_enumeration_stops_near_the_limit():
    """An over-cap group raises within about one generator's images of the
    limit: the closure never builds a whole level of every generator first.
    ``wr(S(2),trivial(64))`` has 65 generators and order 2**64."""
    group = wreath_product_group(symmetric_group(2), trivial_group(64))
    limit = 5000
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError):
            enumerate_group(group, limit=limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 2.8x here, bytes keys included; a whole level of images is 117x
    assert peak < 8 * limit * group.degree


def test_orbit_minima():
    assert orbit_minima(symmetric_group(4)) == [0]
    assert orbit_minima(trivial_group(3)) == [0, 1, 2]
    assert orbit_minima(direct_product_group(trivial_group(2), cyclic_group(3))) == [0, 3]
    assert orbit_minima(PermGroup(5, (Permutation((2, 1, 0, 4, 3)),))) == [0, 1, 3]


def _orbit_closure_minima(rows, m):
    """Least point of each point's orbit, by closing each point's orbit."""
    labels = []
    for start in range(m):
        orbit, frontier = {start}, [start]
        while frontier:
            frontier = {row[p] for row in rows for p in frontier} - orbit
            orbit.update(frontier)
        labels.append(min(orbit))
    return labels


def _long_cycle(order):
    """One cycle through all points, visiting them in ``order``."""
    images = [0] * len(order)
    for a, b in zip(order, order[1:] + order[:1]):
        images[a] = b
    return images


@st.composite
def generator_rows(draw):
    m = draw(st.integers(1, 30))
    rows = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append(_long_cycle(draw(st.permutations(range(m)))))
    return [list(r) for r in rows], m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows_m=generator_rows())
def test_orbit_labels_match_orbit_closure(rows_m):
    rows, m = rows_m
    expected = _orbit_closure_minima(rows, m)
    assert orbit_labels(np.array(rows)).tolist() == expected
    # rows may also arrive one at a time
    assert orbit_labels(np.array(r) for r in rows).tolist() == expected


def test_orbit_labels_across_chunks_of_a_long_row():
    """Two cycles of 20,000 points each: union-find follows each cycle across
    every chunk boundary of the row."""
    m = 40_000
    rows = np.array([(np.arange(m) + 2) % m])
    assert np.array_equal(orbit_labels(rows), np.arange(m) % 2)


def test_group_images_are_one_read_only_array():
    group = symmetric_group(300)
    assert group.images.shape == (2, 300) and group.images.dtype == np.uint16
    assert group.images is group.images
    assert [tuple(r) for r in group.images.tolist()] == [g.images for g in group.generators]
    with pytest.raises(ValueError):
        group.images[0, 0] = 1


def test_wreath_over_intransitive_outer_spans_every_fiber():
    """The inner generators act in the first fiber of each outer point orbit,
    so every fiber carries its own copy of the inner group."""
    group = wreath_product_group(symmetric_group(3), trivial_group(2))
    elements = enumerate_group(group, limit=100)
    assert len(elements) == 6 ** 2
    s3 = [Permutation(tuple(r)) for r in enumerate_group(symmetric_group(3), limit=10)]
    expected = {wreath_element(identity(2), [k0, k1]).images for k0 in s3 for k1 in s3}
    assert {tuple(r) for r in elements} == expected
    # trivial inner factor over C(3): only the rotations of whole fibers
    assert len(enumerate_group(wreath_product_group(trivial_group(2), cyclic_group(3)), limit=100)) == 3


def test_max_order_limit_env_override(monkeypatch):
    assert max_order_limit() == 200_000
    monkeypatch.setenv("WREATHLIN_MAX_ORDER", "123")
    assert max_order_limit() == 123


def test_perm_to_matrix_identity():
    assert np.array_equal(perm_to_matrix(identity(2)), np.eye(2))


def test_perm_to_matrix_is_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = Permutation(images=tuple(rng.permutation(6).tolist()))
        q = Permutation(images=tuple(rng.permutation(6).tolist()))
        assert np.array_equal(
            perm_to_matrix(p) @ perm_to_matrix(q), perm_to_matrix(compose(p, q))
        )


def test_perm_to_matrix_moves_coordinates():
    p = Permutation(images=(1, 2, 0))
    x = np.array([10.0, 20.0, 30.0])
    y = perm_to_matrix(p) @ x
    for i in range(3):
        assert y[p.images[i]] == x[i]


def test_wreath_element_block_matrix_agreement():
    """The permutation built from (h, k_1..k_P) must match the block matrix
    assembled independently from the same data."""
    swap = Permutation(images=(1, 0))
    e = identity(2)
    h = swap
    ks = (e, swap)
    g = wreath_element(h, ks)
    assert g.images == (3, 2, 0, 1)
    assert np.array_equal(perm_to_matrix(g), wreath_block_matrix(h, ks))


def test_wreath_block_matrix_random_agreement():
    rng = np.random.default_rng(2)
    for _ in range(20):
        P, Q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        h = Permutation(images=tuple(rng.permutation(P).tolist()))
        ks = tuple(
            Permutation(images=tuple(rng.permutation(Q).tolist())) for _ in range(P)
        )
        assert np.array_equal(
            perm_to_matrix(wreath_element(h, ks)), wreath_block_matrix(h, ks)
        )


def test_wreath_action_law_and_decomposition():
    """The generated wreath group is exactly the set of wreath elements
    (p, q) -> (h(p), k_{h(p)}(q)) over every outer permutation h and every
    choice of one inner permutation k per fiber."""
    inner, outer = symmetric_group(2), symmetric_group(3)
    group = {tuple(r) for r in enumerate_group(wreath_product_group(inner, outer), limit=100)}
    inner_elems = [Permutation(tuple(r)) for r in enumerate_group(inner, limit=100)]
    expected = {
        wreath_element(Permutation(tuple(h)), ks).images
        for h in enumerate_group(outer, limit=100)
        for ks in itertools.product(inner_elems, repeat=3)
    }
    assert group == expected
    assert len(group) == 2 ** 3 * 6


def test_direct_product_is_subgroup_of_wreath():
    inner, outer = symmetric_group(2), cyclic_group(3)
    direct = {tuple(r) for r in enumerate_group(direct_product_group(outer, inner), limit=1000)}
    wreath = {tuple(r) for r in enumerate_group(wreath_product_group(inner, outer), limit=1000)}
    assert direct <= wreath
    assert len(direct) == 6 and len(wreath) == 24

