import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathlin.perm import (
    DegreeMismatchError,
    EnumerationLimitError,
    InvalidDegreeError,
    InvalidGeneratorError,
    PermGroup,
    cyclic_group,
    direct_product_group,
    enumerate_group,
    max_order_limit,
    orbit_labels,
    orbit_minima,
    permute_rows,
    symmetric_group,
    trivial_group,
    wreath_product_group,
)
from wreathlin.structure import Leaf, Prod, group_of, parse_structure

from memory import traced_peak
from strategies import structure_trees


def wreath_element(h: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """The permutation ``(p, q) -> (h[p], ks[h[p]][q])`` on ``P * Q`` points,
    one row at a time: the reference the broadcast generator rows are
    checked against.

    ``h`` has ``P`` entries and ``ks`` is ``(P, Q)``: row ``ks[p]`` is the
    inner permutation applied to points landing in fiber ``p``.
    """
    h, ks = np.asarray(h, dtype=np.intp), np.asarray(ks)
    return (h[:, None] * ks.shape[1] + ks[h]).ravel()


def perm_to_matrix(p: np.ndarray) -> np.ndarray:
    """The 0/1 matrix sending basis vector ``e_j`` to ``e_{p[j]}``.

    Exactly one 1 per row and per column: ``M[p[j], j] == 1``.
    """
    n = len(p)
    m = np.zeros((n, n), dtype=np.int64)
    m[p, np.arange(n)] = 1
    return m


def wreath_block_matrix(h: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Dense matrix of a wreath element assembled block by block.

    Block row ``h[p]``, block column ``p`` holds ``perm_to_matrix(ks[h[p]])``;
    every other block is zero.  Built independently of :func:`wreath_element`
    so the two constructions can be checked against each other.
    """
    P, Q = len(h), len(ks[0])
    m = np.zeros((P * Q, P * Q), dtype=np.int64)
    for p in range(P):
        dest = h[p]
        m[dest * Q:(dest + 1) * Q, p * Q:(p + 1) * Q] = perm_to_matrix(ks[dest])
    return m


def test_identity_images():
    """The identity is ``arange(n)``, the trivial group's one generator row."""
    assert trivial_group(3).generators.tolist() == [[0, 1, 2]]
    assert trivial_group(1).generators.tolist() == [[0]]


def test_identity_rejects_zero_degree():
    for n in (0, -1):
        with pytest.raises(InvalidDegreeError):
            trivial_group(n)


def test_permutation_must_be_bijection():
    with pytest.raises(InvalidGeneratorError):
        PermGroup(3, [[0, 1, 2], [0, 0, 1]])  # a repeated image


@pytest.mark.parametrize("make", [cyclic_group, symmetric_group])
@pytest.mark.parametrize("n", [0, -1])
def test_constructors_reject_degrees_below_one(make, n):
    with pytest.raises(InvalidDegreeError):
        make(n)


@pytest.mark.parametrize("n, rows, error", [
    (3, [0, 1, 2], DegreeMismatchError),  # one row, not a (k, N) array
    (3, [[0, 1]], DegreeMismatchError),  # rows of the wrong length
    (3, np.empty((0, 3), dtype=np.int64), InvalidGeneratorError),  # no generator at all
    (3, [[-1, 0, 1]], InvalidGeneratorError),
    (256, [[-1, *range(255)]], InvalidGeneratorError),  # as uint8, -1 is the missing image 255
    (3, [[0, 1, 3]], InvalidGeneratorError),  # an image beyond N - 1
    (3, [[0.0, 1.0, 2.0]], InvalidGeneratorError),  # not integers
    (3, [[True, False, True]], InvalidGeneratorError),
    (3, [[0, 1, 2], [0, 2, 2]], InvalidGeneratorError),  # an image repeated, in range
    (300, [[*range(299), 7]], InvalidGeneratorError),  # the same at a two-byte degree
    (3, [[0, 1, 2], [1, 2, 3]], InvalidGeneratorError),  # out of range in a later row
    (3, [[2 ** 63, 0, 1]], InvalidGeneratorError),  # beyond int64: read as uint64
])
def test_bad_generators_raise_one_line_value_errors(n, rows, error):
    with pytest.raises(error) as info:
        PermGroup(n, rows)
    assert isinstance(info.value, ValueError)
    assert "\n" not in str(info.value)


def test_repeated_generator_rows_keep_their_first_occurrence():
    group = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3], [0, 1, 2, 3], [1, 2, 3, 0]])
    assert group.generators.tolist() == [[1, 0, 2, 3], [1, 2, 3, 0], [0, 1, 2, 3]]


@pytest.mark.parametrize("text, rows", [
    ("S(1)", [[0]]),
    ("S(2)", [[1, 0]]),
    ("S(3)", [[1, 0, 2], [1, 2, 0]]),
    ("C(4)", [[1, 2, 3, 0]]),
    ("trivial(2)", [[0, 1]]),
    ("prod(S(2),C(3))", [[3, 4, 5, 0, 1, 2], [1, 2, 0, 4, 5, 3]]),
    ("wr(S(2),C(3))", [[2, 3, 4, 5, 0, 1], [1, 0, 2, 3, 4, 5]]),
    ("wr(S(2),trivial(2))", [[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2]]),
])
def test_generator_rows_are_pinned(text, rows):
    """Generator order sets the commutant solve's row order and the
    equivariance check's random draws, so the rows are fixed exactly."""
    generators = group_of(parse_structure(text)).generators
    assert generators.dtype == np.uint8
    assert generators.tolist() == rows


def test_wreath_rows_from_one_byte_inputs_do_not_wrap():
    """``P * Q > 256`` points from uint8 fiber and outer rows: the point
    numbers ``h[p] * Q + k[q]`` must not be computed in uint8."""
    outer, inner = cyclic_group(20), symmetric_group(15)
    assert outer.generators.dtype == inner.generators.dtype == np.uint8
    row = wreath_element(outer.generators[0], np.broadcast_to(inner.generators[1], (20, 15)))
    p, q = np.divmod(np.arange(300), 15)
    assert row.tolist() == (((p + 1) % 20) * 15 + (q + 1) % 15).tolist()
    group = wreath_product_group(symmetric_group(2), cyclic_group(130))
    rot = [((i // 2 + 1) % 130) * 2 + i % 2 for i in range(260)]
    assert group.generators.dtype == np.uint16
    assert group.generators.tolist() == [rot, [1, 0] + list(range(2, 260))]


def test_cyclic_group_generator_and_order():
    g = cyclic_group(4)
    assert g.generators.tolist() == [[1, 2, 3, 0]]
    assert len(enumerate_group(g, limit=100)) == 4
    assert len(enumerate_group(cyclic_group(1), limit=10)) == 1


def test_symmetric_group_orders():
    assert len(enumerate_group(symmetric_group(1), limit=10)) == 1
    assert len(enumerate_group(symmetric_group(3), limit=100)) == 6
    assert len(enumerate_group(symmetric_group(4), limit=100)) == 24


def test_trivial_group_enumeration():
    elems = enumerate_group(trivial_group(5), limit=10)
    assert elems.shape == (1, 5)
    assert elems.tolist() == [list(range(5))]


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
    assert elements[0].tolist() == list(range(group.degree))
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
    each level took 8.4 s, and a closure over tuple-based permutation objects 1.4 s."""
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

    def capped():
        with pytest.raises(EnumerationLimitError):
            enumerate_group(group, limit=limit)

    _, peak = traced_peak(capped)
    # about 2.8x here, bytes keys included; a whole level of images is 117x
    assert peak < 8 * limit * group.degree


def test_orbit_minima():
    assert orbit_minima(symmetric_group(4)) == [0]
    assert orbit_minima(trivial_group(3)) == [0, 1, 2]
    assert orbit_minima(direct_product_group(trivial_group(2), cyclic_group(3))) == [0, 3]
    assert orbit_minima(PermGroup(5, [[2, 1, 0, 4, 3]])) == [0, 1, 3]


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
    assert group.generators.shape == (2, 300) and group.generators.dtype == np.uint16
    assert group.generators is group.generators
    with pytest.raises(ValueError):
        group.generators[0, 0] = 1
    assert [f.name for f in dataclasses.fields(PermGroup)] == ["degree", "generators", "label"]


def test_wreath_over_intransitive_outer_spans_every_fiber():
    """The inner generators act in the first fiber of each outer point orbit,
    so every fiber carries its own copy of the inner group."""
    group = wreath_product_group(symmetric_group(3), trivial_group(2))
    elements = enumerate_group(group, limit=100)
    assert len(elements) == 6 ** 2
    s3 = enumerate_group(symmetric_group(3), limit=10)
    expected = {tuple(wreath_element(np.arange(2), np.stack([k0, k1]))) for k0 in s3 for k1 in s3}
    assert {tuple(r) for r in elements} == expected
    # trivial inner factor over C(3): only the rotations of whole fibers
    assert len(enumerate_group(wreath_product_group(trivial_group(2), cyclic_group(3)), limit=100)) == 3


def test_max_order_limit_env_override(monkeypatch):
    assert max_order_limit() == 200_000
    monkeypatch.setenv("WREATHLIN_MAX_ORDER", "123")
    assert max_order_limit() == 123


def test_perm_to_matrix_identity():
    assert np.array_equal(perm_to_matrix(np.arange(2)), np.eye(2))


def test_perm_to_matrix_is_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p, q = rng.permutation(6), rng.permutation(6)
        assert np.array_equal(perm_to_matrix(p) @ perm_to_matrix(q), perm_to_matrix(p[q]))


def test_perm_to_matrix_moves_coordinates():
    p = np.array([1, 2, 0])
    x = np.array([10.0, 20.0, 30.0])
    y = perm_to_matrix(p) @ x
    for i in range(3):
        assert y[p[i]] == x[i]


def test_permute_rows_is_the_matrix_action():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, x = rng.permutation(6), rng.normal(size=(6, 2))
        assert np.array_equal(permute_rows(p, x), perm_to_matrix(p) @ x)


def test_wreath_element_block_matrix_agreement():
    """The permutation built from (h, k_1..k_P) must match the block matrix
    assembled independently from the same data."""
    h = np.array([1, 0])
    ks = np.array([[0, 1], [1, 0]])
    g = wreath_element(h, ks)
    assert g.tolist() == [3, 2, 0, 1]
    assert np.array_equal(perm_to_matrix(g), wreath_block_matrix(h, ks))


def test_wreath_block_matrix_random_agreement():
    rng = np.random.default_rng(2)
    for _ in range(20):
        P, Q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        h = rng.permutation(P)
        ks = np.stack([rng.permutation(Q) for _ in range(P)])
        assert np.array_equal(
            perm_to_matrix(wreath_element(h, ks)), wreath_block_matrix(h, ks)
        )


def test_wreath_action_law_and_decomposition():
    """The generated wreath group is exactly the set of wreath elements
    (p, q) -> (h(p), k_{h(p)}(q)) over every outer permutation h and every
    choice of one inner permutation k per fiber."""
    inner, outer = symmetric_group(2), symmetric_group(3)
    group = {tuple(r) for r in enumerate_group(wreath_product_group(inner, outer), limit=100)}
    inner_elems = enumerate_group(inner, limit=100)
    expected = {
        tuple(wreath_element(h, np.stack(ks)))
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


def _reference_group(expr) -> PermGroup:
    """``group_of(expr)`` with each product and wreath generator row built by
    one :func:`wreath_element` call."""
    if isinstance(expr, Leaf):
        return group_of(expr)
    outer, inner = _reference_group(expr.outer), _reference_group(expr.inner)
    P, Q = outer.degree, inner.degree
    id_P, id_Q = np.arange(P), np.broadcast_to(np.arange(Q), (P, Q))
    rows = [wreath_element(h, id_Q) for h in outer.generators]
    if isinstance(expr, Prod):
        rows += [wreath_element(id_P, np.broadcast_to(k, (P, Q))) for k in inner.generators]
        return PermGroup(P * Q, np.stack(rows), label=f"({outer.label} x {inner.label})")
    for p in orbit_minima(outer):  # k in fiber p, the identity in every other fiber
        rows += [wreath_element(id_P, np.where(id_P[:, None] == p, k, id_Q)) for k in inner.generators]
    return PermGroup(P * Q, np.stack(rows), label=f"({inner.label} wr {outer.label})")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=structure_trees(5, 600))
def test_broadcast_generator_rows_match_the_per_row_reference(expr):
    """Row order is pinned, since it sets the commutant solve's work, so the
    broadcast rows must equal the per-row reference exactly, with the same
    dtype and label."""
    got, ref = group_of(expr), _reference_group(expr)
    assert got.generators.dtype == ref.generators.dtype
    assert np.array_equal(got.generators, ref.generators)
    assert got.label == ref.label
