import itertools
import math

import numpy as np
import pytest

from wreathlin.perm import (
    DegreeMismatchError,
    EnumerationLimitError,
    InvalidDegreeError,
    Permutation,
    compose,
    cyclic_group,
    direct_product_group,
    enumerate_group,
    fixed_point_count,
    identity,
    inverse,
    max_order_limit,
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
    assert enumerate_group(trivial_group(5), limit=10) == [identity(5)]


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
                img = e.images[p * 3 + q]
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
            base = e.images[p * 3]
            assert all(e.images[p * 3 + q] == base + q for q in range(3))


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
    group = set(enumerate_group(wreath_product_group(inner, outer), limit=100))
    inner_elems = enumerate_group(inner, limit=100)
    expected = {
        wreath_element(h, ks)
        for h in enumerate_group(outer, limit=100)
        for ks in itertools.product(inner_elems, repeat=3)
    }
    assert group == expected
    assert len(group) == 2 ** 3 * 6


def test_direct_product_is_subgroup_of_wreath():
    inner, outer = symmetric_group(2), cyclic_group(3)
    direct = set(enumerate_group(direct_product_group(outer, inner), limit=1000))
    wreath = set(enumerate_group(wreath_product_group(inner, outer), limit=1000))
    assert direct <= wreath
    assert len(direct) == 6 and len(wreath) == 24


def test_fixed_point_count():
    assert fixed_point_count(identity(4)) == 4
    assert fixed_point_count(Permutation(images=(1, 0, 2, 3))) == 2
