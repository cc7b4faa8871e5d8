from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathlin import rational
from wreathlin.basis import (
    DegreeTooLargeError,
    SharingPattern,
    burnside_count,
    commutant_basis,
    commutes_exactly,
    constant_on_orbits,
    materialize,
    orbit_grid,
    orbit_index,
    orbit_pattern,
    pattern_csv,
    pattern_of_structure,
    pattern_pgm,
    pattern_summary,
    point_orbit,
)
from wreathlin.perm import (
    EnumerationLimitError,
    cyclic_group,
    enumerate_group,
    orbit_minima,
    symmetric_group,
    trivial_group,
    wreath_product_group,
)
from wreathlin.layer import apply, apply_dense, random_layer
from wreathlin.structure import (
    Prod,
    Wreath,
    degree,
    group_of,
    group_order,
    orbit_counts,
    param_count,
    parse_structure,
)

from memory import traced_left, traced_peak
from strategies import structure_trees


def P(text):
    return pattern_of_structure(parse_structure(text))


def test_sharing_pattern_validates_canonical_form():
    with pytest.raises(ValueError):
        SharingPattern(orbit_id=np.array([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="contiguous"):
        SharingPattern(orbit_id=np.array([[0, -1], [1, 0]]))  # a negative id
    with pytest.raises(ValueError, match="contiguous"):
        SharingPattern(orbit_id=np.array([[0, 2], [2, 0]]))  # a gap: no 1
    with pytest.raises(ValueError, match="square"):
        SharingPattern(orbit_id=np.array([[0, 1, 1], [1, 0, 1]]))
    assert SharingPattern(orbit_id=np.array([[0, 1], [1, 0]])).num_orbits == 2


def sorted_canonical_form_error(ids):
    """The sort-based definition of a canonical id matrix: its distinct ids
    are exactly ``0 .. k-1`` for some ``k``, and they first occur in that order.
    Returns the message a non-canonical matrix is rejected with, or ``None``."""
    uniq, first = np.unique(ids.ravel(), return_index=True)
    if not np.array_equal(uniq, np.arange(len(uniq))):
        return "orbit ids must be contiguous 0..num_orbits-1"
    if np.any(np.diff(first) <= 0):
        return "orbit ids must be canonical (first occurrence increasing)"
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(0, 4), data=st.data())
def test_sharing_pattern_accepts_exactly_the_canonical_matrices(n, data):
    values = data.draw(st.lists(st.integers(-1, 5), min_size=n * n, max_size=n * n))
    ids = np.array(values, dtype=np.int64).reshape(n, n)
    if data.draw(st.booleans()):  # relabel by first occurrence, so canonical matrices come up
        _, first, inverse = np.unique(ids.ravel(), return_index=True, return_inverse=True)
        ids = np.argsort(np.argsort(first))[inverse].reshape(n, n)
    expected = sorted_canonical_form_error(ids)
    if expected is None:
        pattern = SharingPattern(orbit_id=ids)
        assert np.array_equal(pattern.orbit_id, ids)
        assert pattern.num_orbits == len(np.unique(ids))
    else:
        with pytest.raises(ValueError) as info:
            SharingPattern(orbit_id=ids)
        assert str(info.value) == expected


def test_orbit_pattern_symmetric_group():
    pat = orbit_pattern(symmetric_group(4))
    assert pat.num_orbits == 2
    ids = pat.orbit_id
    assert all(ids[i, i] == 0 for i in range(4))
    assert all(ids[i, j] == 1 for i in range(4) for j in range(4) if i != j)


def test_orbit_pattern_trivial_group_has_no_tying():
    assert orbit_pattern(trivial_group(3)).num_orbits == 9


def test_orbit_pattern_cyclic_is_circulant():
    pat = orbit_pattern(cyclic_group(4))
    assert pat.num_orbits == 4
    ids = pat.orbit_id
    for i in range(4):
        for j in range(4):
            assert ids[i, j] == ids[(i + 1) % 4, (j + 1) % 4]
    assert list(ids[0]) == [0, 1, 2, 3]


def test_orbit_pattern_hierarchy_of_sets():
    group = wreath_product_group(symmetric_group(4), symmetric_group(3))
    assert orbit_pattern(group).num_orbits == 3


def test_burnside_counts():
    assert burnside_count(enumerate_group(wreath_product_group(symmetric_group(2), symmetric_group(3)), limit=100)) == 3
    assert burnside_count(enumerate_group(trivial_group(3), limit=100)) == 9
    assert burnside_count(enumerate_group(cyclic_group(2), limit=100)) == 2


def test_burnside_respects_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        burnside_count(enumerate_group(symmetric_group(4), limit=10))


def test_kron_pattern_counts():
    assert P("prod(S(3),S(4))").num_orbits == 4
    assert P("prod(C(3),C(4))").num_orbits == 12


def test_kron_with_one_point_factor_is_identity():
    s3 = orbit_pattern(symmetric_group(3))
    assert P("prod(trivial(1),S(3))") == s3
    assert P("prod(S(3),trivial(1))") == s3


def test_wreath_pattern_counts():
    assert P("wr(S(4),S(3))").num_orbits == 3
    assert P("wr(C(3),C(4))").num_orbits == 6
    assert P("wr(S(3),C(4))").num_orbits == 5


def test_wreath_pattern_block_layout():
    ids = P("wr(S(2),S(3))").orbit_id
    # diagonal blocks repeat one shared inner pattern
    assert np.array_equal(ids[0:2, 0:2], ids[2:4, 2:4])
    assert np.array_equal(ids[0:2, 0:2], ids[4:6, 4:6])
    # each off-diagonal block is constant
    for p in range(3):
        for r in range(3):
            if p != r:
                block = ids[p * 2:(p + 1) * 2, r * 2:(r + 1) * 2]
                assert len(np.unique(block)) == 1


def test_commutant_basis_sizes():
    assert len(commutant_basis(symmetric_group(4))) == 2
    assert len(commutant_basis(trivial_group(2))) == 4
    assert len(commutant_basis(wreath_product_group(symmetric_group(2), cyclic_group(2)))) == 3
    assert len(commutant_basis(wreath_product_group(symmetric_group(2), symmetric_group(3)))) == 3


def test_commutant_basis_elements_commute_exactly():
    group = wreath_product_group(symmetric_group(2), cyclic_group(3))
    basis = commutant_basis(group)
    assert basis.shape == (4, 6, 6) and basis.dtype == np.int64
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 2
    for mat in basis:
        for g in group.generators:
            assert commutes_exactly(mat, g)


def test_commutant_basis_degree_guard():
    with pytest.raises(DegreeTooLargeError):
        commutant_basis(trivial_group(65))


def test_commutant_basis_holds_each_vector_once():
    """Sparse nullspace vectors are written straight into the basis array,
    so the peak is near the array's own size; dense vector lists held beside
    the arrays made it 2.2 times that."""
    basis, peak = traced_peak(lambda: commutant_basis(trivial_group(16)))
    assert len(basis) == 256
    assert peak < 1.5 * basis.nbytes


def test_materialize_identity_and_zero():
    s2 = orbit_pattern(symmetric_group(2))
    assert np.array_equal(materialize(s2, np.array([1.0, 0.0])), np.eye(2))
    assert np.array_equal(materialize(s2, np.zeros(2)), np.zeros((2, 2)))


def test_materialize_commutes_with_generators():
    rng = np.random.default_rng(0)
    for text in ["S(4)", "C(4)", "wr(S(3),S(2))", "prod(C(2),S(3))"]:
        expr = parse_structure(text)
        pat = pattern_of_structure(expr)
        w = materialize(pat, rng.normal(size=pat.num_orbits))
        for g in group_of(expr).generators:
            assert commutes_exactly(w, g)


def test_materialize_rejects_wrong_length():
    with pytest.raises(ValueError):
        materialize(orbit_pattern(symmetric_group(2)), np.zeros(3))


def test_pattern_of_structure_examples():
    assert P("wr(S(4),S(3))").num_orbits == 3
    assert P("wr(wr(S(2),C(2)),C(2))").num_orbits == 4
    assert P("wr(prod(C(2),C(2)),prod(S(2),S(2)))").num_orbits == 7


def test_pattern_matches_generator_orbits():
    for text in [
        "S(3)",
        "C(4)",
        "trivial(2)",
        "prod(S(3),S(4))",
        "prod(C(4),C(3))",
        "wr(S(4),S(3))",
        "wr(C(3),C(4))",
        "wr(S(2),C(2))",
        "wr(wr(S(2),C(2)),C(2))",
        "prod(S(2),wr(S(2),S(2)))",
    ]:
        expr = parse_structure(text)
        assert pattern_of_structure(expr) == orbit_pattern(group_of(expr)), text


def _leaves(expr):
    if isinstance(expr, (Prod, Wreath)):
        return _leaves(expr.outer) + _leaves(expr.inner)
    return [expr]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expr=structure_trees(4, 256), seed=st.integers(0, 2**16))
def test_structure_orbit_count_agrees_with_pattern(expr, seed):
    pattern = pattern_of_structure(expr)
    rows, cols, rank = orbit_index(expr)
    _, first = np.unique(pattern.orbit_id.ravel(), return_index=True)
    first_rows, first_cols = np.divmod(first, pattern.n)
    assert np.array_equal(rows, first_rows) and np.array_equal(cols, first_cols)
    assert np.array_equal(orbit_grid(expr)[rows, cols], np.arange(pattern.num_orbits))
    assert sorted(rank) == list(range(pattern.num_orbits))
    assert param_count(expr) == pattern.num_orbits
    for leaf in _leaves(expr):
        assert pattern_of_structure(leaf) == orbit_pattern(group_of(leaf))
    layer = random_layer(expr, 2, 3, np.random.default_rng(seed), bias=True)
    x = np.random.default_rng(seed + 1).standard_normal((layer.degree, 2))
    np.testing.assert_allclose(apply(layer, x), apply_dense(layer, x), rtol=0, atol=1e-10)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(expr=structure_trees(4, 40))
def test_closed_form_pattern_matches_generator_orbits(expr):
    """The closed form against union-find over the generators, on random
    trees with intransitive factors anywhere; against Burnside where the
    group has at most 200,000 elements, and against the commutant oracle at
    degree 24 or less: its dimension, and every basis matrix constant on the
    closed-form orbits.  ``apply`` still matches ``apply_dense``."""
    pattern = pattern_of_structure(expr)
    group = group_of(expr)
    assert pattern == orbit_pattern(group)
    assert param_count(expr) == pattern.num_orbits
    if group_order(expr) <= 200_000:
        assert burnside_count(enumerate_group(group, limit=200_000)) == pattern.num_orbits
    if degree(expr) <= 24:
        basis = commutant_basis(group)
        assert len(basis) == pattern.num_orbits and all(constant_on_orbits(b, pattern) for b in basis)
    layer = random_layer(expr, 2, 2, np.random.default_rng(0), bias=True)
    x = np.random.default_rng(1).standard_normal((layer.degree, 2))
    np.testing.assert_allclose(apply(layer, x), apply_dense(layer, x), rtol=0, atol=1e-10)


@pytest.mark.parametrize("text, count", [("wr(trivial(2),C(3))", 12), ("wr(S(3),trivial(2))", 6)])
def test_closed_form_pattern_with_intransitive_factor_under_wreath(text, count):
    expr = parse_structure(text)
    assert pattern_of_structure(expr) == orbit_pattern(group_of(expr))
    assert pattern_of_structure(expr).num_orbits == param_count(expr) == count


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expr=structure_trees(4, 40))
def test_enumeration_matches_closed_form_group_order(expr):
    limit = 5_000
    order = group_order(expr)
    if order <= limit:
        elements = enumerate_group(group_of(expr), limit)
        assert len(elements) == order
        assert len({tuple(r) for r in elements}) == order
    else:
        with pytest.raises(EnumerationLimitError):
            enumerate_group(group_of(expr), limit)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expr=structure_trees(4, 40))
@example(expr=parse_structure("S(3)"))
@example(expr=parse_structure("trivial(3)"))
@example(expr=parse_structure("wr(S(3),trivial(2))"))
@example(expr=parse_structure("wr(trivial(2),C(3))"))
@example(expr=parse_structure("prod(trivial(2),wr(C(2),trivial(2)))"))
@example(expr=parse_structure("wr(prod(trivial(2),S(2)),prod(trivial(2),C(2)))"))
def test_point_orbit_matches_generator_orbits(expr):
    ids = point_orbit(expr)
    assert ids.dtype == np.int64 and not ids.flags.writeable
    # numbered by least point, and constant exactly on the generators' orbits
    assert np.array_equal(np.unique(ids, return_index=True)[1], orbit_minima(group_of(expr)))
    for g in group_of(expr).generators:
        assert np.array_equal(ids[g], ids)
    assert ids.max() + 1 == len(orbit_minima(group_of(expr))) == orbit_counts(expr)[0]


def test_patterns_leave_only_the_latest_behind():
    """Twelve patterns of ``S(1000)`` to ``S(1011)`` leave one 7.8 MiB pattern
    traced, the last; a cache of 32 kept all twelve, 92.6 MiB."""
    def twelve_patterns():
        for n in range(1000, 1012):
            pattern_of_structure(parse_structure(f"S({n})"))

    assert traced_left(twelve_patterns) < 9 * 2 ** 20


def test_apply_builds_no_pattern():
    expr = parse_structure("wr(S(2),S(1024))")
    pattern_of_structure.cache_clear()
    layer = random_layer(expr, 2, 2, np.random.default_rng(0))
    apply(layer, np.ones((layer.degree, 2)))
    assert pattern_of_structure.cache_info().misses == 0


def test_hierarchy_commutant_within_componentwise_commutant():
    """Maps equivariant to the hierarchy group are in particular equivariant
    to the componentwise subgroup: every hierarchy commutant basis matrix is
    constant on the orbits of the componentwise pattern."""
    pairs = [("S(2)", "S(3)"), ("C(3)", "C(2)"), ("S(2)", "C(3)")]
    for inner_text, outer_text in pairs:
        direct = P(f"prod({outer_text},{inner_text})")
        inner_grp = group_of(parse_structure(inner_text))
        outer_grp = group_of(parse_structure(outer_text))
        for mat in commutant_basis(wreath_product_group(inner_grp, outer_grp)):
            assert constant_on_orbits(mat, direct)


def _reference_commutant_rows(group):
    """The commutation rows as a per-entry walk lists them: one ``x_a - x_b``
    per unordered pair ``{a, b}``, at its first occurrence, generator major."""
    n = group.degree
    rows, seen = [], set()
    for g in group.generators:
        img = g.tolist()
        for i in range(n):
            for j in range(n):
                a, b = i * n + j, img[i] * n + img[j]
                key = (min(a, b), max(a, b))
                if a != b and key not in seen:
                    seen.add(key)
                    rows.append({a: 1, b: -1})
    return rows


# the structures of the benchmark's verify workload
VERIFY_SUITE = ["wr(S(4),S(3))", "wr(S(3),S(5))", "wr(S(8),S(8))", "prod(C(6),C(8))", "S(5)", "C(7)",
                "prod(S(3),C(4))", "wr(C(3),S(2))", "wr(trivial(2),C(3))", "wr(S(3),trivial(2))"]


@pytest.mark.parametrize("text", VERIFY_SUITE)
def test_commutant_rows_keep_the_per_entry_order(monkeypatch, text):
    """The integer solve's work depends on its row order, so the vectorised
    row builder must hand ``nullspace`` the very list the per-entry walk did."""
    group = group_of(parse_structure(text))
    seen = []
    monkeypatch.setattr(rational, "nullspace", lambda rows, n_cols: seen.append(rows) or [])
    commutant_basis(group)
    expected = _reference_commutant_rows(group)
    assert [list(r.items()) for r in seen[0]] == [list(r.items()) for r in expected]


def _reference_constant_on_orbits(matrix, pattern):
    """The per-entry walk: each orbit's first value, then every later entry."""
    values = {}
    for o, v in zip(pattern.orbit_id.ravel().tolist(), matrix.ravel().tolist()):
        if values.setdefault(o, v) != v:
            return False
    return True


@pytest.mark.parametrize("text", ["S(4)", "C(5)", "trivial(3)", "wr(S(2),C(3))", "wr(S(3),trivial(2))"])
def test_constant_on_orbits_matches_the_per_entry_walk(text):
    pattern = P(text)
    rng = np.random.default_rng(3)
    tied = materialize(pattern, rng.integers(0, 3, pattern.num_orbits).astype(float))
    assert constant_on_orbits(tied, pattern) and _reference_constant_on_orbits(tied, pattern)
    for _ in range(20):
        changed = tied.copy()
        changed[tuple(rng.integers(0, pattern.n, 2))] += rng.integers(0, 2)
        assert constant_on_orbits(changed, pattern) == _reference_constant_on_orbits(changed, pattern)


def test_constant_on_orbits_is_exact_for_fractions():
    s2 = orbit_pattern(symmetric_group(2))
    third = Fraction(1, 3)
    good = np.array([[third, Fraction(2)], [Fraction(2), Fraction(1, 3)]], dtype=object)
    bad = np.array([[third, Fraction(2)], [Fraction(2), Fraction(1, 3) + Fraction(1, 10**30)]], dtype=object)
    assert constant_on_orbits(good, s2)
    assert not constant_on_orbits(bad, s2)


def test_constant_on_orbits_detects_violation():
    s2 = orbit_pattern(symmetric_group(2))
    good = np.array([[5.0, 2.0], [2.0, 5.0]])
    bad = np.array([[5.0, 2.0], [3.0, 5.0]])
    assert constant_on_orbits(good, s2)
    assert not constant_on_orbits(bad, s2)


def test_pattern_csv_golden():
    assert pattern_csv(P("S(3)")) == "0,1,1\n1,0,1\n1,1,0\n"


def test_pattern_pgm_golden():
    text = pattern_pgm(P("S(2)"))
    assert text == "P2\n2 2\n255\n0 255\n255 0\n"


def test_pattern_summary_golden():
    pat = P("wr(S(4),S(3))")
    assert pattern_summary("wr(S(4),S(3))", pat) == "structure=wr(S(4),S(3)) N=12 orbits=3"
