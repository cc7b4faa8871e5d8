import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from wreathlin.basis import materialize, pattern_of_structure
from wreathlin.layer import (
    EquivariantLayer,
    apply,
    apply_dense,
    equivariance_check,
    equivariance_check_map,
    random_layer,
)
from wreathlin.perm import permute_rows
from wreathlin.structure import (Prod, Wreath, degree, format_structure, group_of, orbit_counts, param_count,
                                 parse_structure)

from memory import traced_left, traced_peak
from strategies import structure_trees


def make_layer(text, weights, bias=None):
    return EquivariantLayer(
        structure=parse_structure(text),
        weights=np.asarray(weights, dtype=np.float64),
        bias=None if bias is None else np.asarray(bias, dtype=np.float64),
    )


def test_identity_weights_on_sets_pass_input_through():
    layer = make_layer("S(3)", [[[1.0]], [[0.0]]])
    x = np.array([[1.0], [4.0], [9.0]])
    assert np.array_equal(apply(layer, x), x)
    assert np.array_equal(apply_dense(layer, x), x)


def test_zero_weights_give_zero_output():
    layer = make_layer("wr(S(2),C(3))", np.zeros((4, 1, 1)))
    x = np.arange(6, dtype=np.float64).reshape(6, 1)
    assert np.array_equal(apply(layer, x), np.zeros((6, 1)))


def test_weights_first_dimension_checked():
    with pytest.raises(ValueError):
        make_layer("S(3)", np.zeros((3, 1, 1)))


def test_channel_counts_are_the_weights_shape():
    layer = make_layer("S(3)", np.zeros((2, 4, 5)))
    assert (layer.c_in, layer.c_out) == (4, 5)
    for weights in (np.zeros((2, 0, 1)), np.zeros((2, 1, 0)), np.zeros((2, 1)), np.zeros((2, 1, 1, 1))):
        with pytest.raises(ValueError, match=r"is not \(2, c_in >= 1, c_out >= 1\)"):
            make_layer("S(3)", weights)


def test_fast_path_matches_dense_on_mixed_hierarchy():
    rng = np.random.default_rng(0)
    layer = random_layer(parse_structure("wr(S(2),C(3))"), c_in=2, c_out=3, rng=rng)
    x = rng.normal(size=(6, 2))
    fast, dense = apply(layer, x), apply_dense(layer, x)
    assert np.abs(fast - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def test_unit_impulse_reads_out_matrix_column():
    rng = np.random.default_rng(1)
    text = "wr(C(2),C(2))"
    layer = random_layer(parse_structure(text), c_in=1, c_out=1, rng=rng)
    w = materialize(pattern_of_structure(layer.structure), layer.weights[:, 0, 0])
    for j in range(4):
        x = np.zeros((4, 1))
        x[j, 0] = 1.0
        assert np.allclose(apply_dense(layer, x)[:, 0], w[:, j])
        assert np.allclose(apply(layer, x)[:, 0], w[:, j])


def test_linearity():
    rng = np.random.default_rng(2)
    layer = random_layer(parse_structure("wr(S(3),S(2))"), c_in=2, c_out=2, rng=rng)
    x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    a, b = 0.7, -1.3
    lhs = apply(layer, a * x + b * y)
    rhs = a * apply(layer, x) + b * apply(layer, y)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_bias_is_added_per_output_channel():
    layer = make_layer("S(2)", np.zeros((2, 1, 2)), bias=[1.0, -2.0])
    y = apply(layer, np.zeros((2, 1)))
    assert np.array_equal(y, np.array([[1.0, -2.0], [1.0, -2.0]]))


def relative_error(layer, x):
    fast, dense = apply(layer, x), apply_dense(layer, x)
    return np.abs(fast - dense).max() / max(1.0, np.abs(dense).max())


# one structure per kernel of ``_compile_structure``, with its (c_in, c_out)
BRANCHES = {
    "all-singleton": ("prod(trivial(2),trivial(3))", 2, 3),
    "set": ("S(5)", 2, 3),
    "cycle-full-map": ("prod(C(3),C(4))", 2, 3),
    "cycle-fft": ("C(64)", 2, 3),  # 64**2 * 6 multiply-adds, above FULL_MAP_MADDS
    "prod": ("prod(S(3),C(4))", 2, 3),
    "prod-set-fold": ("prod(S(32),C(32))", 2, 16),  # 1,024 * 16 output entries
    "wr": ("wr(C(3),S(2))", 2, 3),
    "wr-over-set": ("wr(S(3),C(2))", 2, 3),
    "wr-intransitive-outer": ("wr(C(3),prod(trivial(2),S(2)))", 2, 3),
    "wr-intransitive-inner": ("wr(prod(trivial(2),S(2)),C(3))", 2, 3),
}


@pytest.mark.parametrize("text, c_in, c_out", BRANCHES.values(), ids=BRANCHES.keys())
def test_output_is_a_fresh_array_and_bias_is_added_in_place(text, c_in, c_out):
    rng = np.random.default_rng(8)
    layer = random_layer(parse_structure(text), c_in=c_in, c_out=c_out, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, c_in))
    x_before, w_before = x.copy(), layer.weights.copy()
    y = apply(layer, x)
    assert not np.shares_memory(y, x) and not np.shares_memory(y, layer.weights)
    y[...] = 7.0
    assert np.array_equal(x, x_before)
    assert np.array_equal(layer.weights, w_before)
    assert relative_error(layer, x) <= 1e-12


@pytest.mark.parametrize("text, c_in, c_out", BRANCHES.values(), ids=BRANCHES.keys())
def test_compiled_map_is_reused_and_never_stale(text, c_in, c_out):
    rng = np.random.default_rng(12)
    layer = random_layer(parse_structure(text), c_in=c_in, c_out=c_out, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, c_in))
    first = apply(layer, x)
    assert np.array_equal(apply(layer, x), first)
    # a replaced layer compiles its own weights, not the ones it was copied from
    other = dataclasses.replace(layer, weights=rng.normal(size=layer.weights.shape))
    assert relative_error(other, x) <= 1e-12
    assert np.array_equal(apply(layer, x), first)


@pytest.mark.parametrize("text, c_in, c_out", BRANCHES.values(), ids=BRANCHES.keys())
def test_compiled_map_applies_over_batch_axes(text, c_in, c_out):
    rng = np.random.default_rng(13)
    layer = random_layer(parse_structure(text), c_in=c_in, c_out=c_out, rng=rng)
    xs = rng.normal(size=(3, layer.degree, c_in))
    # BLAS may split a product over three rows differently from one over a single row
    batched, single = layer.compiled(xs), np.stack([apply(layer, x) for x in xs])
    assert np.abs(batched - single).max() <= 1e-12 * np.abs(single).max()


def kernels(fn):
    """Sorted names of the kernels a compiled map runs, its own among them."""
    found = [fn.__name__]
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        for inner in value if isinstance(value, list) else [value]:
            if callable(inner) and inner.__name__.startswith("run_"):
                found += kernels(inner)
    return sorted(found)


@pytest.mark.parametrize("text, expected", [
    ("C(1024)", ["run_cycles"]),
    ("prod(C(32),C(32))", ["run_cycles"]),
    ("prod(C(8),prod(C(8),C(8)))", ["run_cycles"]),
    ("prod(S(64),C(32))", ["run_cycles", "run_cycles", "run_fold"]),
    ("prod(S(64),S(64))", ["run_fold", "run_set", "run_set"]),
    ("wr(C(8),S(64))", ["run_full_map", "run_set", "run_wreath"]),
])
def test_benchmark_grid_structures_compile_to_their_cheapest_kernels(text, expected):
    layer = random_layer(parse_structure(text), c_in=8, c_out=8, rng=np.random.default_rng(15))
    assert kernels(layer.compiled) == expected


@pytest.mark.parametrize("text, c_in, c_out, kernel", [
    ("prod(S(32),C(32))", 2, 16, "run_fold"),  # 2**14 output entries: the set folds
    ("prod(S(31),C(33))", 2, 16, "run_prod"),  # 1,023 points, just below
    ("prod(C(32),S(32))", 2, 16, "run_fold"),  # the set on the inner side
    ("prod(S(32),S(32))", 2, 16, "run_fold"),  # a set on both sides
    ("prod(S(2),C(512))", 2, 16, "run_fold"),  # the other factor correlates by FFT
    ("prod(prod(C(16),C(16)),S(4))", 2, 16, "run_fold"),
    ("prod(S(1),C(1024))", 2, 16, "run_prod"),  # a one-point set has no pooled row
    ("prod(trivial(16),S(64))", 2, 16, "run_prod"),  # only sets and cycles fold
    ("prod(S(32),C(32))", 2, 3, "run_prod"),  # too few output entries
])
def test_product_set_fold_matches_dense(text, c_in, c_out, kernel):
    rng = np.random.default_rng(16)
    layer = random_layer(parse_structure(text), c_in=c_in, c_out=c_out, rng=rng, bias=True)
    assert layer.compiled.__name__ == kernel
    x = rng.normal(size=(layer.degree, c_in))
    assert relative_error(layer, x) <= 1e-12
    xs = rng.normal(size=(2, 3, layer.degree, c_in))
    batched, single = layer.compiled(xs), np.stack([[layer.compiled(x) for x in row] for row in xs])
    assert np.abs(batched - single).max() <= 1e-12 * np.abs(single).max()


def test_product_set_fold_under_a_wreath_matches_dense():
    # the outer map of the pooled fibers runs at 2 * 16 channels, one block per inner point
    layer = random_layer(parse_structure("wr(trivial(2),prod(S(16),C(32)))"), 2, 16, np.random.default_rng(17))
    assert "run_fold" in kernels(layer.compiled)
    x = np.random.default_rng(18).normal(size=(layer.degree, 2))
    assert relative_error(layer, x) <= 1e-12


@pytest.mark.parametrize("text, kernel", [
    ("C(64)", "run_full_map"),  # 64**2 * 2 * 2 = FULL_MAP_MADDS
    ("C(65)", "run_cycles"),
    ("prod(C(8),C(8))", "run_full_map"),
    ("prod(C(8),C(9))", "run_cycles"),
    ("C(1)", "run_full_map"),
])
def test_cycles_within_the_budget_multiply_by_their_full_map(text, kernel):
    rng = np.random.default_rng(19)
    layer = random_layer(parse_structure(text), c_in=2, c_out=2, rng=rng, bias=True)
    assert layer.compiled.__name__ == kernel
    x = rng.normal(size=(layer.degree, 2))
    assert relative_error(layer, x) <= 1e-12
    xs = rng.normal(size=(4, layer.degree, 2))
    batched, single = layer.compiled(xs), np.stack([layer.compiled(x) for x in xs])
    assert np.abs(batched - single).max() <= 1e-12 * np.abs(single).max()


def test_layer_owns_its_weights_and_bias():
    rng = np.random.default_rng(14)
    base_w, base_b = rng.normal(size=(2, 4, 1, 2)), rng.normal(size=(2, 2))
    layer = make_layer("C(4)", base_w[0], bias=base_b[1])  # contiguous views of writable arrays
    x = rng.normal(size=(4, 1))
    y, w, b = apply(layer, x), layer.weights.copy(), layer.bias.copy()
    base_w[...] = 0.0
    base_b[...] = 0.0
    assert np.array_equal(layer.weights, w) and np.array_equal(layer.bias, b)
    assert np.array_equal(apply(layer, x), y)


@pytest.mark.parametrize("text", [
    "wr(S(1),S(3))",  # a one-point set keeps its all-singleton kernel
    "wr(S(2),S(5))",
    "wr(S(5),C(3))",
    "wr(wr(S(3),S(2)),S(2))",
    "prod(wr(S(3),S(2)),C(4))",  # the fold under batch axes
    "prod(C(3),wr(S(4),S(2)))",
    "wr(S(3),trivial(2))",
])
def test_set_inner_factor_folded_into_cross_fiber_term_matches_dense(text):
    rng = np.random.default_rng(9)
    layer = random_layer(parse_structure(text), c_in=2, c_out=3, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, 2))
    assert relative_error(layer, x) <= 1e-12


@pytest.mark.parametrize("text", [
    "wr(S(2),trivial(8))",  # one inner set per outer point: each fiber its own weights
    "wr(S(3),prod(trivial(3),S(2)))",
    "wr(trivial(2),C(3))",  # inner point orbits pooled apart
    "wr(prod(S(2),trivial(3)),S(4))",
    "wr(wr(trivial(2),S(2)),trivial(2))",
    "prod(C(3),wr(S(2),trivial(3)))",  # under batch axes
    "prod(wr(trivial(2),S(3)),S(2))",
])
def test_wreath_with_intransitive_factors_matches_dense(text):
    rng = np.random.default_rng(11)
    layer = random_layer(parse_structure(text), c_in=2, c_out=3, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, 2))
    assert relative_error(layer, x) <= 1e-12


@pytest.mark.parametrize("text", ["S(100000)", "wr(S(256),S(384))"])
def test_warm_apply_allocates_little_beyond_its_output(text):
    rng = np.random.default_rng(10)
    layer = random_layer(parse_structure(text), c_in=8, c_out=8, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, 8))
    apply(layer, x)  # compiles the layer
    y, peak = traced_peak(apply, layer, x)
    assert peak < 1.25 * y.nbytes


def test_dropped_layers_leave_nothing_behind():
    """Twelve layers on ``prod(trivial(40 + k),trivial(20))``, each built,
    applied and dropped, leave next to nothing traced: no orbit index outlives
    the call that needed it.  A cache of 256 orbit indexes kept 230 MiB here."""
    def twelve_layers(rng):
        for k in range(12):
            layer = random_layer(parse_structure(f"prod(trivial({40 + k}),trivial(20))"), 1, 1, rng)
            apply(layer, np.ones((layer.degree, 1)))

    assert traced_left(twelve_layers, np.random.default_rng(0)) < 2 ** 20


def test_wreath_adds_an_intransitive_inner_cross_term_in_place():
    """Each inner point of ``wr(trivial(2),S(500))`` is its own point orbit,
    so the cross map's output is as large as the layer's.  The warm peak
    holds it, the output and the pooled input, 3.03 times the output, and no
    gathered copy of the cross term, which made it 4.03 times."""
    rng = np.random.default_rng(10)
    layer = random_layer(parse_structure("wr(trivial(2),S(500))"), c_in=8, c_out=8, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, 8))
    apply(layer, x)
    y, peak = traced_peak(apply, layer, x)
    assert peak < 3.25 * y.nbytes


def test_wreath_over_an_inner_factor_of_many_one_point_leaves():
    """129 leaves, more than numpy's 64 axes, of which one has two points."""
    ones = parse_structure("S(1)")
    for _ in range(6):
        ones = Prod(ones, ones)
    text = f"wr({format_structure(Prod(ones, Prod(parse_structure('trivial(2)'), ones)))},S(3))"
    rng = np.random.default_rng(12)
    layer = random_layer(parse_structure(text), c_in=2, c_out=3, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, 2))
    assert relative_error(layer, x) <= 1e-12


def widest_array(expr, c_in, c_out, batch=1):
    """Elements of the widest array a node's plan may name on ``batch``
    inputs: a ``prod`` may widen the channels of one side to one block per
    orbit of the other, and ``wr`` runs its outer map at channels widened by
    the inner point-orbit count over the pooled fibers."""
    if isinstance(expr, Prod):
        P, Q = degree(expr.outer), degree(expr.inner)
        n_o, n_i = param_count(expr.outer), param_count(expr.inner)
        wide = min(n_o, n_i) * c_out
        if n_o <= n_i:
            return max(widest_array(expr.inner, c_in, wide, batch * P), widest_array(expr.outer, wide, c_out, batch * Q))
        return max(widest_array(expr.outer, c_in, wide, batch * Q), widest_array(expr.inner, wide, c_out, batch * P))
    if isinstance(expr, Wreath):
        b1 = orbit_counts(expr.inner)[0]
        return max(widest_array(expr.inner, c_in, c_out, batch * degree(expr.outer)),
                   widest_array(expr.outer, b1 * c_in, b1 * c_out, batch))
    return batch * expr.n * max(c_in, c_out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(structure_trees(4, 256))
def test_warm_apply_holds_a_few_of_its_widest_arrays(expr):
    """A warm ``apply`` holds at most 5 arrays the size of the widest one its
    plan names, plus 64 KiB of fixed-size objects; the most measured on
    these trees was 4.12.  Without a widened product the widest array is the
    output.  A widened one holds ``min(n_o, n_i)`` times it, and nested ones
    multiply: ``prod(trivial(3),prod(prod(S(3),S(2)),prod(trivial(4),C(2))))``
    peaks at 325 times its output."""
    rng = np.random.default_rng(0)
    layer = random_layer(expr, c_in=3, c_out=2, rng=rng, bias=True)
    x = rng.normal(size=(layer.degree, 3))
    apply(layer, x)
    _, peak = traced_peak(apply, layer, x)
    assert peak <= 5 * 8 * widest_array(expr, 3, 2) + 2 ** 16


def test_product_factor_maps_commute():
    rng = np.random.default_rng(3)
    a = materialize(pattern_of_structure(parse_structure("S(3)")), rng.normal(size=2))
    b = materialize(pattern_of_structure(parse_structure("C(4)")), rng.normal(size=4))
    first_outer = np.kron(a, np.eye(4)) @ np.kron(np.eye(3), b)
    first_inner = np.kron(np.eye(3), b) @ np.kron(a, np.eye(4))
    assert np.allclose(first_outer, first_inner)
    assert np.allclose(first_outer, np.kron(a, b))


def test_equivariance_of_random_layers():
    rng = np.random.default_rng(4)
    for text in ["S(4)", "C(5)", "prod(S(3),C(2))", "wr(C(2),S(3))", "wr(wr(S(2),C(2)),C(2))"]:
        layer = random_layer(parse_structure(text), c_in=2, c_out=2, rng=rng, bias=True)
        report = equivariance_check(layer, trials=3, rng=rng)
        assert report.passed, (text, report.generator_residuals)


def test_dense_maps_are_equivariant_to_one_point_groups():
    rng = np.random.default_rng(5)
    layer = make_layer("trivial(3)", rng.normal(size=(9, 1, 1)))
    assert equivariance_check(layer, trials=2).passed


def test_stacked_layers_with_rectifier_stay_equivariant():
    rng = np.random.default_rng(6)
    expr = parse_structure("wr(S(3),S(2))")
    lay1 = random_layer(expr, c_in=2, c_out=3, rng=rng)
    lay2 = random_layer(expr, c_in=3, c_out=2, rng=rng)

    def stack(x):
        return apply(lay2, np.maximum(apply(lay1, x), 0.0))

    report = equivariance_check_map(stack, group_of(expr), c_in=2, trials=3, rng=rng)
    assert report.passed


def test_split_orbit_weights_break_equivariance():
    expr = parse_structure("S(3)")
    group = group_of(expr)
    pat = pattern_of_structure(expr)
    w = materialize(pat, np.array([1.0, 2.0]))
    w[0, 1] = 5.0  # one entry of the off-diagonal class goes its own way

    report = equivariance_check_map(lambda x: w @ x, group, c_in=1, trials=3)
    assert not report.passed
    assert report.max_residual > 1e-2


def test_equivariance_check_map_convention():
    # f(g.x) must equal g.f(x); an intentionally non-equivariant f fails
    group = group_of(parse_structure("C(3)"))
    m = np.diag([1.0, 2.0, 3.0])
    assert not equivariance_check_map(lambda x: m @ x, group, c_in=1).passed
    g = group.generators[0]
    x = np.arange(3, dtype=np.float64).reshape(3, 1)
    assert np.array_equal(permute_rows(g, x)[g[0]], x[0])

