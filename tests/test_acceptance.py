"""Top-level acceptance suite.

Each test exercises one advertised guarantee end to end and prints a single
verdict line; run with ``pytest tests/test_acceptance.py -s`` to see them.
Frozen integer fixtures were confirmed against the exact integer commutant
oracle before being pinned here.
"""

import time
from functools import lru_cache

import numpy as np

from wreathlin.basis import (
    burnside_count,
    commutant_basis,
    commutes_exactly,
    constant_on_orbits,
    materialize,
    orbit_pattern,
    pattern_of_structure,
)
from wreathlin.layer import apply, apply_dense, equivariance_check_map, random_layer
from wreathlin.pointcloud import (
    AttnPCLayer,
    WreathPCLayer,
    make_blob_scene,
    pc_layer_forward,
    permute_points,
    shift_assignment,
    voxelize,
    within_voxel_permutation,
)
from wreathlin.perm import enumerate_group
from wreathlin.structure import group_of, param_count, parse_structure
from wreathlin.train import (
    SegBlock,
    build_segnet,
    init_attn_layer,
    init_set_layer,
    init_wreath_layer,
    run_seg_experiment,
)

from gradcheck import gradient_check


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# Orbit counts of the headline structures, oracle-confirmed and frozen.
FROZEN_COUNTS = {
    "S(4)": 2,
    "C(4)": 4,
    "prod(C(4),C(3))": 12,
    "prod(S(3),S(4))": 4,
    "prod(S(4),C(3))": 6,
    "prod(C(4),S(3))": 8,
    "wr(C(3),C(4))": 6,
    "wr(S(4),S(3))": 3,
    "wr(C(3),S(4))": 4,
    "wr(S(3),C(4))": 5,
}

# Count-agreement sweep: every expression shape, degree <= 24, order <= 200000.
AGREEMENT_STRUCTURES = [
    "S(4)", "C(4)", "C(6)", "trivial(2)",
    "prod(C(4),C(3))", "prod(S(3),S(4))", "prod(S(4),C(3))", "prod(C(4),S(3))",
    "wr(C(3),C(4))", "wr(S(4),S(3))", "wr(C(3),S(4))", "wr(S(3),C(4))",
    "wr(S(2),C(2))", "wr(S(2),S(3))",
    "wr(wr(S(2),C(2)),C(2))",
    "wr(prod(C(2),C(2)),prod(S(2),S(2)))",
    "prod(S(2),wr(S(2),S(2)))",
]


@lru_cache(maxsize=None)
def _oracle(text):
    return commutant_basis(group_of(parse_structure(text)))


def test_closed_form_counts_match_frozen_table():
    start = time.perf_counter()
    got = {t: pattern_of_structure(parse_structure(t)).num_orbits for t in FROZEN_COUNTS}
    elapsed = time.perf_counter() - start
    hits = sum(got[t] == FROZEN_COUNTS[t] for t in FROZEN_COUNTS)
    _verdict(
        got == FROZEN_COUNTS and elapsed < 1.0,
        "closed-form count table",
        f"{hits}/{len(FROZEN_COUNTS)} exact in {elapsed:.3f}s (budget 1s)",
    )


def test_count_routes_agree_across_structures():
    start = time.perf_counter()
    agreements = 0
    for text in AGREEMENT_STRUCTURES:
        expr = parse_structure(text)
        group = group_of(expr)
        closed = param_count(expr)
        routes = (
            pattern_of_structure(expr).num_orbits,
            orbit_pattern(group).num_orbits,
            burnside_count(enumerate_group(group, limit=200_000)),
            len(_oracle(text)),
        )
        assert all(r == closed for r in routes), f"{text}: closed={closed} routes={routes}"
        agreements += 1
    elapsed = time.perf_counter() - start
    _verdict(
        agreements == len(AGREEMENT_STRUCTURES) and elapsed < 120.0,
        "count-route agreement",
        f"closed form == generator orbits == average fixed points == nullspace dim "
        f"on {agreements} structures in {elapsed:.1f}s (budget 120s)",
    )


def test_tied_maps_commute_and_bases_respect_pattern():
    commuting = basis_elements = 0
    for text in AGREEMENT_STRUCTURES:
        expr = parse_structure(text)
        group = group_of(expr)
        pattern = pattern_of_structure(expr)
        tied = materialize(pattern, np.arange(1, pattern.num_orbits + 1, dtype=np.float64))
        assert all(commutes_exactly(tied, g) for g in group.generators), text
        commuting += 1
        for b in _oracle(text):
            assert constant_on_orbits(b, pattern), text
            basis_elements += 1
    _verdict(
        True,
        "tied maps span the commutant",
        f"exact commutation on {commuting} structures; {basis_elements} exact basis "
        f"elements constant on the closed-form pattern",
    )


FAST_PATH_POOL = [
    "S(5)", "C(7)", "trivial(3)",
    "prod(S(3),C(5))", "prod(C(8),S(8))", "prod(S(4),S(4))",
    "wr(S(3),C(5))", "wr(C(4),S(6))", "wr(S(8),S(8))",
    "wr(wr(S(2),C(2)),S(3))", "wr(prod(C(2),C(3)),S(2))",
    "prod(C(2),wr(S(4),C(2)))", "wr(S(2),wr(C(2),S(2)))",
    "prod(trivial(2),S(3))", "wr(trivial(2),C(3))",
]


def test_pooled_apply_matches_dense_and_outscales_it():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(200):
        expr = parse_structure(FAST_PATH_POOL[i % len(FAST_PATH_POOL)])
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        layer = random_layer(expr, c_in=c_in, c_out=c_out, rng=rng, bias=bool(i % 2))
        x = rng.standard_normal((layer.degree, c_in))
        y_fast, y_dense = apply(layer, x), apply_dense(layer, x)
        worst = max(worst, float(np.abs(y_fast - y_dense).max() / max(np.abs(y_dense).max(), 1e-12)))

    ratios = []
    for side in (8, 16, 32, 64):
        layer = random_layer(parse_structure(f"wr(S({side}),S({side}))"), 1, 1, rng)
        x = rng.standard_normal((side * side, 1))
        t = time.perf_counter()
        apply(layer, x)
        t_fast = time.perf_counter() - t
        t = time.perf_counter()
        apply_dense(layer, x)
        t_dense = time.perf_counter() - t
        ratios.append(t_dense / max(t_fast, 1e-9))
    _verdict(
        worst <= 1e-10 and ratios[-1] > 10 * ratios[0],
        "matrix-free application",
        f"200 instances agree with the dense path to {worst:.2e}; "
        f"dense/fast time ratios {[f'{r:.1f}' for r in ratios]} for N=64..4096",
    )


# Edge cases of apply's routes, each against the dense map: one-point, even
# and odd cycles; cyclic subtrees alone, on batched fibers (the inner C(6)) and
# on pooled fibers; products widened on either side; unconstrained subtrees.
APPLY_ROUTE_EDGES = [
    "C(1)", "C(2)", "C(5)", "C(6)",
    "prod(C(1),C(5))", "prod(C(3),prod(C(4),C(5)))",
    "wr(C(6),prod(C(3),C(2)))", "wr(prod(C(2),C(3)),C(4))",
    "prod(S(3),C(5))", "prod(C(5),S(3))",
    "prod(trivial(3),C(4))", "prod(trivial(2),prod(trivial(3),trivial(2)))",
]


def _warm_apply(layer, x):
    """The fast path's output and the seconds of its second call."""
    apply(layer, x)
    t = time.perf_counter()
    y = apply(layer, x)
    return y, time.perf_counter() - t


def _fast_vs_dense(text, c_in, c_out, rng):
    """Relative fast-versus-dense error and the warm fast-path seconds."""
    layer = random_layer(parse_structure(text), c_in, c_out, rng, bias=True)
    x = rng.standard_normal((layer.degree, c_in))
    y_fast, seconds = _warm_apply(layer, x)
    y_dense = apply_dense(layer, x)
    return float(np.abs(y_fast - y_dense).max() / max(np.abs(y_dense).max(), 1e-12)), seconds


def test_apply_routes_match_dense_on_edge_cases():
    rng = np.random.default_rng(8)
    errors = {text: _fast_vs_dense(text, 2, 3, rng)[0] for text in APPLY_ROUTE_EDGES}
    over = {text: f"{e:.1e}" for text, e in errors.items() if e > 1e-10}
    _verdict(
        not over,
        "apply routes on edge cases",
        f"{len(errors)} structures agree with the dense path to {max(errors.values()):.2e}; "
        f"above 1e-10: {over}",
    )


def test_nested_unconstrained_product_applies_each_factor_once():
    # 8,192 orbits on 128 points: any pass over the inner factor per inner
    # orbit, repeated at each nesting level, costs minutes here
    text = "prod(C(2),prod(prod(trivial(4),trivial(4)),trivial(4)))"
    err, seconds = _fast_vs_dense(text, 2, 3, np.random.default_rng(9))
    _verdict(err <= 1e-10 and seconds < 1.0, "nested unconstrained product",
             f"{text}: dense error {err:.2e}, warm apply {seconds * 1e3:.1f} ms")


def test_cyclic_grid_apply_budget():
    rng = np.random.default_rng(10)
    layer = random_layer(parse_structure("prod(C(16),prod(C(16),C(16)))"), 8, 8, rng)
    seconds = _warm_apply(layer, rng.standard_normal((layer.degree, 8)))[1]
    _verdict(seconds < 0.5, "cyclic grid budget",
             f"prod(C(16),prod(C(16),C(16))) at c=8, warm apply {seconds * 1e3:.1f} ms")


def _primitive_texts(max_deg):
    for n in range(1, max_deg + 1):
        yield f"S({n})", n
        yield f"C({n})", n
        yield f"trivial({n})", n


def test_nested_composition_counts_and_reassociation():
    nested = pattern_of_structure(parse_structure("wr(wr(S(2),C(2)),C(2))"))
    nested_ok = nested.num_orbits == 4 == len(_oracle("wr(wr(S(2),C(2)),C(2))"))

    mixed = pattern_of_structure(parse_structure("wr(prod(C(2),C(2)),prod(S(2),S(2)))"))
    mixed_ok = mixed.num_orbits == 7 == len(_oracle("wr(prod(C(2),C(2)),prod(S(2),S(2)))"))

    triples = 0
    for ta, da in _primitive_texts(16):
        for tb, db in _primitive_texts(16 // da):
            for tc, dc in _primitive_texts(16 // (da * db)):
                left = pattern_of_structure(parse_structure(f"wr(wr({ta},{tb}),{tc})"))
                right = pattern_of_structure(parse_structure(f"wr({ta},wr({tb},{tc}))"))
                assert left == right, (ta, tb, tc)
                triples += 1
    _verdict(
        nested_ok and mixed_ok,
        "nested composition",
        f"three-level count 4 and mixed-factor count 7 match the oracle; "
        f"regrouping preserved the pattern for {triples} primitive triples",
    )


def test_voxel_hierarchy_and_attention_equivariance():
    rng = np.random.default_rng(11)
    worst, clouds, saw_empty = 0.0, 0, False
    for D in (2, 3, 4):
        for _ in range(18):
            n = int(rng.integers(1, 40))
            c_in, c_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            coords, features = rng.uniform(size=(n, 3)), rng.normal(size=(n, c_in))
            vox, _ = voxelize(coords, D)
            saw_empty = saw_empty or len(vox.occupied) < D ** 3
            K = 3 if D >= 3 else 1
            layer = WreathPCLayer(
                w_point=rng.normal(size=(c_in, c_out)),
                w_conv=rng.normal(size=(K, K, K, c_in, c_out)),
            )
            y = pc_layer_forward(layer, vox, features)[0]
            scale = max(float(np.abs(y).max()), 1e-12)
            shifts = tuple(rng.integers(0, D, size=3).tolist())
            y_shift = pc_layer_forward(layer, shift_assignment(vox, shifts), features)[0]
            order = within_voxel_permutation(vox, rng)
            y_perm = pc_layer_forward(layer, permute_points(vox, order), features[order])[0]
            worst = max(
                worst,
                float(np.abs(y_shift - y).max() / scale),
                float(np.abs(y_perm - y[order]).max() / scale),
            )
            clouds += 1

    attn_worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 30))
        x = rng.normal(size=(n, 4))
        layer = AttnPCLayer(
            w_assign=rng.normal(size=(4, 3)), w_interact=rng.normal(size=(3, 3, 4, 3))
        )
        y = layer.forward(None, x)[0]
        order = rng.permutation(n)
        attn_worst = max(
            attn_worst,
            float(np.abs(layer.forward(None, x[order])[0] - y[order]).max()
                  / max(np.abs(y).max(), 1e-12)),
        )
    _verdict(
        clouds >= 50 and saw_empty and worst <= 1e-10 and attn_worst <= 1e-10,
        "point-cloud equivariance",
        f"{clouds} clouds (grid shifts + within-voxel shuffles, empty voxels seen: "
        f"{saw_empty}) worst {worst:.2e}; attention under full permutation {attn_worst:.2e}",
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    coords, features = rng.uniform(size=(18, 3)), rng.normal(size=(18, 4))
    vox, _ = voxelize(coords, 3)
    labels = rng.integers(0, 3, size=18)
    single_worst = 0.0
    for layer in (
        init_wreath_layer(4, 3, 3, rng),
        init_set_layer(4, 3, rng),
        init_attn_layer(4, 3, 4, rng),
    ):
        report = gradient_check(
            [SegBlock(layer, rectify=False)], vox, features, labels, threshold=1e-5
        )
        assert report.passed, report.lines()
        single_worst = max(single_worst, report.max_error)

    rng = np.random.default_rng(2)
    coords, features = rng.uniform(size=(24, 3)), rng.normal(size=(24, 4))
    vox, _ = voxelize(coords, 3)
    labels = rng.integers(0, 3, size=24)
    blocks = build_segnet(4, 3, 2, 5, 3, rng, attention_latents=3)
    full = gradient_check(blocks, vox, features, labels, threshold=1e-4)
    _verdict(
        full.passed,
        "analytic gradients",
        f"single layers within 1e-5 (worst {single_worst:.2e}); "
        f"two-block stack with attention within 1e-4 (worst {full.max_error:.2e})",
    )


def test_voxel_model_beats_global_pool_ablation():
    start = time.perf_counter()
    centers = make_blob_scene(6, 4, np.random.default_rng(42))
    wins, rows = 0, []
    for seed in (0, 1, 2):
        _, acc_w, _ = run_seg_experiment(centers, seed, set_only=False)
        _, acc_s, _ = run_seg_experiment(centers, seed, set_only=True)
        wins += acc_w > acc_s
        rows.append(f"seed {seed}: {acc_w:.3f} vs {acc_s:.3f}")
    elapsed = time.perf_counter() - start
    _verdict(
        wins >= 2 and elapsed < 300.0,
        "inductive-bias ablation",
        f"voxel model beat the global-pool baseline on {wins}/3 seeds "
        f"({'; '.join(rows)}) in {elapsed:.1f}s (budget 300s)",
    )


def test_negative_controls():
    expr = parse_structure("S(3)")
    group = group_of(expr)
    w = materialize(pattern_of_structure(expr), np.array([1.0, 2.0]))
    w[0, 1] = 5.0  # split one cell out of the off-diagonal class
    split_report = equivariance_check_map(lambda x: w @ x, group, c_in=1, trials=3)

    rng = np.random.default_rng(5)
    coords, features = rng.uniform(size=(25, 3)), rng.normal(size=(25, 3))
    vox, _ = voxelize(coords, 3)
    ident = WreathPCLayer(w_point=np.eye(3), w_conv=np.zeros((3, 3, 3, 3, 3)))
    ident_ok = np.array_equal(pc_layer_forward(ident, vox, features)[0], features)
    _verdict(
        (not split_report.passed) and ident_ok,
        "negative controls",
        f"mis-tied pattern rejected (residual {split_report.max_residual:.2e}); "
        f"zero-kernel identity-mix layer reproduces its input exactly",
    )
