import resource
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

import wreathlin.arrays as arrays
from wreathlin.pointcloud import (
    PointCloud,
    permute_points,
    sample_blob_cloud,
    shift_assignment,
    voxelize,
    within_voxel_permutation,
)
from wreathlin.train import (
    FEATURE_CHANNELS,
    HELD_OUT_CLOUDS,
    HIDDEN_WIDTH,
    TRAIN_CLOUDS,
    SegBlock,
    TrainingDivergedError,
    block_forward,
    build_segnet,
    evaluate,
    init_attn_layer,
    init_set_layer,
    init_wreath_layer,
    kernel_width,
    loss_ce,
    make_seg_samples,
    net_backward,
    net_forward,
    run_seg_experiment,
    seg_setup,
    sgd_train,
    trace_csv,
)
from wreathlin.pointcloud import make_blob_scene

from gradcheck import gradient_check
from memory import fresh_process_faults, traced_peak


def toy_batch(seed=0, n=18, c=4, classes=3, res=3):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(coords=rng.uniform(size=(n, 3)), features=rng.normal(size=(n, c)))
    vox, _ = voxelize(cloud, res)
    labels = rng.integers(0, classes, size=n)
    return rng, vox, cloud.features, labels


def test_loss_ce_uniform_logits():
    _, _, _, labels = toy_batch()
    loss, grad = loss_ce(np.zeros((18, 3)), labels)
    assert abs(loss - np.log(3)) < 1e-12
    assert abs(grad.sum()) < 1e-12


def test_loss_ce_peaked_logits_vanish():
    labels = np.array([0, 1])
    logits = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
    loss, _ = loss_ce(logits, labels)
    assert loss < 1e-12


def test_loss_ce_rejects_bad_labels():
    with pytest.raises(ValueError):
        loss_ce(np.zeros((2, 3)), np.array([0, 3]))


@pytest.mark.parametrize("classes", [1, 2, 8])
def test_loss_ce_matches_the_row_max_formula_bit_for_bit(classes):
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(400, classes)) * 30
    logits[::7] = np.round(logits[::7])  # ties within a row
    logits[1::7, 0] = logits[1::7, -1]
    logits[2::7] *= 1e300  # huge values
    if classes > 1:
        logits[3::7, 0] = -np.inf
    labels = rng.integers(0, classes, size=400)
    loss, grad = loss_ce(logits, labels)
    # the formula the column-wise max replaced
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1)
    ref_loss = float(np.mean(np.log(norm) - z[np.arange(400), labels]))
    soft = e / norm[:, None]
    soft[np.arange(400), labels] -= 1.0
    assert loss == ref_loss
    assert np.array_equal(grad, soft / 400)


def test_loss_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    _, grad = loss_ce(logits, labels)
    h = 1e-6
    for i in range(6):
        for k in range(4):
            bumped = logits.copy()
            bumped[i, k] += h
            plus, _ = loss_ce(bumped, labels)
            bumped[i, k] -= 2 * h
            minus, _ = loss_ce(bumped, labels)
            numeric = (plus - minus) / (2 * h)
            assert abs(grad[i, k] - numeric) / max(abs(numeric), 1e-8) < 1e-6


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    rng, vox, x, _ = toy_batch()
    blocks = [SegBlock(init_wreath_layer(4, 3, 3, rng), rectify=False)]
    _, caches = net_forward(blocks, vox, x)
    grads, d_x = net_backward(blocks, vox, caches, np.zeros((18, 3)))
    assert all(np.all(g == 0) for g in grads[0].values())
    assert np.all(d_x == 0)


@pytest.mark.parametrize("kind", ["wreath", "set", "attn"])
def test_single_layer_gradient_check(kind):
    rng, vox, x, labels = toy_batch(seed=7)
    layer = {
        "wreath": lambda: init_wreath_layer(4, 3, 3, rng),
        "set": lambda: init_set_layer(4, 3, rng),
        "attn": lambda: init_attn_layer(4, 3, 4, rng),
    }[kind]()
    report = gradient_check([SegBlock(layer, rectify=False)], vox, x, labels, threshold=1e-5)
    assert report.passed, report.lines()


def test_full_stack_gradient_check_with_attention():
    rng = np.random.default_rng(2)
    cloud = PointCloud(coords=rng.uniform(size=(24, 3)), features=rng.normal(size=(24, 4)))
    vox, _ = voxelize(cloud, 3)
    labels = rng.integers(0, 3, size=24)
    blocks = build_segnet(4, 3, 2, 5, 3, rng, attention_latents=3)
    report = gradient_check(blocks, vox, cloud.features, labels, threshold=1e-4)
    assert report.passed, report.lines()


def test_sgd_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(3)
    samples = []
    for _ in range(3):
        cloud = PointCloud(coords=rng.uniform(size=(18, 3)), features=rng.normal(size=(18, 4)))
        samples.append((voxelize(cloud, 3)[0], cloud.features, rng.integers(0, 3, size=18)))
    net = [SegBlock(init_wreath_layer(4, 5, 3, rng), rectify=True),
           SegBlock(init_wreath_layer(5, 3, 3, rng), rectify=False)]
    _, trace_a = sgd_train(net, samples, epochs=4, lr=0.05, seed=9)
    _, trace_b = sgd_train(net, samples, epochs=4, lr=0.05, seed=9)
    assert trace_a == trace_b  # bitwise-identical floats
    assert trace_a[-1][1] < trace_a[0][1]
    assert [row[0] for row in trace_a] == [0, 1, 2, 3, 4]


def test_zero_learning_rate_changes_nothing():
    rng = np.random.default_rng(4)
    cloud = PointCloud(coords=rng.uniform(size=(12, 3)), features=rng.normal(size=(12, 4)))
    samples = [(voxelize(cloud, 2)[0], cloud.features, rng.integers(0, 2, size=12))]
    net = [SegBlock(init_wreath_layer(4, 2, 1, rng), rectify=False)]
    trained, trace = sgd_train(net, samples, epochs=3, lr=0.0, seed=0)
    assert all(row[1] == trace[0][1] for row in trace)
    assert np.array_equal(trained[0].layer.w_point, net[0].layer.w_point)


def test_divergence_raises():
    # two blocks so a huge step makes the forward pass overflow to non-finite
    rng = np.random.default_rng(5)
    cloud = PointCloud(coords=rng.uniform(size=(12, 3)), features=rng.normal(size=(12, 4)))
    samples = [(voxelize(cloud, 2)[0], cloud.features, rng.integers(0, 2, size=12))]
    net = [SegBlock(init_wreath_layer(4, 4, 1, rng), rectify=True),
           SegBlock(init_wreath_layer(4, 2, 1, rng), rectify=False)]
    with pytest.raises(TrainingDivergedError):
        with np.errstate(all="ignore"):
            sgd_train(net, samples, epochs=5, lr=1e200, seed=0)


def test_training_preserves_hierarchy_equivariance():
    rng = np.random.default_rng(6)
    cloud = PointCloud(coords=rng.uniform(size=(20, 3)), features=rng.normal(size=(20, 4)))
    vox, _ = voxelize(cloud, 3)
    samples = [(vox, cloud.features, rng.integers(0, 3, size=20))]
    net = [SegBlock(init_wreath_layer(4, 4, 3, rng), rectify=True),
           SegBlock(init_wreath_layer(4, 3, 3, rng), rectify=False)]
    trained, _ = sgd_train(net, samples, epochs=5, lr=0.1, seed=1)
    y = net_forward(trained, vox, cloud.features)[0]
    y_shift = net_forward(trained, shift_assignment(vox, (1, 2, 0)), cloud.features)[0]
    assert np.allclose(y, y_shift, atol=1e-10 * max(1.0, np.abs(y).max()))
    order = within_voxel_permutation(vox, rng)
    y_perm = net_forward(trained, permute_points(vox, order), cloud.features[order])[0]
    assert np.allclose(y[order], y_perm, atol=1e-10 * max(1.0, np.abs(y).max()))


def test_trace_csv_format():
    text = trace_csv([(0, 1.5, 0.25), (1, 0.75, 0.5)])
    lines = text.splitlines()
    assert lines[0] == "epoch,loss,accuracy"
    assert lines[1] == "0,1.5,0.25"
    assert lines[2] == "1,0.75,0.5"


def test_evaluate_counts_correct_points():
    rng, vox, x, labels = toy_batch(seed=8)
    blocks = [SegBlock(init_wreath_layer(4, 3, 3, rng), rectify=False)]
    loss, acc = evaluate(blocks, [(vox, x, labels)])
    assert 0.0 <= acc <= 1.0
    assert np.isfinite(loss)


def test_seg_experiment_paired_runs_share_data():
    rng = np.random.default_rng(42)
    centers = make_blob_scene(4, 4, rng)
    _, acc_a, trace_a = run_seg_experiment(centers, seed=0, set_only=False, epochs=2)
    _, acc_b, _ = run_seg_experiment(centers, seed=0, set_only=True, epochs=2)
    assert trace_a[0][0] == 0 and len(trace_a) == 3
    assert 0.0 <= acc_a <= 1.0 and 0.0 <= acc_b <= 1.0


def test_seg_samples_have_six_feature_channels():
    rng = np.random.default_rng(43)
    centers = make_blob_scene(3, 4, rng)
    samples = make_seg_samples(centers, 2, 5, 0.2, 0.25, 4, rng)
    for vox, x, labels in samples:
        assert x.shape == (15, 6)
        assert labels.shape == (15,)
        assert vox.n_points == 15


def test_seg_samples_come_in_voxel_order():
    """Each sample is the cloud the same draws gave before the sort, with its
    voxelization, features and labels in one stable voxel order."""
    rng = np.random.default_rng(44)
    centers = make_blob_scene(3, 4, rng)
    state = rng.bit_generator.state
    (vox, x, labels), = make_seg_samples(centers, 1, 50, 0.2, 0.25, 4, rng)
    after = rng.bit_generator.state
    rng.bit_generator.state = state
    cloud = sample_blob_cloud(centers, 50, 0.2, 4, rng)
    raw, offsets = voxelize(cloud, 4)
    noisy = cloud.coords + 0.25 * rng.normal(size=cloud.coords.shape)
    assert rng.bit_generator.state == after
    order = np.argsort(raw.assignment, kind="stable")
    assert np.array_equal(vox.assignment, raw.assignment[order])
    assert x.tobytes() == np.hstack([noisy, offsets])[order].tobytes() and x.flags.c_contiguous
    assert np.array_equal(labels, cloud.labels[order])
    assert vox.runs[:, 2].tolist() == list(range(len(vox.occupied)))


@pytest.mark.parametrize("resolution", [1, 2, 3, 4])
def test_seg_setup_shape_is_the_named_constants(resolution):
    centers = np.array([[0.25, 0.25, 0.25], [0.75, 0.75, 0.75]])
    train, test, blocks = seg_setup(centers, 0, resolution=resolution, n_blocks=3, points_per_blob=4)
    assert len(train) == TRAIN_CLOUDS and len(test) == HELD_OUT_CLOUDS
    assert all(x.shape == (2 * 4, FEATURE_CHANNELS) for _, x, _ in train + test)
    K = kernel_width(resolution)
    assert K == (3 if resolution >= 3 else 1)
    assert [b.layer.w_conv.shape for b in blocks] == [
        (K, K, K, FEATURE_CHANNELS, HIDDEN_WIDTH), (K, K, K, HIDDEN_WIDTH, HIDDEN_WIDTH), (K, K, K, HIDDEN_WIDTH, 2)
    ]


def attention_net_and_cloud(points_per_blob, resolution, seed=0):
    """The ``demo --attention 4`` block stack at the benchmark's widths (6
    features, 8 classes, hidden 16, kernel 3) and one 8-blob cloud."""
    rng = np.random.default_rng(seed)
    centers = make_blob_scene(8, resolution, rng)
    sample = make_seg_samples(centers, 1, points_per_blob, 0.2, 0.25, resolution, rng)[0]
    return build_segnet(6, 8, 2, 16, 3, rng, attention_latents=4), sample


def cache_arrays(caches):
    return [{k: v.copy() for k, v in cache.items() if isinstance(v, np.ndarray)} for cache in caches]


def test_net_passes_leave_inputs_and_caches_intact():
    """Blocks add the skip and rectify in place, in arrays their layers
    return.  At 320 points every array is under ``arrays.POOL_MIN_BYTES``;
    at the benchmark's 4,000 the large ones come from the scratch pool, and
    at 20,000 so do arrays of 2.56 MB, so arrays held from one pass must
    survive later passes of the same shapes."""
    for points_per_blob, resolution in [(40, 4), (500, 8), (2500, 8)]:
        blocks, (vox, x, labels) = attention_net_and_cloud(points_per_blob, resolution)
        x_before = x.copy()
        logits, caches = net_forward(blocks, vox, x)
        held, held_caches = logits.copy(), cache_arrays(caches)
        assert np.array_equal(x, x_before)
        shifted, _ = net_forward(blocks, shift_assignment(vox, (1, 2, 3)), x)
        assert not np.shares_memory(shifted, logits)
        assert np.array_equal(logits, held)
        again, fresh = net_forward(blocks, vox, x)
        assert np.array_equal(again, logits)
        h = x
        for block, cache in zip(blocks, caches):  # each block cached the input it was given
            assert np.array_equal(cache["x"], h)
            h, _ = block_forward(block, vox, h.copy())
        assert np.array_equal(h, logits)
        _, d_logits = loss_ce(logits, labels)
        d_before = d_logits.copy()
        grads, d_x = net_backward(blocks, vox, caches, d_logits)
        fresh_grads, fresh_d_x = net_backward(blocks, vox, fresh, d_logits)
        assert np.array_equal(logits, held)
        assert np.array_equal(d_logits, d_before)
        assert np.array_equal(d_x, fresh_d_x)
        for g, f in zip(grads, fresh_grads):
            assert g.keys() == f.keys() and all(np.array_equal(g[k], f[k]) for k in g)
        for cache, before in zip(caches, held_caches):
            assert all(np.array_equal(cache[k], v) for k, v in before.items())


def benchmark_step(blocks, vox, x, labels):
    """One SGD step of the benchmark's ``segnet_train``, at its ``lr = 0.005``;
    returns the updated blocks."""
    logits, caches = net_forward(blocks, vox, x)
    _, d_logits = loss_ce(logits, labels)
    grads, _ = net_backward(blocks, vox, caches, d_logits)
    return [replace(b, layer=replace(b.layer, **{k: getattr(b.layer, k) - 0.005 * g for k, g in grad.items()}))
            for b, grad in zip(blocks, grads)]


def test_a_warm_step_maps_no_fresh_pages():
    """A warm SGD step on the benchmark's 4,000-point cloud reuses its large
    arrays.  When each step freed and re-requested them, this step took a
    median of 593 minor faults (2.4 MB of fresh pages; the benchmark's step
    937); with the scratch pool it takes 0.  The bound is one array the pool
    serves: ``2**17`` bytes span 32 pages."""
    faults = fresh_process_faults("""
from test_train import attention_net_and_cloud, benchmark_step
blocks, sample = attention_net_and_cloud(500, 8)
def op():
    global blocks
    blocks = benchmark_step(blocks, *sample)
""")
    assert faults < 2 ** 17 // resource.getpagesize()


def test_a_warm_forward_on_the_inference_cloud_maps_no_fresh_pages():
    """A warm forward on the benchmark's 100,000-point cloud reuses its
    ``(100000, 16)`` and ``(100000, 8)`` arrays, which the pool keeps at any
    size under its budget.  With a 1 MiB cap on the arrays it kept, this
    forward took 1,108 minor faults (4.5 MB of fresh pages; the benchmark's
    1,649); now 0."""
    faults = fresh_process_faults("""
from test_train import attention_net_and_cloud
from wreathlin.train import net_forward
blocks, (vox, x, _) = attention_net_and_cloud(12_500, 16)
def op():
    net_forward(blocks, vox, x)
""", warm=3, runs=7)
    assert faults < 2 ** 17 // resource.getpagesize()


def pool_bytes():
    return sum(buf.nbytes for bufs in arrays._POOL.values() for buf in bufs)


def test_the_scratch_pool_stays_bounded_and_lets_a_smaller_cloud_go(monkeypatch):
    """Steps on 4,000-point clouds keep their large arrays.  One forward on a
    100,000-point cloud asks for an array larger than all the pool keeps,
    which lets every shape go, and keeps its own arrays in their place."""
    monkeypatch.setattr(arrays, "_POOL", OrderedDict())
    blocks, (vox, x, labels) = attention_net_and_cloud(500, 8)
    for _ in range(3):
        blocks = benchmark_step(blocks, vox, x, labels)
        assert pool_bytes() <= arrays.POOL_BYTES
    assert any(shape[0] == 4000 for shape, _ in arrays._POOL)
    _, (big_vox, big_x, _) = attention_net_and_cloud(12_500, 16, seed=1)
    assert big_vox.n_points == 100_000
    net_forward(blocks, big_vox, big_x)
    assert pool_bytes() <= arrays.POOL_BYTES
    assert all(shape[0] != 4000 for shape, _ in arrays._POOL)
    assert any(shape[0] == 100_000 for shape, _ in arrays._POOL)


def test_net_forward_traced_memory_peak():
    # a noise-free stand-in for the benchmark's peak memory: numpy reports its
    # buffers to tracemalloc, so the peak of one pass repeats exactly
    blocks, (vox, x, _) = attention_net_and_cloud(2500, 8)
    net_forward(blocks, vox, x)
    _, peak = traced_peak(net_forward, blocks, vox, x)
    assert x.shape == (20_000, 6)
    assert peak < 10_000_000
