import itertools

import numpy as np
import pytest

import wreathlin.arrays as arrays
import wreathlin.pointcloud
from wreathlin.basis import constant_on_orbits, orbit_index, pattern_of_structure
from wreathlin.layer import EquivariantLayer, apply
from wreathlin.pointcloud import (
    AttnPCLayer,
    KernelError,
    PointCloud,
    SetPCLayer,
    VoxelizedCloud,
    WreathPCLayer,
    conv3d_kernel_grad,
    conv3d_periodic,
    format_predictions,
    gather_to_points,
    make_blob_scene,
    mean_pool,
    neighbour_table,
    pc_layer_forward,
    permute_points,
    sample_blob_cloud,
    shift_assignment,
    voxel_sum,
    voxelize,
    within_voxel_permutation,
)
from wreathlin.structure import parse_structure
from wreathlin.train import SegBlock, net_forward

from memory import traced_peak
from test_train import handed_off


def random_cloud(rng, n=30, c=4):
    return PointCloud(coords=rng.uniform(size=(n, 3)), features=rng.normal(size=(n, c)))


def test_point_cloud_validates_shapes():
    with pytest.raises(ValueError):
        PointCloud(coords=np.zeros((3, 2)), features=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PointCloud(coords=np.zeros((3, 3)), features=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        PointCloud(coords=np.full((2, 3), np.nan), features=np.zeros((2, 1)))


@pytest.mark.parametrize("make", [
    lambda: VoxelizedCloud(2, [0, 7]),
    lambda: PointCloud(coords=np.zeros((2, 3)), features=np.ones((2, 1)), labels=[0, 1]),
    lambda: WreathPCLayer(w_point=np.eye(2), w_conv=np.ones((1, 1, 1, 2, 2))),
    lambda: SetPCLayer(w_point=np.eye(2), w_conv=np.ones((1, 1, 1, 2, 2))),
    lambda: AttnPCLayer(w_assign=np.ones((2, 3)), w_interact=np.ones((3, 3, 2, 2))),
    lambda: EquivariantLayer(parse_structure("S(3)"), np.ones((2, 1, 1))),
], ids=["VoxelizedCloud", "PointCloud", "WreathPCLayer", "SetPCLayer", "AttnPCLayer", "EquivariantLayer"])
def test_array_holders_compare_and_hash_by_identity(make):
    """Array fields have no truth value, so a field-by-field ``==`` would
    raise: equal arrays still make two distinct objects."""
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_voxelize_single_point():
    vox, offsets = voxelize(PointCloud(coords=np.array([[5.0, -2.0, 9.0]]), features=np.zeros((1, 1))), 3)
    assert vox.assignment[0] == 0
    assert np.all(offsets == 0)


def test_voxelize_cube_corners():
    corners = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    vox, _ = voxelize(PointCloud(coords=corners, features=np.zeros((8, 1))), 2)
    assert sorted(vox.assignment.tolist()) == list(range(8))


def test_voxelize_identical_points():
    vox, offsets = voxelize(PointCloud(coords=np.full((5, 3), 0.7), features=np.zeros((5, 1))), 4)
    assert len(set(vox.assignment.tolist())) == 1
    assert np.all(offsets == 0)


def test_voxelize_offsets_bounded_and_occupancy_total():
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, n=60)
    vox, offsets = voxelize(cloud, 3)
    assert np.all(np.abs(offsets) <= 0.5 + 1e-12)
    assert vox.counts.sum() == 60
    assert vox.assignment.min() >= 0 and vox.assignment.max() < 27


def test_mean_pool_and_gather():
    coords = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.9, 0.9, 0.9]])
    cloud = PointCloud(coords=coords, features=np.array([[2.0], [4.0], [10.0]]))
    vox, _ = voxelize(cloud, 2)
    # only the two occupied voxels get a row, in ascending voxel order
    assert vox.occupied.tolist() == [0, 7]
    assert vox.point_row.tolist() == [0, 0, 1]
    pooled = mean_pool(vox, cloud.features)
    assert pooled.tolist() == [[3.0], [10.0]]
    back = gather_to_points(vox, pooled, np.zeros((3, 1)))
    assert back[0, 0] == back[1, 0] == 3.0


def test_occupied_rows_are_read_only_and_derived():
    rng = np.random.default_rng(17)
    vox, _ = voxelize(random_cloud(rng, n=40), 4)
    assert np.array_equal(vox.occupied, np.flatnonzero(np.bincount(vox.assignment, minlength=4 ** 3)))
    assert np.array_equal(vox.occupied[vox.point_row], vox.assignment)
    assert not vox.occupied.flags.writeable and not vox.point_row.flags.writeable
    # on a fully occupied grid the rows are the voxel ids themselves
    full, _ = voxelize(random_cloud(rng, n=40), 1)
    assert np.array_equal(full.point_row, full.assignment)


def test_counts_and_rows_follow_the_assignment():
    vox = VoxelizedCloud(2, [0, 0, 7])
    assert vox.occupied.tolist() == [0, 7] and vox.counts.tolist() == [2, 1] and vox.point_row.tolist() == [0, 0, 1]
    assert not vox.counts.flags.writeable
    # two points in two voxels pool apart: with unit weights each point adds its own value
    layer = WreathPCLayer(w_point=np.ones((1, 1)), w_conv=np.ones((1, 1, 1, 1, 1)))
    assert layer.forward(VoxelizedCloud(2, [0, 7]), np.array([[1.0], [2.0]]))[0].tolist() == [[2.0], [4.0]]


@pytest.mark.parametrize("assignment", [[0, -1], [0, 8], [[0, 1], [1, 0]]], ids=["negative", "D**3", "2-D"])
def test_voxelized_cloud_rejects_malformed_ids(assignment):
    with pytest.raises(ValueError, match=r"^assignment must be a 1-D array of voxel ids in 0 \.\. 7$"):
        VoxelizedCloud(2, np.array(assignment))


def test_value_objects_own_their_arrays():
    """A view its caller kept of an array it handed over writes into the
    caller's array alone: the cloud, the voxelization with its derived rows
    and the layer keep the values they were built with."""
    rng = np.random.default_rng(18)
    vox, _ = voxelize(random_cloud(rng, n=40), 4)
    given = vox.assignment.copy(), rng.uniform(size=(40, 3)), rng.normal(size=(4, 2))
    before = [a.copy() for a in given]
    views = [a[:] for a in given]
    held = VoxelizedCloud(4, given[0])
    cloud = PointCloud(coords=given[1], features=np.zeros((40, 1)))
    layer = WreathPCLayer(given[2], np.zeros((3, 3, 3, 4, 2)))
    for view in views:
        view[...] = view[-1]
    for kept, value in zip([held.assignment, cloud.coords, layer.w_point], before):
        assert np.array_equal(kept, value)
    assert np.array_equal(held.occupied[held.point_row], held.assignment)


def test_mean_pool_is_duplication_invariant():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, n=20, c=3)
    vox, _ = voxelize(cloud, 2)
    pooled = mean_pool(vox, cloud.features)
    dup = PointCloud(
        coords=np.vstack([cloud.coords] * 3), features=np.vstack([cloud.features] * 3)
    )
    vox_dup, _ = voxelize(dup, 2)
    assert np.allclose(mean_pool(vox_dup, dup.features), pooled)


def dense_voxel_sum(vox, x):
    """Dense reference: the sum over every one of the ``D**3`` voxels, empty ones zero."""
    c, n_voxels = x.shape[1], vox.resolution ** 3
    bins = (vox.assignment[:, None] * c + np.arange(c)).ravel()
    return np.bincount(bins, weights=x.ravel(), minlength=n_voxels * c).reshape(n_voxels, c)


def in_voxel_order(vox, x):
    """The cloud with its points sorted by voxel, stably, and their values."""
    order = np.argsort(vox.assignment, kind="stable")
    return permute_points(vox, order), x[order]


def each_voxel_contiguous(vox):
    """Whether every voxel's points span exactly as many indices as it has points."""
    index = np.arange(vox.n_points)
    first, last = np.full(len(vox.occupied), vox.n_points), np.full(len(vox.occupied), -1)
    np.minimum.at(first, vox.point_row, index)
    np.maximum.at(last, vox.point_row, index)
    return bool(np.all(last - first + 1 == vox.counts))


@pytest.fixture
def bincount_calls(monkeypatch):
    """A list that gains an entry at each ``np.bincount`` call."""
    calls, real = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_runs_are_each_voxels_contiguous_points():
    vox = VoxelizedCloud(2, [7, 7, 0, 0, 0, 3])
    assert vox.runs.tolist() == [[0, 2, 2], [2, 5, 0], [5, 6, 1]]
    assert not vox.runs.flags.writeable
    assert VoxelizedCloud(2, [0, 7, 0]).runs is None
    assert VoxelizedCloud(2, np.zeros(0, dtype=np.int64)).runs is None
    assert VoxelizedCloud(3, [5, 5]).one_voxel.runs.tolist() == [[0, 2, 0]]
    rng = np.random.default_rng(19)
    cloud = random_cloud(rng, n=300)
    vox, _ = voxelize(cloud, 3)
    assert vox.runs is None and not each_voxel_contiguous(vox)
    ordered, _ = in_voxel_order(vox, cloud.features)
    assert ordered.runs[:, 2].tolist() == list(range(len(ordered.occupied)))
    shifted = shift_assignment(ordered, (1, 2, 0))
    assert sorted(shifted.runs[:, 2].tolist()) != shifted.runs[:, 2].tolist()
    for moved in (ordered, shifted, permute_points(ordered, within_voxel_permutation(ordered, rng))):
        assert moved.runs is not None and each_voxel_contiguous(moved)
        assert np.array_equal(moved.runs[:, 0], np.concatenate([[0], moved.runs[:-1, 1]]))
        assert moved.runs[-1, 1] == moved.n_points
        for start, end, row in moved.runs.tolist():
            assert np.all(moved.point_row[start:end] == row)


@pytest.mark.parametrize("n", [37, 4000, 100000])
def test_voxel_sum_and_mean_pool_match_add_at_bit_for_bit(n, monkeypatch, bincount_calls):
    """Both paths, the run path serial and split over three threads, each
    channel count, and a voxel-major cloud, its grid shift (runs in another
    row order) and an arbitrary reordering of its points: every voxel adds
    its points as ``np.add.at`` does, to the bit."""
    monkeypatch.setattr(arrays.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    handed = handed_off(monkeypatch)
    rng = np.random.default_rng(n)
    cloud = random_cloud(rng, n=n, c=16)
    vox, features = in_voxel_order(voxelize(cloud, 8)[0], cloud.features)
    order = rng.permutation(n)
    layouts = [(vox, features), (shift_assignment(vox, (3, 0, 5)), features),
               (permute_points(vox, order), features[order])]
    assert [each_voxel_contiguous(v) for v, _ in layouts] == [v.runs is not None for v, _ in layouts]
    assert layouts[0][0].runs is not None and layouts[1][0].runs is not None
    if n > 37:
        assert layouts[2][0].runs is None
    for v, values in layouts:
        for c in (1, 2, 3, 8, 16):
            x = np.ascontiguousarray(values[:, :c])
            acc = np.zeros((8 ** 3, c))
            np.add.at(acc, v.assignment, x)
            for threshold, split in itertools.product((0, 2 ** 62), repeat=2):
                monkeypatch.setattr(wreathlin.pointcloud, "RUN_MIN_ELEMENTS", threshold)
                monkeypatch.setattr(arrays, "SPLIT_MIN_ROWS", split)
                for given in (x, np.asfortranarray(x)):
                    del bincount_calls[:], handed[:]
                    assert voxel_sum(v, given).tobytes() == acc[v.occupied].tobytes()
                    by_run = threshold == 0 and v.runs is not None and c > 1 and given.flags.c_contiguous
                    assert bool(bincount_calls) != by_run
                    assert len(handed) == (2 if by_run and split == 0 else 0)
            assert np.array_equal(dense_voxel_sum(v, x), acc)
            pooled = acc / np.maximum(np.bincount(v.assignment, minlength=8 ** 3), 1)[:, None]
            assert mean_pool(v, x).tobytes() == pooled[v.occupied].tobytes()
    # a sum of negative zeros is a positive zero on both paths, as np.add.at gives
    monkeypatch.setattr(arrays, "SPLIT_MIN_ROWS", 0)
    for threshold in (0, 2 ** 62):
        monkeypatch.setattr(wreathlin.pointcloud, "RUN_MIN_ELEMENTS", threshold)
        assert voxel_sum(vox, np.full((n, 3), -0.0)).tobytes() == np.zeros((len(vox.occupied), 3)).tobytes()
    # the split never splits a run: one run is one reduce, where two halves added would round apart
    x = np.ascontiguousarray(features[:, :8])
    monkeypatch.setattr(wreathlin.pointcloud, "RUN_MIN_ELEMENTS", 0)
    del handed[:]
    assert voxel_sum(vox.one_voxel, x).tobytes() == np.add.reduce(x, axis=0, keepdims=True).tobytes()
    assert len(handed) == 2
    if n > 37:
        halves = np.add.reduce(x[:n // 2], axis=0) + np.add.reduce(x[n // 2:], axis=0)
        assert halves.tobytes() != np.add.reduce(x, axis=0).tobytes()


def _rolled_grids(grid, K):
    """The whole grid rolled once per tap, so each voxel holds what the tap reads."""
    for tap in np.ndindex(K, K, K):
        shift = [K // 2 - t for t in tap]
        yield tap, np.roll(grid, shift, axis=(0, 1, 2)).reshape(-1, grid.shape[3])


def dense_conv(kernel, grid):
    """Dense reference convolution of a ``(D, D, D, c)`` grid: one matrix
    product per tap over all ``D**3`` voxels, the taps summed in order."""
    D = grid.shape[0]
    out = np.zeros((D ** 3, kernel.shape[4]))
    for tap, rolled in _rolled_grids(grid, kernel.shape[0]):
        out += rolled @ kernel[tap]
    return out.reshape(D, D, D, -1)


def dense_kernel_grad(grid, d_out, K):
    """Dense reference kernel gradient: one product per tap over the grid."""
    d_kernel = np.empty((K, K, K, grid.shape[3], d_out.shape[3]))
    for tap, rolled in _rolled_grids(grid, K):
        d_kernel[tap] = rolled.T @ d_out.reshape(-1, d_out.shape[3])
    return d_kernel


def cloud_on(D, voxels, rng):
    """A voxelized cloud with one to three points in each of the given voxels."""
    ids = np.ravel_multi_index(np.asarray(voxels).T, (D,) * 3)
    assignment = rng.permutation(np.repeat(ids, rng.integers(1, 4, size=len(ids))))
    return VoxelizedCloud(D, assignment)


def random_occupied(D, share, rng):
    """Voxel coordinates of a random subset, about ``share`` of the grid."""
    chosen = np.flatnonzero(rng.uniform(size=D ** 3) < share)
    return np.stack(np.unravel_index(chosen, (D,) * 3), axis=1)


def assert_matches_dense_reference(D, K, voxels, rng):
    """The occupied-voxel convolution and kernel gradient equal the dense
    ones, bit for bit, on the rows of the occupied voxels."""
    vox = cloud_on(D, voxels, rng)
    n_occ = len(vox.occupied)
    assert n_occ == len(voxels)
    kernel = rng.normal(size=(K, K, K, 2, 3))
    rows, d_rows = rng.normal(size=(n_occ, 2)), rng.normal(size=(n_occ, 3))
    grid, d_grid = np.zeros((D ** 3, 2)), np.zeros((D ** 3, 3))
    grid[vox.occupied], d_grid[vox.occupied] = rows, d_rows
    grid, d_grid = grid.reshape(D, D, D, 2), d_grid.reshape(D, D, D, 3)
    table = neighbour_table(vox, K)
    assert table.shape == (K, K, K, n_occ)
    out = conv3d_periodic(kernel, rows, table)
    assert np.array_equal(out, dense_conv(kernel, grid).reshape(-1, 3)[vox.occupied])
    assert np.array_equal(conv3d_kernel_grad(rows, d_rows, table), dense_kernel_grad(grid, d_grid, K))


@pytest.mark.parametrize("D, K", [(1, 1), (2, 1), (3, 3), (4, 3), (5, 5), (8, 3)])
def test_conv3d_and_kernel_grad_match_a_roll_per_tap_bit_for_bit(D, K):
    # a fully occupied grid
    assert_matches_dense_reference(D, K, list(np.ndindex(D, D, D)), np.random.default_rng(100 * D + K))


PARTIAL_OCCUPANCIES = {
    "empty voxels": (5, 3, random_occupied(5, 0.4, np.random.default_rng(0))),
    "empty voxels, wider kernel": (7, 5, random_occupied(7, 0.2, np.random.default_rng(1))),
    # each voxel's neighbours lie across the grid's edges
    "wraps around the edge": (6, 3, [(0, 0, 0), (5, 5, 5), (0, 5, 0), (5, 0, 5), (0, 0, 5)]),
    # neither voxel is within a tap of the other, so both read only empty ones
    "neighbours all empty": (5, 3, [(0, 0, 0), (2, 2, 2)]),
    "D = 1, K = 1": (1, 1, [(0, 0, 0)]),
}


@pytest.mark.parametrize("case", list(PARTIAL_OCCUPANCIES))
def test_occupied_conv3d_and_kernel_grad_match_the_dense_reference_bit_for_bit(case):
    D, K, voxels = PARTIAL_OCCUPANCIES[case]
    assert_matches_dense_reference(D, K, voxels, np.random.default_rng(len(case)))


def test_neighbour_table_reads_the_zero_row_for_empty_voxels():
    vox = cloud_on(5, [(0, 0, 0), (2, 2, 2), (2, 2, 3), (4, 4, 4)], np.random.default_rng(3))
    table = neighbour_table(vox, 3)
    # (0, 0, 0) reads (4, 4, 4) across three edges at tap (0, 0, 0)
    assert table[0, 0, 0, 0] == 3 and table[2, 2, 2, 3] == 0
    assert table[1, 1, 1].tolist() == [0, 1, 2, 3]  # the centre tap reads each voxel itself
    assert table[1, 1, 2, 1] == 2 and table[1, 1, 0, 2] == 1
    assert np.count_nonzero(table < 4) == 4 + 2 + 2


def test_neighbour_table_is_built_once_per_cloud_and_width():
    rng = np.random.default_rng(6)
    vox = cloud_on(5, random_occupied(5, 0.4, rng), rng)
    table = neighbour_table(vox, 3)
    assert neighbour_table(vox, 3) is table and neighbour_table(vox, 5) is not table
    with pytest.raises(ValueError):
        table[0, 0, 0, 0] = 0  # read-only, so no caller can change what the next one reads
    fresh = VoxelizedCloud(vox.resolution, vox.assignment)
    assert np.array_equal(neighbour_table(fresh, 3), table)
    layer = WreathPCLayer(w_point=rng.normal(size=(2, 3)), w_conv=rng.normal(size=(3, 3, 3, 2, 3)))
    x, d_y = rng.normal(size=(vox.n_points, 2)), rng.normal(size=(vox.n_points, 3))
    (y, cache), (y_fresh, cache_fresh) = layer.forward(vox, x), layer.forward(fresh, x)
    assert cache["table"] is table and np.array_equal(y, y_fresh)
    (grads, d_x), (grads_fresh, d_x_fresh) = layer.backward(vox, cache, d_y), layer.backward(fresh, cache_fresh, d_y)
    assert np.array_equal(d_x, d_x_fresh)
    assert all(np.array_equal(grads[k], grads_fresh[k]) for k in grads)


@pytest.mark.parametrize("D, K", [(2, 1), (3, 3), (5, 3), (5, 5)])
def test_conv3d_adjoint_is_flipped_transposed_kernel(D, K):
    rng = np.random.default_rng(10 * D + K)
    for share in (1.0, 0.3):
        vox = cloud_on(D, random_occupied(D, share, rng), rng)
        table, n_occ = neighbour_table(vox, K), len(vox.occupied)
        kernel = rng.normal(size=(K, K, K, 2, 3))
        g = rng.normal(size=(n_occ, 2))
        h = rng.normal(size=(n_occ, 3))
        flipped = kernel[::-1, ::-1, ::-1].transpose(0, 1, 2, 4, 3)
        lhs = np.vdot(conv3d_periodic(kernel, g, table), h)
        rhs = np.vdot(g, conv3d_periodic(flipped, h, table))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("D, K", [(3, 3), (5, 3)])
def test_conv3d_kernel_grad_is_the_kernel_adjoint(D, K):
    # conv3d_periodic is linear in its kernel, so <conv(k, g), h> == <k, grad(g, h)>
    rng = np.random.default_rng(D + K)
    for share in (1.0, 0.3):
        vox = cloud_on(D, random_occupied(D, share, rng), rng)
        table, n_occ = neighbour_table(vox, K), len(vox.occupied)
        kernel = rng.normal(size=(K, K, K, 2, 3))
        g = rng.normal(size=(n_occ, 2))
        h = rng.normal(size=(n_occ, 3))
        lhs = np.vdot(conv3d_periodic(kernel, g, table), h)
        rhs = np.vdot(kernel, conv3d_kernel_grad(g, h, table))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_conv3d_delta_kernel_is_identity():
    rng = np.random.default_rng(2)
    kernel = np.zeros((3, 3, 3, 3, 3))
    kernel[1, 1, 1] = np.eye(3)
    for share in (1.0, 0.3):
        vox = cloud_on(4, random_occupied(4, share, rng), rng)
        rows = rng.normal(size=(len(vox.occupied), 3))
        assert np.allclose(conv3d_periodic(kernel, rows, neighbour_table(vox, 3)), rows)


def test_conv3d_constant_grid_scales_by_kernel_sum():
    rng = np.random.default_rng(3)
    kernel = rng.normal(size=(3, 3, 3, 2, 5))
    vox = cloud_on(3, list(np.ndindex(3, 3, 3)), rng)
    rows = np.ones((27, 2)) * np.array([2.0, -1.0])
    out = conv3d_periodic(kernel, rows, neighbour_table(vox, 3))
    expected = np.array([2.0, -1.0]) @ kernel.sum(axis=(0, 1, 2))
    assert np.allclose(out, np.broadcast_to(expected, out.shape))


def test_conv3d_commutes_with_grid_shifts():
    rng = np.random.default_rng(4)
    for D, K, share in [(2, 1, 1.0), (3, 3, 1.0), (4, 3, 1.0), (4, 3, 0.4), (5, 3, 0.2)]:
        kernel = rng.normal(size=(K, K, K, 2, 2))
        vox = cloud_on(D, random_occupied(D, share, rng), rng)
        rows = rng.normal(size=(len(vox.occupied), 2))
        out = conv3d_periodic(kernel, rows, neighbour_table(vox, K))
        moved = shift_assignment(vox, tuple(rng.integers(0, D, size=3).tolist()))
        # each voxel's row travels with its points
        moved_rows = np.empty_like(rows)
        moved_rows[moved.point_row] = rows[vox.point_row]
        moved_out = conv3d_periodic(kernel, moved_rows, neighbour_table(moved, K))
        moved_back = gather_to_points(moved, moved_out, np.zeros((moved.n_points, 2)))
        assert np.allclose(moved_back, gather_to_points(vox, out, np.zeros((vox.n_points, 2))))


def test_conv3d_kernel_constraints():
    rng = np.random.default_rng(5)
    with pytest.raises(KernelError):
        neighbour_table(cloud_on(2, list(np.ndindex(2, 2, 2)), rng), 3)  # K > D
    with pytest.raises(KernelError):
        neighbour_table(cloud_on(4, list(np.ndindex(4, 4, 4)), rng), 2)  # K even
    table = neighbour_table(cloud_on(4, list(np.ndindex(4, 4, 4)), rng), 3)
    with pytest.raises(KernelError):
        conv3d_periodic(np.zeros((1, 1, 1, 1, 1)), np.zeros((64, 1)), table)  # K not the table's
    with pytest.raises(KernelError):
        conv3d_periodic(np.zeros((3, 3, 1, 1, 1)), np.zeros((64, 1)), table)  # not cubic


def dense_wreath_layer(layer, vox, x, d_y):
    """Dense reference ``WreathPCLayer`` forward and backward, over all
    ``D**3`` voxels with empty ones pooled to zero."""
    D, K = vox.resolution, layer.w_conv.shape[0]
    counts = np.maximum(np.bincount(vox.assignment, minlength=D ** 3), 1)[:, None]
    grid = (dense_voxel_sum(vox, x) / counts).reshape(D, D, D, layer.c_in)
    y = x @ layer.w_point
    y += dense_conv(layer.w_conv, grid).reshape(D ** 3, layer.c_out)[vox.assignment]
    d_x = d_y @ layer.w_point.T
    d_conv = dense_voxel_sum(vox, d_y).reshape(D, D, D, layer.c_out)
    d_w_conv = dense_kernel_grad(grid, d_conv, K)
    flipped = layer.w_conv[::-1, ::-1, ::-1].transpose(0, 1, 2, 4, 3)
    d_x += (dense_conv(flipped, d_conv).reshape(D ** 3, layer.c_in) / counts)[vox.assignment]
    return y, {"w_point": x.T @ d_y, "w_conv": d_w_conv}, d_x


@pytest.mark.parametrize("D, K", [(4, 3), (6, 3), (7, 5)])
def test_wreath_layer_matches_the_dense_layer_bit_for_bit(D, K):
    rng = np.random.default_rng(D * K)
    cloud = random_cloud(rng, n=60, c=4)
    vox, _ = voxelize(cloud, D)
    assert 1 < len(vox.occupied) < D ** 3
    layer = WreathPCLayer(w_point=rng.normal(size=(4, 3)), w_conv=rng.normal(size=(K, K, K, 4, 3)))
    d_y = rng.normal(size=(60, 3))
    y, cache = layer.forward(vox, cloud.features)
    grads, d_x = layer.backward(vox, cache, d_y)
    ref_y, ref_grads, ref_d_x = dense_wreath_layer(layer, vox, cloud.features, d_y)
    assert np.array_equal(y, ref_y) and np.array_equal(d_x, ref_d_x)
    assert grads.keys() == ref_grads.keys()
    assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)


def test_wreath_layer_memory_follows_the_occupied_voxels():
    # 50 points on a 64**3 grid: one dense (D**3, c) float grid is 16.8 MB
    rng = np.random.default_rng(18)
    D, c = 64, 8
    cloud = random_cloud(rng, n=50, c=c)
    vox, _ = voxelize(cloud, D)
    layer = WreathPCLayer(w_point=rng.normal(size=(c, c)), w_conv=rng.normal(size=(3, 3, 3, c, c)))
    d_y = rng.normal(size=(50, c))
    layer.backward(vox, layer.forward(vox, cloud.features)[1], d_y)
    _, peak = traced_peak(lambda: layer.backward(vox, layer.forward(vox, cloud.features)[1], d_y))
    assert peak < D ** 3 * c * 8


def test_chunks_of_one_row_give_the_one_call_bits(monkeypatch):
    """The point-cloud kernels over the points give the same bits a row per
    chunk as in one call: voxel sums carry their totals and gather-adds are
    elementwise."""
    rng = np.random.default_rng(24)
    cloud = random_cloud(rng, n=400, c=3)
    vox, _ = voxelize(cloud, 5)
    layer = WreathPCLayer(w_point=rng.normal(size=(3, 4)), w_conv=rng.normal(size=(3, 3, 3, 3, 4)))
    d_y = rng.normal(size=(400, 4))
    runs = []
    for budget in (2 ** 40, 1):
        monkeypatch.setattr(wreathlin.pointcloud, "CHUNK_ELEMENTS", budget)
        y, cache = layer.forward(vox, cloud.features)
        grads, d_x = layer.backward(vox, cache, d_y)
        runs.append([y, grads["w_point"], grads["w_conv"], d_x])
    assert all(np.array_equal(one_call, chunked) for one_call, chunked in zip(*runs))


def test_wreath_layer_holds_chunks_of_points_not_all_of_them():
    """50,000 points in the 512 voxels of a D = 8 grid at c = 16: the voxel
    sums' bins and the gathered voxel rows went in one array of all the
    points each, and the forward peaked at 2.08 times its output, forward
    plus backward at 3.11; in chunks they read 1.56 and 2.58."""
    rng = np.random.default_rng(24)
    n, c = 50_000, 16
    cloud = random_cloud(rng, n=n, c=c)
    vox, _ = voxelize(cloud, 8)
    layer = WreathPCLayer(w_point=rng.normal(size=(c, c)), w_conv=rng.normal(size=(3, 3, 3, c, c)))
    d_y = rng.normal(size=(n, c))
    layer.forward(vox, cloud.features)  # builds the neighbour table
    (y, cache), forward_peak = traced_peak(layer.forward, vox, cloud.features)
    assert forward_peak < 1.75 * y.nbytes
    _, peak = traced_peak(lambda: layer.backward(vox, layer.forward(vox, cloud.features)[1], d_y))
    assert peak < 2.85 * y.nbytes


def test_zero_kernel_identity_mixing_is_identity():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, n=25, c=3)
    vox, _ = voxelize(cloud, 3)
    layer = WreathPCLayer(w_point=np.eye(3), w_conv=np.zeros((3, 3, 3, 3, 3)))
    assert np.array_equal(pc_layer_forward(layer, vox, cloud.features)[0], cloud.features)


def test_single_occupancy_unit_kernel_collapses_to_pointwise_map():
    """With one point per voxel and a 1-tap kernel the voxel path adds a plain
    per-point linear term, so the layer is x @ (w_point + w_conv[0,0,0])."""
    rng = np.random.default_rng(6)
    coords = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    cloud = PointCloud(coords=coords, features=rng.normal(size=(8, 3)))
    vox, _ = voxelize(cloud, 2)
    layer = WreathPCLayer(
        w_point=rng.normal(size=(3, 2)), w_conv=rng.normal(size=(1, 1, 1, 3, 2))
    )
    y = pc_layer_forward(layer, vox, cloud.features)[0]
    assert np.allclose(y, cloud.features @ (layer.w_point + layer.w_conv[0, 0, 0]))


def test_wreath_layer_hierarchy_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        D = int(rng.integers(2, 5))
        K = 3 if D >= 3 else 1
        cloud = random_cloud(rng, n=int(rng.integers(5, 40)))
        vox, _ = voxelize(cloud, D)
        layer = WreathPCLayer(
            w_point=rng.normal(size=(4, 3)), w_conv=rng.normal(size=(K, K, K, 4, 3))
        )
        y = pc_layer_forward(layer, vox, cloud.features)[0]
        shifts = tuple(rng.integers(0, D, size=3).tolist())
        y_shift = pc_layer_forward(layer, shift_assignment(vox, shifts), cloud.features)[0]
        assert np.allclose(y, y_shift, atol=1e-10 * max(1.0, np.abs(y).max()))
        order = within_voxel_permutation(vox, rng)
        y_perm = pc_layer_forward(layer, permute_points(vox, order), cloud.features[order])[0]
        assert np.allclose(y[order], y_perm, atol=1e-10 * max(1.0, np.abs(y).max()))


def scan_within_voxel_permutation(vox, rng):
    """The former implementation: one scan of all points per voxel."""
    order = np.arange(vox.n_points)
    for v in np.unique(vox.assignment):
        members = np.flatnonzero(vox.assignment == v)
        order[members] = rng.permutation(members)
    return order


@pytest.mark.parametrize("n", [1, 30, 4_000, 100_000])
def test_within_voxel_permutation_draws_as_the_scan_did(n):
    vox, _ = voxelize(random_cloud(np.random.default_rng(n), n=n, c=1), 16)
    got = within_voxel_permutation(vox, np.random.default_rng(7))
    assert np.array_equal(got, scan_within_voxel_permutation(vox, np.random.default_rng(7)))


def test_set_layer_permutation_equivariance():
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, n=15)
    vox, _ = voxelize(cloud, 2)
    layer = SetPCLayer(w_point=rng.normal(size=(4, 3)), w_conv=rng.normal(size=(1, 1, 1, 4, 3)))
    y = pc_layer_forward(layer, vox, cloud.features)[0]
    order = rng.permutation(15)
    y_perm = pc_layer_forward(layer, permute_points(vox, order), cloud.features[order])[0]
    assert np.allclose(y[order], y_perm)


def test_set_layer_reuses_its_one_voxel_cloud():
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, n=30)
    vox, _ = voxelize(cloud, 3)
    layer = SetPCLayer(w_point=rng.normal(size=(4, 3)), w_conv=rng.normal(size=(1, 1, 1, 4, 3)))
    y, cache = layer.forward(vox, cloud.features)
    one = vox.one_voxel
    assert one is vox.one_voxel and 1 in one._tables
    table = one._tables[1]
    y_again, cache_again = layer.forward(vox, cloud.features)
    assert vox.one_voxel is one and cache_again["table"] is table
    assert np.array_equal(y_again, y)
    d_y = rng.normal(size=y.shape)
    (grads, d_x), (grads_again, d_x_again) = layer.backward(vox, cache, d_y), layer.backward(vox, cache_again, d_y)
    assert np.array_equal(d_x_again, d_x) and all(np.array_equal(grads_again[k], g) for k, g in grads.items())


def test_set_layer_pools_its_one_voxel_as_one_run(bincount_calls):
    """The one voxel is one run whatever the order of the points, so a large
    cloud pools by one reduce over all its rows, with the bits of ``np.add.at``."""
    rng = np.random.default_rng(11)
    n, c = 5000, 8
    cloud = random_cloud(rng, n=n, c=c)
    vox, _ = voxelize(cloud, 4)
    assert vox.runs is None and vox.one_voxel.runs.tolist() == [[0, n, 0]]
    assert n * c >= wreathlin.pointcloud.RUN_MIN_ELEMENTS
    layer = SetPCLayer(w_point=rng.normal(size=(c, 3)), w_conv=rng.normal(size=(1, 1, 1, c, 3)))
    d_y = rng.normal(size=(n, 3))
    del bincount_calls[:]
    _, cache = layer.forward(vox, cloud.features)
    layer.backward(vox, cache, d_y)
    assert not bincount_calls
    total = np.zeros((1, c))
    np.add.at(total, np.zeros(n, dtype=np.int64), cloud.features)
    assert voxel_sum(vox.one_voxel, cloud.features).tobytes() == total.tobytes()
    assert cache["pooled"].tobytes() == (total / n).tobytes()


def test_set_layer_is_the_global_mean_pool_closed_form():
    rng = np.random.default_rng(10)
    n = 40
    cloud = random_cloud(rng, n=n)
    vox, _ = voxelize(cloud, 3)
    assert len(vox.occupied) > 1
    w_point, w_conv = rng.normal(size=(4, 3)), rng.normal(size=(1, 1, 1, 4, 3))
    layer = SetPCLayer(w_point=w_point, w_conv=w_conv)
    x, d_y = cloud.features, rng.normal(size=(n, 3))
    y, cache = layer.forward(vox, x)
    grads, d_x = layer.backward(vox, cache, d_y)

    mean, w_pool = x.mean(axis=0), w_conv[0, 0, 0]
    np.testing.assert_allclose(y, x @ w_point + mean @ w_pool, rtol=1e-12)
    np.testing.assert_allclose(grads["w_point"], x.T @ d_y, rtol=1e-12)
    np.testing.assert_allclose(grads["w_conv"][0, 0, 0], np.outer(mean, d_y.sum(axis=0)), rtol=1e-12)
    np.testing.assert_allclose(d_x, d_y @ w_point.T + (w_pool @ d_y.sum(axis=0)) / n, rtol=1e-12)

    # the layer ignores the grid: a shifted or coarser voxelization changes nothing
    for other in (shift_assignment(vox, (1, 2, 0)), voxelize(cloud, 2)[0]):
        y_other, cache_other = layer.forward(other, x)
        assert np.array_equal(y_other, y)
        grads_other, d_x_other = layer.backward(other, cache_other, d_y)
        assert np.array_equal(d_x_other, d_x)
        assert all(np.array_equal(grads_other[k], grads[k]) for k in grads)


def assert_engine_layer(layer, vox, text, used):
    """``layer`` on ``vox`` is the engine's layer of the structure ``text``:
    its dense map, one forward per unit input, is constant on the
    structure's orbits for every channel pair and nonzero on ``used`` of
    them, and the engine layer read off its orbits' first entries applies
    as ``forward`` does."""
    expr, n, c_in, c_out = parse_structure(text), vox.n_points, layer.c_in, layer.c_out
    dense = np.empty((n, n, c_in, c_out))  # [i, j, ci, co]: output (i, co) of input (j, ci)
    for j in range(n):
        for ci in range(c_in):
            unit = np.zeros((n, c_in))
            unit[j, ci] = 1.0
            dense[:, j, ci] = layer.forward(vox, unit)[0]
    pattern = pattern_of_structure(expr)
    for ci in range(c_in):
        for co in range(c_out):
            assert constant_on_orbits(dense[:, :, ci, co], pattern)
            assert len(np.unique(pattern.orbit_id[dense[:, :, ci, co] != 0])) == used
    rows, cols, _ = orbit_index(expr)
    engine = EquivariantLayer(expr, dense[rows, cols])
    x = np.random.default_rng(n).normal(size=(n, c_in))
    np.testing.assert_allclose(apply(engine, x), layer.forward(vox, x)[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("D, K, q", [(3, 3, 2), (4, 3, 3), (5, 3, 2), (3, 1, 4)])
def test_voxel_layer_is_the_engines_wreath_map(D, K, q):
    """With ``q`` points in every voxel, voxel-major, the voxel layer is the
    engine's map of ``wr(S(q), prod(C(D), prod(C(D), C(D))))``: it uses the
    two orbits of each voxel's own points and the ``K**3 - 1`` voxel offsets
    of its kernel window besides the centre, ``K**3 + 1`` of the
    structure's ``D**3 + 1`` orbits."""
    rng = np.random.default_rng(D * 100 + K * 10 + q)
    vox = VoxelizedCloud(D, np.repeat(np.arange(D ** 3), q))
    layer = WreathPCLayer(w_point=rng.normal(size=(2, 3)), w_conv=rng.normal(size=(K, K, K, 2, 3)))
    assert_engine_layer(layer, vox, f"wr(S({q}),prod(C({D}),prod(C({D}),C({D}))))", K ** 3 + 1)


def coefficient_map_weights(layer, D, q, expr, sign=1):
    """The engine weights of ``wr(S(q), prod(C(D), prod(C(D), C(D))))`` that
    ``layer`` is on ``q`` points per voxel, built from its own weights:
    ``w_point + w_conv[centre] / q`` on each voxel's own diagonal and
    ``w_conv[centre] / q`` off it; between voxels, tap ``a`` at voxel offset
    ``sign * (a - K // 2) mod D`` on each axis, divided by ``q``, and zero
    outside the kernel window.  They are listed by ``wr`` candidate (the two
    inner orbits of the outer diagonal, then each outer offset besides zero,
    ``ix * D**2 + iy * D + iz``) and mapped to canonical order by the rank
    ``orbit_index`` gives."""
    K = layer.w_conv.shape[0]
    per_candidate = np.zeros((D ** 3 + 1,) + layer.w_point.shape)
    centre = layer.w_conv[K // 2, K // 2, K // 2] / q
    per_candidate[0], per_candidate[1] = layer.w_point + centre, centre
    for tap in np.ndindex(K, K, K):
        offset = np.ravel_multi_index([sign * (a - K // 2) % D for a in tap], (D,) * 3)
        if offset:
            per_candidate[1 + offset] = layer.w_conv[tap] / q
    weights = np.empty_like(per_candidate)
    weights[orbit_index(expr)[2]] = per_candidate
    return weights


@pytest.mark.parametrize("D, K, q", [(3, 3, 2), (4, 3, 3), (5, 3, 2), (3, 1, 4)])
def test_voxel_layer_is_the_engines_wreath_map_by_its_coefficient_map(D, K, q):
    """The engine layer built from the voxel layer's weights through the
    coefficient map applies as ``forward`` does; with each tap's offset
    negated it does not, so the tap sign is fixed."""
    rng = np.random.default_rng(D * 100 + K * 10 + q + 1)
    vox = VoxelizedCloud(D, np.repeat(np.arange(D ** 3), q))
    layer = WreathPCLayer(w_point=rng.normal(size=(2, 3)), w_conv=rng.normal(size=(K, K, K, 2, 3)))
    expr = parse_structure(f"wr(S({q}),prod(C({D}),prod(C({D}),C({D}))))")
    x = rng.normal(size=(vox.n_points, 2))
    y = layer.forward(vox, x)[0]
    engine = EquivariantLayer(expr, coefficient_map_weights(layer, D, q, expr))
    np.testing.assert_allclose(apply(engine, x), y, rtol=0, atol=1e-12)
    if K > 1:
        mirrored = EquivariantLayer(expr, coefficient_map_weights(layer, D, q, expr, sign=-1))
        assert np.abs(apply(mirrored, x) - y).max() > 1e-3


def test_set_layer_is_the_engines_set_map():
    rng = np.random.default_rng(11)
    vox, _ = voxelize(random_cloud(rng, n=9), 3)
    layer = SetPCLayer(w_point=rng.normal(size=(2, 3)), w_conv=rng.normal(size=(1, 1, 1, 2, 3)))
    assert_engine_layer(layer, vox, "S(9)", 2)


def test_attention_layer_full_permutation_equivariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 4))
    layer = AttnPCLayer(
        w_assign=rng.normal(size=(4, 3)), w_interact=rng.normal(size=(3, 3, 4, 2))
    )
    y = layer.forward(None, x)[0]
    order = rng.permutation(20)
    assert np.allclose(y[order], layer.forward(None, x[order])[0], atol=1e-10)


def test_attention_single_latent_broadcasts_a_global_statistic():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(12, 4))
    layer = AttnPCLayer(
        w_assign=rng.normal(size=(4, 1)), w_interact=rng.normal(size=(1, 1, 4, 3))
    )
    y = layer.forward(None, x)[0]
    assert np.allclose(y, y[0])  # every row identical
    pooled = x.sum(axis=0)
    expected = np.array([pooled @ layer.w_interact[0, 0, :, d] for d in range(3)])
    assert np.allclose(y[0], expected)


def _attn_points_major(layer, x, d_y):
    """Reference attention layer with points as rows: ``(n, L)`` logits and
    a softmax along each row; returns ``y``, the gradients and ``d_x``."""
    z = x @ layer.w_assign
    e = np.exp(z - z.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    pooled = soft.T @ x
    mixed = np.einsum("lkcd,kc->ld", layer.w_interact, pooled)
    d_mixed = soft.T @ d_y
    d_pooled = np.einsum("lkcd,ld->kc", layer.w_interact, d_mixed)
    d_soft = d_y @ mixed.T + x @ d_pooled.T
    d_z = soft * (d_soft - (d_soft * soft).sum(axis=1, keepdims=True))
    grads = {"w_assign": x.T @ d_z, "w_interact": np.einsum("ld,kc->lkcd", d_mixed, pooled)}
    return soft @ mixed, grads, soft @ d_pooled + d_z @ layer.w_assign.T


@pytest.mark.parametrize("L", [1, 4, 9])
def test_attention_latent_major_matches_points_major_reference(L):
    # at L = 9 numpy sums the latent axis pairwise in one layout and not the other
    rng = np.random.default_rng(L)
    layer = AttnPCLayer(w_assign=rng.normal(size=(5, L)), w_interact=rng.normal(size=(L, L, 5, 3)))
    x = rng.normal(size=(257, 5))
    d_y = rng.normal(size=(257, 3))
    y, cache = layer.forward(None, x)
    grads, d_x = layer.backward(None, cache, d_y)
    ref_y, ref_grads, ref_d_x = _attn_points_major(layer, x, d_y)
    pairs = [(y, ref_y), (d_x, ref_d_x)] + [(grads[k], ref_grads[k]) for k in ref_grads]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_attention_zero_interaction_gives_zero():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(9, 4))
    layer = AttnPCLayer(w_assign=rng.normal(size=(4, 2)), w_interact=np.zeros((2, 2, 4, 3)))
    assert np.array_equal(layer.forward(None, x)[0], np.zeros((9, 3)))


def test_segnet_zero_weights_zero_logits():
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, n=10, c=3)
    vox, _ = voxelize(cloud, 2)
    blocks = [
        SegBlock(WreathPCLayer(w_point=np.zeros((3, 3)), w_conv=np.zeros((1, 1, 1, 3, 3))),
                 rectify=True),
        SegBlock(WreathPCLayer(w_point=np.zeros((3, 2)), w_conv=np.zeros((1, 1, 1, 3, 2))),
                 rectify=False),
    ]
    assert np.array_equal(net_forward(blocks, vox, cloud.features)[0], np.zeros((10, 2)))


def test_segnet_channel_mismatch_raises():
    rng = np.random.default_rng(13)
    cloud = random_cloud(rng, n=6, c=3)
    vox, _ = voxelize(cloud, 2)
    blocks = [
        SegBlock(WreathPCLayer(w_point=np.zeros((4, 2)), w_conv=np.zeros((1, 1, 1, 4, 2))),
                 rectify=False)
    ]
    with pytest.raises(ValueError):
        net_forward(blocks, vox, cloud.features)


def test_segnet_end_to_end_hierarchy_equivariance():
    rng = np.random.default_rng(14)
    cloud = random_cloud(rng, n=24, c=3)
    vox, _ = voxelize(cloud, 3)
    blocks = [
        SegBlock(WreathPCLayer(w_point=rng.normal(size=(3, 3)),
                               w_conv=rng.normal(size=(3, 3, 3, 3, 3))), rectify=True),
        SegBlock(WreathPCLayer(w_point=rng.normal(size=(3, 2)),
                               w_conv=rng.normal(size=(3, 3, 3, 3, 2))), rectify=False),
    ]
    y = net_forward(blocks, vox, cloud.features)[0]
    order = within_voxel_permutation(vox, rng)
    y_perm = net_forward(blocks, permute_points(vox, order), cloud.features[order])[0]
    assert np.allclose(y[order], y_perm)


def test_blob_scene_centers_distinct_voxels():
    rng = np.random.default_rng(15)
    centers = make_blob_scene(6, 4, rng)
    assert centers.shape == (6, 3)
    cells = {tuple(np.floor(c * 4).astype(int)) for c in centers}
    assert len(cells) == 6


def test_sample_blob_cloud_labels_and_shapes():
    rng = np.random.default_rng(16)
    centers = make_blob_scene(3, 4, rng)
    cloud = sample_blob_cloud(centers, points_per_blob=5, noise=0.1, resolution=4, rng=rng)
    assert cloud.n_points == 15
    assert sorted(set(cloud.labels.tolist())) == [0, 1, 2]
    assert np.all((cloud.coords >= 0) & (cloud.coords <= 1))


def test_coordinates_that_are_the_features_are_kept_once():
    rng = np.random.default_rng(17)
    coords = rng.uniform(size=(10, 3))
    cloud = PointCloud(coords=coords, features=coords)
    assert np.shares_memory(cloud.coords, cloud.features) and not np.shares_memory(cloud.coords, coords)
    assert not cloud.features.flags.writeable
    apart = PointCloud(coords=coords, features=coords.copy())
    assert not np.shares_memory(apart.coords, apart.features)
    blobs = sample_blob_cloud(make_blob_scene(3, 4, rng), points_per_blob=5, noise=0.1, resolution=4, rng=rng)
    assert np.shares_memory(blobs.coords, blobs.features)


def test_format_predictions():
    assert format_predictions(np.array([2, 0, 1])) == "2\n0\n1\n"
