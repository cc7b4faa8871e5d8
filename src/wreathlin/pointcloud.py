"""Point clouds voxelized into a periodic grid, and layers respecting the
two-level symmetry of that arrangement: points within a voxel are
interchangeable, and the voxel grid may be shifted cyclically along each axis.

The basic layer maps point features ``X`` to

    ``X @ w_point + gather(conv(w_conv, mean_pool(X)))``

where ``mean_pool`` averages the points of each voxel, ``conv`` is a
circular 3-D convolution over the ``D x D x D`` grid, and ``gather`` hands
each point the value of its voxel.  A ``VoxelizedCloud`` is the points'
voxel ids and what follows from them.  Only occupied voxels hold a row; every
other voxel is zero, and since each point reads only its own voxel, cost
and memory follow the occupied voxels, not ``D**3``.  The global-pool
ablation is the same layer over a single voxel: every point assigned to the
one cell of a ``D = 1`` grid, whatever grid the cloud was voxelized into.  An
attention variant replaces the hard voxel assignment with a learned soft one
and is equivariant to arbitrary reorderings of the points.

Each layer class owns its ``forward`` and its ``backward``, and with them the
cache that passes between the two.  Both return arrays that share memory
with nothing live: not their inputs, not the cache, and no array a caller
still holds, so a caller may update them in place (the block epilogue in
``train`` adds its skip and rectifies that way).  The large ones come from
``arrays.scratch``, which hands a buffer out again only once nothing outside
its pool references it; what a caller drops, the next call may reuse, at any
size within the pool's byte budget, so a warm step on 4,000 points and a
warm forward on 100,000 both map no fresh pages.  Each backward reuses the
forward primitives: the adjoint of a broadcast to points is ``voxel_sum``,
that of a per-voxel mean pool is a gather of the gradient over the voxel
counts, and that of ``conv3d_periodic`` in its grid is ``conv3d_periodic``
with the kernel flipped in space and transposed in channels;
``conv3d_kernel_grad`` walks the forward's kernel taps.  Each is one gather
through a ``neighbour_table`` and one batched product over the taps, and the
table is built once per cloud and kernel width.  The samples
``train.make_seg_samples`` builds are in voxel order, so each voxel's points
are one run of rows, as each fiber of the engine's ``wr`` kernel is.  On such
a cloud, with at least ``RUN_MIN_ELEMENTS`` elements per occupied voxel,
``voxel_sum`` reduces each run in one call; elsewhere it bins chunks of
``CHUNK_ELEMENTS`` elements, carrying the running totals into each later call
as its first weights.  Both add each voxel's points in point order, so they
give the same bits.  The gather back to points adds into the layer's output a
chunk at a time, bit for bit one call, so neither kernel over the points holds
a temporary of all of them.  The attention
layer works latent-major: its assignment logits are ``(L, n)``, so the
softmax reduces over the short latent axis as ``L`` whole rows rather than
``n`` rows of length ``L``.  Each ``(n, c) @ (c, c')`` product over the points
runs through ``arrays.channel_mix``, in row blocks of at most
``2**19 // (c * c')`` rows: OpenBLAS's tall, skinny products slow two to three
times per row past about ``2**19`` multiply-adds a call.

Beside the layers the module holds the moves the equivariance checks apply
(``shift_assignment``, ``permute_points``, ``within_voxel_permutation``), the
toy blob scenes and the one-class-per-line prediction format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arrays import channel_mix, freeze_field, scratch
from .perm import InvalidDegreeError

# Elements that one chunk of a point temporary holds in voxel_sum and
# gather_to_points: 2**16 float64, 512 KiB.  The segnet_infer forward
# (100,000 points at c = 6 and 16) peaked at 35.8 against 42.5 MB under
# tracemalloc with one call per kernel, and interleaved with it in one
# process ran faster in 152 of 200 forwards.  Every segnet_train array fits
# in one chunk.
CHUNK_ELEMENTS = 2 ** 16
# Elements per occupied voxel, n * c / n_occ, from which voxel_sum reduces a
# cloud in runs one run at a time rather than by bincount.  On voxel-major
# blob clouds, one BLAS thread, bincount / runs in ms: 868 elements (c = 8)
# 0.168 / 0.201, 1,200 (c = 8) 0.265 / 0.260, 1,477 (c = 6) 0.394 / 0.359,
# 1,736 (c = 16) 0.338 / 0.251, 4,762 (c = 6) 3.74 / 1.95, 12,698 (c = 16)
# 6.24 / 3.00.  At c = 2 the two stay within 5% up to 4,651 elements.  So
# every segnet_train call (4,000 points in 55-64 voxels, at most about 1,170
# elements) bins, and segnet_infer (about 1,000 points a voxel) reduces runs.
RUN_MIN_ELEMENTS = 2 ** 11


class KernelError(ValueError):
    """The convolution kernel does not fit the grid (or has even width)."""


@dataclass(frozen=True)
class PointCloud:
    """Points in 3-space with per-point feature channels and optional labels."""

    coords: np.ndarray  # (n, 3)
    features: np.ndarray  # (n, c)
    labels: np.ndarray | None = None  # (n,) ints

    def __post_init__(self) -> None:
        shared = self.features is self.coords  # points whose features are their coordinates keep one copy
        freeze_field(self, "coords", self.coords)
        freeze_field(self, "features", self.coords if shared else self.features, copy=not shared)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {self.coords.shape}")
        if self.features.ndim != 2 or self.features.shape[0] != self.coords.shape[0]:
            raise ValueError("features must be (n, c) with one row per point")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coords must be finite")
        if self.labels is not None:
            freeze_field(self, "labels", self.labels, dtype=np.int64)
            if self.labels.shape != (self.coords.shape[0],):
                raise ValueError("labels must be (n,)")

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class VoxelizedCloud:
    """Hard assignment of points to a ``D**3`` voxel grid.

    ``assignment[i]`` is the flat voxel id ``ix * D**2 + iy * D + iz`` of point
    ``i``, in ``0 .. D**3 - 1``.  Derived from one count per voxel: ``occupied``,
    the ascending ids of voxels with a point, which per-voxel ``(n_occ, c)``
    rows follow, ``counts``, the points in each, and ``point_row[i]``, the row
    of point ``i``'s voxel.  ``runs`` is ``None`` unless the points of every
    voxel are one contiguous run of point indices, in whatever order the runs
    come; then its rows are ``(start, end, row)``, one per run in point order.
    The samples ``train.make_seg_samples`` builds are in voxel order, so they
    are in runs, and so are their grid shifts and within-voxel permutations;
    ``one_voxel`` is one run.  Its arrays are read-only, so each
    ``neighbour_table`` is built once per kernel width and kept with the cloud.
    """

    resolution: int
    assignment: np.ndarray  # (n,)
    occupied: np.ndarray = field(init=False)  # (n_occ,)
    counts: np.ndarray = field(init=False)  # (n_occ,)
    point_row: np.ndarray = field(init=False)  # (n,)
    runs: np.ndarray | None = field(init=False)  # (n_occ, 3) or None
    # kernel width -> neighbour_table
    _tables: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise InvalidDegreeError("resolution must be at least 1")
        freeze_field(self, "assignment", self.assignment, dtype=np.int64)
        ids, voxels = self.assignment, self.resolution ** 3
        if ids.ndim != 1 or (ids.size and not 0 <= ids.min() <= ids.max() < voxels):
            raise ValueError(f"assignment must be a 1-D array of voxel ids in 0 .. {voxels - 1}")
        per_voxel = np.bincount(ids, minlength=voxels)
        freeze_field(self, "occupied", np.flatnonzero(per_voxel), dtype=np.int64, copy=False)
        freeze_field(self, "counts", per_voxel[self.occupied], dtype=np.int64, copy=False)
        freeze_field(self, "point_row", np.searchsorted(self.occupied, ids), dtype=np.int64, copy=False)
        # each voxel's points are one run exactly when the row changes n_occ - 1 times
        change = self.point_row[1:] != self.point_row[:-1]
        runs = None
        if ids.size and np.count_nonzero(change) == len(self.occupied) - 1:
            bounds = np.concatenate([[0], np.flatnonzero(change) + 1, [ids.size]])
            runs = np.stack([bounds[:-1], bounds[1:], self.point_row[bounds[:-1]]], axis=1)
            runs.setflags(write=False)
        object.__setattr__(self, "runs", runs)

    @property
    def n_points(self) -> int:
        return self.assignment.shape[0]

    @cached_property
    def one_voxel(self) -> VoxelizedCloud:
        """The same points all assigned to the single voxel of a ``D = 1`` grid,
        built once per cloud, so its ``neighbour_table`` is too."""
        return VoxelizedCloud(1, np.zeros(self.n_points, dtype=np.int64))


def voxelize(cloud: PointCloud, resolution: int) -> tuple[VoxelizedCloud, np.ndarray]:
    """Scale the cloud's bounding box to ``[0, D)**3`` and bin the points; return
    the voxelization and the ``(n, 3)`` offsets from the voxel centers, in
    voxel units.  A degenerate extent along an axis is treated as one unit
    wide, with the points at the center of the first cell on that axis (so
    identical points get zero offsets).  Points on the upper boundary land in
    the last voxel.

    >>> coords = np.array([[0, 0, 0], [0.25, 0, 0], [1, 1, 1]])
    >>> vox, offsets = voxelize(PointCloud(coords, coords), 2)
    >>> vox.assignment.tolist(), vox.counts.tolist(), offsets.tolist()
    ([0, 0, 7], [2, 1], [[-0.5, -0.5, -0.5], [0.0, -0.5, -0.5], [0.5, 0.5, 0.5]])
    """
    if resolution < 1:
        raise InvalidDegreeError("resolution must be at least 1")
    coords = cloud.coords
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    degenerate = extent == 0
    # each (n, 3) step in place, in the order and rounding of the plain expressions
    scaled = coords - lo
    scaled /= np.where(degenerate, 1.0, extent)
    scaled *= resolution
    scaled[:, degenerate] = 0.5
    cell = np.floor(scaled)
    np.minimum(cell, resolution - 1, out=cell)
    # the flat id ix * D**2 + iy * D + iz, exact in float64
    vox = VoxelizedCloud(resolution, (cell @ [resolution ** 2, resolution, 1.0]).astype(np.int64))
    scaled -= np.add(cell, 0.5, out=cell)
    return vox, scaled


def voxel_sum(vox: VoxelizedCloud, x: np.ndarray) -> np.ndarray:
    """Sum of point values per occupied voxel, ``(n_occ, c)``, the adjoint of
    ``gather_to_points``.  Either path adds each voxel's points in ascending
    order, starting from zero, so both give the same bits.

    On a cloud in runs (``vox.runs``) with at least ``RUN_MIN_ELEMENTS``
    elements per occupied voxel, each run is one ``np.add.reduce`` over its
    rows.  Only a C-contiguous ``x`` of two or more channels goes that way:
    numpy sums a ``(k, 1)`` or column-major slice pairwise, not row by row.

    Everywhere else it is a flat ``bincount`` over (row, channel) bins, run
    over chunks of points.  Each later chunk's call takes the running totals
    as its first weights, at bins ``0 .. n_occ * c - 1``, so every bin still
    adds its points in ascending order, exactly as one call would.

    A voxel-major cloud and a shuffled copy of it pool to the same rows,
    here exactly, since the sums of small whole numbers do not round:

    >>> vox = VoxelizedCloud(2, np.repeat([0, 7], 2000))
    >>> vox.runs.tolist()
    [[0, 2000, 0], [2000, 4000, 1]]
    >>> x = np.arange(8000.0).reshape(4000, 2)
    >>> order = np.random.default_rng(0).permutation(4000)
    >>> shuffled = permute_points(vox, order)
    >>> shuffled.runs is None
    True
    >>> voxel_sum(vox, x).tolist()
    [[3998000.0, 4000000.0], [11998000.0, 12000000.0]]
    >>> np.array_equal(voxel_sum(shuffled, x[order]), voxel_sum(vox, x))
    True
    """
    x = np.asarray(x, dtype=np.float64)
    n_occ, c = len(vox.occupied), x.shape[1]
    if vox.runs is not None and c > 1 and x.flags.c_contiguous and x.size >= RUN_MIN_ELEMENTS * n_occ:
        totals = np.empty((n_occ, c))
        for start, end, row in vox.runs.tolist():
            np.add.reduce(x[start:end], axis=0, out=totals[row])
        return totals
    size = n_occ * c
    # at least n_occ * c elements a chunk, so the carried totals at most double the work
    step = max(CHUNK_ELEMENTS, size) // max(c, 1)

    def bins(rows: slice) -> np.ndarray:
        point_row = vox.point_row[rows]
        out = scratch((len(point_row), c), np.int64)
        return np.add(point_row[:, None] * c, np.arange(c), out=out).ravel()

    totals = np.bincount(bins(slice(0, step)), weights=x[:step].ravel(), minlength=size)
    for start in range(step, vox.n_points, step):
        rows = slice(start, start + step)
        totals = np.bincount(np.concatenate([np.arange(size), bins(rows)]),
                             weights=np.concatenate([totals, x[rows].ravel()]), minlength=size)
    return totals.reshape(n_occ, c)


def mean_pool(vox: VoxelizedCloud, x: np.ndarray) -> np.ndarray:
    """Mean of point values per occupied voxel, ``(n_occ, c)``."""
    return voxel_sum(vox, x) / vox.counts[:, None]


def gather_to_points(vox: VoxelizedCloud, per_voxel: np.ndarray, add_to: np.ndarray) -> np.ndarray:
    """Add to each point's row of the ``(n, c)`` array ``add_to`` the row of
    its voxel in ``(n_occ, c)`` values, a chunk of points at a time, and
    return ``add_to``."""
    c = per_voxel.shape[1]
    step = max(CHUNK_ELEMENTS // max(c, 1), 1)
    for start in range(0, vox.n_points, step):
        rows = vox.point_row[start:start + step]
        # every row is in range; mode="raise" would take into a copy of out
        add_to[start:start + step] += np.take(per_voxel, rows, axis=0, mode="clip",
                                              out=scratch((len(rows), c)))
    return add_to


def neighbour_table(vox: VoxelizedCloud, width: int) -> np.ndarray:
    """The ``(width, width, width, n_occ)`` rows that each kernel tap reads.

    Tap ``t`` of the voxel at ``v`` reads the voxel at ``v + t - width // 2``,
    wrapped on every axis; an empty one is row ``n_occ``, a zero row.  The
    table is read-only and built once per cloud and width.
    """
    if width in vox._tables:
        return vox._tables[width]
    D = vox.resolution
    if width % 2 == 0 or width > D:
        raise KernelError(f"kernel width must be odd and at most the resolution {D}, got {width}")
    offsets = np.indices((width,) * 3).reshape(3, -1, 1) - width // 2
    at = np.unravel_index(vox.occupied, (D,) * 3)
    read = np.ravel_multi_index(tuple(a + o for a, o in zip(at, offsets)), (D,) * 3, mode="wrap")
    row = np.searchsorted(vox.occupied, read)
    empty = vox.occupied.take(row, mode="clip") != read
    row[empty] = len(vox.occupied)
    table = row.reshape((width,) * 3 + (-1,))
    table.setflags(write=False)
    vox._tables[width] = table
    return table


def _tap_rows(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``(K**3, n_occ, c)``: the rows each tap reads, zero at empty voxels."""
    return np.concatenate([rows, np.zeros((1, rows.shape[1]))])[table.reshape(-1, table.shape[3])]


def conv3d_periodic(kernel: np.ndarray, rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Circular 3-D convolution of a grid given by its ``(n_occ, c_in)``
    occupied rows, all other voxels zero, at those rows.

    ``kernel`` is ``(K, K, K, c_in, c_out)`` and ``table`` the cloud's
    ``neighbour_table(vox, K)``; the taps are summed in order, and cost
    follows the ``K**3 * n_occ`` tap rows, not ``D**3``.  A delta kernel is
    the identity map.  The adjoint in the grid is the same convolution with
    the kernel flipped along its three spatial axes and its channels swapped.
    """
    if kernel.ndim != 5 or kernel.shape[:3] != table.shape[:3]:
        raise KernelError(f"kernel must be (K, K, K, c_in, c_out) with K = {table.shape[0]}, got {kernel.shape}")
    return np.matmul(_tap_rows(rows, table), kernel.reshape((-1,) + kernel.shape[3:])).sum(axis=0)


def _mix(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` over the points, into a :func:`~wreathlin.arrays.scratch` array."""
    return channel_mix(x, w, out=scratch((x.shape[0], w.shape[1])))


def conv3d_kernel_grad(rows: np.ndarray, d_out: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Gradient of ``conv3d_periodic`` with respect to its kernel, given the
    rows it convolved, the gradient of its output rows and the same table."""
    d_kernel = np.matmul(_tap_rows(rows, table).transpose(0, 2, 1), d_out)
    return d_kernel.reshape(table.shape[:3] + d_kernel.shape[1:])


@dataclass(frozen=True)
class WreathPCLayer:
    """Pointwise map plus a voxel-pooled circular convolution broadcast back."""

    w_point: np.ndarray  # (c_in, c_out)
    w_conv: np.ndarray  # (K, K, K, c_in, c_out)

    def __post_init__(self) -> None:
        freeze_field(self, "w_point", self.w_point)
        freeze_field(self, "w_conv", self.w_conv)
        if self.w_point.ndim != 2:
            raise ValueError("w_point must be (c_in, c_out)")
        if self.w_conv.ndim != 5 or self.w_conv.shape[3:] != self.w_point.shape:
            raise ValueError("w_conv must be (K, K, K, c_in, c_out) matching w_point")

    @property
    def c_in(self) -> int:
        return self.w_point.shape[0]

    @property
    def c_out(self) -> int:
        return self.w_point.shape[1]

    def forward(self, vox: VoxelizedCloud, x: np.ndarray) -> tuple[np.ndarray, dict]:
        table = neighbour_table(vox, self.w_conv.shape[0])
        pooled = mean_pool(vox, x)
        y = _mix(x, self.w_point)
        gather_to_points(vox, conv3d_periodic(self.w_conv, pooled, table), y)
        return y, {"x": x, "pooled": pooled, "table": table}

    def backward(self, vox: VoxelizedCloud, cache: dict, d_y: np.ndarray) -> tuple[dict, np.ndarray]:
        x, pooled, table = cache["x"], cache["pooled"], cache["table"]
        d_x = _mix(d_y, self.w_point.T)
        d_conv = voxel_sum(vox, d_y)
        d_w_conv = conv3d_kernel_grad(pooled, d_conv, table)
        flipped = self.w_conv[::-1, ::-1, ::-1].transpose(0, 1, 2, 4, 3)
        d_pooled = conv3d_periodic(flipped, d_conv, table)
        gather_to_points(vox, d_pooled / vox.counts[:, None], d_x)
        return {"w_point": x.T @ d_y, "w_conv": d_w_conv}, d_x


@dataclass(frozen=True)
class SetPCLayer(WreathPCLayer):
    """Pointwise map plus a global mean broadcast, ignoring all structure: the
    wreath layer over a single voxel, so ``w_conv`` is ``(1, 1, 1, c_in, c_out)``."""

    def forward(self, vox: VoxelizedCloud, x: np.ndarray) -> tuple[np.ndarray, dict]:
        return super().forward(vox.one_voxel, x)

    def backward(self, vox: VoxelizedCloud, cache: dict, d_y: np.ndarray) -> tuple[dict, np.ndarray]:
        return super().backward(vox.one_voxel, cache, d_y)


@dataclass(frozen=True)
class AttnPCLayer:
    """Soft-assignment pooling: rows attend to learned latent groups."""

    w_assign: np.ndarray  # (c_in, L)
    w_interact: np.ndarray  # (L, L, c_in, c_out)

    def __post_init__(self) -> None:
        freeze_field(self, "w_assign", self.w_assign)
        freeze_field(self, "w_interact", self.w_interact)
        if self.w_assign.ndim != 2 or self.w_interact.ndim != 4:
            raise ValueError("w_assign must be (c_in, L), w_interact (L, L, c_in, c_out)")
        L = self.w_assign.shape[1]
        if self.w_interact.shape[:2] != (L, L) or self.w_interact.shape[2] != self.w_assign.shape[0]:
            raise ValueError("w_interact shape inconsistent with w_assign")

    @property
    def c_in(self) -> int:
        return self.w_assign.shape[0]

    @property
    def c_out(self) -> int:
        return self.w_interact.shape[3]

    def forward(self, vox: VoxelizedCloud | None, x: np.ndarray) -> tuple[np.ndarray, dict]:
        soft = self.w_assign.T @ x.T  # (L, n) logits, softmax over latents in place
        soft -= soft.max(axis=0)
        np.exp(soft, out=soft)
        soft /= soft.sum(axis=0)
        pooled = soft @ x  # (L, c_in)
        mixed = np.einsum("lkcd,kc->ld", self.w_interact, pooled)  # (L, c_out)
        y = _mix(soft.T, mixed)
        return y, {"x": x, "soft": soft, "pooled": pooled, "mixed": mixed}

    def backward(self, vox: VoxelizedCloud, cache: dict, d_y: np.ndarray) -> tuple[dict, np.ndarray]:
        x, soft, pooled, mixed = cache["x"], cache["soft"], cache["pooled"], cache["mixed"]
        d_mixed = soft @ d_y  # (L, c_out)
        d_w_interact = np.einsum("ld,kc->lkcd", d_mixed, pooled)
        d_pooled = np.einsum("lkcd,ld->kc", self.w_interact, d_mixed)
        d_z = mixed @ d_y.T  # (L, n): the gradient of soft, then of its logits
        d_z += d_pooled @ x.T
        d_z -= (d_z * soft).sum(axis=0)
        d_z *= soft
        d_x = _mix(soft.T, d_pooled)
        d_x += _mix(d_z.T, self.w_assign.T)
        return {"w_assign": (d_z @ x).T, "w_interact": d_w_interact}, d_x


PCLayer = WreathPCLayer | SetPCLayer | AttnPCLayer


def pc_layer_forward(layer: PCLayer, vox: VoxelizedCloud, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Apply one point-cloud layer, returning intermediates for training."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (vox.n_points, layer.c_in):
        raise ValueError(f"input shape {x.shape} != ({vox.n_points}, {layer.c_in})")
    return layer.forward(vox, x)


def layer_backward(layer: PCLayer, vox: VoxelizedCloud, cache: dict, d_y: np.ndarray) -> tuple[dict, np.ndarray]:
    """Parameter gradients by field name, and the input gradient, of one layer."""
    return layer.backward(vox, cache, d_y)


def shift_assignment(vox: VoxelizedCloud, shifts: tuple[int, int, int]) -> VoxelizedCloud:
    """Relabel voxels by a cyclic shift per axis; points do not move."""
    D = vox.resolution
    idx = np.unravel_index(vox.assignment, (D, D, D))
    return VoxelizedCloud(D, np.ravel_multi_index([(i + s) % D for i, s in zip(idx, shifts)], (D, D, D)))


def permute_points(vox: VoxelizedCloud, order: np.ndarray) -> VoxelizedCloud:
    """Reorder the point rows of the voxelization by ``order``."""
    return VoxelizedCloud(vox.resolution, vox.assignment[np.asarray(order)])


def within_voxel_permutation(vox: VoxelizedCloud, rng: np.random.Generator) -> np.ndarray:
    """A random reordering of point rows that keeps each point in its voxel."""
    order = np.arange(vox.n_points)
    # a stable sort keeps each voxel's run of members in ascending point order
    by_voxel = np.argsort(vox.assignment, kind="stable")
    for members in np.split(by_voxel, np.cumsum(vox.counts)[:-1]):
        order[members] = rng.permutation(members)
    return order


def make_blob_scene(n_blobs: int, resolution: int, rng: np.random.Generator) -> np.ndarray:
    """Centers of ``n_blobs`` distinct voxels of a ``D**3`` grid, in [0, 1)^3."""
    if n_blobs > resolution ** 3:
        raise ValueError("more blobs than voxels")
    chosen = rng.choice(resolution ** 3, size=n_blobs, replace=False)
    return (np.stack(np.unravel_index(chosen, (resolution,) * 3), axis=1) + 0.5) / resolution


def sample_blob_cloud(
    centers: np.ndarray,
    points_per_blob: int,
    noise: float,
    resolution: int,
    rng: np.random.Generator,
) -> PointCloud:
    """Gaussian blob around each center; labels are blob indices.

    ``noise`` is the standard deviation in voxel units.  Features are the
    noisy coordinates themselves.
    """
    blobs = [center + noise / resolution * rng.standard_normal((points_per_blob, 3)) for center in centers]
    coords = np.concatenate(blobs)
    np.clip(coords, 0.0, 1.0, out=coords)
    return PointCloud(coords=coords, features=coords, labels=np.repeat(np.arange(len(centers)), points_per_blob))


def format_predictions(labels: np.ndarray) -> str:
    """One predicted class id per line."""
    return "\n".join(str(int(v)) for v in labels) + "\n"
