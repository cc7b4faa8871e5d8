"""The point-cloud block stack and its training: each block's identity skip
and rectifier, reverse mode through the stack (each layer supplies its own
``backward``), plain SGD, and the blob segmentation experiment.

A block adds its skip and rectifies in place in the array its layer
returns, which shares memory with nothing live, and caches that output as
``out``; the backward masks by ``out > 0``, which is where the rectifier's
input was positive.  The loss gradient and the masked gradients come from
``arrays.scratch`` too, so a warm step reuses the arrays the last one dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .arrays import scratch, split_rows
from .pointcloud import (
    CHUNK_ELEMENTS,
    AttnPCLayer,
    PCLayer,
    SetPCLayer,
    VoxelizedCloud,
    WreathPCLayer,
    layer_backward,
    pc_layer_forward,
    permute_points,
    sample_blob_cloud,
    voxelize,
)


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite during training."""


def loss_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Uniform logits over ``K`` classes give ``log(K)``.  The gradient is
    ``(softmax - onehot) / n``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    # the class-axis max by columns: numpy reduces a short last axis one row at a time
    top = logits[:, 0].copy()
    for j in range(1, k):
        np.maximum(top, logits[:, j], out=top)
    # z, then e = exp(z), then the softmax and its gradient, all in one array
    z = np.subtract(logits, top[:, None], out=scratch((n, k)))
    picked = z[np.arange(n), labels]
    e = np.exp(z, out=z)
    norm = e.sum(axis=1)
    loss = float(np.mean(np.log(norm) - picked))
    soft = np.divide(e, norm[:, None], out=e)
    soft[np.arange(n), labels] -= 1.0
    soft /= n
    return loss, soft


@dataclass(frozen=True)
class SegBlock:
    """One network block: a layer, an identity skip when shapes allow, and an
    optional rectifier (omitted on the final block)."""

    layer: PCLayer
    rectify: bool

    @property
    def has_skip(self) -> bool:
        return self.layer.c_in == self.layer.c_out


def block_forward(block: SegBlock, vox: VoxelizedCloud, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """The layer's output plus the skip, rectified, all in place in the
    layer's output array, which the cache also keeps as ``out``."""
    y, cache = pc_layer_forward(block.layer, vox, x)

    def epilogue(start: int, stop: int) -> None:
        rows = y[start:stop]
        if block.has_skip:
            rows += x[start:stop]
        if block.rectify:
            np.maximum(rows, 0.0, out=rows)

    if block.has_skip or block.rectify:
        split_rows(len(y), epilogue)
    cache["out"] = y
    return y, cache


def net_forward(
    blocks: tuple[SegBlock, ...] | list[SegBlock], vox: VoxelizedCloud, x: np.ndarray
) -> tuple[np.ndarray, list[dict]]:
    """Run the block stack: the last block's output (the per-point logits)
    and one cache per block for ``net_backward``."""
    h = np.asarray(x, dtype=np.float64)
    caches = []
    for block in blocks:
        h, cache = block_forward(block, vox, h)
        caches.append(cache)
    return h, caches


def net_backward(
    blocks: tuple[SegBlock, ...] | list[SegBlock],
    vox: VoxelizedCloud,
    caches: list[dict],
    d_logits: np.ndarray,
) -> tuple[list[dict], np.ndarray]:
    """Per-block parameter gradients (last to first reversed back to order)."""
    grads: list[dict] = [None] * len(blocks)  # type: ignore[list-item]
    d_h = d_logits
    for i in range(len(blocks) - 1, -1, -1):
        block, cache = blocks[i], caches[i]
        if block.rectify:
            # a rectified output is positive where its input was
            d_h = _mask(d_h, cache["out"])
        layer_grads, d_x = layer_backward(block.layer, vox, cache, d_h)
        if block.has_skip:
            d_x += d_h
        grads[i] = layer_grads
        d_h = d_x
    return grads, d_h


def _mask(d_y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``d_y`` where ``out > 0`` and zero elsewhere, in a scratch array."""
    d_x = scratch(d_y.shape)

    def mask(start: int, stop: int) -> None:
        np.multiply(d_y[start:stop], out[start:stop] > 0, out=d_x[start:stop])

    split_rows(len(d_y), mask)
    return d_x


def _block_params(block: SegBlock) -> dict[str, np.ndarray]:
    """The layer's trainable arrays by name: every field of a layer is one."""
    return {f.name: getattr(block.layer, f.name) for f in fields(block.layer)}


def evaluate(
    blocks: tuple[SegBlock, ...] | list[SegBlock],
    samples: list[tuple[VoxelizedCloud, np.ndarray, np.ndarray]],
) -> tuple[float, float]:
    """Mean loss and mean per-point accuracy over ``(vox, x, labels)`` samples."""
    losses = []
    correct = 0
    total = 0
    for vox, x, labels in samples:
        logits, _ = net_forward(blocks, vox, x)
        loss, _ = loss_ce(logits, labels)
        losses.append(loss)
        correct += int((logits.argmax(axis=1) == labels).sum())
        total += len(labels)
    return float(np.mean(losses)), correct / total


def sgd_train(
    blocks: tuple[SegBlock, ...] | list[SegBlock],
    samples: list[tuple[VoxelizedCloud, np.ndarray, np.ndarray]],
    epochs: int,
    lr: float,
    seed: int = 0,
) -> tuple[list[SegBlock], list[tuple[int, float, float]]]:
    """Plain SGD, one step per sample, samples shuffled each epoch by ``seed``.

    Returns the trained blocks and a trace of ``(epoch, loss, accuracy)``
    rows, where row 0 is the state before any update.  Raises
    :class:`TrainingDivergedError` if the loss stops being finite.
    """
    blocks = list(blocks)
    rng = np.random.default_rng(seed)
    trace = []

    def record(epoch: int) -> None:
        loss, acc = evaluate(blocks, samples)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss {loss} at epoch {epoch}")
        trace.append((epoch, loss, acc))

    def step(vox: VoxelizedCloud, x: np.ndarray, labels: np.ndarray) -> None:
        # a function, so the step's arrays are idle for the next step to reuse
        logits, caches = net_forward(blocks, vox, x)
        _, d_logits = loss_ce(logits, labels)
        grads, _ = net_backward(blocks, vox, caches, d_logits)
        for i, block in enumerate(blocks):
            update = {name: value - lr * grads[i][name] for name, value in _block_params(block).items()}
            blocks[i] = replace(block, layer=replace(block.layer, **update))

    record(0)
    for epoch in range(1, epochs + 1):
        for idx in rng.permutation(len(samples)):
            step(*samples[idx])
        record(epoch)
    return blocks, trace


def trace_csv(trace: list[tuple[int, float, float]]) -> str:
    lines = ["epoch,loss,accuracy"]
    lines.extend(f"{e},{loss!r},{acc!r}" for e, loss, acc in trace)
    return "\n".join(lines) + "\n"


def init_wreath_layer(c_in: int, c_out: int, k: int, rng: np.random.Generator) -> WreathPCLayer:
    s = 1.0 / np.sqrt(c_in)
    return WreathPCLayer(
        w_point=rng.uniform(-s, s, size=(c_in, c_out)),
        w_conv=rng.uniform(-s, s, size=(k, k, k, c_in, c_out)),
    )


def init_set_layer(c_in: int, c_out: int, rng: np.random.Generator) -> SetPCLayer:
    return SetPCLayer(**vars(init_wreath_layer(c_in, c_out, 1, rng)))


def init_attn_layer(c_in: int, c_out: int, n_latent: int, rng: np.random.Generator) -> AttnPCLayer:
    s = 1.0 / np.sqrt(c_in)
    t = 1.0 / np.sqrt(c_in * n_latent)
    return AttnPCLayer(
        w_assign=rng.uniform(-s, s, size=(c_in, n_latent)),
        w_interact=rng.uniform(-t, t, size=(n_latent, n_latent, c_in, c_out)),
    )


# the blob task's shape
FEATURE_CHANNELS = 6  # noisy position and within-voxel offset
TRAIN_CLOUDS, HELD_OUT_CLOUDS = 6, 3
HIDDEN_WIDTH = 8


def kernel_width(resolution: int) -> int:
    """The blob task's convolution width: 3, or 1 on grids narrower than 3."""
    return 3 if resolution >= 3 else 1


def make_seg_samples(
    centers: np.ndarray,
    n_samples: int,
    points_per_blob: int,
    noise: float,
    feature_noise: float,
    resolution: int,
    rng: np.random.Generator,
) -> list[tuple[VoxelizedCloud, np.ndarray, np.ndarray]]:
    """Segmentation samples from a fixed blob scene, fresh noise per draw.

    Features are a corrupted copy of each point's position (Gaussian noise of
    scale ``feature_noise``) plus the clean within-voxel offsets,
    ``FEATURE_CHANNELS`` in total; labels are blob indices.  Voxel assignment
    uses the clean positions, so per-voxel pooling can average the corruption
    away while any purely per-point map cannot.  Each sample comes in voxel
    order: one stable sort by voxel id reorders its voxelization, features
    and labels alike, so each voxel's points are one run of rows
    (``VoxelizedCloud.runs``).  The sort draws nothing from ``rng``.
    """
    samples = []
    for _ in range(n_samples):
        cloud = sample_blob_cloud(centers, points_per_blob, noise, resolution, rng)
        vox, offsets = voxelize(cloud, resolution)
        noisy = cloud.coords + feature_noise * rng.normal(size=cloud.coords.shape)
        # one stable sort puts the points in voxel order.  The features are
        # gathered into it a chunk of rows at a time, and the unsorted arrays
        # freed before the sorted voxelization is built: whole-array gathers
        # left the 100,000-point cloud's heap about 2 MB larger.
        order = np.argsort(vox.assignment, kind="stable")
        x = np.empty((vox.n_points, FEATURE_CHANNELS))
        step = CHUNK_ELEMENTS // FEATURE_CHANNELS
        for start in range(0, vox.n_points, step):
            rows = order[start:start + step]
            x[start:start + step, :3] = noisy[rows]
            x[start:start + step, 3:] = offsets[rows]
        del noisy, offsets
        samples.append((permute_points(vox, order), x, cloud.labels[order]))
    return samples


def seg_setup(
    centers: np.ndarray,
    seed: int,
    resolution: int = 4,
    n_blocks: int = 2,
    points_per_blob: int = 12,
    noise: float = 0.2,
    attention_latents: int = 0,
    set_only: bool = False,
) -> tuple[list, list, list[SegBlock]]:
    """Train and held-out samples (rng ``seed * 1000 + 1``) and initial blocks
    (rng ``seed * 1000 + 2``) of the blob task's shape constants, so a voxel
    model and its global-pool ablation see identical samples."""
    data_rng = np.random.default_rng(seed * 1000 + 1)
    train = make_seg_samples(centers, TRAIN_CLOUDS, points_per_blob, noise, 0.25, resolution, data_rng)
    test = make_seg_samples(centers, HELD_OUT_CLOUDS, points_per_blob, noise, 0.25, resolution, data_rng)
    init_rng = np.random.default_rng(seed * 1000 + 2)
    blocks = build_segnet(
        FEATURE_CHANNELS, len(centers), n_blocks, HIDDEN_WIDTH, kernel_width(resolution), init_rng,
        attention_latents=attention_latents, set_only=set_only,
    )
    return train, test, blocks


def run_seg_experiment(
    centers: np.ndarray, seed: int, set_only: bool, epochs: int = 40
) -> tuple[float, float, list[tuple[int, float, float]]]:
    """Train one model on the blob task with ``lr = 0.2``; returns
    (train acc, held-out acc, trace)."""
    train, test, blocks = seg_setup(centers, seed, set_only=set_only)
    trained, trace = sgd_train(blocks, train, epochs=epochs, lr=0.2, seed=seed)
    _, test_acc = evaluate(trained, test)
    return trace[-1][2], test_acc, trace


def build_segnet(
    c_in: int,
    n_classes: int,
    n_blocks: int,
    hidden: int,
    kernel: int,
    rng: np.random.Generator,
    attention_latents: int = 0,
    set_only: bool = False,
) -> list[SegBlock]:
    """A block stack ending in a non-rectified map to ``n_classes`` channels.

    With ``set_only`` the voxel convolution blocks are replaced by global
    mean-pool blocks of the same widths.  ``attention_latents > 0`` inserts a
    soft-assignment block before the final one.
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    widths = [c_in] + [hidden] * (n_blocks - 1) + [n_classes]
    blocks: list[SegBlock] = []
    for i in range(n_blocks):
        a, b = widths[i], widths[i + 1]
        if attention_latents > 0 and i == n_blocks - 1:
            blocks.append(SegBlock(init_attn_layer(a, a, attention_latents, rng), rectify=True))
        layer = init_set_layer(a, b, rng) if set_only else init_wreath_layer(a, b, kernel, rng)
        blocks.append(SegBlock(layer, rectify=i < n_blocks - 1))
    return blocks
