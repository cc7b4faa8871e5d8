"""Central finite differences against the analytic gradients of a block stack:
the reference that ``net_backward`` is checked against."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from wreathlin.pointcloud import VoxelizedCloud
from wreathlin.train import SegBlock, _block_params, loss_ce, net_backward, net_forward


@dataclass(frozen=True)
class GradReport:
    """Worst relative disagreement of analytic vs central differences."""

    entries: tuple[tuple[str, float], ...]
    threshold: float

    @property
    def max_error(self) -> float:
        return max(err for _, err in self.entries)

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold

    def lines(self) -> list[str]:
        out = [f"{name}: max rel err {err:.3e}" for name, err in self.entries]
        out.append(f"overall: {'pass' if self.passed else 'FAIL'} (threshold {self.threshold:g})")
        return out


def gradient_check(
    blocks: tuple[SegBlock, ...] | list[SegBlock],
    vox: VoxelizedCloud,
    x: np.ndarray,
    labels: np.ndarray,
    step: float = 1e-5,
    threshold: float = 1e-4,
) -> GradReport:
    """Compare analytic gradients against central finite differences.

    Every entry of every parameter tensor is perturbed by ``+-step``; the
    relative error uses ``max(|analytic|, |numeric|, 1e-8)`` as denominator.
    """
    blocks = list(blocks)
    logits, caches = net_forward(blocks, vox, x)
    _, d_logits = loss_ce(logits, labels)
    grads, _ = net_backward(blocks, vox, caches, d_logits)

    def loss_at(i: int, name: str, value: np.ndarray) -> float:
        block = replace(blocks[i], layer=replace(blocks[i].layer, **{name: value}))
        out, _ = net_forward(blocks[:i] + [block] + blocks[i + 1:], vox, x)
        return loss_ce(out, labels)[0]

    entries = []
    for i, block in enumerate(blocks):
        for name, value in _block_params(block).items():
            analytic = grads[i][name]
            worst = 0.0
            flat = value.ravel()
            for j in range(flat.size):
                bumped = value.copy().ravel()
                bumped[j] += step
                plus = loss_at(i, name, bumped.reshape(value.shape))
                bumped[j] -= 2 * step
                minus = loss_at(i, name, bumped.reshape(value.shape))
                numeric = (plus - minus) / (2 * step)
                a = analytic.ravel()[j]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, err)
            entries.append((f"block{i}.{name}", worst))
    return GradReport(tuple(entries), threshold)
