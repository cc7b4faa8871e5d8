"""Fixed inputs of the benchmark workloads.

Each apply case pairs a full-size structure with a sibling of the same tree
shape and at most 256 points.  The sibling is small enough for the dense
reference check, and it stands in for the full case at ``--size tiny``.
"""

from __future__ import annotations

import re

# Only set and wreath-of-set nodes: apply runs the pool-and-broadcast path and
# never the cycle-roll or per-orbit product loops.
APPLY_SETS = [
    ("S(100000)", "S(256)"),
    ("wr(S(64),S(64))", "wr(S(16),S(16))"),
    ("wr(S(256),S(384))", "wr(S(8),S(32))"),
    ("wr(wr(S(8),S(8)),S(16))", "wr(wr(S(4),S(4)),S(16))"),
    ("wr(S(2),S(1024))", "wr(S(2),S(128))"),
]

# Cycles and products: np.roll loops and per-inner-orbit product passes.
APPLY_GRIDS = [
    ("C(1024)", "C(256)"),
    ("prod(C(32),C(32))", "prod(C(16),C(16))"),
    ("prod(C(8),prod(C(8),C(8)))", "prod(C(6),prod(C(6),C(6)))"),
    ("prod(S(64),C(32))", "prod(S(16),C(16))"),
    ("prod(S(64),S(64))", "prod(S(16),S(16))"),
    ("wr(C(8),S(64))", "wr(C(8),S(32))"),
]

# One fresh `wreathlin verify` process per structure.  The last two are
# intransitive structures the library gets wrong at the time of writing; they
# stay so that the defect shows as failed operations.
VERIFY = [
    "wr(S(4),S(3))",  # Burnside over 82,944 elements
    "wr(S(3),S(5))",  # enumerates to the order cap, then skips the leg
    "wr(S(8),S(8))",  # capped enumeration and a 4,096-unknown nullspace
    "prod(C(6),C(8))",  # exact rational solve
    "S(5)",
    "C(7)",
    "prod(S(3),C(4))",
    "wr(C(3),S(2))",
    "wr(trivial(2),C(3))",
    "wr(S(3),trivial(2))",
]
VERIFY_TINY = ["S(5)", "C(7)", "wr(trivial(2),C(3))", "wr(S(3),trivial(2))"]

# The network of `wreathlin demo --attention 4`: two wreath blocks of hidden
# width 16 with a 3x3x3 kernel and a 4-latent attention block between them.
SEGNET = dict(c_in=6, classes=8, blocks=2, hidden=16, kernel=3, latents=4, lr=0.005,
              noise=0.2, feature_noise=0.25, train_samples=6)
# (points per blob, grid resolution) of the training clouds and of the one
# inference cloud; 8 blobs each, so 4,000 and 100,000 points at full size.
SEGNET_SIZES = {
    "full": {"train": (500, 8), "infer": (12_500, 16)},
    "tiny": {"train": (20, 4), "infer": (200, 8)},
}
# SGD steps that produce the trained net the inference workload runs.
SEGNET_PRETRAIN_STEPS = {"full": 30, "tiny": 3}


def slug(structure: str) -> str:
    """Metric-name form of a structure: ``wr(S(64),S(64))`` -> ``wr_S_64_S_64``."""
    return re.sub(r"[(),]+", "_", structure).strip("_")
