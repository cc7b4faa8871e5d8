"""The voxel hierarchy on point clouds, and what its layers are blind to.

Voxelizing a cloud imposes a two-level structure: the grid translates
cyclically, and the points inside one voxel are an unordered set.  A layer
built from a pointwise map plus a periodic convolution over per-voxel means
commutes with both moves by construction, for any occupancy, empty voxels
included.  The soft-assignment layer goes further: it is equivariant to any
permutation of the whole cloud.
"""

import numpy as np

from wreathlin.pointcloud import (
    AttnPCLayer,
    WreathPCLayer,
    pc_layer_forward,
    permute_points,
    shift_assignment,
    voxelize,
    within_voxel_permutation,
)

rng = np.random.default_rng(3)
coords, features = rng.uniform(size=(30, 3)), rng.normal(size=(30, 4))
vox, _ = voxelize(coords, 3)
print(f"30 points on a 3x3x3 grid: {len(vox.occupied)} voxels occupied, {27 - len(vox.occupied)} empty")

layer = WreathPCLayer(w_point=rng.normal(size=(4, 4)), w_conv=rng.normal(size=(3, 3, 3, 4, 4)))
y = pc_layer_forward(layer, vox, features)[0]

# Move 1: translate the whole grid (wrapping at the boundary).  Per-point
# outputs must not change, because each point keeps its neighbourhood.
shifted = shift_assignment(vox, (1, 2, 0))
res_shift = np.abs(pc_layer_forward(layer, shifted, features)[0] - y).max()
print(f"cyclic grid shift (1,2,0):   max residual {res_shift:.2e}")

# Move 2: shuffle points within their voxels.  Outputs follow the shuffle.
order = within_voxel_permutation(vox, rng)
y_perm = pc_layer_forward(layer, permute_points(vox, order), features[order])[0]
res_perm = np.abs(y_perm - y[order]).max()
print(f"within-voxel shuffle:        max residual {res_perm:.2e}")

# What the layer is NOT blind to: a real-space move that lands points in
# different voxels.  A fractional-cell offset is not a grid symmetry.
vox_moved, _ = voxelize((coords + 0.17) % 1.0, 3)
res_moved = np.abs(pc_layer_forward(layer, vox_moved, features)[0] - y).max()
print(f"off-grid translation:        max residual {res_moved:.2e}  (sensitivity, not a bug)")

# The soft-assignment layer pools against learned latent groups instead of
# voxels, so the full symmetric group on points leaves it equivariant.
attn = AttnPCLayer(w_assign=rng.normal(size=(4, 2)), w_interact=rng.normal(size=(2, 2, 4, 4)))
ya = attn.forward(None, features)[0]
full = rng.permutation(30)
res_attn = np.abs(attn.forward(None, features[full])[0] - ya[full]).max()
print(f"soft assignment, arbitrary permutation: max residual {res_attn:.2e}")
