"""Matrix-free application: pool, mix per orbit, broadcast back.

The shared matrix of a structured action never needs to be built.  Set blocks
reduce to a residual plus a broadcast sum; products of cycles to one circular
correlation by FFT, or, when short, to one product by their full map over all
fibers; a product with a set factor to the other factor on every fiber plus
once on the pooled fiber; and other composite structures apply each factor
once.  This script checks the fast path against the materialized matrix and
times both on a doubling ladder of set-of-sets structures, then on a ladder of
cyclic grids, whose first rung takes the full map.
"""

import time

import numpy as np

from wreathlin.layer import apply, apply_dense, random_layer
from wreathlin.structure import parse_structure

rng = np.random.default_rng(0)

# Agreement first: random layers over assorted shapes, both channel counts > 1.
for text in ["S(6)", "C(9)", "wr(S(3),C(5))", "prod(S(4),S(4))", "wr(prod(C(2),C(3)),S(2))"]:
    layer = random_layer(parse_structure(text), c_in=3, c_out=2, rng=rng, bias=True)
    x = rng.standard_normal((layer.degree, 3))
    rel = np.abs(apply(layer, x) - apply_dense(layer, x)).max() / np.abs(apply_dense(layer, x)).max()
    print(f"{text:28s} N={layer.degree:3d}  fast vs dense rel err {rel:.2e}")


def ladder(template, sides):
    """Time the fast and dense paths on ``template.format(s=side)`` per side."""
    print(f"\n{template}\n{'side':>6s} {'N':>6s} {'fast':>10s} {'dense':>10s} {'ratio':>8s}")
    for side in sides:
        layer = random_layer(parse_structure(template.format(s=side)), c_in=1, c_out=1, rng=rng)
        x = rng.standard_normal((layer.degree, 1))

        t = time.perf_counter()
        y_fast = apply(layer, x)
        t_fast = time.perf_counter() - t

        t = time.perf_counter()
        y_dense = apply_dense(layer, x)
        t_dense = time.perf_counter() - t

        assert np.allclose(y_fast, y_dense, rtol=1e-10)
        print(f"{side:6d} {layer.degree:6d} {t_fast * 1e3:9.2f}ms {t_dense * 1e3:9.2f}ms "
              f"{t_dense / t_fast:7.1f}x")


# Now the ladders.  Dense cost is O(N^2) per channel pair; the pooled path
# touches each entry a constant number of times, and the FFT of a cyclic grid
# costs O(N log N).
ladder("wr(S({s}),S({s}))", (8, 16, 32, 64))
ladder("prod(C({s}),C({s}))", (8, 16, 32))

print("\nthe dense column buys nothing but a quadratic bill")
