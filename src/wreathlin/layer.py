"""Linear layers whose weight sharing follows a symmetry structure.

A layer for a structure on ``N`` points maps ``(N, c_in)`` arrays to
``(N, c_out)`` arrays.  Each sharing orbit of the structure's pattern carries
its own ``c_in x c_out`` channel-mixing matrix, so the weight tensor has shape
``(num_orbits, c_in, c_out)`` in canonical orbit order.

:func:`apply` runs each factor of the structure once, or once more on one
pooled fiber, and never materializes the ``N x N`` map.  Per channel pair,
``S`` pools by one matrix-vector product and broadcasts in ``O(N)``; cyclic
subtrees correlate by FFT in ``O(N log N)``, unless their full map holds at
most ``FULL_MAP_MADDS`` multiply-adds per fiber; that map, and the map of a
``trivial`` subtree, whose orbits are single entries (``O(N^2)``, its weight
count), is gathered once through :func:`basis.orbit_grid
<wreathlin.basis.orbit_grid>` and applied to all fibers by one matrix product.  A product with a set factor ``S(n)``,
``n >= 2``, and a set or cyclic other factor ``B`` pools first, as Hartford et
al. (2018) build the layer for a product of sets, once it has at least
``FOLD_MIN_OUTPUTS`` output entries: ``B`` runs on every fiber with the set's
pointwise weights and once on the pooled fiber with its pooled weights,
broadcast back.  Other products run one pass per factor, widening the
channels of the side with fewer orbits; ``wr`` adds the outer map of the
pooled fibers to the inner map of each, ``O(N)`` beyond its factors.
Fibers pool per inner point orbit, one indicator product, and the outer map
runs at channels widened by that orbit count; its output is added back
through a broadcast view with one axis per inner leaf,
:func:`basis.point_orbit_grid <wreathlin.basis.point_orbit_grid>`, since a
leaf's points lie in one orbit or each in its own.  The inner map runs once per
outer point orbit, with that orbit's weights.  A set inner factor's pooled
weights sit on the outer map's diagonal orbits, so each fiber is pooled and
broadcast once and runs only its pointwise weights.  Set products and
broadcasts of tall arrays go through :mod:`wreathlin.arrays`: ``x @ w`` in row blocks of at most
``2**19 // (c_in * c_out)`` rows, since one OpenBLAS call past about ``2**19``
multiply-adds ran two to three times slower per row (``(20000, 8) @ (8, 8)``:
0.32 ms as one call, 0.13 ms in blocks), and ``y += row`` through a view with
rows of up to 128 elements (``(100000, 8)``: 0.9–1.3 ms plain, 0.6 ms wide).
Each takes the plain operator itself on arrays too small for either.
Orbit ids map to node-local coefficients through :func:`basis.orbit_index
<wreathlin.basis.orbit_index>`, so no sharing pattern is built either.
All of that weight-side work, the kernel spectra included, is done once per
layer, on its first ``apply``; later calls do only the input-side work.
:func:`apply_dense` materializes the shared matrix per channel pair and is the
oracle the fast path is checked against.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import broadcast_add, channel_mix, freeze_field
from .basis import (materialize, orbit_grid, orbit_index, pattern_of_structure, point_orbit, point_orbit_grid,
                    structure_orbit_count)
from .perm import PermGroup, permute_rows
from .structure import Cycle, Prod, Set, Structure, Wreath, degree, group_of, orbit_counts

# Multiply-adds per fiber, n**2 * c_in * c_out, up to which a product of
# cycles multiplies by its full map rather than correlating by FFT.  With
# OpenBLAS 0.3.31 (Haswell kernels, one thread) and pocketfft, the map took
# 0.2-0.3 of the FFT's time at 2**14 over 64 fibers, 0.5-0.7 at 2**16
# (C(32) at c = 8, C(16) at c = 16, C(8) at c = 32), and 1.4-1.7 at 2**18 on
# one cycle (C(64) at c = 8 to C(16) at c = 32).  The map holds its
# multiply-adds as float64, against (n / 2 + 1) * c_in * c_out complex entries
# for the spectrum: at 2**16 the two 512 KB maps of prod(S(64),C(32)) raised
# the apply_grids benchmark's peak RSS by 1.2 MB, so the budget stays at 2**14.
FULL_MAP_MADDS = 2 ** 14
# Output entries, N * c_out, from which a product folds its set factor.  The
# fold calls the other factor twice, so below this it lost to the widened pass
# where that factor correlates by FFT: at N = 1,024 it took up to 1.24 of the
# widened time at c = 2, 1.15 at c = 4 and 1.03 at c = 8, on cycle grids beside
# S(2) to S(8).  At 2**14 entries it took 0.13-1.01 of it at c = 1 to 16, above
# 0.95 only on two- and three-axis grids beside S(2) to S(8), and 0.79 and 0.52
# on prod(S(64),C(32)) and prod(S(64),S(64)) at c = 8.
FOLD_MIN_OUTPUTS = 2 ** 14


@dataclass(frozen=True)
class EquivariantLayer:
    structure: Structure
    weights: np.ndarray  # (num_orbits, c_in, c_out)
    bias: np.ndarray | None = None  # (c_out,)

    def __post_init__(self) -> None:
        # copies, so a caller writing into its arrays changes neither the weights nor the compiled map
        freeze_field(self, "weights", self.weights)
        n_orbits = structure_orbit_count(self.structure)
        if self.weights.ndim != 3 or self.weights.shape[0] != n_orbits or min(self.weights.shape[1:]) < 1:
            raise ValueError(f"weights shape {self.weights.shape} is not ({n_orbits}, c_in >= 1, c_out >= 1)")
        if self.bias is not None:
            freeze_field(self, "bias", self.bias)
            if self.bias.shape != (self.c_out,):
                raise ValueError(f"bias shape {self.bias.shape} != ({self.c_out},)")

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def c_out(self) -> int:
        return self.weights.shape[2]

    @property
    def degree(self) -> int:
        return degree(self.structure)

    @cached_property
    def compiled(self) -> Callable[[np.ndarray], np.ndarray]:
        """The bias-free map on ``(..., N, c_in)`` arrays, its weight-side work done on first use."""
        return _compile_structure(self.structure, self.weights)


def random_layer(
    structure: Structure,
    c_in: int,
    c_out: int,
    rng: np.random.Generator,
    bias: bool = False,
) -> EquivariantLayer:
    """Uniform init on ``[-s, s]`` with ``s = 1 / sqrt(c_in)`` per orbit."""
    n_orbits = structure_orbit_count(structure)
    s = 1.0 / np.sqrt(c_in)
    w = rng.uniform(-s, s, size=(n_orbits, c_in, c_out))
    b = rng.uniform(-s, s, size=c_out) if bias else None
    return EquivariantLayer(structure, w, b)


def _cycle_lengths(expr: Structure) -> tuple[int, ...] | None:
    """Cycle lengths of a subtree of ``C`` leaves and ``prod`` nodes, else ``None``."""
    if isinstance(expr, Prod):
        outer, inner = _cycle_lengths(expr.outer), _cycle_lengths(expr.inner)
        return None if outer is None or inner is None else outer + inner
    return (expr.n,) if isinstance(expr, Cycle) else None


def _set_split(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A set's ``(diagonal, off-diagonal)`` weights as its pointwise weights
    ``w[0] - w[1]`` and the weights ``w[1]`` of its pooled row."""
    return w[0] - w[1], w[1]


def _folds(factor: Structure, other: Structure, outputs: int) -> bool:
    """Whether a ``prod`` of ``outputs`` output entries folds its set ``factor`` into a pooled pass of ``other``."""
    return (isinstance(factor, Set) and factor.n > 1 and outputs >= FOLD_MIN_OUTPUTS
            and (isinstance(other, Set) or _cycle_lengths(other) is not None))


def _compile_structure(expr: Structure, coeffs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``x -> sum_o coeffs[o] * B_o x`` on ``(..., N, c_in)`` arrays, weight-side work done.

    ``B_o`` is the 0/1 indicator of orbit ``o`` in canonical order.  Each node
    runs the kernel the module docstring lists, chosen from its structure and
    channel counts: a node whose orbits are single entries (a product of
    ``trivial``, or any one-point node such as ``S(1)``), and a product of
    cycles within ``FULL_MAP_MADDS``, multiplies by its full map; ``S`` pools;
    a larger product of cycles, its orbits in row-major offset order,
    correlates with the kernel's spectrum; a ``prod`` with a set factor and
    ``FOLD_MIN_OUTPUTS`` output entries folds the set; another ``prod`` runs
    each factor once; ``wr`` pools.
    Every gather, scatter, reshape and transform of ``coeffs`` is done here.
    The map returns fresh ``(..., N, c_out)`` arrays that alias neither ``x``
    nor ``coeffs``, so callers may write into them.
    """
    c_in, c_out = coeffs.shape[-2:]
    n = degree(expr)
    lengths = _cycle_lengths(expr)
    if structure_orbit_count(expr) == n * n or (lengths is not None and n * n * c_in * c_out <= FULL_MAP_MADDS):
        # y_i = sum_j x_j @ full[i, j], as one (n c_in, n c_out) matrix
        full = coeffs[orbit_grid(expr)].transpose(1, 2, 0, 3).reshape(n * c_in, n * c_out)

        def run_full_map(x: np.ndarray) -> np.ndarray:
            return (x.reshape(*x.shape[:-2], n * c_in) @ full).reshape(*x.shape[:-2], n, c_out)

        return run_full_map
    if isinstance(expr, Set):
        diff, off = _set_split(coeffs)

        def run_set(x: np.ndarray) -> np.ndarray:
            # pool first, by BLAS (a sum over points loops over c entries at a time): its ones row is freed before y exists
            row = np.ones(x.shape[-2]) @ x @ off
            # one output buffer, pooled row added in place: the temporaries of
            # x @ W0 + (s - x) @ W1 fault in fresh pages on every large call
            return broadcast_add(channel_mix(x, diff), row[..., None, :])

        return run_set
    if lengths is not None:
        axes = tuple(range(-len(lengths) - 1, -1))
        kf = np.conj(np.fft.rfftn(coeffs.reshape(*lengths, c_in, c_out), axes=tuple(range(len(lengths)))))

        def run_cycles(x: np.ndarray) -> np.ndarray:
            xf = np.fft.rfftn(x.reshape(*x.shape[:-2], *lengths, c_in), axes=axes)
            y = np.fft.irfftn((xf[..., None, :] @ kf)[..., 0, :], s=lengths, axes=axes)
            return y.reshape(*x.shape[:-2], -1, c_out)

        return run_cycles
    P, Q = degree(expr.outer), degree(expr.inner)
    if isinstance(expr, Prod):
        n_o, n_i = structure_orbit_count(expr.outer), structure_orbit_count(expr.inner)
        w = coeffs[orbit_index(expr)[2]].reshape(n_o, n_i, c_in, c_out)
        set_outer = _folds(expr.outer, expr.inner, n * c_out)
        if set_outer or _folds(expr.inner, expr.outer, n * c_out):
            # y = B[w0 - w1](each fiber) + B[w1](pooled fiber), broadcast: B runs once per fiber at c_out
            other, split = (expr.inner, _set_split(w)) if set_outer else (expr.outer, _set_split(w.swapaxes(0, 1)))
            each, pooled = (_compile_structure(other, v) for v in split)

            def run_fold(x: np.ndarray) -> np.ndarray:
                batch = x.shape[:-2]
                xr = x.reshape(*batch, P, Q, c_in)
                if set_outer:  # the fibers are the rows xr[..., p, :, :]
                    y = each(xr)
                    y += pooled((np.ones(P) @ xr.reshape(*batch, P, Q * c_in)).reshape(*batch, 1, Q, c_in))
                else:  # the fibers are the columns xr[..., :, a, :]
                    y = each(xr.swapaxes(-2, -3)).swapaxes(-2, -3)
                    y += pooled(np.ones(Q) @ xr)[..., :, None, :]
                return y.reshape(*batch, -1, c_out)

            return run_fold
        # the side with more orbits runs first, widened to one channel block per orbit of the other
        m = min(n_o, n_i)
        pick = np.eye(m * c_out).reshape(m * c_out, m, c_out).transpose(1, 0, 2)  # orbit a reads block a
        if n_o <= n_i:
            first = _compile_structure(expr.inner, w.transpose(1, 2, 0, 3).reshape(n_i, c_in, -1))
            then = _compile_structure(expr.outer, pick)
        else:
            first = _compile_structure(expr.outer, w.transpose(0, 2, 1, 3).reshape(n_o, c_in, -1))
            then = _compile_structure(expr.inner, pick)

        def run_prod(x: np.ndarray) -> np.ndarray:
            xr = x.reshape(*x.shape[:-2], P, Q, c_in)
            if n_o <= n_i:
                y = then(first(xr).swapaxes(-2, -3)).swapaxes(-2, -3)
            else:
                y = then(first(xr.swapaxes(-2, -3)).swapaxes(-2, -3))
            return y.reshape(*x.shape[:-2], -1, c_out)

        return run_prod
    if isinstance(expr, Wreath):
        rank = orbit_index(expr)[2]
        ra, ca, _ = orbit_index(expr.outer)
        (a1, _), (b1, b2) = orbit_counts(expr.outer), orbit_counts(expr.inner)
        inner_coeffs = coeffs[rank[:a1 * b2]].reshape(a1, b2, c_in, c_out)
        # an off-diagonal outer orbit maps the pool of inner point orbit r' to inner point orbit r
        outer_coeffs = np.zeros((len(ra), b1 * c_in, b1 * c_out))
        outer_coeffs[ra != ca] = (coeffs[rank[a1 * b2:]].reshape(-1, b1, b1, c_in, c_out)
                                  .transpose(0, 2, 3, 1, 4).reshape(-1, b1 * c_in, b1 * c_out))
        if isinstance(expr.inner, Set) and expr.inner.n > 1:
            # the set's pooled weights go on the cross map's diagonal orbits, zero so far and in point orbit order
            pointwise, outer_coeffs[ra == ca] = _set_split(inner_coeffs.swapaxes(0, 1))
            inner_maps = [lambda x, w=w: channel_mix(x, w) for w in pointwise]
        else:
            inner_maps = [_compile_structure(expr.inner, w) for w in inner_coeffs]
        cross_map = _compile_structure(expr.outer, outer_coeffs)
        # pool each fiber per inner point orbit; one orbit makes it np.ones(Q) @ xr
        indicator = np.eye(b1)[point_orbit(expr.inner)].T
        points, orbits = point_orbit_grid(expr.inner)
        # the inner map runs once per outer point orbit, on that orbit's fibers
        fibers = [slice(None)] if a1 == 1 else [np.flatnonzero(point_orbit(expr.outer) == s) for s in range(a1)]

        def run_wreath(x: np.ndarray) -> np.ndarray:
            batch = x.shape[:-2]
            xr = x.reshape(*batch, P, Q, c_in)
            cross = cross_map((indicator @ xr).reshape(*batch, P, b1 * c_in))
            fiber = np.empty((*batch, P, Q, c_out)) if a1 > 1 else None
            for at, inner in zip(fibers, inner_maps):
                part = inner(xr[..., at, :, :])
                if a1 == 1:
                    fiber = part
                else:
                    fiber[..., at, :, :] = part
            if b1 == 1:
                broadcast_add(fiber, cross[..., :, None, :])
            else:  # each inner point reads its orbit's cross term through a broadcast view
                fiber = fiber.reshape(*batch, P, *points, c_out)
                fiber += cross.reshape(*batch, P, *orbits, c_out)
            return fiber.reshape(*batch, -1, c_out)

        return run_wreath
    raise TypeError(f"not a structure: {expr!r}")


def _check_input(layer: EquivariantLayer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.degree, layer.c_in):
        raise ValueError(f"input shape {x.shape} != ({layer.degree}, {layer.c_in})")
    return x


def apply(layer: EquivariantLayer, x: np.ndarray) -> np.ndarray:
    """Matrix-free application of the layer to an ``(N, c_in)`` array."""
    x = _check_input(layer, x)
    y = layer.compiled(x)
    return y if layer.bias is None else broadcast_add(y, layer.bias[None])


def apply_dense(layer: EquivariantLayer, x: np.ndarray) -> np.ndarray:
    """Reference application through the materialized shared matrix."""
    x = _check_input(layer, x)
    pattern = pattern_of_structure(layer.structure)
    y = np.zeros((layer.degree, layer.c_out))
    for ci in range(layer.c_in):
        for co in range(layer.c_out):
            y[:, co] += materialize(pattern, layer.weights[:, ci, co]) @ x[:, ci]
    if layer.bias is not None:
        y = y + layer.bias
    return y


@dataclass(frozen=True)
class EquivarianceReport:
    """Max relative residual of ``f(g . x) - g . f(x)`` per generator."""

    generator_residuals: tuple[float, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.generator_residuals)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def equivariance_check_map(
    fn,
    group: PermGroup,
    c_in: int,
    trials: int = 5,
    rng: np.random.Generator | None = None,
    tol: float = 1e-10,
) -> EquivarianceReport:
    """Check ``fn(g . x) == g . fn(x)`` on random inputs; reports, never raises."""
    if rng is None:
        rng = np.random.default_rng(0)
    residuals = []
    for g in group.generators:
        worst = 0.0
        for _ in range(trials):
            x = rng.standard_normal((group.degree, c_in))
            lhs = fn(permute_rows(g, x))
            rhs = permute_rows(g, fn(x))
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-12)
            worst = max(worst, float(np.abs(lhs - rhs).max() / scale))
        residuals.append(worst)
    return EquivarianceReport(tuple(residuals), tol)


def equivariance_check(
    layer: EquivariantLayer,
    trials: int = 5,
    rng: np.random.Generator | None = None,
    tol: float = 1e-10,
) -> EquivarianceReport:
    group = group_of(layer.structure)
    return equivariance_check_map(lambda x: apply(layer, x), group, layer.c_in, trials, rng, tol)
