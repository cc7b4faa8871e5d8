"""Linear layers whose weight sharing follows a symmetry structure.

A layer for a structure on ``N`` points maps ``(N, c_in)`` arrays to
``(N, c_out)`` arrays.  Each sharing orbit of the structure's pattern carries
its own ``c_in x c_out`` channel-mixing matrix, so the weight tensor has shape
``(num_orbits, c_in, c_out)`` in canonical orbit order.

:func:`apply` runs each factor of the structure once and never materializes
the ``N x N`` map.  Per channel pair, ``S`` pools by one matrix-vector
product and broadcasts in ``O(N)``; cyclic subtrees correlate by FFT in
``O(N log N)``; ``trivial`` subtrees, whose orbits are single entries in
row-major order, multiply by their weights read in place as the full map in
``O(N^2)``, their weight count; other products run one pass per factor,
widening the channels of the side with fewer orbits; ``wr`` adds the outer map
of the pooled fibers to the inner map of each, ``O(N)`` beyond its factors.
Fibers pool per inner point orbit, one indicator product, and the outer map
runs at channels widened by that orbit count; the inner map runs once per
outer point orbit, with that orbit's weights.  A set inner factor adds its
pooled row into the cross-fiber term, so each fiber is pooled and broadcast
once.
Orbit ids map to node-local coefficients through :func:`basis.orbit_index
<wreathlin.basis.orbit_index>`, so no sharing pattern is built either.
:func:`apply_dense` materializes the shared matrix per channel pair and is the
oracle the fast path is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import materialize, orbit_index, pattern_of_structure, point_orbit, structure_orbit_count
from .perm import PermGroup, permute_rows
from .structure import (
    Cycle,
    Prod,
    Set,
    Structure,
    Wreath,
    degree,
    format_structure,
    group_of,
    orbit_counts,
    parse_structure,
)


@dataclass(frozen=True)
class EquivariantLayer:
    structure: Structure
    c_in: int
    c_out: int
    weights: np.ndarray  # (num_orbits, c_in, c_out)
    bias: np.ndarray | None = None  # (c_out,)

    def __post_init__(self) -> None:
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be at least 1")
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        expected = (structure_orbit_count(self.structure), self.c_in, self.c_out)
        if w.shape != expected:
            raise ValueError(f"weights shape {w.shape} != {expected}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = np.ascontiguousarray(self.bias, dtype=np.float64)
            if b.shape != (self.c_out,):
                raise ValueError(f"bias shape {b.shape} != ({self.c_out},)")
            b.setflags(write=False)
            object.__setattr__(self, "bias", b)

    @property
    def degree(self) -> int:
        return degree(self.structure)


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
    return EquivariantLayer(structure, c_in, c_out, w, b)


def _cycle_lengths(expr: Structure) -> tuple[int, ...] | None:
    """Cycle lengths of a subtree of ``C`` leaves and ``prod`` nodes, else ``None``."""
    if isinstance(expr, Prod):
        outer, inner = _cycle_lengths(expr.outer), _cycle_lengths(expr.inner)
        return None if outer is None or inner is None else outer + inner
    return (expr.n,) if isinstance(expr, Cycle) else None


def _pool(x: np.ndarray) -> np.ndarray:
    """Sum ``(..., n, c)`` over its point axis as one matrix-vector product.

    BLAS runs it several times faster than a numpy sum over that axis, whose
    inner loop covers only ``c`` entries at a time.
    """
    return np.ones(x.shape[-2]) @ x


def _set_terms(coeffs: np.ndarray, x: np.ndarray, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-orbit set map before its broadcast: ``w0 - w1`` on the points, ``w1`` on the pool.

    ``coeffs`` holds the diagonal and off-diagonal orbits' ``(c_in, c_out)``
    matrices, ``x`` is ``(..., n, c_in)`` and ``pooled`` its sum over points.
    Adding the second result to every row of the first gives the set's map.
    """
    return x @ (coeffs[0] - coeffs[1]), pooled @ coeffs[1]


def _apply_structure(expr: Structure, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply ``sum_o coeffs[o] * B_o`` along the second-to-last axis of ``x``.

    ``B_o`` is the 0/1 indicator of orbit ``o`` in canonical order; ``x`` has
    shape ``(..., N, c_in)`` and the result ``(..., N, c_out)``.  Each node
    runs the kernel the module docstring lists: a node whose orbits are
    single entries (a product of ``trivial``, or any one-point node such as
    ``S(1)``) multiplies by ``coeffs`` reshaped in place to its full map;
    ``S`` pools; a product of cycles, its orbits in row-major offset order, is
    one FFT correlation; another ``prod`` runs each factor once; ``wr`` pools.
    The result is a fresh array that aliases neither ``x`` nor ``coeffs``, so
    callers may write into it.
    """
    batch, c_in, c_out = x.shape[:-2], coeffs.shape[-2], coeffs.shape[-1]
    n = degree(expr)
    if structure_orbit_count(expr) == n * n:
        # each entry is its own orbit, so canonical order is row-major entry order
        return np.tensordot(x, coeffs.reshape(n, n, c_in, c_out), axes=([-2, -1], [1, 2]))
    if isinstance(expr, Set):
        # one output buffer, pooled row added in place: the temporaries of
        # x @ W0 + (s - x) @ W1 fault in fresh pages on every large call
        y, row = _set_terms(coeffs, x, _pool(x))
        y += row[..., None, :]
        return y
    lengths = _cycle_lengths(expr)
    if lengths is not None:
        axes = tuple(range(-len(lengths) - 1, -1))
        xf = np.fft.rfftn(x.reshape(*batch, *lengths, c_in), axes=axes)
        kf = np.fft.rfftn(coeffs.reshape(*lengths, c_in, c_out), axes=tuple(range(len(lengths))))
        y = np.fft.irfftn((xf[..., None, :] @ np.conj(kf))[..., 0, :], s=lengths, axes=axes)
        return y.reshape(*batch, -1, c_out)
    xr = x.reshape(*batch, degree(expr.outer), degree(expr.inner), c_in)
    if isinstance(expr, Prod):
        # the side with more orbits runs first, widened to one channel block per orbit of the other
        n_o, n_i = structure_orbit_count(expr.outer), structure_orbit_count(expr.inner)
        w = coeffs[orbit_index(expr)[2]].reshape(n_o, n_i, c_in, c_out)
        m = min(n_o, n_i)
        pick = np.eye(m * c_out).reshape(m * c_out, m, c_out).transpose(1, 0, 2)  # orbit a reads block a
        if n_o <= n_i:
            u = _apply_structure(expr.inner, w.transpose(1, 2, 0, 3).reshape(n_i, c_in, -1), xr)
            y = _apply_structure(expr.outer, pick, u.swapaxes(-2, -3)).swapaxes(-2, -3)
        else:
            u = _apply_structure(expr.outer, w.transpose(0, 2, 1, 3).reshape(n_o, c_in, -1), xr.swapaxes(-2, -3))
            y = _apply_structure(expr.inner, pick, u.swapaxes(-2, -3))
        return y.reshape(*batch, -1, c_out)
    if isinstance(expr, Wreath):
        P, Q = xr.shape[-3:-1]
        rank = orbit_index(expr)[2]
        ra, ca, _ = orbit_index(expr.outer)
        (a1, _), (b1, b2) = orbit_counts(expr.outer), orbit_counts(expr.inner)
        inner_coeffs = coeffs[rank[:a1 * b2]].reshape(a1, b2, c_in, c_out)
        # an off-diagonal outer orbit maps the pool of inner point orbit r' to inner point orbit r
        outer_coeffs = np.zeros((len(ra), b1 * c_in, b1 * c_out))
        outer_coeffs[ra != ca] = (coeffs[rank[a1 * b2:]].reshape(-1, b1, b1, c_in, c_out)
                                  .transpose(0, 2, 3, 1, 4).reshape(-1, b1 * c_in, b1 * c_out))
        # pool each fiber per inner point orbit; one orbit makes it np.ones(Q) @ xr
        inner_points = point_orbit(expr.inner)
        pooled = (np.eye(b1)[inner_points].T @ xr).reshape(*batch, P, b1 * c_in)
        cross = _apply_structure(expr.outer, outer_coeffs, pooled)

        def inner_map(w: np.ndarray, at) -> np.ndarray:
            if isinstance(expr.inner, Set) and expr.inner.n > 1:
                # a set's pooled row is its fiber's pool: fold it into the cross-fiber term
                part, row = _set_terms(w, xr[..., at, :, :], pooled[..., at, :])
                cross[..., at, :] += row
                return part
            return _apply_structure(expr.inner, w, xr[..., at, :, :])

        if a1 == 1:
            fiber = inner_map(inner_coeffs[0], slice(None))
        else:
            # the inner map runs once per outer point orbit, on that orbit's fibers
            fiber = np.empty((*batch, P, Q, c_out))
            outer_points = point_orbit(expr.outer)
            for s in range(a1):
                at = np.flatnonzero(outer_points == s)
                fiber[..., at, :, :] = inner_map(inner_coeffs[s], at)
        if b1 == 1:
            fiber += cross[..., :, None, :]
        else:
            fiber += cross.reshape(*batch, P, b1, c_out)[..., inner_points, :]
        return fiber.reshape(*batch, -1, c_out)
    raise TypeError(f"not a structure: {expr!r}")


def _check_input(layer: EquivariantLayer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.degree, layer.c_in):
        raise ValueError(f"input shape {x.shape} != ({layer.degree}, {layer.c_in})")
    return x


def apply(layer: EquivariantLayer, x: np.ndarray) -> np.ndarray:
    """Matrix-free application of the layer to an ``(N, c_in)`` array."""
    x = _check_input(layer, x)
    y = _apply_structure(layer.structure, layer.weights, x)
    if layer.bias is not None:
        y += layer.bias
    return y


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

    def lines(self) -> list[str]:
        out = []
        for i, r in enumerate(self.generator_residuals):
            mark = "ok" if r <= self.tol else "FAIL"
            out.append(f"generator {i}: max residual {r:.3e} {mark}")
        out.append(f"overall: {'pass' if self.passed else 'FAIL'} (tol {self.tol:g})")
        return out


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


def layer_to_dict(layer: EquivariantLayer) -> dict:
    """Self-describing JSON-compatible form; floats survive bit-exactly."""
    return {
        "structure": format_structure(layer.structure),
        "c_in": layer.c_in,
        "c_out": layer.c_out,
        "weights": layer.weights.tolist(),
        "bias": None if layer.bias is None else layer.bias.tolist(),
    }


def layer_from_dict(data: dict) -> EquivariantLayer:
    bias = data.get("bias")
    return EquivariantLayer(
        structure=parse_structure(data["structure"]),
        c_in=int(data["c_in"]),
        c_out=int(data["c_out"]),
        weights=np.asarray(data["weights"], dtype=np.float64),
        bias=None if bias is None else np.asarray(bias, dtype=np.float64),
    )


def save_layer(layer: EquivariantLayer, path: str | Path) -> None:
    Path(path).write_text(json.dumps(layer_to_dict(layer), indent=1) + "\n")


def load_layer(path: str | Path) -> EquivariantLayer:
    return layer_from_dict(json.loads(Path(path).read_text()))
