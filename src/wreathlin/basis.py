"""Weight-sharing patterns and commutant bases of permutation actions.

A linear map ``W`` commutes with every permutation matrix of a group exactly
when ``W[g(i), g(j)] == W[i, j]`` for all generators ``g``, i.e. when ``W`` is
constant on the orbits of the pair action.  This module computes those orbit
patterns three independent ways:

* :func:`orbit_pattern` -- union-find over the generators' pair images;
* :func:`burnside_count` -- dimension count ``(1/|G|) * sum_g trace(P_g)**2``
  over the enumerated group;
* :func:`commutant_basis` -- exact integer nullspace of the commutation
  constraints, one per pair a generator moves, from the same pair images.

The closed form never touches the group itself.  :func:`orbit_index` is the
one place that decides canonical orbit order: leaves are arithmetic, and
``prod`` and ``wr`` nodes compose their factors' first appearances in time
linear in the orbit count, which is all :func:`layer.apply
<wreathlin.layer.apply>` needs.  :func:`orbit_grid` numbers every entry
through it, building a node's ``N x N`` ids from its two factors' grids, so
:func:`pattern_of_structure` is a route independent of the three above.
Patterns serve rendering and these oracles only, and nothing but the
latest pattern is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rational
from .perm import PermGroup, orbit_labels
from .structure import LEAF_KINDS, Leaf, Prod, Structure, Wreath, degree, orbit_counts

DEFAULT_ORACLE_MAX_DEGREE = 64


class DegreeTooLargeError(ValueError):
    """The exact-arithmetic oracle was asked for a degree beyond its bound."""


@dataclass(frozen=True, eq=False)
class SharingPattern:
    """An ``n x n`` matrix of orbit ids with canonical labels.

    Labels are contiguous ``0 .. num_orbits-1`` and increase in order of first
    appearance when the matrix is scanned row-major.
    """

    orbit_id: np.ndarray
    num_orbits: int

    def __post_init__(self) -> None:
        ids = np.ascontiguousarray(self.orbit_id, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[0] != ids.shape[1]:
            raise ValueError(f"orbit_id must be square, got shape {ids.shape}")
        # canonical without a sort: the ids open with 0 and each exceeds the
        # largest id before it by at most 1, so orbits first occur in id order
        flat = ids.ravel()
        top = np.maximum.accumulate(flat)
        count = int(top[-1]) + 1 if flat.size else 0
        if count != self.num_orbits or count > flat.size or (flat.size and flat.min() < 0):
            raise ValueError("orbit ids must be contiguous 0..num_orbits-1")
        if np.any(flat[:1]) or np.any(flat[1:] > top[:-1] + 1):
            if not np.bincount(flat, minlength=count).all():
                raise ValueError("orbit ids must be contiguous 0..num_orbits-1")
            raise ValueError("orbit ids must be canonical (first occurrence increasing)")
        ids.setflags(write=False)
        object.__setattr__(self, "orbit_id", ids)

    @property
    def n(self) -> int:
        return self.orbit_id.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SharingPattern):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.orbit_id, other.orbit_id)


def _pair_images(group: PermGroup):
    """Each generator's images on the pairs ``(i, j) = i * N + j``, one row at a time."""
    n = group.degree
    for g in group.generators.astype(np.min_scalar_type(n * n - 1)):
        yield (g[:, None] * n + g).ravel()


def orbit_pattern(group: PermGroup) -> SharingPattern:
    """Orbits of the pair action, from the generators alone.

    :func:`~wreathlin.perm.orbit_labels` gives each pair its orbit's least
    pair, the orbit's first row-major appearance, so numbering is canonical.
    """
    n = group.degree
    labels = orbit_labels(_pair_images(group))
    least = labels == np.arange(n * n)
    return SharingPattern((np.cumsum(least) - 1)[labels].reshape(n, n), int(least.sum()))


def burnside_count(elements: np.ndarray) -> int:
    """Number of pair orbits: ``(1/|G|) * sum_g fix(g)**2`` over all elements.

    ``elements`` is the whole group as :func:`~wreathlin.perm.enumerate_group`
    returns it, one element's images per row.
    """
    fixed = (elements == np.arange(elements.shape[1])).sum(axis=1, dtype=np.int64)
    total = int(fixed @ fixed)
    if total % len(elements) != 0:
        raise ArithmeticError("fixed-point sum not divisible by group order")
    return total // len(elements)


def commutant_basis(group: PermGroup, max_degree: int = DEFAULT_ORACLE_MAX_DEGREE) -> np.ndarray:
    """Exact basis of all matrices commuting with the group action.

    Solves the stacked system ``P_g W - W P_g = 0`` (one block per generator)
    by Gauss-Jordan elimination in integers, and returns the basis as one
    read-only ``(k, N, N)`` integer array, one matrix per free unknown.
    Guarded by ``max_degree`` because the solve works on ``degree**2``
    unknowns.
    """
    n = group.degree
    if n > max_degree:
        raise DegreeTooLargeError(
            f"degree {n} exceeds the oracle bound {max_degree}; "
            "raise max_degree explicitly to override"
        )
    b = np.stack(list(_pair_images(group)))
    a = np.broadcast_to(np.arange(n * n), b.shape)
    a, b = a[a != b], b[a != b]
    # one row x_a - x_b per unordered pair {a, b}, at its first occurrence in
    # generator-major, row-major order: the row order sets the solve's work
    first = np.sort(np.unique(np.minimum(a, b) * (n * n) + np.maximum(a, b), return_index=True)[1])
    rows = [{i: 1, j: -1} for i, j in zip(a[first].tolist(), b[first].tolist())]
    vecs = rational.nullspace(rows, n * n)
    basis = np.zeros((len(vecs), n * n), dtype=np.int64)
    for flat, vec in zip(basis, vecs):
        flat[list(vec)] = list(vec.values())
    basis = basis.reshape(len(vecs), n, n)
    basis.setflags(write=False)
    return basis


def materialize(pattern: SharingPattern, weights: np.ndarray) -> np.ndarray:
    """Dense matrix with entry ``weights[orbit_id[i, j]]``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (pattern.num_orbits,):
        raise ValueError(f"need {pattern.num_orbits} weights, got shape {w.shape}")
    return w[pattern.orbit_id]


def commutes_exactly(matrix: np.ndarray, g: np.ndarray) -> bool:
    """Whether ``matrix`` commutes with the permutation row ``g``, checked by reindexing.

    ``P_g W == W P_g`` is equivalent to ``W[g[i], g[j]] == W[i, j]``, which
    involves no arithmetic at all.
    """
    return np.array_equal(matrix, matrix[np.ix_(g, g)])


def point_orbit_grid(expr: Structure) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The structure's points as one axis per leaf of two or more points,
    outer major, and the point-orbit count along each: a leaf's points lie in
    one orbit or each in its own, so the count is 1 or the leaf's degree.
    There are at most ``log2(N)`` axes, within numpy's 64 however many
    one-point leaves a tree has.

    >>> from wreathlin.structure import parse_structure
    >>> point_orbit_grid(parse_structure("wr(trivial(2),S(3))"))
    ((3, 2), (1, 2))
    """
    if isinstance(expr, (Prod, Wreath)):
        (outer_points, outer_orbits), (inner_points, inner_orbits) = map(point_orbit_grid, (expr.outer, expr.inner))
        return outer_points + inner_points, outer_orbits + inner_orbits
    return ((expr.n,), (orbit_counts(expr)[0],)) if expr.n > 1 else ((), ())


def point_orbit(expr: Structure) -> np.ndarray:
    """Point-orbit id of each of the structure's points, numbered by least
    point: ``arange(m1)`` shaped to :func:`point_orbit_grid`'s orbit counts
    and broadcast to its points.  A ``prod`` or ``wr`` point ``p * Q + a``
    lies in orbit ``(orbit of p, orbit of a)``, outer major."""
    points, orbits = point_orbit_grid(expr)
    ids = np.broadcast_to(np.arange(orbit_counts(expr)[0]).reshape(orbits), points).ravel()
    ids.setflags(write=False)
    return ids


def orbit_index(expr: Structure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical orbit order of a structure without building its pattern.

    Returns ``(rows, cols, rank)``: ``rows[o], cols[o]`` is the first
    row-major appearance of canonical orbit ``o`` in
    ``pattern_of_structure(expr)``, and ``rank[k]`` is the canonical id of
    the node's ``k``-th candidate orbit.  A ``prod`` node's candidates are
    the ``(outer, inner)`` id pairs, outer major.  A ``wr`` node's are the
    ``(outer point orbit, inner orbit)`` pairs on the diagonal blocks, then
    the ``(outer off-diagonal orbit, inner point orbit, inner point orbit)``
    triples off them, each outer major.  Leaves are their own candidates.
    Every orbit lies wholly on or wholly off the diagonal, so first
    appearances compose: a pair's is the two factors' interleaved, and a
    point orbit's least point is the row of its diagonal orbit.
    """
    if isinstance(expr, Leaf):
        rows, cols = np.divmod(np.arange(orbit_counts(expr)[1]), expr.n)
    elif isinstance(expr, (Prod, Wreath)):
        Q = degree(expr.inner)
        ra, ca, _ = orbit_index(expr.outer)
        rb, cb, _ = orbit_index(expr.inner)
        if isinstance(expr, Prod):
            rows, cols = (ra[:, None] * Q + rb).ravel(), (ca[:, None] * Q + cb).ravel()
        else:
            off = ra != ca
            corner = ra[~off, None] * Q  # the first fiber of each outer point orbit
            least = rb[rb == cb]  # the least point of each inner point orbit
            r, c = np.broadcast_arrays((ra[off] * Q)[:, None, None] + least[:, None],
                                       (ca[off] * Q)[:, None, None] + least)
            rows = np.concatenate([(corner + rb).ravel(), r.ravel()])
            cols = np.concatenate([(corner + cb).ravel(), c.ravel()])
    else:
        raise TypeError(f"not a structure: {expr!r}")
    order = np.lexsort((cols, rows))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    out = (rows[order], cols[order], rank)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def pattern_of_structure(expr: Structure) -> SharingPattern:
    """Sharing pattern of a structure, numbered by :func:`orbit_grid`.

    Builds the full ``N x N`` id matrix, so only rendering and the oracles
    call it; :func:`apply` numbers orbits through :func:`orbit_index`.  Its
    orbit count is read off the ids, not taken from the closed form, so the
    two stay separate routes.  Only the latest pattern is kept.
    """
    ids = orbit_grid(expr)
    return SharingPattern(ids, int(ids.max()) + 1)


def orbit_grid(expr: Structure) -> np.ndarray:
    """Canonical orbit id of every entry, as an ``(N, N)`` int64 array.

    Leaves are arithmetic and already canonical.  A ``prod`` or ``wr`` node
    builds its outer factor's ``P x P`` grid and its inner factor's
    ``Q x Q`` grid, one after the other, numbers the node's candidate orbit
    of entry ``(p Q + a, q Q + b)`` as :func:`orbit_index` does through one
    ``(P, Q, P, Q)`` broadcast, and maps it through that node's ``rank``.
    """
    if isinstance(expr, Leaf):
        idx = np.arange(expr.n)
        return LEAF_KINDS[type(expr)].orbit_of(expr.n, idx[:, None], idx)
    rank = orbit_index(expr)[2]  # numbered before any grid exists
    P, Q = degree(expr.outer), degree(expr.inner)
    outer, inner = orbit_grid(expr.outer), orbit_grid(expr.inner)
    if isinstance(expr, Prod):
        candidate = outer[:, None, :, None] * orbit_counts(expr.inner)[1] + inner[:, None, :]
    else:
        # off the diagonal blocks: the off-diagonal outer orbit in canonical
        # order, then the inner point orbits of both entries; on them, the
        # outer point orbit, then the inner orbit
        ra, ca, _ = orbit_index(expr.outer)
        m1, m2 = orbit_counts(expr.inner)
        off = (np.cumsum(ra != ca) - 1) * m1 * m1 + orbit_counts(expr.outer)[0] * m2
        outer_points, points = point_orbit(expr.outer), point_orbit(expr.inner)
        candidate = off[outer][:, None, :, None] + (points[:, None] * m1 + points)[:, None, :]
        at = np.arange(P)
        candidate[at, :, at, :] = outer_points[:, None, None] * m2 + inner
    return rank[candidate].reshape(P * Q, P * Q)


def constant_on_orbits(matrix: np.ndarray, pattern: SharingPattern) -> bool:
    """Exact check that ``matrix`` lies in the span of the pattern's orbits.

    Compares every entry with its orbit's first entry, so it is exact for
    integer matrices such as :func:`commutant_basis` returns; the residual
    of projecting onto the pattern span is zero iff this holds.
    """
    if matrix.shape != (pattern.n, pattern.n):
        raise ValueError("matrix and pattern shapes differ")
    ids = pattern.orbit_id.ravel()
    first = np.unique(ids, return_index=True)[1]  # orbit o first appears at first[o]
    others = np.delete(np.arange(ids.size), first)
    flat = np.asarray(matrix).ravel()
    return bool(np.all(flat[others] == flat[first[ids[others]]]))


def pattern_csv(pattern: SharingPattern) -> str:
    """Orbit ids as CSV, one matrix row per line."""
    lines = [",".join(str(v) for v in row) for row in pattern.orbit_id]
    return "\n".join(lines) + "\n"


def pattern_pgm(pattern: SharingPattern) -> str:
    """Plain (P2) PGM image of the pattern, one pixel per matrix entry.

    Orbit ids map to evenly spaced gray levels so distinct orbits render as
    distinct grays.
    """
    n = pattern.n
    spread = max(1, pattern.num_orbits - 1)
    gray = (pattern.orbit_id * 255) // spread
    lines = ["P2", f"{n} {n}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in gray)
    return "\n".join(lines) + "\n"


def pattern_summary(expr_text: str, pattern: SharingPattern) -> str:
    return f"structure={expr_text} N={pattern.n} orbits={pattern.num_orbits}"
