"""Permutations, finitely generated permutation groups, and product actions.

Conventions used throughout the package:

* A permutation of degree ``n`` acts on the points ``0 .. n-1`` and is an
  integer array in word form: ``p[i]`` is where point ``i`` is sent.  A
  group's generators are the rows of one ``(k, n)`` array.
* Composition is indexing: ``p[q]`` applies ``q`` first, then ``p``.

  >>> p, q = np.array([1, 2, 0]), np.array([1, 0, 2])
  >>> p[q]
  array([2, 1, 0])

* Product constructions act on ``{0 .. P*Q-1}`` with the outer index major:
  the pair ``(p, q)`` of an outer point ``p`` and an inner point ``q`` is the
  point ``p * Q + q``.
* A permutation moves an array's rows: :func:`permute_rows` sends row ``j``
  to row ``p[j]``, so acting by ``p[q]`` is acting by ``q``, then by ``p``.

  >>> x = np.array([10, 20, 30])
  >>> np.array_equal(permute_rows(p[q], x), permute_rows(p, permute_rows(q, x)))
  True
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAX_ORDER = 200_000
MAX_ORDER_ENV_VAR = "WREATHLIN_MAX_ORDER"


class InvalidDegreeError(ValueError):
    """A degree was zero or negative."""


class DegreeMismatchError(ValueError):
    """Permutations or generators of different degrees were mixed."""


class InvalidGeneratorError(ValueError):
    """Generator rows were missing or not permutations of ``0 .. n-1``."""


class EnumerationLimitError(RuntimeError):
    """The generated group has more elements than the enumeration limit."""


def max_order_limit() -> int:
    """The enumeration limit ``verify --max-order`` defaults to, overridable
    via ``WREATHLIN_MAX_ORDER``.

    Raises ``ValueError`` when the variable is set to anything but a
    positive integer.
    """
    raw = os.environ.get(MAX_ORDER_ENV_VAR)
    if not raw:
        return DEFAULT_MAX_ORDER
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{MAX_ORDER_ENV_VAR} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A permutation group given by the rows of its generators.

    ``generators`` is stored as a read-only ``(k, N)`` array, one permutation
    of ``0 .. N-1`` per row in word form, of the least unsigned dtype that
    holds ``N - 1``.  Each distinct row is kept at its first occurrence.
    ``degree`` is ``N``, read off the rows.

    >>> PermGroup([[1, 2, 0], [1, 0, 2], [1, 2, 0]]).generators
    array([[1, 2, 0],
           [1, 0, 2]], dtype=uint8)
    """

    generators: np.ndarray
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        rows = np.asarray(self.generators)
        if rows.ndim != 2:
            raise DegreeMismatchError(f"generators need shape (k, N), got {rows.shape}")
        n = rows.shape[1]
        if n < 1:
            raise InvalidDegreeError(f"group degree must be at least 1, got {n}")
        if not len(rows):
            raise InvalidGeneratorError("a group needs at least one generator")
        not_perm = f"each generator must be a permutation of 0..{n - 1}"
        # the range is checked before the cast to unsigned, which would wrap -1 to 255
        if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
            raise InvalidGeneratorError(not_perm)
        rows = rows.astype(np.min_scalar_type(n - 1))
        # a row of images in 0..n-1 is a permutation exactly when it hits every point
        hit = np.zeros(rows.size, dtype=bool)
        hit[(rows + np.arange(0, rows.size, n)[:, None]).ravel()] = True
        if not hit.all():
            raise InvalidGeneratorError(not_perm)
        unique = dict.fromkeys(map(bytes, rows))  # first occurrences, in order
        object.__setattr__(self, "generators", np.frombuffer(b"".join(unique), rows.dtype).reshape(-1, n))
        object.__setattr__(self, "degree", n)


def permute_rows(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The action of ``p`` on the rows of ``x``: row ``j`` moves to row ``p[j]``.

    >>> permute_rows(np.array([1, 2, 0]), np.array([10, 20, 30]))
    array([30, 10, 20])
    """
    x = np.asarray(x)
    if x.shape[0] != len(p):
        raise DegreeMismatchError(f"array has {x.shape[0]} rows, permutation degree {len(p)}")
    out = np.empty_like(x)
    out[p] = x
    return out


def cyclic_group(n: int) -> PermGroup:
    """The cyclic group generated by ``i -> (i + 1) mod n``.

    >>> cyclic_group(4).generators
    array([[1, 2, 3, 0]], dtype=uint8)
    """
    return PermGroup([np.arange(1, n + 1) % n])


def symmetric_group(n: int) -> PermGroup:
    """The full symmetric group, generated by a transposition and an n-cycle.

    >>> symmetric_group(3).generators
    array([[1, 0, 2],
           [1, 2, 0]], dtype=uint8)
    >>> symmetric_group(2).generators  # the swap is the 2-cycle
    array([[1, 0]], dtype=uint8)
    """
    swap = np.arange(n)
    swap[:2] = swap[:2][::-1]  # the identity when n == 1
    return PermGroup([swap, np.arange(1, n + 1) % n])


def trivial_group(n: int) -> PermGroup:
    """The trivial group acting on ``n`` points.

    >>> trivial_group(3).generators
    array([[0, 1, 2]], dtype=uint8)
    """
    return PermGroup([np.arange(n)])


def _fiber_rows(outer: PermGroup, inner: PermGroup) -> tuple[np.ndarray, np.ndarray]:
    """Each outer generator ``h`` lifted to ``(p, q) -> (h[p], q)``, and each
    inner generator ``k`` as ``(p, q) -> (p, k[q])`` in every fiber.

    Both are ``(k, P, Q)`` arrays of the least unsigned dtype that holds
    ``P * Q``, so the point numbers ``p * Q + q`` cannot wrap.
    """
    P, Q = outer.degree, inner.degree
    dtype = np.min_scalar_type(P * Q)
    lifted = outer.generators.astype(dtype)[:, :, None] * Q + np.arange(Q, dtype=dtype)
    return lifted, np.arange(P, dtype=dtype)[:, None] * Q + inner.generators[:, None, :]


def direct_product_group(outer: PermGroup, inner: PermGroup) -> PermGroup:
    """Direct product acting on pairs: ``(h, k) . (p, q) = (h.p, k.q)``.

    The result acts on ``outer.degree * inner.degree`` points with the outer
    index major.
    """
    return PermGroup(np.concatenate(_fiber_rows(outer, inner)).reshape(-1, outer.degree * inner.degree))


UNION_CHUNK = 1 << 14  # bounds the points of a row held as Python ints at once


def orbit_labels(images) -> np.ndarray:
    """Least point of each point's orbit under the rows of ``images``.

    ``images`` is a ``(k, m)`` array or an iterable of rows, each a
    permutation of ``0 .. m-1`` in word form; an iterable keeps one row in
    memory at a time.  Union-find joins each moved point to its image and
    roots each class at its least point.

    >>> orbit_labels(np.array([[1, 0, 2, 4, 3], [0, 1, 3, 2, 4]]))
    array([0, 0, 2, 2, 2])
    """
    parent: list[int] = []
    for row in images:
        parent = parent or list(range(len(row)))
        for start in range(0, len(row), UNION_CHUNK):
            chunk = np.asarray(row[start:start + UNION_CHUNK])
            moved = np.flatnonzero(chunk != np.arange(start, start + len(chunk)))
            for a, b in zip((moved + start).tolist(), chunk[moved].tolist()):
                while parent[a] != a:  # path halving
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                parent[max(a, b)] = min(a, b)
    for x, p in enumerate(parent):  # p <= x, so parent[p] is already p's root
        parent[x] = parent[p]
    return np.array(parent, dtype=np.intp)


def orbit_minima(group: PermGroup) -> list[int]:
    """The least point of each orbit of ``group`` on its points, ascending."""
    return np.flatnonzero(orbit_labels(group.generators) == np.arange(group.degree)).tolist()


def wreath_product_group(inner: PermGroup, outer: PermGroup) -> PermGroup:
    """Imprimitive wreath action of ``inner`` along fibers permuted by ``outer``.

    Acts on ``P * Q`` points arranged as ``P`` fibers of size ``Q``.  The
    generators are the lifted outer generators ``(p, q) -> (h.p, q)`` plus the
    inner generators acting in the first fiber of each outer point orbit
    only.  Conjugating by the outer group carries them to every other fiber,
    so they generate the full wreath product, of order
    ``|inner| ** P * |outer|``.
    """
    P, Q = outer.degree, inner.degree
    lifted, spread = _fiber_rows(outer, inner)
    minima = np.array(orbit_minima(outer))
    # k in fiber p, the identity in every other fiber: (orbit, generator, P, Q)
    local = np.tile(np.arange(P * Q, dtype=spread.dtype).reshape(P, Q), (len(minima), len(spread), 1, 1))
    local[np.arange(len(minima)), :, minima] = spread[:, minima].swapaxes(0, 1)
    rows = np.concatenate([lifted.reshape(-1, P * Q), local.reshape(-1, P * Q)])
    return PermGroup(rows)


def enumerate_group(group: PermGroup, limit: int) -> np.ndarray:
    """All elements of the generated group, as the rows of an ``(m, N)`` array.

    Each row holds the images of one element in word form, the identity
    first, then breadth-first order.  The closure applies one generator at a
    time to the whole frontier by fancy indexing and keeps the rows whose
    bytes it has not seen, so each element costs one hashed lookup however
    deep the group is.  The dtype is that of :attr:`PermGroup.generators`,
    and the array is a read-only view of the joined keys, so the call peaks
    at two copies of the group, the keys and their join.
    Raises :class:`EnumerationLimitError` as soon as one generator's images
    take the closure past ``limit``, so the work done before raising stays
    within about twice ``limit`` rows.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    n = group.degree
    dtype = group.generators.dtype
    row = np.dtype((np.void, n * dtype.itemsize))
    seen = dict.fromkeys([np.arange(n, dtype=dtype).tobytes()])  # insertion-ordered set of rows
    frontier = list(seen)
    while frontier:
        rows = np.frombuffer(b"".join(frontier), dtype=dtype).reshape(-1, n)
        frontier = []
        for g in group.generators:
            # g after e is g[e]; distinct rows e give distinct images
            new = [key for key in g[rows].view(row).ravel().tolist() if key not in seen]
            seen.update(dict.fromkeys(new))
            frontier += new
            if len(seen) > limit:
                raise EnumerationLimitError(f"group of degree {n} exceeds enumeration limit {limit}")
    return np.frombuffer(b"".join(seen), dtype=dtype).reshape(-1, n)
