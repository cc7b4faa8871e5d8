"""Permutations, finitely generated permutation groups, and product actions.

Conventions used throughout the package:

* A permutation of degree ``n`` acts on the points ``0 .. n-1`` and is stored
  in word form: ``images[i]`` is where point ``i`` is sent.
* ``compose(p, q)`` applies ``q`` first, then ``p``, so
  ``compose(p, q)(i) == p(q(i))``.
* Product constructions act on ``{0 .. P*Q-1}`` with the outer index major:
  the pair ``(p, q)`` of an outer point ``p`` and an inner point ``q`` is the
  point ``p * Q + q``.
* ``perm_to_matrix(p)`` sends basis vector ``e_j`` to ``e_{p(j)}``.  This
  orientation makes the map a homomorphism:
  ``perm_to_matrix(compose(p, q)) == perm_to_matrix(p) @ perm_to_matrix(q)``.
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


class EnumerationLimitError(RuntimeError):
    """The generated group has more elements than the enumeration limit."""


def max_order_limit() -> int:
    """Default enumeration limit, overridable via ``WREATHLIN_MAX_ORDER``.

    Raises ``ValueError`` when the variable is set to anything but a
    positive integer.
    """
    raw = os.environ.get(MAX_ORDER_ENV_VAR)
    if not raw:
        return DEFAULT_MAX_ORDER
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{MAX_ORDER_ENV_VAR} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{0 .. n-1}`` in word form.

    >>> p = Permutation((1, 2, 0))
    >>> p(0), p(1), p(2)
    (1, 2, 0)
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        if not images:
            raise InvalidDegreeError("permutation degree must be at least 1")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by degree and a nonempty generator tuple.

    ``images`` is the read-only ``(k, N)`` array of the generators' images,
    of the least unsigned dtype that holds ``N - 1``.
    """

    degree: int
    generators: tuple[Permutation, ...]
    label: str = ""
    images: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise InvalidDegreeError("group degree must be at least 1")
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a group needs at least one generator")
        for g in self.generators:
            if g.degree != self.degree:
                raise DegreeMismatchError(f"generator degree {g.degree} != group degree {self.degree}")
        images = np.array([g.images for g in self.generators], dtype=np.min_scalar_type(self.degree - 1))
        images.setflags(write=False)
        object.__setattr__(self, "images", images)


def identity(n: int) -> Permutation:
    """The identity permutation on ``n`` points.

    >>> identity(3).images
    (0, 1, 2)
    """
    if n < 1:
        raise InvalidDegreeError(f"degree must be at least 1, got {n}")
    return Permutation(tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply ``q`` first, then ``p``.

    >>> compose(Permutation((1, 2, 0)), Permutation((1, 2, 0))).images
    (2, 0, 1)
    """
    if p.degree != q.degree:
        raise DegreeMismatchError(f"cannot compose degrees {p.degree} and {q.degree}")
    return Permutation(tuple(p.images[q.images[i]] for i in range(p.degree)))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation.

    >>> inverse(Permutation((1, 2, 0))).images
    (2, 0, 1)
    """
    return Permutation(tuple(np.argsort(p.images).tolist()))


def permute_rows(p: Permutation, x: np.ndarray) -> np.ndarray:
    """Row action of ``perm_to_matrix(p)``: row ``j`` of ``x`` moves to row ``p(j)``."""
    x = np.asarray(x)
    if x.shape[0] != p.degree:
        raise DegreeMismatchError(f"array has {x.shape[0]} rows, permutation degree {p.degree}")
    out = np.empty_like(x)
    out[np.asarray(p.images)] = x
    return out


def cyclic_group(n: int) -> PermGroup:
    """The cyclic group generated by ``i -> (i + 1) mod n``.

    >>> cyclic_group(4).generators[0].images
    (1, 2, 3, 0)
    """
    if n < 1:
        raise InvalidDegreeError(f"degree must be at least 1, got {n}")
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    return PermGroup(n, (rot,), label=f"C{n}")


def symmetric_group(n: int) -> PermGroup:
    """The full symmetric group, generated by a transposition and an n-cycle."""
    if n < 1:
        raise InvalidDegreeError(f"degree must be at least 1, got {n}")
    if n == 1:
        return PermGroup(1, (identity(1),), label="S1")
    swap = Permutation((1, 0) + tuple(range(2, n)))
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    gens = (swap,) if swap == rot else (swap, rot)
    return PermGroup(n, gens, label=f"S{n}")


def trivial_group(n: int) -> PermGroup:
    """The trivial group acting on ``n`` points."""
    if n < 1:
        raise InvalidDegreeError(f"degree must be at least 1, got {n}")
    return PermGroup(n, (identity(n),), label=f"trivial{n}")


def direct_product_group(outer: PermGroup, inner: PermGroup) -> PermGroup:
    """Direct product acting on pairs: ``(h, k) . (p, q) = (h.p, k.q)``.

    The result acts on ``outer.degree * inner.degree`` points with the outer
    index major.
    """
    P, Q = outer.degree, inner.degree
    id_P, id_Q = identity(P), identity(Q)
    gens = [wreath_element(h, [id_Q] * P) for h in outer.generators]
    gens += [wreath_element(id_P, [k] * P) for k in inner.generators]
    label = f"({outer.label} x {inner.label})"
    return PermGroup(P * Q, tuple(dict.fromkeys(gens)), label=label)


_UNION_CHUNK = 1 << 14  # bounds the points of a row held as Python ints at once


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
        for start in range(0, len(row), _UNION_CHUNK):
            chunk = np.asarray(row[start:start + _UNION_CHUNK])
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
    return np.flatnonzero(orbit_labels(group.images) == np.arange(group.degree)).tolist()


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
    id_P, id_Q = identity(P), identity(Q)
    gens = [wreath_element(h, [id_Q] * P) for h in outer.generators]
    for p in orbit_minima(outer):
        gens += [wreath_element(id_P, [id_Q] * p + [k] + [id_Q] * (P - 1 - p)) for k in inner.generators]
    label = f"({inner.label} wr {outer.label})"
    return PermGroup(P * Q, tuple(dict.fromkeys(gens)), label=label)


def enumerate_group(group: PermGroup, limit: int | None = None) -> np.ndarray:
    """All elements of the generated group, as the rows of an ``(m, N)`` array.

    Each row holds the images of one element in word form, the identity
    first, then breadth-first order.  The closure applies one generator at a
    time to the whole frontier by fancy indexing and keeps the rows whose
    bytes it has not seen, so each element costs one hashed lookup however
    deep the group is.  The dtype is that of :attr:`PermGroup.images`.
    Raises :class:`EnumerationLimitError` as soon as one generator's images
    take the closure past ``limit`` (default :func:`max_order_limit`), so
    the work done before raising stays within about twice ``limit`` rows.
    """
    if limit is None:
        limit = max_order_limit()
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    n = group.degree
    dtype = group.images.dtype
    row = np.dtype((np.void, n * dtype.itemsize))
    seen = dict.fromkeys([np.arange(n, dtype=dtype).tobytes()])  # insertion-ordered set of rows
    frontier = list(seen)
    while frontier:
        rows = np.frombuffer(b"".join(frontier), dtype=dtype).reshape(-1, n)
        frontier = []
        for g in group.images:
            # compose(g, e) = g[e]; distinct rows e give distinct images
            new = [key for key in g[rows].view(row).ravel().tolist() if key not in seen]
            seen.update(dict.fromkeys(new))
            frontier += new
            if len(seen) > limit:
                raise EnumerationLimitError(
                    f"group {group.label or group.generators} exceeds enumeration limit {limit}"
                )
    return np.frombuffer(bytearray(b"".join(seen)), dtype=dtype).reshape(-1, n)


def perm_to_matrix(p: Permutation) -> np.ndarray:
    """The 0/1 matrix sending basis vector ``e_j`` to ``e_{p(j)}``.

    Exactly one 1 per row and per column: ``M[p(j), j] == 1``.
    """
    n = p.degree
    m = np.zeros((n, n), dtype=np.int64)
    m[np.asarray(p.images), np.arange(n)] = 1
    return m


def wreath_element(h: Permutation, ks: list[Permutation] | tuple[Permutation, ...]) -> Permutation:
    """The permutation ``(p, q) -> (h.p, ks[h.p].q)`` on ``P * Q`` points.

    ``ks[p]`` is the inner permutation applied to points landing in fiber ``p``.
    """
    P = h.degree
    if len(ks) != P:
        raise DegreeMismatchError(f"need {P} fiber permutations, got {len(ks)}")
    Q = ks[0].degree
    if any(k.degree != Q for k in ks):
        raise DegreeMismatchError("fiber permutations must share a degree")
    dest = np.asarray(h.images)
    fibers = np.array([k.images for k in ks])
    return Permutation(tuple((dest[:, None] * Q + fibers[dest]).ravel().tolist()))


def wreath_block_matrix(h: Permutation, ks: list[Permutation] | tuple[Permutation, ...]) -> np.ndarray:
    """Dense matrix of a wreath element assembled block by block.

    Block row ``h(p)``, block column ``p`` holds ``perm_to_matrix(ks[h(p)])``;
    every other block is zero.  Built independently of :func:`wreath_element`
    so the two constructions can be checked against each other.
    """
    P = h.degree
    Q = ks[0].degree
    m = np.zeros((P * Q, P * Q), dtype=np.int64)
    for p in range(P):
        dest = h(p)
        m[dest * Q:(dest + 1) * Q, p * Q:(p + 1) * Q] = perm_to_matrix(ks[dest])
    return m
