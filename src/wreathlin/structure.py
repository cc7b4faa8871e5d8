"""Symmetry structure expressions and their little grammar.

A structure describes how a finite index set is built from symmetric factors:

* ``S(n)``       -- a set of ``n`` interchangeable points (full symmetric group)
* ``C(n)``       -- a ring of ``n`` points (cyclic group)
* ``trivial(n)`` -- ``n`` distinguishable points (trivial group)
* ``prod(A, B)`` -- a grid with outer factor ``A`` and inner factor ``B``
* ``wr(B, A)``   -- ``|A|`` fibers, each a copy of ``B``, permuted by ``A``
                    (hierarchical: inner argument first)

Expressions nest arbitrarily and are whitespace insensitive.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple, Union

import numpy as np

from .perm import (
    InvalidDegreeError,
    PermGroup,
    cyclic_group,
    direct_product_group,
    symmetric_group,
    trivial_group,
    wreath_product_group,
)


# Deepest nesting of prod/wr nodes the parser accepts.  Far deeper trees
# overflow the interpreter stack while hashing the nested frozen dataclasses.
MAX_NESTING = 100


class StructureParseError(ValueError):
    """The structure expression could not be parsed."""


@dataclass(frozen=True)
class Leaf:
    """``n`` points under one of the leaf groups; the subclass's ``LEAF_KINDS`` record holds its rules."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidDegreeError(f"{LEAF_KINDS[type(self)].head}(n) needs n >= 1, got {self.n}")


class Set(Leaf):
    """``S(n)``: the full symmetric group."""


class Cycle(Leaf):
    """``C(n)``: the cyclic group."""


class Trivial(Leaf):
    """``trivial(n)``: the trivial group."""


class LeafKind(NamedTuple):
    """All the engine knows of one leaf kind, as functions of its ``n``: its
    ``(m1, m2)`` point and pair orbit counts, and ``orbit_of(n, i, j)``, the
    canonical orbit id of the entries ``(i, j)``, index arrays broadcasting.
    Its orbits first appear in its first ``m2`` row-major entries, in id order."""

    head: str
    group: Callable[[int], PermGroup]
    counts: Callable[[int], tuple[int, int]]
    order: Callable[[int], int]
    orbit_of: Callable[..., np.ndarray]


LEAF_KINDS = {
    Set: LeafKind("S", symmetric_group, lambda n: (1, min(n, 2)), math.factorial,
                  lambda n, i, j: np.not_equal(i, j).astype(np.int64)),
    Cycle: LeafKind("C", cyclic_group, lambda n: (1, n), lambda n: n, lambda n, i, j: (j - i) % n),
    Trivial: LeafKind("trivial", trivial_group, lambda n: (n, n * n), lambda n: 1, lambda n, i, j: i * n + j),
}
LEAF_HEADS = {kind.head: cls for cls, kind in LEAF_KINDS.items()}


@dataclass(frozen=True)
class Prod:
    outer: "Structure"
    inner: "Structure"


@dataclass(frozen=True)
class Wreath:
    inner: "Structure"
    outer: "Structure"


Structure = Union[Leaf, Prod, Wreath]


def degree(expr: Structure) -> int:
    """Number of points the structure's group acts on."""
    if isinstance(expr, Leaf):
        return expr.n
    if isinstance(expr, (Prod, Wreath)):
        return degree(expr.outer) * degree(expr.inner)
    raise TypeError(f"not a structure: {expr!r}")


def format_structure(expr: Structure) -> str:
    """Canonical text form, parseable by :func:`parse_structure`.

    >>> format_structure(Wreath(Set(4), Set(3)))
    'wr(S(4),S(3))'
    """
    if isinstance(expr, Leaf):
        return f"{LEAF_KINDS[type(expr)].head}({expr.n})"
    if isinstance(expr, Prod):
        return f"prod({format_structure(expr.outer)},{format_structure(expr.inner)})"
    if isinstance(expr, Wreath):
        return f"wr({format_structure(expr.inner)},{format_structure(expr.outer)})"
    raise TypeError(f"not a structure: {expr!r}")


# a token, or else the one character that starts none
_TOKEN = re.compile(r"\s*(?:(\d+|[A-Za-z_]+|[(),])|(\S))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    # matches abut up to the last non-space character, so one pass is linear
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        if m.group(2) is not None:
            pos = m.start()
            raise StructureParseError(f"unexpected character at position {pos}: {text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
    return tokens


def parse_structure(text: str) -> Structure:
    """Parse the structure grammar.

    >>> parse_structure(" wr( S(4), S(3) ) ")
    Wreath(inner=Set(n=4), outer=Set(n=3))
    """
    tokens = _tokenize(text)
    if not tokens:
        raise StructureParseError("empty structure expression")
    # the innermost node's leaves add one level of parentheses
    if max(accumulate((t == "(") - (t == ")") for t in tokens)) > MAX_NESTING + 1:
        raise StructureParseError(f"structure nests deeper than {MAX_NESTING} prod/wr levels")
    expr, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        more = f" and {len(tokens) - pos - 5} more" if len(tokens) - pos > 5 else ""
        raise StructureParseError(f"trailing input after expression: {tokens[pos:pos + 5]}{more}")
    return expr


def _expect(tokens: list[str], pos: int, token: str) -> int:
    if pos >= len(tokens) or tokens[pos] != token:
        found = tokens[pos] if pos < len(tokens) else "end of input"
        raise StructureParseError(f"expected {token!r}, found {found!r}")
    return pos + 1


def _parse_int(tokens: list[str], pos: int) -> tuple[int, int]:
    if pos >= len(tokens) or not tokens[pos].isdigit():
        found = tokens[pos] if pos < len(tokens) else "end of input"
        raise StructureParseError(f"expected an integer, found {found!r}")
    return int(tokens[pos]), pos + 1


def _parse_expr(tokens: list[str], pos: int) -> tuple[Structure, int]:
    if pos >= len(tokens):
        raise StructureParseError("unexpected end of input")
    head = tokens[pos]
    pos += 1
    if head in LEAF_HEADS:
        pos = _expect(tokens, pos, "(")
        n, pos = _parse_int(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return LEAF_HEADS[head](n), pos
    if head in ("prod", "wr"):
        pos = _expect(tokens, pos, "(")
        first, pos = _parse_expr(tokens, pos)
        pos = _expect(tokens, pos, ",")
        second, pos = _parse_expr(tokens, pos)
        pos = _expect(tokens, pos, ")")
        if head == "prod":
            return Prod(outer=first, inner=second), pos
        return Wreath(inner=first, outer=second), pos
    raise StructureParseError(f"unknown structure head {head!r}")


@lru_cache(maxsize=32)
def group_of(expr: Structure) -> PermGroup:
    """The permutation group realizing the structure's symmetry."""
    if isinstance(expr, Leaf):
        return LEAF_KINDS[type(expr)].group(expr.n)
    if isinstance(expr, Prod):
        return direct_product_group(group_of(expr.outer), group_of(expr.inner))
    if isinstance(expr, Wreath):
        return wreath_product_group(group_of(expr.inner), group_of(expr.outer))
    raise TypeError(f"not a structure: {expr!r}")


def orbit_counts(expr: Structure) -> tuple[int, int]:
    """``(m1, m2)``: the numbers of point orbits and of pair orbits."""
    if isinstance(expr, Leaf):
        return LEAF_KINDS[type(expr)].counts(expr.n)
    if isinstance(expr, Prod):
        (a1, a2), (b1, b2) = orbit_counts(expr.outer), orbit_counts(expr.inner)
        return a1 * b1, a2 * b2
    if isinstance(expr, Wreath):
        (a1, a2), (b1, b2) = orbit_counts(expr.outer), orbit_counts(expr.inner)
        return a1 * b1, a1 * b2 + (a2 - a1) * b1 * b1
    raise TypeError(f"not a structure: {expr!r}")


def param_count(expr: Structure) -> int:
    """Closed-form free-parameter count of an equivariant map: its pair orbits.

    It is the second of two counts, ``m1`` point orbits and ``m2`` pair
    orbits.  A leaf's are its :data:`LEAF_KINDS` record's ``counts``, and a
    ``prod`` multiplies both.  ``wr(B, A)`` has ``m1 = m1(A) * m1(B)`` point
    orbits, and ``m2 = m1(A) * m2(B) + (m2(A) - m1(A)) * m1(B)**2`` pair
    orbits: ``B``'s pair orbits inside the fibers of each outer point orbit,
    and one per pair of ``B``'s point orbits for each pair orbit of ``A`` off
    the diagonal.  With transitive factors this is ``count(B) + count(A) - 1``.
    """
    return orbit_counts(expr)[1]


def group_order(expr: Structure) -> int:
    """Order of the structure's group, in closed form.

    A leaf's is its :data:`LEAF_KINDS` record's ``order``; a ``prod``
    multiplies the orders, and ``|wr(B, A)| = |B| ** degree(A) * |A|``.
    """
    if isinstance(expr, Leaf):
        return LEAF_KINDS[type(expr)].order(expr.n)
    if isinstance(expr, Prod):
        return group_order(expr.outer) * group_order(expr.inner)
    if isinstance(expr, Wreath):
        return group_order(expr.inner) ** degree(expr.outer) * group_order(expr.outer)
    raise TypeError(f"not a structure: {expr!r}")


def reassociate_wreaths(expr: Structure) -> Structure:
    """Rewrite every ``wr(wr(A,B),C)`` into ``wr(A,wr(B,C))``, recursively.

    The rewritten expression describes the same index set; equality of the
    resulting sharing patterns is the associativity check used by ``verify``.
    """
    if isinstance(expr, Leaf):
        return expr
    if isinstance(expr, Prod):
        return Prod(reassociate_wreaths(expr.outer), reassociate_wreaths(expr.inner))
    inner = reassociate_wreaths(expr.inner)
    outer = reassociate_wreaths(expr.outer)
    if isinstance(inner, Wreath):
        # (A wr B) wr C  ->  A wr (B wr C)
        return reassociate_wreaths(Wreath(inner.inner, Wreath(inner.outer, outer)))
    return Wreath(inner, outer)
