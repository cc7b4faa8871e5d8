"""Exact rational Gauss-Jordan elimination and nullspace extraction.

Rows are sparse mappings ``column -> Fraction``.  The reduction keeps every
pivot row normalized (leading coefficient 1) and fully reduced against the
other pivots, so nullspace vectors read off directly from the free columns.
Arithmetic is exact; no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction

SparseRow = dict[int, Fraction]


def _eliminate(row: SparseRow, col: int, pivot: SparseRow) -> None:
    """Subtract ``row[col]`` times the normalized ``pivot`` row, in place,
    which clears column ``col`` from ``row``."""
    coef = row.pop(col)
    for d, v in pivot.items():
        if d == col:
            continue
        nv = row.get(d, Fraction(0)) - coef * v
        if nv == 0:
            row.pop(d, None)
        else:
            row[d] = nv


def _reduce_against(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """Eliminate every pivot column from ``row``; returns a new sparse row."""
    r = {c: Fraction(v) for c, v in row.items() if v != 0}
    while True:
        hit = next((c for c in r if c in pivots), None)
        if hit is None:
            return r
        _eliminate(r, hit, pivots[hit])


def rref(rows: list[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the row span.

    Returns a mapping ``pivot column -> normalized row`` where each row
    contains its own pivot column with coefficient 1 and no other pivot
    columns.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        r = _reduce_against(row, pivots)
        if not r:
            continue
        p = min(r)
        inv = Fraction(1) / r[p]
        r = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            if p in prow:
                _eliminate(prow, p, r)
        pivots[p] = r
    return pivots


def nullspace(rows: list[SparseRow], n_cols: int) -> list[SparseRow]:
    """A basis of ``{x : A x = 0}`` for the matrix with the given rows.

    One sparse basis vector per free column, in ascending column order; the
    vector for free column ``f`` has a 1 in position ``f``.
    """
    pivots = rref(rows)
    return [{f: Fraction(1)} | {p: -prow[f] for p, prow in pivots.items() if f in prow}
            for f in range(n_cols) if f not in pivots]
