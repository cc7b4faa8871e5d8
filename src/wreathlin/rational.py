"""Exact Gauss-Jordan elimination and nullspace extraction in integers.

Rows are sparse mappings ``column -> int``.  The reduction keeps every pivot
row normalized (leading coefficient 1) and fully reduced against the other
pivots, so nullspace vectors read off directly from the free columns.

Only unit pivots are taken: a pivot of -1 is normalized by flipping the
row's sign, and any other pivot raises ``ArithmeticError``.  That covers the
commutation systems :func:`~wreathlin.basis.commutant_basis` builds, whose
rows are all differences ``x_a - x_b``: eliminating one such row against
another gives another or zero, so every pivot is 1 or -1.

>>> nullspace([{0: 1, 1: -1}, {2: -1, 1: 1}], 4)
[{2: 1, 0: 1, 1: 1}, {3: 1}]
"""

from __future__ import annotations

SparseRow = dict[int, int]


def _eliminate(row: SparseRow, col: int, pivot: SparseRow,
               holders: dict[int, set[int]] | None = None, owner: int = -1) -> None:
    """Subtract ``row[col]`` times the normalized ``pivot`` row, in place,
    which clears column ``col`` from ``row``.

    When ``row`` is the pivot row of column ``owner``, ``holders`` maps each
    column to the pivot columns whose rows hold it, and is kept up to date
    for every column that enters or leaves ``row``.
    """
    coef = row.pop(col)
    for d, v in pivot.items():
        if d == col:
            continue
        old = row.get(d, 0)
        nv = old - coef * v
        if nv == 0:
            row.pop(d, None)
            if holders is not None:
                holders[d].discard(owner)
        else:
            row[d] = nv
            if holders is not None and old == 0:
                holders.setdefault(d, set()).add(owner)


def _reduce_against(row: SparseRow, pivots: dict[int, SparseRow]) -> SparseRow:
    """Eliminate every pivot column from ``row``; returns a new sparse row."""
    r = {c: v for c, v in row.items() if v != 0}
    while True:
        hit = next((c for c in r if c in pivots), None)
        if hit is None:
            return r
        _eliminate(r, hit, pivots[hit])


def rref(rows: list[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the row span.

    Returns a mapping ``pivot column -> normalized row`` where each row
    contains its own pivot column with coefficient 1 and no other pivot
    columns.  Raises ``ArithmeticError`` at the first pivot that is not 1
    or -1.
    """
    pivots: dict[int, SparseRow] = {}
    holders: dict[int, set[int]] = {}  # column -> pivot columns whose rows hold it
    for row in rows:
        r = _reduce_against(row, pivots)
        if not r:
            continue
        p = min(r)
        if r[p] == -1:
            r = {c: -v for c, v in r.items()}
        elif r[p] != 1:
            raise ArithmeticError(f"pivot {r[p]} in column {p} is not 1 or -1")
        # back-substitute into only the pivot rows that hold column p
        for q in holders.pop(p, ()):
            _eliminate(pivots[q], p, r, holders, q)
        for c in r:
            if c != p:
                holders.setdefault(c, set()).add(p)
        pivots[p] = r
    return pivots


def nullspace(rows: list[SparseRow], n_cols: int) -> list[SparseRow]:
    """A basis of ``{x : A x = 0}`` for the matrix with the given rows.

    One sparse basis vector per free column, in ascending column order; the
    vector for free column ``f`` has a 1 in position ``f``.
    """
    pivots = rref(rows)
    return [{f: 1} | {p: -prow[f] for p, prow in pivots.items() if f in prow}
            for f in range(n_cols) if f not in pivots]
