"""GF(2) linear algebra on int bitmasks.

Vectors and matrix rows are plain Python ints: bit i set means coordinate i
is 1.  This keeps set algebra (symmetric difference = XOR) and linear algebra
in the same representation throughout the package.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per listed index."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask: int) -> List[int]:
    """Sorted list of set bit positions."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def echelon(rows: Iterable[int], ncols: int) -> Tuple[Dict[int, int], int]:
    """Reduced row-echelon form over GF(2) of systems sharing coefficients.

    Bits below `ncols` are coefficients; bit ncols + k is the right-hand side
    of system k.  Returns (pivots, inconsistent): `pivots` maps each pivot
    column, its row's highest coefficient bit, to that row, in which every
    other pivot column is clear; bit k of `inconsistent` is set exactly when
    system k has no solution (its bit survives on a row eliminated to zero).

    What depends only on the row space R of the given rows, not on their
    order: the pivot columns and the coefficient part of each pivot row
    (the reduced echelon form of R's coefficient parts, unique once each
    pivot is its row's highest bit); `inconsistent`, whose bit k is set
    exactly when some element of R has zero coefficients and bit k set (the
    rows eliminated to zero span those elements); and each pivot row's
    right-hand-side bit k for every consistent system k, since the pivot
    row is fixed up to those elements and they all have bit k clear.  The
    bits of inconsistent systems may differ: [0b011, 0b101] and its reverse,
    with ncols = 1, give pivot rows 3 and 5.
    """
    coeffs = (1 << ncols) - 1
    pivots: Dict[int, int] = {}
    pivot_mask = 0
    inconsistent = 0
    for row in rows:
        # A pivot row adds bits only below its pivot, so this terminates.
        while row & pivot_mask:
            row ^= pivots[(row & pivot_mask).bit_length() - 1]
        if row & coeffs:
            col = (row & coeffs).bit_length() - 1
            pivots[col] = row
            pivot_mask |= 1 << col
        else:
            inconsistent |= row >> ncols
    # Back-substitute upward: rows of lower pivots are already reduced.
    for col in sorted(pivots):
        row = pivots[col]
        lower = pivot_mask & ((1 << col) - 1)
        while row & lower:
            row ^= pivots[(row & lower).bit_length() - 1]
        pivots[col] = row
    return pivots, inconsistent


def rank(rows: Iterable[int]) -> int:
    """Rank of the span of the given row bitmasks."""
    rows = list(rows)
    return len(echelon(rows, max((r.bit_length() for r in rows), default=0))[0])


def row_space_equal(rows_a: Iterable[int], rows_b: Iterable[int]) -> bool:
    """Exact equality of the two GF(2) row spaces."""
    a = list(rows_a)
    b = list(rows_b)
    ra = rank(a)
    rb = rank(b)
    return ra == rb == rank(a + b)


def solve(rows: List[int], rhs: List[int], ncols: int) -> Optional[Tuple[int, List[int]]]:
    """Solve the linear system rows·x = rhs over GF(2).

    Each row is a coefficient bitmask over `ncols` variables.  Returns
    (particular solution, nullspace basis) or None when inconsistent.  The
    particular solution is the reduced-echelon one: the unique solution that
    is zero on every free (non-pivot) column, so it depends on the system,
    not on its row order.  The basis has one vector per free column, in
    increasing column order, whose only free bit is that column.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs length mismatch")
    pivots, inconsistent = echelon(
        [row | (b & 1) << ncols for row, b in zip(rows, rhs)], ncols)
    if inconsistent:
        return None
    particular = mask_of(col for col, row in pivots.items() if row >> ncols & 1)
    basis = [1 << free | mask_of(col for col, row in pivots.items() if row >> free & 1)
             for free in range(ncols) if free not in pivots]
    return particular, basis
