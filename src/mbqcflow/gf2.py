"""GF(2) linear algebra on int bitmasks.

Vectors and matrix rows are plain Python ints: bit i set means coordinate i
is 1.  This keeps set algebra (symmetric difference = XOR) and linear algebra
in the same representation throughout the package.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

# Largest nullspace dimension that min_weight_solution enumerates (2^14 sums).
ENUMERATE_LIMIT = 14


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per listed index."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def members(mask: int) -> List[int]:
    """Sorted list of set bit positions."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def rank(rows: Iterable[int]) -> int:
    """Rank of the span of the given row bitmasks."""
    basis: List[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)


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
    (particular solution, nullspace basis) or None when inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs length mismatch")
    # Augmented rows: coefficient bits 0..ncols-1, rhs in bit ncols.
    aug = [rows[i] | (rhs[i] & 1) << ncols for i in range(len(rows))]
    pivots: List[Tuple[int, int]] = []  # (column, row index in reduced list)
    reduced: List[int] = []
    for row in aug:
        for col, idx in pivots:
            if (row >> col) & 1:
                row ^= reduced[idx]
        if row == 0:
            continue
        if row == 1 << ncols:
            return None  # 0 = 1
        col = (row & ((1 << ncols) - 1)).bit_length() - 1
        # Back-eliminate the new pivot column from earlier rows.
        for i, r in enumerate(reduced):
            if (r >> col) & 1:
                reduced[i] = r ^ row
        pivots.append((col, len(reduced)))
        reduced.append(row)
    pivot_cols = {col for col, _ in pivots}
    particular = 0
    for col, idx in pivots:
        if (reduced[idx] >> ncols) & 1:
            particular |= 1 << col
    basis: List[int] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for col, idx in pivots:
            if (reduced[idx] >> free) & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, basis


def min_weight_solution(particular: int, basis: List[int]) -> int:
    """Canonical element of the affine space particular + span(basis).

    With at most ENUMERATE_LIMIT basis vectors it is the minimum-weight
    element, ties broken toward the smallest bitmask.  Beyond that it is
    `particular` itself; for the output of `solve` that is the reduced-echelon
    solution with the free variables set to zero, unique for the system.
    """
    if len(basis) > ENUMERATE_LIMIT:
        return particular
    best = particular
    best_key = (particular.bit_count(), particular)
    for combo in range(1, 1 << len(basis)):
        x = particular
        c = combo
        i = 0
        while c:
            if c & 1:
                x ^= basis[i]
            c >>= 1
            i += 1
        key = (x.bit_count(), x)
        if key < best_key:
            best, best_key = x, key
    return best
