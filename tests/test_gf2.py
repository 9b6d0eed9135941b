"""Bitmask GF(2) linear algebra, cross-checked against numpy mod-2 arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow.gf2 import (echelon, mask_of, members, rank, row_space_equal,
                          solve)


def to_matrix(rows, ncols):
    return np.array([[(r >> j) & 1 for j in range(ncols)] for r in rows],
                    dtype=np.int64)


def test_echelon_of_inconsistent_rows_depends_on_their_order():
    assert echelon([0b011, 0b101], 1) == ({0: 3}, 3)
    assert echelon([0b101, 0b011], 1) == ({0: 5}, 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 9 - 1), max_size=8), st.integers(1, 6), st.randoms())
def test_echelon_invariants_do_not_depend_on_row_order(rows, ncols, rng):
    """Pivot columns, coefficient parts, the inconsistent mask and the
    right-hand-side bits of consistent systems are the same for every row order."""
    shuffled = rows[:]
    rng.shuffle(shuffled)
    coeffs = (1 << ncols) - 1
    a, b = echelon(rows, ncols), echelon(shuffled, ncols)
    assert a[1] == b[1] and a[0].keys() == b[0].keys()
    for col in a[0]:
        assert a[0][col] & coeffs == b[0][col] & coeffs
        assert a[0][col] >> ncols & ~a[1] == b[0][col] >> ncols & ~b[1]


def test_mask_members_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert members(0b101001) == [0, 3, 5]
    assert members(0) == []
    assert mask_of([]) == 0


rows_strategy = st.lists(st.integers(min_value=0, max_value=255),
                         min_size=0, max_size=8)


@settings(max_examples=200, deadline=None)
@given(rows_strategy)
def test_rank_matches_numpy_gaussian(rows):
    m = to_matrix(rows, 8)
    # mod-2 Gaussian elimination in numpy as an independent oracle
    a = m.copy() % 2
    r = 0
    for col in range(8):
        pivot = next((i for i in range(r, len(a)) if a[i, col]), None)
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(len(a)):
            if i != r and a[i, col]:
                a[i] ^= a[r]
        r += 1
    assert rank(rows) == r


@settings(max_examples=200, deadline=None)
@given(rows_strategy, rows_strategy)
def test_row_space_equal_is_an_equivalence(rows_a, rows_b):
    assert row_space_equal(rows_a, rows_a)
    assert row_space_equal(rows_a, rows_b) == row_space_equal(rows_b, rows_a)


def test_row_space_equal_examples():
    assert row_space_equal([0b11, 0b01], [0b10, 0b01])
    assert not row_space_equal([0b11], [0b10, 0b01])


@settings(max_examples=200, deadline=None)
@given(rows_strategy,
       st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=8))
def test_solve_solutions_actually_solve(rows, rhs_bits):
    rhs = rhs_bits[:len(rows)] + [0] * (len(rows) - len(rhs_bits))
    result = solve(rows, rhs, 8)
    if result is None:
        return
    particular, nullspace = result

    def check(x):
        return all(((row & x).bit_count() & 1) == b for row, b in zip(rows, rhs))

    assert check(particular)
    for v in nullspace:
        assert all((row & v).bit_count() % 2 == 0 for row in rows)
        assert check(particular ^ v)


@settings(max_examples=200, deadline=None)
@given(rows_strategy)
def test_solve_none_means_inconsistent(rows):
    """When solve reports no solution, exhaustive search agrees (8 columns)."""
    rhs = [1] * len(rows)
    if solve(rows, rhs, 8) is not None:
        return
    for x in range(256):
        assert any(((row & x).bit_count() & 1) != b for row, b in zip(rows, rhs))


def span_highest_bits(rows):
    """Pivot columns by enumeration: the highest bits of the span's elements."""
    highest = set()
    for combo in range(1, 1 << len(rows)):
        x = 0
        for i in members(combo):
            x ^= rows[i]
        if x:
            highest.add(x.bit_length() - 1)
    return highest


@settings(max_examples=200, deadline=None)
@given(rows_strategy, st.lists(st.integers(min_value=0, max_value=1),
                               min_size=8, max_size=8), st.randoms())
def test_solve_particular_is_canonical(rows, rhs_bits, rnd):
    """The particular solution ignores the row order and is zero on every
    free column."""
    rhs = rhs_bits[:len(rows)]
    result = solve(rows, rhs, 8)
    order = list(range(len(rows)))
    rnd.shuffle(order)
    permuted = solve([rows[i] for i in order], [rhs[i] for i in order], 8)
    assert (result is None) == (permuted is None)
    if result is None:
        return
    assert permuted[0] == result[0]
    free = set(range(8)) - span_highest_bits(rows)
    assert not result[0] & mask_of(free)
    assert len(result[1]) == len(free)


@settings(max_examples=200, deadline=None)
@given(rows_strategy, st.lists(st.integers(min_value=0, max_value=15),
                               min_size=8, max_size=8))
def test_shared_elimination_decides_each_system(rows, rhs_masks):
    """Four right-hand sides eliminated together (bits 8..11): each system's
    inconsistency bit and particular solution are those of its own solve."""
    rhs = rhs_masks[:len(rows)]
    pivots, inconsistent = echelon([r | b << 8 for r, b in zip(rows, rhs)], 8)
    for k in range(4):
        sol = solve(rows, [b >> k & 1 for b in rhs], 8)
        assert (inconsistent >> k & 1) == (sol is None)
        if sol is not None:
            assert sol[0] == mask_of(col for col, row in pivots.items()
                                     if row >> (8 + k) & 1)


@settings(max_examples=300, deadline=None)
@given(rows_strategy, st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_row_space_is_the_nullspace_complement(rows, vector, combo):
    """v lies in the row space of R exactly when it has even overlap with
    every basis vector of R's nullspace that `solve(R, 0...)` returns: the
    identity the stabilizer probe's output test rests on.  Reducing v by
    `echelon`'s pivot rows, as the probe does, decides the same.  Both a free
    vector and a combination of the rows are tried."""
    _, basis = solve(rows, [0] * len(rows), 8)
    pivots, _ = echelon(rows, 8)
    spanned = 0
    for i in members(combo):
        if i < len(rows):
            spanned ^= rows[i]
    for v in (vector, spanned):
        in_span = rank(rows + [v]) == rank(rows)
        assert in_span == all((v & x).bit_count() % 2 == 0 for x in basis)
        for col, row in pivots.items():
            if v >> col & 1:
                v ^= row
        assert in_span == (v == 0)
