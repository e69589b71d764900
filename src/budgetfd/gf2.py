"""GF(2) linear algebra helpers using int bitsets.

Rows are Python ints; bit ``i`` of a row is the coefficient of column ``i``.
"""

from __future__ import annotations

from typing import Sequence


def row_reduce(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form; returns (pivot_columns, reduced_rows)."""
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for pcol, prow in zip(pivots, reduced):
            if row >> pcol & 1:
                row ^= prow
        if row == 0:
            continue
        col = (row & -row).bit_length() - 1
        for k in range(len(reduced)):
            if reduced[k] >> col & 1:
                reduced[k] ^= row
        at = 0
        while at < len(pivots) and pivots[at] < col:
            at += 1
        pivots.insert(at, col)
        reduced.insert(at, row)
    return pivots, reduced


def rank(rows: Sequence[int]) -> int:
    return len(row_reduce(rows)[0])


def nullspace(rows: Sequence[int], n_cols: int) -> list[int]:
    """Basis of {x : every row r has popcount(r & x) even}."""
    pivots, reduced = row_reduce(rows)
    pivot_set = set(pivots)
    basis: list[int] = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for pcol, prow in zip(pivots, reduced):
            if prow >> free & 1:
                vec |= 1 << pcol
        basis.append(vec)
    return basis


def support_vanishing_on(rows: Sequence[int], mask: int) -> int:
    """Union of the supports of the vectors in the span of ``rows`` that are
    zero on ``mask``: the rows that elimination on the bits of ``mask``
    leaves zero there are a basis of those vectors."""
    pivots: list[tuple[int, int]] = []  # (pivot bit, row)
    support = 0
    for row in rows:
        for bit, prow in pivots:
            if row & bit:
                row ^= prow
        key = row & mask
        if key:
            pivots.append((key & -key, row))
        else:
            support |= row
    return support
