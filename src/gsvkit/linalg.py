"""Exact Gaussian elimination over any field-like element type.

Entries only need truthiness (nonzero test), subtraction, multiplication,
and division; Fraction and Cyclo both qualify.
"""

from __future__ import annotations

from typing import Sequence


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank by fraction-free-ish row reduction with exact arithmetic."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged matrix")
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        pval = work[row][col]
        for r in range(row + 1, len(work)):
            if work[r][col]:
                factor = work[r][col] / pval
                for c in range(col, ncols):
                    work[r][c] = work[r][c] - factor * work[row][c]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank

