"""Difference transforms of bigraded integer tables.

A table is a 2-D int64 array of the values of a bigraded integer function
on the window [0, wi] x [0, wj], read as zero at negative indices, which
is exactly the convention the column and row differences need: each is
``np.diff`` along its axis with a zero prepended.  The module turns a
Hilbert matrix into an alternating Betti table; the paper's closed forms
for generic difference tables are test oracles, not library code.
Everything here is exact int64 arithmetic; no field, no randomness.
"""

from __future__ import annotations

import numpy as np


def alternating_betti_from_hilbert(h: np.ndarray, n: int, m: int) -> np.ndarray:
    """Alternating Betti table: n+1 column and m+1 row differences of H."""
    out = h
    for _ in range(n + 1):
        out = np.diff(out, axis=0, prepend=0)
    for _ in range(m + 1):
        out = np.diff(out, axis=1, prepend=0)
    return out


def dh_p1p2(h: np.ndarray) -> np.ndarray:
    """The P^1 x P^2 collapse: two column and three row differences of H."""
    return alternating_betti_from_hilbert(h, 1, 2)
