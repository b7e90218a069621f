"""Integer difference calculus on windowed bigraded tables.

An ``IntMatrix`` holds the values of a bigraded integer function on the
rectangle [0, wi] x [0, wj] and is implicitly extended by zero at negative
indices, which is exactly the convention the column/row difference
operators need.  The module holds the difference transforms that turn a
Hilbert matrix into an alternating Betti table; the paper's closed forms
for generic difference tables are test oracles, not library code.
Everything here is exact int64 arithmetic; no field, no randomness.
"""

from __future__ import annotations

import io

import numpy as np


class NTooSmall(Exception):
    """Raised when a closed form is only valid for larger point counts."""


class IntMatrix:
    """Windowed integer table with zero extension at negative indices."""

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("expected a nonempty 2-D table")
        self.values = arr

    @property
    def window(self) -> tuple[int, int]:
        return self.values.shape[0] - 1, self.values.shape[1] - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.window == other.window and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"IntMatrix(window={self.window})"

    def to_csv(self) -> str:
        out = io.StringIO()
        wj = self.window[1]
        out.write("i\\j," + ",".join(str(j) for j in range(wj + 1)) + "\n")
        for i, row in enumerate(self.values):
            out.write(f"{i}," + ",".join(str(int(v)) for v in row) + "\n")
        return out.getvalue()


def delta_c(mat: IntMatrix) -> IntMatrix:
    """Column-direction difference: (i,j) minus (i-1,j), zero-extended."""
    return IntMatrix(np.diff(mat.values, axis=0, prepend=0))


def delta_r(mat: IntMatrix) -> IntMatrix:
    """Row-direction difference: (i,j) minus (i,j-1), zero-extended."""
    return IntMatrix(np.diff(mat.values, axis=1, prepend=0))


def alternating_betti_from_hilbert(h: IntMatrix, n: int, m: int) -> IntMatrix:
    """Alternating Betti table B = (delta_c)^(n+1) (delta_r)^(m+1) H."""
    out = h
    for _ in range(n + 1):
        out = delta_c(out)
    for _ in range(m + 1):
        out = delta_r(out)
    return out


def dh_p1p2(h: IntMatrix) -> IntMatrix:
    """The P^1 x P^2 collapse (delta_c)^2 (delta_r)^3 H."""
    return alternating_betti_from_hilbert(h, 1, 2)
