"""Integer difference calculus on windowed bigraded tables.

An ``IntMatrix`` holds the values of a bigraded integer function on the
rectangle [0, wi] x [0, wj] and is implicitly extended by zero at negative
indices, which is exactly the convention the column/row difference
operators need.  Everything here is exact int64 arithmetic; no field, no
randomness.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .cox import t_binom


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

    def at(self, i: int, j: int) -> int:
        if i < 0 or j < 0:
            return 0
        return int(self.values[i, j])

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

    @classmethod
    def from_csv(cls, text: str) -> "IntMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            rows.append([int(c) for c in cells[1:]])
        return cls(rows)


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


def _toeplitz(cap: int, b: int) -> np.ndarray:
    t = np.array([t_binom(a, b) for a in range(cap + 1)], dtype=np.int64)
    mat = np.zeros((cap + 1, cap + 1), dtype=np.int64)
    for i in range(cap + 1):
        mat[i, : i + 1] = t[: i + 1][::-1]
    return mat


def hilbert_from_betti(b: IntMatrix, n: int, m: int) -> IntMatrix:
    """Invert the difference operators: H(i,j) = sum T(i-p,n) T(j-q,m) B(p,q)."""
    wi, wj = b.window
    left = _toeplitz(wi, n)
    right = _toeplitz(wj, m)
    return IntMatrix(left @ b.values @ right.T)


def dh_p1p2(h: IntMatrix) -> IntMatrix:
    """The P^1 x P^2 collapse (delta_c)^2 (delta_r)^3 H."""
    return alternating_betti_from_hilbert(h, 1, 2)


@dataclass(frozen=True)
class NRDecomposition:
    """N = 6q + r = 3q' + r' with 0 <= r <= 5 and 0 <= r' <= 2."""

    N: int
    q: int
    r: int
    qp: int
    rp: int


def nr_decomposition(N: int) -> NRDecomposition:
    if N < 0:
        raise ValueError("N must be nonnegative")
    q, r = divmod(N, 6)
    qp, rp = divmod(N, 3)
    return NRDecomposition(N, q, r, qp, rp)


def predicted_dh_generic(N: int, window: tuple[int, int] | None = None) -> IntMatrix:
    """Closed-form collapse for N >= 12 generic points in P^1 x P^2.

    Only the columns j <= 2 follow this sparse pattern; the default window
    is (N+1, 2).  Coinciding cells accumulate.
    """
    if N < 12:
        raise NTooSmall("closed form requires N >= 12")
    d = nr_decomposition(N)
    if window is None:
        window = (N + 1, 2)
    wi, wj = window
    vals = np.zeros((wi + 1, wj + 1), dtype=np.int64)
    entries = [
        (0, 0, 1),
        (d.q, 2, d.r - 6),
        (d.q + 1, 2, -d.r),
        (d.qp, 1, d.rp - 3),
        (d.qp, 2, 9 - 3 * d.rp),
        (d.qp + 1, 1, -d.rp),
        (d.qp + 1, 2, 3 * d.rp),
        (N, 0, -1),
        (N, 1, 3),
        (N, 2, -3),
    ]
    for i, j, v in entries:
        if i <= wi and j <= wj:
            vals[i, j] += v
    return IntMatrix(vals)


def matrix_diff_report(expected: IntMatrix, actual: IntMatrix) -> list[dict]:
    """Cells where two tables disagree, for failure reports."""
    if expected.window != actual.window:
        return [{"cell": "window", "expected": list(expected.window),
                 "actual": list(actual.window)}]
    bad = np.argwhere(expected.values != actual.values)
    return [
        {"cell": [int(i), int(j)], "expected": int(expected.values[i, j]),
         "actual": int(actual.values[i, j])}
        for i, j in bad
    ]
