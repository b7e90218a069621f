"""Exact dense linear algebra over a prime field GF(p).

Matrices are 2-D numpy ``int64`` arrays with entries reduced to ``[0, p)``;
an array with zero rows (shape ``(0, n)``) is the empty matrix on ``n``
columns.  All routines are deterministic: pivots are always chosen as the
first nonzero entry of the current column, pivot rows are scaled to 1, and
kernel bases are read off the reduced row echelon form in free-column order.

Each elimination step forms products of two residues and reduces them
before the next step.  With p < 2**26, the bound ``FieldPrime`` enforces,
such a product stays below 2**52, so int64 elimination is exact.

The Koszul strands are many, small and very sparse, so the cost of
elimination is the fixed numpy overhead of each pivot, not its
arithmetic.  ``rank`` therefore runs along the shorter side (rank is
invariant under transpose), scans each column once for both the pivot and
the rows to clear, and updates only the columns from the pivot on;
``rref`` has the same loop shape.  The steps, and so the exactness
argument above, are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = 32003


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldPrime:
    """Configuration wrapper for the working prime."""

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if self.p >= 2**26:
            # keeps every product of two residues below 2**52, well inside
            # int64, so each elimination step is exact
            raise ValueError("p must be below 2**26 for exact int64 elimination")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p <= 2:
            raise ValueError("p must be an odd prime")


def normalize(a, p: int) -> np.ndarray:
    """Return ``a`` as an int64 array with entries reduced into [0, p)."""
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    # C order, so that a transposed input still gives contiguous rows
    return np.mod(arr, p, order="C")


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of two matrices with entries in [0, p), reduced mod p.

    One int64 dot product of K residue products is exact while
    K * (p-1)**2 < 2**63, which near p = 2**26 allows only K = 2048; longer
    inner dimensions are summed in chunks of that length, each reduced
    before the next is added.
    """
    step = (2**63 - 1) // (p - 1) ** 2
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], step):
        out = (out + a[:, s : s + step] @ b[s : s + step] % p) % p
    return out


def _inv(x: int, p: int) -> int:
    return pow(int(x), -1, p)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns ``(R, pivots)`` where pivots are the pivot column indices in
    increasing order.  Pivot entries are scaled to 1 and are the only
    nonzero entries in their columns.  Rows from the pivot row down are
    zero left of the pivot column, so swaps, scaling and updates touch
    only the columns from it on.
    """
    A = normalize(a, p)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i], c:] = A[[i, r], c:]
        piv = int(A[r, c])
        if piv != 1:
            A[r, c:] = A[r, c:] * _inv(piv, p) % p
        hit = A[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            A[hit, c:] = (A[hit, c:] - A[hit, c, None] * A[r, c:]) % p
        pivots.append(c)
        r += 1
    return A, pivots


def rank(a, p: int) -> int:
    """Rank over GF(p) by forward elimination with the pivot rule of ``rref``.

    rank(A) = rank(A^T), so a tall matrix is eliminated as its transpose
    and the loop runs over the shorter side; the transpose is taken before
    the one reduced copy, so no second copy is made.  Each column is
    scanned once: its first nonzero from the pivot row down is the pivot,
    and the rest of that scan are the rows to clear.  Updates touch only
    the columns from the pivot column on, left of which those rows are
    zero.  Each update reduces a product of two residues, as in ``rref``,
    so the int64 exactness argument of the module docstring holds.
    """
    arr = np.asarray(a)
    if arr.ndim == 2 and arr.shape[0] > arr.shape[1]:
        arr = arr.T
    A = normalize(arr, p)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            A[[r, i], c:] = A[[i, r], c:]
        if nz.size > 1:
            # the swap moved a zero of column c into row i, so the rows to
            # clear are the rest of the scan
            hit = nz[1:] + r
            mults = A[hit, c] * _inv(A[r, c], p) % p
            A[hit, c:] = (A[hit, c:] - mults[:, None] * A[r, c:]) % p
        r += 1
    return r


def kernel_basis(a, p: int) -> np.ndarray:
    """Canonical basis of the right nullspace, one row per basis vector.

    Rows are ordered by the free column they correspond to: row ``t`` has a
    1 in the ``t``-th free column of the RREF and the negated RREF column
    above the pivots elsewhere.  Always returns shape ``(cols - rank, cols)``.
    """
    A = normalize(a, p)
    cols = A.shape[1]
    R, pivots = rref(A, p)
    free = np.setdiff1d(np.arange(cols), pivots)
    ker = np.zeros((len(free), cols), dtype=np.int64)
    ker[np.arange(len(free)), free] = 1
    ker[:, pivots] = (-R[: len(pivots)][:, free].T) % p
    return ker


def subspace_contains(big, small, p: int) -> bool:
    """Whether rowspace(small) is contained in rowspace(big)."""
    big = normalize(big, p)
    small = normalize(small, p)
    if small.shape[0] == 0:
        return True
    rb = rank(big, p)
    return rank(np.vstack([big, small]), p) == rb


def subspace_equal(u, w, p: int) -> bool:
    u = normalize(u, p)
    w = normalize(w, p)
    ru = rank(u, p)
    rw = rank(w, p)
    if ru != rw:
        return False
    return rank(np.vstack([u, w]), p) == ru


def subspace_intersection(u, w, p: int) -> np.ndarray:
    """Row basis of rowspace(u) ∩ rowspace(w)."""
    u = normalize(u, p)
    w = normalize(w, p)
    if u.shape[1] != w.shape[1]:
        raise ValueError("ambient dimensions differ")
    if u.shape[0] == 0 or w.shape[0] == 0:
        return np.zeros((0, u.shape[1]), dtype=np.int64)
    # pairs (x, y) with x·u + y·w = 0 give intersection vectors x·u
    stacked = np.vstack([u, w]).T
    ker = kernel_basis(stacked, p)
    if ker.shape[0] == 0:
        return np.zeros((0, u.shape[1]), dtype=np.int64)
    vecs = matmul(ker[:, : u.shape[0]], u, p)
    R, piv = rref(vecs, p)
    return R[: len(piv)]

