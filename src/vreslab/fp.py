"""Exact dense linear algebra over a prime field GF(p).

Matrices are 2-D numpy ``int64`` arrays with entries reduced to ``[0, p)``;
an array with zero rows (shape ``(0, n)``) is the empty matrix on ``n``
columns.  All routines are deterministic: the pivot columns are the
lex-first independent columns, pivot rows are scaled to 1, and kernel
bases are read off the reduced row echelon form in free-column order.

``rref`` and ``rank`` run one elimination loop, ``_rounds``, and differ
only in how a round updates the matrix.  The loop finds the pivots in
rounds of up to three, since on small inputs the cost is numpy's fixed
overhead per call, not the arithmetic.  Only the columns of the input
that hold a nonzero are visited: no row operation fills a zero column.
Before a round at pivot row r, the rows from r down are zero on every
column already passed.  The round takes the next k <= 3 of those columns,
c_1 < ... < c_k, no more than there are rows left, and their k x k minor
M on rows r .. r + k - 1.

*The round rule.*  If M is invertible, c_1 .. c_k are the next k pivots.
Proof: on the rows from r down, every column before c_1 is zero and every
column between c_1 and c_k is a zero column of the input, so column c_i
is a pivot exactly when it is independent of c_1 .. c_(i-1) there; an
invertible M makes all k of them independent on rows r .. r + k - 1.  The
round clears them with one product: ``U = M^-1 A[r : r + k, c_1:]`` is the
unique combination of those rows that is the identity on c_1 .. c_k, each
other row subtracts its entries in those columns times U, which leaves
the one vector of its coset modulo those rows that is zero on c_1 .. c_k,
and the pivot rows become U.  That is also what k single-pivot steps
give: each step's pivot lies in rows r .. r + k - 1, as the Schur
complements of an invertible M are invertible, so the steps combine the
same rows and reach the same unique vectors.

*The fallback.*  M's leading 1 x 1 minor is A[r, c_1], so when M is
singular the round takes the longest leading run c_1 .. c_j (j = 2 or 1)
whose leading minor is invertible; it clears at least one pivot.  When
A[r, c_1] is zero, the round's rows come from a scan: the first row below
r that is nonzero in c_1, then the first rows from r down that hold a
nonzero in c_2 .. c_k, moved into rows r, r + 1, ...  The rows from r down
are zero on every column passed, so any order of them keeps that
invariant; the RREF is unique and the rank does not change.  The rows
under the first one as they stand are often zero in c_2 .. c_k, which
makes M singular and the round one column wide: the scan cut the rounds
of ``betti --n 3 --m 3 --N 60`` from 17,836 to 9,308.  If no row is
nonzero in c_1, c_1 holds no pivot and is passed.

*Exactness.*  Each entry of a round's products is a sum of at most three
products of two residues.  With p < 2**26, the bound ``FieldPrime``
enforces, 3 * (p - 1)**2 < 2**54 < 2**63, so int64 elimination is exact,
and subtracting such a sum from a residue stays inside int64.

*The two updates.*  ``rref`` updates the whole trailing block
``A[:, c_1:]`` in a round: its inputs (the sweep's flag residues, kernels
of dense maps) are small or dense, so selecting the rows to clear costs
more than updating the rest.  ``rank`` updates only the rows below the
pivot rows that hold a nonzero in the round's columns: its Koszul strands
are sparse and reach a thousand rows, most of them zero in the pivot
columns, and ranking them with ``rref``'s whole-block rounds took four to
six times as long on the strands of ``mrc_check`` at N = 400 and of
``betti_numbers`` on P^2 x P^2 at N = 100.  Neither works on rows a
round cannot change: ``rref`` skips the update when the pivot rows are all
the rows (r = 0, k = rows), as U overwrites them and they are zero left of
c_1; ``rank`` ends the loop at the round that reaches the last row, and
where every row below the pivot rows is hit, updates them in place as one
slice, with no gather or scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_PRIME = 32003


# memoized, and bounded: every PointSet checks its prime, almost always
# the same one
@lru_cache(maxsize=64)
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
            # keeps every product of two residues below 2**52, and a sum of
            # three such products inside int64, so elimination is exact
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
    out = a[:, :step] @ b[:step] % p
    for s in range(step, a.shape[1], step):
        out = (out + a[:, s : s + step] @ b[s : s + step] % p) % p
    return out


def _leading_inverse(M: list[list[int]], p: int) -> np.ndarray:
    """Inverse mod p of the largest leading minor of M that is invertible.

    M is k x k with k <= 3 and M[0][0] nonzero mod p.
    """
    if len(M) == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        u, v, w = e * i - f * h, f * g - d * i, d * h - e * g
        det = (a * u + b * v + c * w) % p
        if det:
            s = pow(det, -1, p)
            # the adjugate times 1/det, row by row, reduced in Python ints
            return np.array((u * s % p, (c * h - b * i) * s % p, (b * f - c * e) * s % p,
                             v * s % p, (a * i - c * g) * s % p, (c * d - a * f) * s % p,
                             w * s % p, (b * g - a * h) * s % p, (a * e - b * d) * s % p),
                            dtype=np.int64).reshape(3, 3)
    if len(M) > 1:
        (a, b), (d, e) = M[0][:2], M[1][:2]
        det = (a * e - b * d) % p
        if det:
            s = pow(det, -1, p)
            return np.array(((e * s % p, -b * s % p), (-d * s % p, a * s % p)), dtype=np.int64)
    return np.array(((pow(M[0][0], -1, p),),), dtype=np.int64)


def _rounds(A: np.ndarray, p: int):
    """Run the elimination loop on A in place and yield its rounds.

    Each round is ``(r, c, cols, pivots, inv)``: the pivot row r, the
    first pivot column c, the round's pivot columns as an index into A and
    as a list, and the inverse mod p of their minor on rows r .. r + k - 1
    (module docstring).  The caller updates A before it asks for the next
    round, which the loop reads off the updated A.  Where the round's
    columns are adjacent, ``cols`` is a slice, which numpy reads as a view
    where a list makes it gather a copy: on the ``rref`` inputs of the
    ``points`` workload that saves about a sixth of the time in ``rref``.
    """
    rows = A.shape[0]
    nonzero = A.any(axis=0).nonzero()[0].tolist()
    r = j = 0
    while r < rows and j < len(nonzero):
        c = nonzero[j]
        # the next three columns, cut to the rows left: a conditional, as a
        # call to min here cost 1-2% of rank and rref on small inputs
        cand = nonzero[j : j + (3 if rows - r > 3 else rows - r)]
        k = len(cand)
        if not A[r, c]:
            nz = A[r + 1 :, c].nonzero()[0]
            if not nz.size:
                j += 1
                continue
            # the round's rows: the first row nonzero in c, then the first
            # rows from r down nonzero in its other columns (module docstring)
            src = [r + 1 + int(nz[0])]
            if k > 1:
                more = A[r:, cand[1:]].any(axis=1).nonzero()[0][:k] + r
                src += [i for i in more.tolist() if i != src[0]][: k - 1]
            dst = list(range(r, r + len(src)))
            # the rows the round's rows displace take the places they leave
            gone, freed = [i for i in dst if i not in src], [i for i in src if i not in dst]
            A[dst + freed, c:] = A[src + gone, c:]
        adjacent = cand[-1] - c == k - 1
        M = A[r : r + k, slice(c, c + k) if adjacent else cand]
        inv = _leading_inverse(M.tolist(), p)
        k = len(inv)
        piv = cand[:k]
        yield r, c, slice(c, c + k) if adjacent else piv, piv, inv
        r += k
        j += k


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns ``(R, pivots)`` where pivots are the pivot column indices in
    increasing order.  Pivot entries are scaled to 1 and are the only
    nonzero entries in their columns.  The pivots are found in rounds of
    up to three (module docstring).  A round's update covers the columns
    from its first pivot column on, left of which the rows from the pivot
    row down are zero, and every row: a row already zero in the round's
    columns subtracts zero, so no gather or scatter of the rows to clear
    is needed.  On a sparse input that is both tall and wide (300 x 800 at
    5% density) this costs more than updating only the nonzero rows; no
    library caller was seen to pass one.
    """
    A = normalize(a, p)
    rows = A.shape[0]
    pivots: list[int] = []
    for r, c, cols, piv, inv in _rounds(A, p):
        k = len(piv)
        U = inv @ A[r : r + k, c:] % p
        if k < rows:
            B = A[:, c:]
            B -= A[:, cols] @ U
            B %= p
        A[r : r + k, c:] = U
        pivots += piv
    return A, pivots


def rank(a, p: int) -> int:
    """Rank over GF(p) by forward elimination in the rounds of ``rref``.

    Any integer input, negative entries included, is first reduced into
    [0, p) (``normalize``), so a caller may pass a signed int64 matrix.
    rank(A) = rank(A^T), so a tall matrix is eliminated as its transpose
    and the loop runs over the shorter side; the transpose is taken before
    the one reduced copy, so no second copy is made.  A round updates only
    the rows below its pivot rows that hold a nonzero in its columns, and
    leaves the pivot rows as they are, since no later round reads them.
    """
    arr = np.asarray(a)
    if arr.ndim == 2 and arr.shape[0] > arr.shape[1]:
        arr = arr.T
    A = normalize(arr, p)
    rows = A.shape[0]
    found = 0
    for r, c, cols, piv, inv in _rounds(A, p):
        # the pivots found so far, and the first row below the round's
        found = r + len(piv)
        if found == rows:
            break
        below = A[found:, cols]
        hit = below.any(axis=1).nonzero()[0]
        if hit.size:
            U = inv @ A[r:found, c:] % p
            if hit.size == rows - found:
                B = A[found:, c:]
                B -= below @ U
                B %= p
            else:
                dst = hit + found
                A[dst, c:] = (A[dst, c:] - below[hit] @ U) % p
    return found


def kernel_basis(a, p: int) -> np.ndarray:
    """Canonical basis of the right nullspace, one row per basis vector.

    Rows are ordered by the free column they correspond to: row ``t`` has a
    1 in the ``t``-th free column of the RREF and the negated RREF column
    above the pivots elsewhere.  Always returns shape ``(cols - rank, cols)``.
    """
    R, pivots = rref(a, p)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
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

