"""Monomials of the bigraded Cox ring of P^n x P^m, as exponent arrays.

The ring is k[x_0..x_n, y_0..y_m] with deg x_i = (1,0) and deg y_j = (0,1).
The monomials of the (i,j) piece are the rows of an int64 exponent array,
ordered graded-lexicographically with the x-block leading: descending lex
on the x-part, then on the y-part, so x_0^i y_0^j comes first.
Multiplication by a variable sends each monomial to one monomial, so it is
stored as an index map: the target row of every source row.

Variables are indexed 0..n for the x-block and n+1..n+m+1 for the y-block.
The same functions at (n, m - 1) give the Cox ring R = k[x0..xn, y1..ym]
of P^n x P^(m-1): its monomials are those of S free of y0, in S's order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np


class NegativeDegree(Exception):
    """Raised when a bidegree with a negative component is supplied."""


def t_binom(a: int, b: int) -> int:
    """Number of degree-a monomials in b+1 variables; 0 for a < 0."""
    if a < 0:
        return 0
    if b < 0:
        return int(a == 0)  # no variables: the constant alone
    return comb(a + b, b)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Exponent rows of degree total in ``parts`` variables, descending lex."""
    if parts == 0:
        return np.zeros((int(total == 0), 0), dtype=np.int64)
    # stars and bars: the bar positions in ascending lex order give the
    # parts between them in ascending lex order, so read them reversed
    bars = list(combinations(range(total + parts - 1), parts - 1))[::-1]
    bars = np.array(bars, dtype=np.int64).reshape(len(bars), parts - 1)
    ends = np.full((len(bars), 1), -1, dtype=np.int64)
    return np.diff(np.hstack([ends, bars, ends + total + parts]), axis=1) - 1


def _lex_rank(exps: np.ndarray, total: int) -> np.ndarray:
    """Row of each degree-total exponent vector in ``_compositions`` order.

    A vector precedes e exactly when it agrees with e before some column q
    and is larger at q; with r the degree e leaves from column q on, there
    are t_binom(r - e_q - 1, k - 1 - q) of those for k columns.
    """
    k = exps.shape[1]
    left = np.full(len(exps), total, dtype=np.int64)
    rows = np.zeros(len(exps), dtype=np.int64)
    for q in range(k - 1):
        before = np.array([t_binom(a - 1, k - 1 - q) for a in range(total + 1)],
                          dtype=np.int64)
        rows += before[left - exps[:, q]]
        left -= exps[:, q]
    return rows


@lru_cache(maxsize=4096)
def monomials(n: int, m: int, degree: tuple[int, int]) -> np.ndarray:
    """Read-only exponent array of the (i,j) piece, one row per monomial."""
    i, j = degree
    if i < 0 or j < 0:
        raise NegativeDegree(f"bidegree {degree} has a negative component")
    xs = _compositions(i, n + 1)
    ys = _compositions(j, m + 1)
    exps = np.hstack([np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1))])
    exps.flags.writeable = False
    return exps


def count_monomials(n: int, m: int, degree: tuple[int, int]) -> int:
    i, j = degree
    return t_binom(i, n) * t_binom(j, m)


def var_degree(var: int, n: int, m: int) -> tuple[int, int]:
    if not 0 <= var <= n + m + 1:
        raise ValueError(f"variable index {var} out of range")
    return (1, 0) if var <= n else (0, 1)


@lru_cache(maxsize=8192)
def mult_map(var: int, src_degree: tuple[int, int], n: int, m: int) -> np.ndarray:
    """Multiplication by one variable as a read-only index map.

    Entry c is the row, in the monomials of src_degree + deg(var), of
    source monomial c times the variable.
    """
    di, dj = var_degree(var, n, m)
    i, j = src_degree[0] + di, src_degree[1] + dj
    prod = monomials(n, m, src_degree).copy()
    prod[:, var] += 1
    rows = _lex_rank(prod[:, : n + 1], i) * t_binom(j, m) + _lex_rank(prod[:, n + 1 :], j)
    rows.flags.writeable = False
    return rows
