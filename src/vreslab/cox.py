"""Monomial bases of the bigraded coordinate ring of P^n x P^m.

The ring is k[x_0..x_n, y_0..y_m] with deg x_i = (1,0) and deg y_j = (0,1).
The basis of the (i,j) piece is ordered graded-lexicographically with the
x-block leading: exponent vectors are enumerated in descending lex order on
the x-part, then on the y-part, so x_0^i y_0^j comes first.

Variables are indexed 0..n for the x-block and n+1..n+m+1 for the y-block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np


class NegativeDegree(Exception):
    """Raised when a bidegree with a negative component is supplied."""


def t_binom(a: int, b: int) -> int:
    """Number of degree-a monomials in b+1 variables; 0 for a < 0."""
    if a < 0:
        return 0
    return comb(a + b, b)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    # descending lex order, e.g. (2,0), (1,1), (0,2)
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis of one bidegree piece."""

    n: int
    m: int
    degree: tuple[int, int]
    exponents: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, compare=False, default=None)

    def __len__(self) -> int:
        return len(self.exponents)

    def index(self, exponent: tuple[int, ...]) -> int:
        return self._index[exponent]

    def array(self) -> np.ndarray:
        return np.array(self.exponents, dtype=np.int64).reshape(len(self), self.n + self.m + 2)


@lru_cache(maxsize=4096)
def monomials(n: int, m: int, degree: tuple[int, int]) -> MonomialBasis:
    """Monomial basis of the (i,j) graded piece, graded-lex ordered."""
    i, j = degree
    if i < 0 or j < 0:
        raise NegativeDegree(f"bidegree {degree} has a negative component")
    xs = _compositions(i, n + 1)
    ys = _compositions(j, m + 1)
    exps = tuple(ex + ey for ex in xs for ey in ys)
    basis = MonomialBasis(n, m, (i, j), exps)
    object.__setattr__(basis, "_index", {e: k for k, e in enumerate(basis.exponents)})
    return basis


def count_monomials(n: int, m: int, degree: tuple[int, int]) -> int:
    i, j = degree
    return t_binom(i, n) * t_binom(j, m)


def var_degree(var: int, n: int, m: int) -> tuple[int, int]:
    if not 0 <= var <= n + m + 1:
        raise ValueError(f"variable index {var} out of range")
    return (1, 0) if var <= n else (0, 1)


@lru_cache(maxsize=8192)
def mult_map(var: int, src_degree: tuple[int, int], n: int, m: int) -> np.ndarray:
    """Matrix of multiplication by one variable between monomial bases.

    Columns index the source basis, rows the target basis; each column has a
    single 1 in the row of the product monomial.
    """
    di, dj = var_degree(var, n, m)
    src = monomials(n, m, src_degree)
    tgt = monomials(n, m, (src_degree[0] + di, src_degree[1] + dj))
    mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for c, e in enumerate(src.exponents):
        bumped = list(e)
        bumped[var] += 1
        mat[tgt.index(tuple(bumped)), c] = 1
    return mat

