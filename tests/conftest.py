"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from vreslab.points import PointSet


def ff_rank(a, p: int) -> int:
    """Fraction-free Gaussian elimination rank over GF(p).

    Independent oracle: uses cross-multiplication row updates only, never a
    modular inverse, and plain Python lists.
    """
    m = [[int(x) % p for x in row] for row in np.asarray(a, dtype=np.int64)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        a_rc = m[r][c]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f % p == 0:
                continue
            m[i] = [(a_rc * m[i][j] - f * m[r][j]) % p for j in range(cols)]
        r += 1
        if r == rows:
            break
    return r


def random_fp_matrix(rng: np.random.Generator, rows: int, cols: int, p: int,
                     rank_cap: int | None = None) -> np.ndarray:
    """Random matrix, optionally forced to have rank <= rank_cap."""
    if rank_cap is None or rank_cap >= min(rows, cols):
        return rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    left = rng.integers(0, p, size=(rows, rank_cap), dtype=np.int64)
    right = rng.integers(0, p, size=(rank_cap, cols), dtype=np.int64)
    return left @ right % p


def fibered_633() -> PointSet:
    """Six points over three shared x-parts (ell=3, fibers of size 2)."""
    xs = np.array([[1, 5], [1, 5], [1, 9], [1, 9], [1, 11], [1, 11]])
    ys = np.array([[1, 0, 1], [1, 2, 3], [1, 4, 9], [1, 1, 7], [1, 6, 2], [1, 8, 8]])
    return PointSet(1, 2, 32003, xs, ys)


@st.composite
def fibered_sets(draw, primes=(7, 101, 32003)):
    """Up to three fibers of up to three points each, over a drawn prime."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    p = draw(st.sampled_from(primes))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases: set[tuple] = set()
    while len(bases) < len(sizes):
        bases.add((1, *map(int, rng.integers(0, p, size=n))))
    xs, ys = [], []
    for base, size in zip(sorted(bases), sizes):
        fiber: set[tuple] = set()
        while len(fiber) < size:
            fiber.add((1, *map(int, rng.integers(0, p, size=m))))
        xs += [base] * size
        ys += sorted(fiber)
    return PointSet(n, m, p, np.array(xs), np.array(ys))


@st.composite
def line_fibered_sets(draw):
    """Up to eight points of P^1 x P^m, m in 0..3, over at most three
    x-parts, whose y-parts repeat across the fibers or lie on one line: the
    sets whose presentation modulo x0 has x1 alone as its x-variable."""
    m = draw(st.integers(0, 3))
    p = draw(st.sampled_from([5, 7, 11, 101, 67108859]))
    coords = st.integers(0, p - 1)
    xparts = draw(st.lists(coords, min_size=1, max_size=3, unique=True))
    if m and draw(st.booleans()):
        a, b = (draw(st.tuples(*[coords] * m)) for _ in range(2))
        yparts = {tuple((u + s * v) % p for u, v in zip(a, b))
                  for s in draw(st.lists(coords, min_size=1, max_size=4))}
    else:
        yparts = set(draw(st.lists(st.tuples(*[coords] * m), min_size=1, max_size=4)))
    pairs = draw(st.lists(st.tuples(st.sampled_from(xparts), st.sampled_from(sorted(yparts))),
                          min_size=1, max_size=8, unique=True))
    return PointSet(1, m, p, np.array([(1, a) for a, _ in pairs]),
                    np.array([(1, *b) for _, b in pairs]).reshape(len(pairs), m + 1))


def collinear_y_parts(N: int) -> PointSet:
    """N points of P^1 x P^2 over GF(32003) with distinct x-parts and
    distinct y-parts (1, k, 2k + 1) on one line: H(0, j) = min(j + 1, N), so
    r_y = N - 1, past the generic corner in y for N >= 4."""
    rng = np.random.default_rng(N)
    xs = [(1, int(v)) for v in rng.choice(32003, size=N, replace=False)]
    return PointSet(1, 2, 32003, np.array(xs), np.array([(1, k, 2 * k + 1) for k in range(N)]))


@st.composite
def collinear_y_part_sets(draw):
    """Up to eight points of P^n x P^m, n and m in 1..3, whose y-parts lie
    on one line of P^m and may repeat."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(st.sampled_from([5, 7, 101]))
    coords = st.integers(0, p - 1)
    a, b = (draw(st.tuples(*[coords] * m)) for _ in range(2))
    steps = draw(st.lists(coords, min_size=1, max_size=8))
    xs = draw(st.lists(st.tuples(*[coords] * n), min_size=len(steps), max_size=len(steps),
                       unique=True))
    ys = [tuple((u + s * v) % p for u, v in zip(a, b)) for s in steps]
    return PointSet(n, m, p, np.array([(1, *x) for x in xs]), np.array([(1, *y) for y in ys]))


@st.composite
def shared_part_sets(draw):
    """Up to seven points over at most three x-parts and four y-parts."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    p = draw(st.sampled_from([5, 7, 11]))
    coords = st.integers(0, p - 1)
    xparts = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=3, unique=True))
    yparts = draw(st.lists(st.tuples(*[coords] * m), min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(xparts), st.sampled_from(yparts)),
                          min_size=1, max_size=7, unique=True))
    return PointSet(n, m, p, np.array([(1, *a) for a, _ in pairs]),
                    np.array([(1, *b) for _, b in pairs]))


def grid_set(p: int, xparts: list[tuple], yparts: list[tuple]) -> PointSet:
    """Every pair of an x-part and a y-part, x-parts outermost."""
    n, m = len(xparts[0]), len(yparts[0])
    return PointSet(n, m, p, np.array([(1, *a) for a in xparts for _ in yparts]),
                    np.array([(1, *b) for _ in xparts for b in yparts]))


@st.composite
def grid_sets(draw):
    """Grids of up to three x-parts by up to three y-parts."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    p = draw(st.sampled_from([7, 101, 32003]))
    coords = st.integers(0, p - 1)
    xparts, yparts = (draw(st.lists(st.tuples(*[coords] * k), min_size=1, max_size=3,
                                    unique=True)) for k in (n, m))
    return grid_set(p, xparts, yparts)
