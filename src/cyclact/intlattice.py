"""Exact integer lattice arithmetic: Hermite normal form, membership, kernels
and determinants.

Everything here works on plain Python ints (arbitrary precision), never floats.
Rows are lists of ints; a lattice is the set of integer combinations of its rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from .errors import DimensionMismatch, require_int, require_type


def row_hnf_transform(
    rows: Sequence[Sequence[int]], ncols: int, *, transform: bool = True
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Row-style Hermite normal form with transformation.

    Returns (H, U, pivots) where U is unimodular, U @ rows == H, the nonzero
    rows of H sit on top with positive pivots in strictly increasing columns,
    and every entry above a pivot is reduced into [0, pivot). With
    transform=False, U is not tracked and comes back as an empty list; H and
    pivots are the same.

    Each column is cleared by a Euclid against its smallest nonzero entry
    with nearest-integer quotients (Cohen, GTM 138, section 2.4): each round
    leaves every other entry at most half the pivot in size, which keeps U
    small.

    A row operation touches only the pivot row's nonzero entries, updating
    the other row in place: U starts as the identity, so its part of a
    working row stays mostly zeros.
    """
    n = len(rows)
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"a row has length {len(r)}, not {ncols}")
    # a working row is H's row followed by U's row, so one row operation
    # updates both
    w = [
        list(r) + ([0] * i + [1] + [0] * (n - 1 - i) if transform else [])
        for i, r in enumerate(rows)
    ]
    width = ncols + (n if transform else 0)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        live = [i for i in range(row, n) if w[i][col]]
        while len(live) > 1:
            piv = min(live, key=lambda i: abs(w[i][col]))
            p = w[piv]
            b = p[col]
            # rows from `row` on are zero before col
            support = [(j, p[j]) for j in range(col, width) if p[j]]
            for i in live:
                wi = w[i]
                q = (2 * wi[col] + b) // (2 * b)
                if i != piv and q:
                    for j, y in support:
                        wi[j] -= q * y
            live = [i for i in live if w[i][col]]
        if not live:
            continue
        w[live[0]], w[row] = w[row], w[live[0]]
        p = w[row]
        if p[col] < 0:
            for j in range(col, width):
                p[j] = -p[j]
        support = [(j, p[j]) for j in range(col, width) if p[j]]
        b = p[col]
        for i in range(row):
            wi = w[i]
            q = wi[col] // b
            if q:
                for j, y in support:
                    wi[j] -= q * y
        pivots.append(col)
        row += 1
    h = [r[:ncols] for r in w]
    u = [r[ncols:] for r in w] if transform else []
    return h, u, pivots


class ZLattice:
    """Integer lattice spanned by the given generator rows.

    Precomputes the HNF once; membership, canonical reduction, coordinate
    expression and the kernel of the generating map all read off it.
    """

    __slots__ = ("ncols", "gens", "hnf", "transform", "pivots")

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int):
        self.ncols = ncols
        self.gens = [list(r) for r in rows]
        h, u, pivots = row_hnf_transform(self.gens, ncols)
        self.hnf = h
        self.transform = u
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis(self) -> list[list[int]]:
        """Canonical HNF basis (nonzero rows only)."""
        return [self.hnf[i][:] for i in range(self.rank)]

    def _reduce(self, vec: Sequence[int]) -> tuple[list[int], list[int]]:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"a vector has length {len(vec)}, not {self.ncols}")
        v = list(vec)
        coeffs = [0] * self.rank
        for k, col in enumerate(self.pivots):
            q = v[col] // self.hnf[k][col]
            if q:
                row = self.hnf[k]
                v = [v[j] - q * row[j] for j in range(self.ncols)]
            coeffs[k] = q
        return v, coeffs

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Canonical coset representative of vec modulo the lattice."""
        return self._reduce(vec)[0]

    def contains(self, vec: Sequence[int]) -> bool:
        return all(v == 0 for v in self._reduce(vec)[0])

    def express(self, vec: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of vec on the original generator rows, or None."""
        rem, coeffs = self._reduce(vec)
        if any(rem):
            return None
        n = len(self.gens)
        out = [0] * n
        for k, c in enumerate(coeffs):
            if c:
                urow = self.transform[k]
                for j in range(n):
                    out[j] += c * urow[j]
        return out

    def kernel(self) -> list[list[int]]:
        """Basis of {c : sum_i c_i * gens_i = 0}, read off the transform."""
        return [self.transform[i][:] for i in range(self.rank, len(self.gens))]


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination.

    Bareiss's step a_ij <- (a_ij * a_kk - a_ik * a_kj) / a_(k-1)(k-1) keeps
    every entry an integer minor of the input, so each division is exact
    (Bareiss, Math. Comp. 22, 1968). A zero pivot is swapped for a nonzero
    entry below it; if there is none the matrix is singular and 0 comes
    back at once. A ragged or non-square matrix raises DimensionMismatch,
    and an entry that is not an int PreconditionFailed.
    """
    require_type("a matrix", mat, Sequence)
    n = len(mat)
    for r in mat:
        require_type("a matrix row", r, Sequence)
        if len(r) != n:
            raise DimensionMismatch(f"a {n}-row matrix has a row of length {len(r)}")
        for x in r:
            require_int("a matrix entry", x)
    a = [list(r) for r in mat]
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        akk = pk[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            # entries left of k are 0 in both rows and stay 0
            a[i] = [(x * akk - aik * y) // prev for x, y in zip(a[i], pk)]
        prev = akk
    return sign * a[n - 1][n - 1]
