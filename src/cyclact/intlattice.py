"""Exact integer lattice arithmetic: Hermite normal form, membership, kernels.

Everything here works on plain Python ints (arbitrary precision), never floats.
Rows are lists of ints; a lattice is the set of integer combinations of its rows.
"""

from __future__ import annotations

from typing import Optional, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def row_hnf_transform(
    rows: Sequence[Sequence[int]], ncols: int, *, transform: bool = True
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Row-style Hermite normal form with transformation.

    Returns (H, U, pivots) where U is unimodular, U @ rows == H, the nonzero
    rows of H sit on top with positive pivots in strictly increasing columns,
    and every entry above a pivot is reduced into [0, pivot). With
    transform=False, U is not tracked and comes back as an empty list; H and
    pivots are the same.
    """
    h = [list(r) for r in rows]
    n = len(h)
    for r in h:
        if len(r) != ncols:
            raise ValueError("row length mismatch")
    u = _identity(n) if transform else []
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, n):
            if h[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        for i in range(piv + 1, n):
            if h[i][col] == 0:
                continue
            a, b = h[piv][col], h[i][col]
            g, x, y = xgcd(a, b)
            p, q = -(b // g), a // g
            h[piv], h[i] = (
                [x * h[piv][k] + y * h[i][k] for k in range(ncols)],
                [p * h[piv][k] + q * h[i][k] for k in range(ncols)],
            )
            if transform:
                u[piv], u[i] = (
                    [x * u[piv][k] + y * u[i][k] for k in range(n)],
                    [p * u[piv][k] + q * u[i][k] for k in range(n)],
                )
        if piv != row:
            h[piv], h[row] = h[row], h[piv]
            if transform:
                u[piv], u[row] = u[row], u[piv]
        if h[row][col] < 0:
            h[row] = [-v for v in h[row]]
            if transform:
                u[row] = [-v for v in u[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [h[i][k] - q * h[row][k] for k in range(ncols)]
                if transform:
                    u[i] = [u[i][k] - q * u[row][k] for k in range(n)]
        pivots.append(col)
        row += 1
    return h, u, pivots


class ZLattice:
    """Integer lattice spanned by the given generator rows.

    Precomputes the HNF once; membership, canonical reduction, coordinate
    expression and the kernel of the generating map all read off it. With
    transform=False the transform is not tracked: membership, reduction and
    the basis still work, while express and kernel raise ValueError.
    """

    __slots__ = ("ncols", "gens", "hnf", "transform", "pivots")

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int, *, transform: bool = True):
        self.ncols = ncols
        self.gens = [list(r) for r in rows]
        h, u, pivots = row_hnf_transform(self.gens, ncols, transform=transform)
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
            raise ValueError("vector length mismatch")
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

    def _require_transform(self) -> None:
        if not self.transform and self.gens:
            raise ValueError("lattice was built without its transform")

    def express(self, vec: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of vec on the original generator rows, or None."""
        self._require_transform()
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
        self._require_transform()
        return [self.transform[i][:] for i in range(self.rank, len(self.gens))]

    def same_lattice(self, other: "ZLattice") -> bool:
        return self.ncols == other.ncols and self.basis() == other.basis()


def det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(mat)
    a = [list(r) for r in mat]
    for r in a:
        if len(r) != n:
            raise ValueError("matrix not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    piv = i
                    break
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
