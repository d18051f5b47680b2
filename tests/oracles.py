"""Independent reference implementations used to cross-check the library.

Everything here is written naively on purpose: different algorithms,
no shared code with the package, so agreement is meaningful evidence.
"""

from fractions import Fraction
from itertools import permutations


def naive_hnf(rows, n):
    """Canonical row HNF by repeated Euclid steps on each pivot column.

    Quadratic-ish and slow, but each step is an elementary row operation,
    so correctness is immediate. Returns a tuple of tuples: pivots
    positive, entries above each pivot reduced into [0, pivot).
    """
    vecs = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(n):
        work = [v for v in vecs if v[col] != 0]
        vecs = [v for v in vecs if v[col] == 0]
        while len(work) > 1:
            work.sort(key=lambda v: abs(v[col]))
            pivot = work[0]
            rest = []
            for v in work[1:]:
                q = v[col] // pivot[col]
                w = [a - q * b for a, b in zip(v, pivot)]
                (rest if w[col] != 0 else vecs).append(w)
            work = [pivot] + rest
        if work:
            pivot = work[0]
            if pivot[col] < 0:
                pivot = [-a for a in pivot]
            basis.append(pivot)
    # reduce entries above each pivot into the canonical range; ascending
    # order, because reducing by an earlier pivot dirties later columns
    for i in range(1, len(basis)):
        col = next(j for j, a in enumerate(basis[i]) if a != 0)
        for k in range(i):
            q = basis[k][col] // basis[i][col]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return tuple(tuple(v) for v in basis)


def naive_reduce(basis, vec):
    """Coset representative of vec modulo a canonical basis from naive_hnf.

    Each pivot entry is reduced into [0, pivot), in pivot order.
    """
    v = list(vec)
    for row in basis:
        col = next(j for j, a in enumerate(row) if a != 0)
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def poly_mul_fold(m, a, b):
    """Cyclic convolution via schoolbook product on degree 2m, then fold."""
    long = [0] * (2 * m)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            long[i + j] += x * y
    out = [0] * m
    for k, c in enumerate(long):
        out[k % m] += c
    return tuple(out)


def conj_coeffs(m, a):
    """Involution on coefficient vectors: index i goes to (m - i) mod m."""
    out = [0] * m
    for i, c in enumerate(a):
        out[(m - i) % m] += c
    return tuple(out)


def leibniz_det(entries, zero, one):
    """Permutation-sum determinant over any commutative ring.

    entries[i][j] must support + and *; zero and one are ring constants.
    """
    n = len(entries)
    total = zero
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = one
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (term if inv % 2 == 0 else -term)
    return total


def fraction_det(rows):
    """Integer determinant by Gaussian elimination over Fraction."""
    n = len(rows)
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    assert det.denominator == 1
    return int(det)


def fraction_solve(rows, rhs):
    """The x with rows * x = rhs over Fraction, by Gauss-Jordan elimination."""
    n = len(rows)
    mat = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        mat[col] = [a / mat[col][col] for a in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [r[n] for r in mat]


def element_shifts(m, coeffs):
    """Coefficient rows of x, g*x, ..., g^(m-1)*x: the Z-span of the ideal (x)."""
    rows = []
    for k in range(m):
        row = [0] * m
        for i, c in enumerate(coeffs):
            row[(i + k) % m] += c
        rows.append(row)
    return rows


def ideal_hnf(m, gens_coeffs):
    """Canonical basis of the Z-lattice underlying the ideal sum."""
    rows = []
    for coeffs in gens_coeffs:
        rows.extend(element_shifts(m, coeffs))
    return naive_hnf(rows, m)


def dense_ring_matmul(m, a, b):
    """Product of matrices of coefficient tuples, every term computed.

    a is n x k and b is k x p; entries are length-m coefficient tuples and
    each product is folded by poly_mul_fold. A vector is a k x 1 matrix.
    """
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = (0,) * m
            for x, col in zip(row, b):
                term = poly_mul_fold(m, x, col[j])
                acc = tuple(s + t for s, t in zip(acc, term))
            out_row.append(acc)
        out.append(out_row)
    return out


def transform_certifies(rows, H, U):
    """True iff U is square unimodular (|det U| = 1) and U @ rows == H."""
    k = len(rows)
    if len(U) != k or any(len(r) != k for r in U):
        return False
    if abs(fraction_det(U)) != 1:
        return False
    ncols = len(H[0]) if H else 0
    for i in range(k):
        got = [sum(U[i][j] * rows[j][c] for j in range(k)) for c in range(ncols)]
        if got != list(H[i]):
            return False
    return True


def hyperbolic_gram(m, rank, eps):
    """Gram matrix of H^rank_eps as coefficient tuples: G[k][r+k] = 1, G[r+k][k] = eps."""
    n = 2 * rank
    zero = (0,) * m
    G = [[zero] * n for _ in range(n)]
    for k in range(rank):
        G[k][rank + k] = (1,) + (0,) * (m - 1)
        G[rank + k][k] = (eps,) + (0,) * (m - 1)
    return G


def _conj_transpose(m, M):
    n = len(M)
    return [[conj_coeffs(m, M[j][i]) for j in range(n)] for i in range(n)]


def gram_inverse(m, rank, eps, M):
    """G^T * conj(M)^T * G, every product computed densely."""
    G = hyperbolic_gram(m, rank, eps)
    Gt = [list(r) for r in zip(*G)]
    return dense_ring_matmul(m, dense_ring_matmul(m, Gt, _conj_transpose(m, M)), G)


def in_form_parameter(m, c, kind):
    """Membership in the form parameter, from its spanning set.

    TILDE and PLUS are spanned by w + conj(w) (plus 1 for TILDE), MINUS by
    w - conj(w): pair up coefficients i and m - i and read the fixed points
    0 and m/2 off the spanning elements.
    """
    sign = -1 if kind == "MINUS" else 1
    for i in range(1, m):
        if c[i] != sign * c[m - i]:
            return False
    fixed = [0] + ([m // 2] if m % 2 == 0 else [])
    for i in fixed:
        if kind == "MINUS" and c[i] != 0:
            return False
        if kind != "MINUS" and c[i] % 2 and not (kind == "TILDE" and i == 0):
            return False
    return True


def is_isometry(m, rank, eps, kind, M):
    """M^T G conj(M) == G, and every column's mu lift lies in the parameter."""
    G = hyperbolic_gram(m, rank, eps)
    Mt = [list(r) for r in zip(*M)]
    Mbar = [[conj_coeffs(m, x) for x in row] for row in M]
    if dense_ring_matmul(m, dense_ring_matmul(m, Mt, G), Mbar) != G:
        return False
    for j in range(2 * rank):
        lift = (0,) * m
        for k in range(rank):
            term = poly_mul_fold(m, M[k][j], conj_coeffs(m, M[rank + k][j]))
            lift = tuple(s + t for s, t in zip(lift, term))
        if not in_form_parameter(m, lift, kind):
            return False
    return True


def pull_back(Q, steps, U):
    """The generic pull-back: U <- inverse(step) * U over the steps in reverse.

    Q, steps (each with a .matrix) and U (vectors of elements) come from
    the package, read as coefficient tuples; each inverse is gram_inverse
    and each product dense. Returns one tuple of coefficient tuples per
    vector of U.
    """
    m = Q.m
    cols = [[x.coeffs for x in row] for row in zip(*[v.coords for v in U])]
    for step in reversed(steps):
        M = [[x.coeffs for x in row] for row in step.matrix.rows]
        cols = dense_ring_matmul(m, gram_inverse(m, Q.rank, Q.eps, M), cols)
    return tuple(tuple(col) for col in zip(*cols))


def _ring_add(*terms):
    return tuple(map(sum, zip(*terms)))


def generic_transport(m, eps, kind, x, y, source_pair, target_pair):
    """The rank-1 transport [y, y_c] * [x, x']^-1, every product dense.

    x, y and the Bezout pairs (p, q) are coefficient tuples. Each vector v
    is completed to x' = z + d*v with z = (eps*conj(q), conj(p)) and
    d = -z_0*conj(z_1); y' is sheared to y_c = y' + c*y by the first c of
    0, then for eps = -1 also 1, and for even m also g^(m/2) and
    1 + g^(m/2), whose mu lift differs from that of x' by an element of
    the form parameter. The inverse is gram_inverse. Returns the 2 x 2
    matrix as rows of coefficient tuples, or None if no shear aligns.
    """
    one = (1,) + (0,) * (m - 1)

    def scale(k, a):
        return tuple(k * c for c in a)

    def complete(v, pair):
        p, q = pair
        z = (scale(eps, conj_coeffs(m, q)), conj_coeffs(m, p))
        d = scale(-1, poly_mul_fold(m, z[0], conj_coeffs(m, z[1])))
        return tuple(_ring_add(zi, poly_mul_fold(m, d, vi)) for zi, vi in zip(z, v))

    def lift(v):
        return poly_mul_fold(m, v[0], conj_coeffs(m, v[1]))

    xp, yp = complete(x, source_pair), complete(y, target_pair)
    shears = [(0,) * m]
    if eps == -1:
        shears.append(one)
        if m % 2 == 0:
            half = tuple(int(i == m // 2) for i in range(m))
            shears += [half, _ring_add(one, half)]
    for c in shears:
        yc = tuple(_ring_add(w, poly_mul_fold(m, c, v)) for w, v in zip(yp, y))
        if in_form_parameter(m, _ring_add(lift(yc), scale(-1, lift(xp))), kind):
            inverse = gram_inverse(m, 1, eps, [[x[0], xp[0]], [x[1], xp[1]]])
            return dense_ring_matmul(m, [[y[0], yc[0]], [y[1], yc[1]]], inverse)
    return None
