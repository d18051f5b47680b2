"""Hyperbolic quadratic modules over Z[Z/m].

H^r_eps(Lambda) has basis (e_1..e_r, f_1..f_r). Vectors are coordinate
columns x = sum a_i e_i + b_i f_i. The sesquilinear form is

    lambda(x, y) = sum_i a_i * conj(d_i) + eps * b_i * conj(c_i)

for y = sum c_i e_i + d_i f_i: linear on the left, conjugate-linear on the
right, with lambda(y, x) = eps * conj(lambda(x, y)). The quadratic
refinement mu(x) = [sum a_i * conj(b_i)] lives in Lambda modulo the form
parameter, and mu(x+y) = mu(x) + mu(y) + [lambda(x, y)] requires the
sign/parameter pairings enforced by QuadraticModule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import add, attrgetter, neg, sub
from typing import Iterable, Sequence

from .errors import (
    BadIndex,
    DimensionMismatch,
    ModulusMismatch,
    NotComplement,
    PreconditionFailed,
    RankTooLarge,
    ZeroVector,
    value_text,
)
from .groupring import (
    FormParameterKind,
    GroupRingElement,
    ParameterClass,
    _check_modulus,
    _conj_coeffs,
    _dot_coeffs,
    _trusted,
    ideal_contains_one,
    is_unit,
    param_reduce,
)


_coeffs = attrgetter("coeffs")


def _common_modulus(entries: Sequence, what: str) -> int:
    """The one modulus of entries, which must all be GroupRingElements."""
    for x in entries:
        if not isinstance(x, GroupRingElement):
            raise PreconditionFailed(
                f"{what} entries must be group ring elements, got {value_text(x)}"
            )
        if x.m != entries[0].m:
            raise ModulusMismatch(f"mixed moduli in {what}")
    return entries[0].m


class RingVector:
    """Coordinate vector of GroupRingElements (column convention)."""

    __slots__ = ("m", "coords")

    def __init__(self, coords: Sequence[GroupRingElement]):
        if not coords:
            raise DimensionMismatch("empty vector")
        object.__setattr__(self, "m", _common_modulus(coords, "vector"))
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):
        raise AttributeError("RingVector is immutable")

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> GroupRingElement:
        return self.coords[i]

    def __add__(self, other: "RingVector") -> "RingVector":
        if not isinstance(other, RingVector):
            return NotImplemented
        if len(self) != len(other):
            raise DimensionMismatch("vector lengths differ")
        return _vector(self.m, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "RingVector") -> "RingVector":
        if not isinstance(other, RingVector):
            return NotImplemented
        if len(self) != len(other):
            raise DimensionMismatch("vector lengths differ")
        return _vector(self.m, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "RingVector":
        return _vector(self.m, tuple(map(neg, self.coords)))

    def scaled(self, c: GroupRingElement) -> "RingVector":
        """c * v with ring scalar c."""
        return _vector(self.m, tuple([c * a for a in self.coords]))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "RingVector(" + ", ".join(repr(c) for c in self.coords) + ")"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    @staticmethod
    def from_json(obj: Iterable[dict]) -> "RingVector":
        return RingVector([GroupRingElement.from_json(c) for c in obj])


_new_object = object.__new__
_set_vector_m = RingVector.m.__set__
_set_vector_coords = RingVector.coords.__set__


def _vector(m: int, coords: tuple) -> RingVector:
    """RingVector from a nonempty tuple of elements of modulus m; no checks.

    For entries the package built itself, as groupring._trusted is for
    coefficients; RingVector(...) checks everything else.
    """
    v = _new_object(RingVector)
    _set_vector_m(v, m)
    _set_vector_coords(v, coords)
    return v


class RingMatrix:
    """Square matrix of GroupRingElements acting on column RingVectors."""

    __slots__ = ("m", "rows")

    def __init__(self, rows: Sequence[Sequence[GroupRingElement]]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        object.__setattr__(self, "m", _common_modulus([x for r in rows for x in r], "matrix"))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int, m: int) -> "RingMatrix":
        if n < 1:
            raise DimensionMismatch("matrix must be square and nonempty")
        row = (GroupRingElement.zero(m),) * n
        one = (GroupRingElement.one(m),)
        return _matrix(m, tuple([row[:i] + one + row[i + 1 :] for i in range(n)]))

    @staticmethod
    def from_columns(cols: Sequence[RingVector]) -> "RingMatrix":
        """Columns that are vectors of one modulus are taken as they are;
        anything else goes through the constructor's checks."""
        n = len(cols)
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("need n columns of length n")
        if n and all(isinstance(c, RingVector) and c.m == cols[0].m for c in cols):
            return _matrix(cols[0].m, tuple(zip(*[c.coords for c in cols])))
        return RingMatrix([[cols[j][i] for j in range(n)] for i in range(n)])

    def column(self, j: int) -> RingVector:
        return _vector(self.m, tuple([r[j] for r in self.rows]))

    def __mul__(self, other):
        """By a vector, each entry one kernel call; by a matrix, column by column."""
        if isinstance(other, RingVector):
            if len(other) != self.n:
                raise DimensionMismatch("matrix/vector size mismatch")
            if other.m != self.m:
                raise ModulusMismatch(f"m={other.m} vs matrix m={self.m}")
            m, col = self.m, _coords(other)
            return _vector(m, tuple(
                [_trusted(m, _dot_coeffs(m, zip(map(_coeffs, r), col))) for r in self.rows]
            ))
        if isinstance(other, RingMatrix):
            if other.n != self.n:
                raise DimensionMismatch("matrix size mismatch")
            if other.m != self.m:
                raise ModulusMismatch(f"m={other.m} vs matrix m={self.m}")
            return RingMatrix.from_columns([self * other.column(j) for j in range(self.n)])
        return NotImplemented

    def transpose(self) -> "RingMatrix":
        return _matrix(self.m, tuple(zip(*self.rows)))

    def conj(self) -> "RingMatrix":
        return _matrix(self.m, tuple(tuple([x.conj() for x in r]) for r in self.rows))

    def minor(self, drop_row: int, drop_col: int) -> "RingMatrix":
        return RingMatrix(
            [
                [x for j, x in enumerate(r) if j != drop_col]
                for i, r in enumerate(self.rows)
                if i != drop_row
            ]
        )

    def inverse(self) -> "RingMatrix":
        """Adjugate inverse; requires the determinant to be a unit."""
        d = ring_det(self)
        ok, dinv = is_unit(d)
        if not ok:
            raise PreconditionFailed("matrix determinant is not a unit")
        n = self.n
        if n == 1:
            return RingMatrix([[dinv]])
        adj = [
            [
                ring_det(self.minor(j, i)) * ((-1) ** (i + j))
                for j in range(n)
            ]
            for i in range(n)
        ]
        return RingMatrix([[dinv * adj[i][j] for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RingMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "RingMatrix(" + "; ".join(
            ", ".join(repr(x) for x in r) for r in self.rows
        ) + ")"

    def to_json(self) -> list:
        return [[x.to_json() for x in r] for r in self.rows]

    @staticmethod
    def from_json(obj) -> "RingMatrix":
        return RingMatrix(
            [[GroupRingElement.from_json(x) for x in r] for r in obj]
        )


_set_matrix_m = RingMatrix.m.__set__
_set_matrix_rows = RingMatrix.rows.__set__


def _matrix(m: int, rows: tuple) -> RingMatrix:
    """RingMatrix from a square tuple of row tuples of elements of modulus m; no checks."""
    M = _new_object(RingMatrix)
    _set_matrix_m(M, m)
    _set_matrix_rows(M, rows)
    return M


@dataclass(frozen=True)
class QuadraticModule:
    """Based hyperbolic module H^rank_eps over Z[Z/m].

    eps = -1 pairs with the TILDE or PLUS parameter, eps = +1 with MINUS;
    other combinations break the law mu(x+y) = mu(x)+mu(y)+[lambda(x,y)].
    """

    m: int
    rank: int
    eps: int
    kind: FormParameterKind

    def __post_init__(self):
        if self.rank < 1:
            raise PreconditionFailed("rank must be positive")
        if self.eps == -1:
            if self.kind not in (FormParameterKind.TILDE, FormParameterKind.PLUS):
                raise PreconditionFailed("eps=-1 requires TILDE or PLUS parameter")
        elif self.eps == 1:
            if self.kind is not FormParameterKind.MINUS:
                raise PreconditionFailed("eps=+1 requires MINUS parameter")
        else:
            raise PreconditionFailed("eps must be +1 or -1")
        _check_modulus(self.m)

    @property
    def dim(self) -> int:
        return 2 * self.rank

    def zero_vector(self) -> RingVector:
        return RingVector([GroupRingElement.zero(self.m)] * self.dim)

    def basis_vector(self, index: int) -> RingVector:
        if not 0 <= index < self.dim:
            raise BadIndex(f"basis index {index} out of range")
        c = [GroupRingElement.zero(self.m)] * self.dim
        c[index] = GroupRingElement.one(self.m)
        return RingVector(c)

    def e(self, i: int) -> RingVector:
        """e_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise BadIndex(f"e_{i} out of range")
        return self.basis_vector(i - 1)

    def f(self, i: int) -> RingVector:
        """f_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise BadIndex(f"f_{i} out of range")
        return self.basis_vector(self.rank + i - 1)

    def vector(self, coeffs: dict) -> RingVector:
        """Build a vector from {"e1": elem, "f2": elem, ...} coefficients."""
        c = [GroupRingElement.zero(self.m)] * self.dim
        for label, val in coeffs.items():
            block, idx = _label_index(label, self.rank)
            c[idx if block == "e" else self.rank + idx] = val
        return RingVector(c)

    def gram_matrix(self) -> RingMatrix:
        """G, with lambda(x, y) = x^T G conj(y); one shared instance per module."""
        return _gram_matrix(self.m, self.rank, self.eps)

    def _check_vector(self, x: RingVector) -> None:
        if len(x) != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {len(x)}")
        if x.m != self.m:
            raise ModulusMismatch(f"m={x.m} vs module m={self.m}")


@functools.lru_cache(maxsize=64, typed=True)
def _gram_matrix(m: int, rank: int, eps: int) -> RingMatrix:
    """QuadraticModule.gram_matrix, built once; a bad argument raises and caches nothing."""
    one = GroupRingElement.one(m)
    zero = GroupRingElement.zero(m)
    e = GroupRingElement.integer(m, eps)
    n = 2 * rank
    rows = [[zero] * n for _ in range(n)]
    for i in range(rank):
        rows[i][rank + i] = one
        rows[rank + i][i] = e
    return _matrix(m, tuple(map(tuple, rows)))


def _parse_label(label: str, rank: int) -> tuple[str, int]:
    """(letter, index - 1) of a label e<index> or f<index>, 1 <= index <= rank."""
    if label[:1] not in ("e", "f") or not label[1:].isdecimal():
        raise BadIndex(f"bad basis label: {value_text(label)}")
    digits = label[1:].lstrip("0")
    # an index with more digits than rank is out of range, and int() fails
    # past the interpreter's digit limit
    idx = int(digits) if 0 < len(digits) <= len(str(rank)) else 0
    if not 1 <= idx <= rank:
        raise BadIndex(f"a basis label index is out of range for rank {rank}")
    return label[0], idx - 1


def _label_index(label, rank: int) -> tuple[str, int]:
    """_parse_label, answered from _CANONICAL_LABELS when the label is there.

    A table hit counts only below rank; any other label is parsed, so its
    result or error is _parse_label's.
    """
    hit = _CANONICAL_LABELS.get(label) if isinstance(label, str) else None
    if hit is not None and hit[1] < rank:
        return hit
    return _parse_label(label, rank)


def _eps_conj(eps: int, c: tuple) -> tuple:
    """eps * conj(c) on a coefficient tuple."""
    c = _conj_coeffs(c)
    return c if eps == 1 else tuple(map(neg, c))


def _mu_class(Q: QuadraticModule, lift: tuple) -> ParameterClass:
    """[L] modulo Q's form parameter, for a mu lift L given as a coefficient tuple."""
    return param_reduce(_trusted(Q.m, lift), Q.kind)


def _lambda_coeffs(Q: QuadraticModule, x: Sequence[tuple], y: Sequence[tuple]) -> tuple:
    """lambda(x, y) from the coordinates of x and y as coefficient tuples."""
    r = Q.rank
    right = [*map(_conj_coeffs, y[r:]), *(_eps_conj(Q.eps, t) for t in y[:r])]
    return _dot_coeffs(Q.m, zip(x, right))


def _lift_coeffs(Q: QuadraticModule, c: Sequence[tuple]) -> tuple:
    """L = sum a_i conj(b_i), the lift of mu(x), from x's coefficient tuples.

    lambda(x, x) = L + eps * conj(L).
    """
    r = Q.rank
    return _dot_coeffs(Q.m, zip(c[:r], map(_conj_coeffs, c[r:])))


def _coords(x: RingVector) -> list[tuple]:
    return list(map(_coeffs, x.coords))


def lambda_eval(Q: QuadraticModule, x: RingVector, y: RingVector) -> GroupRingElement:
    """Sesquilinear value lambda(x, y)."""
    Q._check_vector(x)
    Q._check_vector(y)
    return _trusted(Q.m, _lambda_coeffs(Q, _coords(x), _coords(y)))


def mu_eval(Q: QuadraticModule, x: RingVector) -> ParameterClass:
    """Quadratic refinement mu(x) = [sum a_i conj(b_i)] in Lambda/parameter."""
    Q._check_vector(x)
    return _mu_class(Q, _lift_coeffs(Q, _coords(x)))


def _gram_and_mu(
    Q: QuadraticModule, cs: Sequence[Sequence[tuple]]
) -> tuple[tuple[tuple[GroupRingElement, ...], ...], tuple[ParameterClass, ...]]:
    """The table lambda(U[i], U[j]) and the classes mu(U[i]).

    Each U[i] comes as its coordinates' coefficient tuples, cs[i]. lambda
    is evaluated once per pair i < j; entry (j, i) is eps * conj of entry
    (i, j). The diagonal and the mu classes come from each vector's mu
    lift L, as lambda(u, u) = L + eps * conj(L).
    """
    m, eps = Q.m, Q.eps
    lifts = [_lift_coeffs(Q, c) for c in cs]
    rows = [[None] * len(cs) for _ in cs]
    for i, c in enumerate(cs):
        rows[i][i] = _trusted(m, tuple(map(add, lifts[i], _eps_conj(eps, lifts[i]))))
        for j in range(i + 1, len(cs)):
            t = _lambda_coeffs(Q, c, cs[j])
            rows[i][j], rows[j][i] = _trusted(m, t), _trusted(m, _eps_conj(eps, t))
    return tuple(map(tuple, rows)), tuple(_mu_class(Q, L) for L in lifts)


def is_primitive(Q: QuadraticModule, x: RingVector) -> bool:
    """True iff the coordinates of x generate the unit ideal."""
    Q._check_vector(x)
    if x.is_zero():
        raise ZeroVector("primitivity is undefined for the zero vector")
    return ideal_contains_one(list(x.coords))


def isometry_check(Q: QuadraticModule, M: RingMatrix) -> bool:
    """Gram preservation M^T G conj(M) = G plus mu = 0 on all basis images.

    Entry (i, j) of M^T G conj(M) is lambda(M e_i, M e_j), so this reads
    _gram_and_mu on the columns of M, taken as coefficient tuples: the
    lambda table and the mu classes.
    """
    if M.n != Q.dim:
        raise DimensionMismatch(f"expected {Q.dim}x{Q.dim} matrix")
    if M.m != Q.m:
        raise ModulusMismatch(f"m={M.m} vs module m={Q.m}")
    gram, mus = _gram_and_mu(Q, list(zip(*[map(_coeffs, r) for r in M.rows])))
    return all(c.is_zero() for c in mus) and gram == Q.gram_matrix().rows


def isometry_inverse(Q: QuadraticModule, M: RingMatrix) -> RingMatrix:
    """Inverse of a Gram-preserving M, in closed form: G^T * conj(M)^T * G.

    Conjugating M^T G conj(M) = G gives conj(M)^T G M = G, and
    G^-1 = eps * G = G^T, so G^T conj(M)^T G is a left, hence two-sided,
    inverse of M. G is a signed permutation: G[k][pi(k)] is 1 on the
    e-slots k and eps on the f-slots, where pi swaps e_i and f_i. So the
    product is an entry shuffle, inv[i][j] = sigma(i) * sigma(j) *
    conj(M[pi(j)][pi(i)]), with sigma = eps on the e-slots and 1 on the
    f-slots. The caller guarantees Gram preservation; the result is not
    checked.
    """
    if M.n != Q.dim:
        raise DimensionMismatch(f"expected {Q.dim}x{Q.dim} matrix")
    r, n = Q.rank, Q.dim
    pi = [(i + r) % n for i in range(n)]
    flip = Q.eps == -1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = M.rows[pi[j]][pi[i]].conj()
            # sigma(i) * sigma(j) is eps when exactly one of i, j is an e-slot
            row.append(-x if flip and (i < r) != (j < r) else x)
        rows.append(tuple(row))
    return _matrix(M.m, tuple(rows))


def transvection(Q: QuadraticModule, base: tuple[str, str], parameter: GroupRingElement) -> RingMatrix:
    """Elementary isometry attached to a pair of basis labels.

    Supported shapes, writing c for the parameter:
      ("ei", "fj"), i < j: entries c at (e_i, e_j) and -conj(c) at (f_j, f_i);
      ("ei", "fj"), i > j: entries c at (e_j, f_i) and -eps*conj(c) at (e_i, f_j);
      ("ei", "fi") / ("fi", "ei"): shear along f_i resp. e_i; the parameter
        must satisfy conj(c) = -eps*c and have vanishing parameter class.
    The matrix is dense, so a rank above RING_DET_MAX_RANK raises RankTooLarge.
    """
    if Q.rank > RING_DET_MAX_RANK:
        raise RankTooLarge(
            f"transvection supports rank at most {RING_DET_MAX_RANK}, got {Q.rank}"
        )
    if not isinstance(parameter, GroupRingElement):
        raise PreconditionFailed(
            f"a transvection parameter must be a group ring element, got {value_text(parameter)}"
        )
    if parameter.m != Q.m:
        raise ModulusMismatch(f"m={parameter.m} vs module m={Q.m}")
    if len(base) != 2:
        raise BadIndex(f"base must be a pair of basis labels, got {len(base)}")
    ub, ui = _label_index(base[0], Q.rank)
    wb, wi = _label_index(base[1], Q.rank)
    if ub == wb:
        raise BadIndex("base must pair an e-label with an f-label")
    if ub == "f":
        ub, wb = wb, ub
        ui, wi = wi, ui
        flipped = True
    else:
        flipped = False
    r = Q.rank
    c = parameter
    rows = [list(row) for row in RingMatrix.identity(Q.dim, Q.m).rows]
    if ui == wi:
        if c.conj() != -Q.eps * c:
            raise PreconditionFailed("shear parameter must satisfy conj(c) = -eps*c")
        if not param_reduce(c, Q.kind).is_zero():
            raise PreconditionFailed("shear parameter class must vanish")
        if flipped:
            # base (f_i, e_i): x -> x + lambda(x, f_i)*c*f_i
            rows[r + ui][ui] = rows[r + ui][ui] + c
        else:
            # base (e_i, f_i): x -> x + lambda(x, e_i)*c*e_i
            rows[ui][r + ui] = rows[ui][r + ui] + Q.eps * c
        return _matrix(Q.m, tuple(map(tuple, rows)))
    if flipped:
        raise BadIndex("cross pair must be given e-label first")
    if ui < wi:
        # R shape: e_j feeds e_i, f_i feeds f_j negatively conjugated
        rows[ui][wi] = rows[ui][wi] + c
        rows[r + wi][r + ui] = rows[r + wi][r + ui] - c.conj()
    else:
        # T shape: f_i feeds e_j, f_j feeds e_i
        rows[wi][r + ui] = rows[wi][r + ui] + c
        rows[ui][r + wi] = rows[ui][r + wi] - Q.eps * c.conj()
    return _matrix(Q.m, tuple(map(tuple, rows)))


# ring_det memoizes one minor per column subset, 2^n of them at rank n.
# In-package callers stay at rank 8 or below (certificates have rank 2r).
# transvection's dense 2r x 2r matrix is capped at module rank r = 16 too,
# the range of _CANONICAL_LABELS.
RING_DET_MAX_RANK = 16

# _parse_label's result for each canonical label e1..ek, f1..fk with
# k = RING_DET_MAX_RANK, built once; nothing is added to it later
_CANONICAL_LABELS = {
    f"{b}{i}": (b, i - 1) for b in "ef" for i in range(1, RING_DET_MAX_RANK + 1)
}


def ring_det(M: RingMatrix) -> GroupRingElement:
    """Determinant over the group ring, division-free.

    Expansion along rows with minors memoized on the column subset; row k
    always expands over the columns remaining in the mask. Each expansion
    is one fused kernel call, sum of signed entry times minor, on
    coefficient tuples (_det_coeffs); a zero entry's minor is never
    computed. Memory grows as 2^n, so a matrix above RING_DET_MAX_RANK
    raises RankTooLarge.
    """
    return _trusted(M.m, _det_coeffs(M.m, [[x.coeffs for x in r] for r in M.rows]))


def _det_coeffs(m: int, rows: Sequence[Sequence[tuple]]) -> tuple:
    """ring_det's expansion on a square matrix of coefficient tuples."""
    n = len(rows)
    if n > RING_DET_MAX_RANK:
        raise RankTooLarge(
            f"ring_det supports rank at most {RING_DET_MAX_RANK}, got {n}"
        )
    cache: dict[int, tuple] = {0: (1,) + (0,) * (m - 1)}

    def minor_det(mask: int) -> tuple:
        got = cache.get(mask)
        if got is not None:
            return got
        k = bin(mask).count("1") - 1
        terms = []
        # expanding along row k of the (k+1)-row submatrix: the cofactor
        # sign for the t-th surviving column is (-1)^(k+t)
        positive = k % 2 == 0
        rest = mask
        while rest:
            low = rest & -rest
            entry = rows[k][low.bit_length() - 1]
            if any(entry):
                signed = entry if positive else tuple(map(neg, entry))
                terms.append((signed, minor_det(mask ^ low)))
            positive = not positive
            rest ^= low
        cache[mask] = total = _dot_coeffs(m, terms)
        return total

    return minor_det((1 << n) - 1)


@dataclass(frozen=True)
class ComplementCertificate:
    """Evidence that U is a Lagrangian complement of S."""

    S: tuple[RingVector, ...]
    U: tuple[RingVector, ...]
    gram_evidence: tuple[tuple[GroupRingElement, ...], ...]
    mu_evidence: tuple[ParameterClass, ...]
    det_evidence: tuple[GroupRingElement, GroupRingElement]

    def to_json(self) -> dict:
        return {
            "S": [v.to_json() for v in self.S],
            "U": [v.to_json() for v in self.U],
            "gram": [[x.to_json() for x in row] for row in self.gram_evidence],
            "mu": [c.to_json() for c in self.mu_evidence],
            "det": self.det_evidence[0].to_json(),
            "detInverse": self.det_evidence[1].to_json(),
        }


def verify_lagrangian_complement(
    Q: QuadraticModule, S: Sequence[RingVector], U: Sequence[RingVector]
) -> ComplementCertificate:
    """Certify S + U = H^r with U Lagrangian, or raise NotComplement.

    Checks, in order: lambda vanishes on U x U; mu vanishes on U; the
    2r x 2r matrix with columns S followed by U has unit determinant. All
    three read the vectors' coordinates as coefficient tuples.
    """
    if len(S) != Q.rank or len(U) != Q.rank:
        raise DimensionMismatch(f"need {Q.rank} vectors in S and in U")
    for v in (*S, *U):
        Q._check_vector(v)
    cs = [_coords(v) for v in (*S, *U)]
    gram, mus = _gram_and_mu(Q, cs[Q.rank :])
    for i, row in enumerate(gram):
        for j, val in enumerate(row):
            if not val.is_zero():
                raise NotComplement(
                    "gram", f"lambda(U[{i}], U[{j}]) is nonzero ({val.bits()} bits)"
                )
    for i, c in enumerate(mus):
        if not c.is_zero():
            raise NotComplement(
                "mu", f"mu(U[{i}]) is nonzero ({c.rep.bits()}-bit representative)"
            )
    d = _trusted(Q.m, _det_coeffs(Q.m, list(zip(*cs))))
    ok, dinv = is_unit(d)
    if not ok:
        raise NotComplement("determinant", f"det ({d.bits()} bits) is not a unit")
    return ComplementCertificate(
        S=tuple(S),
        U=tuple(U),
        gram_evidence=gram,
        mu_evidence=mus,
        det_evidence=(d, dinv),
    )
