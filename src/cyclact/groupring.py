"""Exact arithmetic in the integral group ring of a finite cyclic group.

An element of Z[Z/m] is stored as a dense length-m vector of Python ints,
coefficient i belonging to gen^i. Multiplication is cyclic convolution, the
involution sends gen^i to gen^(m-i), and the augmentation sums coefficients.
The norm element s = 1 + gen + ... + gen^(m-1) satisfies x*s = aug(x)*s.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, neg, sub
from typing import NamedTuple, Optional, Sequence

from .errors import (
    Degenerate,
    ModulusMismatch,
    NotDivisible,
    PreconditionFailed,
    value_text,
)
from .intlattice import ZLattice, cramer_solve


class GroupRingElement:
    """Immutable element of Z[Z/m] with arbitrary-precision coefficients."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Sequence[int]):
        """Validates, never coerces: m >= 2 and m coefficients, all ints."""
        _check_modulus(m)
        coeffs = tuple(coeffs)
        if len(coeffs) != m:
            raise PreconditionFailed(
                f"coefficients must be a list of length {value_text(m)}"
            )
        for c in coeffs:
            if type(c) is not int:
                raise PreconditionFailed(
                    f"coefficients must be integers, got {value_text(c)}"
                )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "GroupRingElement":
        if type(m) is int:
            return _shared_integer(m, 0)
        return GroupRingElement.integer(m, 0)

    @staticmethod
    def one(m: int) -> "GroupRingElement":
        if type(m) is int:
            return _shared_integer(m, 1)
        return GroupRingElement.integer(m, 1)

    @staticmethod
    def gen(m: int, power: int = 1) -> "GroupRingElement":
        """gen^power, the group generator raised to a power."""
        return GroupRingElement.one(m).shift(power)

    @staticmethod
    def norm(m: int) -> "GroupRingElement":
        """The norm element s = 1 + gen + ... + gen^(m-1)."""
        _check_modulus(m)
        return _trusted(m, (1,) * m)

    @staticmethod
    def integer(m: int, n: int) -> "GroupRingElement":
        _check_modulus(m)
        if type(n) is not int:
            raise PreconditionFailed(f"an integer must be an int, got {value_text(n)}")
        return _trusted(m, (n,) + (0,) * (m - 1))

    @staticmethod
    def geometric(m: int, l: int) -> "GroupRingElement":
        """1 + gen + ... + gen^(l-1) for an int l >= 0, folded modulo gen^m = 1."""
        _check_modulus(m)
        if type(l) is not int or l < 0:
            raise PreconditionFailed(
                f"a geometric length must be a nonnegative int, got {value_text(l)}"
            )
        q, r = divmod(l, m)
        return _trusted(m, (q + 1,) * r + (q,) * (m - r))

    # ring structure -------------------------------------------------------

    def _require_same(self, other: "GroupRingElement") -> None:
        if self.m != other.m:
            raise ModulusMismatch(f"m={self.m} vs m={other.m}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same(other)
        return _trusted(self.m, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same(other)
        return _trusted(self.m, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupRingElement":
        return _trusted(self.m, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return _trusted(self.m, tuple(other * a for a in self.coeffs))
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same(other)
        return _trusted(self.m, _dot_coeffs(self.m, ((self.coeffs, other.coeffs),)))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "GroupRingElement":
        """Involution: coefficient at i moves to (m - i) mod m."""
        return _trusted(self.m, _conj_coeffs(self.coeffs))

    def shift(self, j: int) -> "GroupRingElement":
        """Multiplication by gen^j."""
        m = self.m
        j %= m
        return _trusted(m, self.coeffs[m - j :] + self.coeffs[: m - j])

    def aug(self) -> int:
        return sum(self.coeffs)

    def bits(self) -> int:
        """Bit length of the largest coefficient.

        Error messages report this rather than repr, which fails once a
        coefficient passes the interpreter's int-to-string digit limit.
        """
        return max(abs(a).bit_length() for a in self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # value semantics ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            else:
                mag = "" if abs(a) == 1 else f"{abs(a)}*"
                p = "g" if i == 1 else f"g^{i}"
                terms.append(("-" if a < 0 else "") + mag + p)
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"<{body} | m={self.m}>"

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj: dict) -> "GroupRingElement":
        """Element from {"m": m, "coeffs": [...]}, validated by the constructor."""
        if not isinstance(obj, dict) or "m" not in obj or "coeffs" not in obj:
            raise PreconditionFailed("an element is {\"m\": m, \"coeffs\": [...]}")
        if not isinstance(obj["coeffs"], (list, tuple)):
            raise PreconditionFailed("coefficients must be a list")
        return GroupRingElement(obj["m"], obj["coeffs"])


def _check_modulus(m: int) -> None:
    if type(m) is not int or m < 2:
        raise PreconditionFailed(
            f"modulus must be an integer >= 2, got {value_text(m)}"
        )


_new_element = object.__new__
_set_m = GroupRingElement.m.__set__
_set_coeffs = GroupRingElement.coeffs.__set__


def _trusted(m: int, coeffs: tuple) -> GroupRingElement:
    """Element from a tuple of m ints already known to be valid; no checks."""
    el = _new_element(GroupRingElement)
    _set_m(el, m)
    _set_coeffs(el, coeffs)
    return el


@functools.lru_cache(maxsize=64)
def _shared_integer(m: int, n: int) -> GroupRingElement:
    """GroupRingElement.integer(m, n), built once per int m.

    Elements are immutable, so GroupRingElement.zero and one hand every
    caller the same instance. A bad m raises, and nothing is cached.
    """
    return GroupRingElement.integer(m, n)


def _conj_coeffs(c: tuple) -> tuple:
    """The involution on a coefficient tuple: index i moves to -i mod len(c)."""
    return c[:1] + c[:0:-1]


def _dot_coeffs(m: int, pairs) -> tuple:
    """Coefficients of sum_k a_k * b_k from pairs of coefficient tuples.

    Every product in Z[Z/m] is computed here. A pair with a zero factor
    is dropped; no live pairs give zero. When exactly one pair is live and
    one of its factors has a single nonzero coefficient (1, +-g^k, an
    integer), the sum is the other factor rotated and scaled. Otherwise
    (a*b)_i = sum_j a_j * b_(i-j mod m), and b_(i-j) for j = 0..m-1 is
    the window [m-1-i, 2m-1-i) of b doubled and reversed. So with A the
    live a_k joined and B_i their b_k's windows joined, coefficient i is
    one sum(map(mul, A, B_i)), its inner loop in C.
    """
    A = ()
    bs = []
    for a, b in pairs:
        if any(a) and any(b):
            A += a
            bs.append(b)
    if not bs:
        return (0,) * m
    if len(bs) == 1:
        a, b = A, bs[0]
        zeros, b_zeros = a.count(0), b.count(0)
        if zeros < b_zeros:
            a, b, zeros = b, a, b_zeros
        if zeros == m - 1:
            c = sum(a)  # a's one nonzero coefficient, at index i
            i = a.index(c)
            rotated = b[m - i :] + b[: m - i]
            return rotated if c == 1 else tuple([c * x for x in rotated])
    rs = [(b + b)[::-1] for b in bs]
    out = []
    for lo in range(m - 1, -1, -1):
        hi = lo + m
        B = ()
        for r in rs:
            B += r[lo:hi]
        out.append(sum(map(mul, A, B)))
    return tuple(out)


def ring_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Product in Z[Z/m] by cyclic convolution."""
    return x * y


def involution(x: GroupRingElement) -> GroupRingElement:
    return x.conj()


def augmentation(x: GroupRingElement, mod2: bool = False) -> int:
    """Coefficient sum; reduced mod 2 when mod2 is set."""
    a = x.aug()
    return a % 2 if mod2 else a


def mult_matrix(d: GroupRingElement) -> list[list[int]]:
    """Column j is the coefficient vector of d * gen^j."""
    m = d.m
    cols = [d.shift(j).coeffs for j in range(m)]
    return [[cols[j][i] for j in range(m)] for i in range(m)]


class DivisionResult(NamedTuple):
    quotient: GroupRingElement
    ambiguous: bool


def exact_divide(x: GroupRingElement, d: GroupRingElement) -> DivisionResult:
    """Solve d*q = x exactly over Z[Z/m].

    The m x m integer system over the multiplication matrix of d is solved via
    Hermite normal form. When d is a zero divisor and several q work, the
    returned quotient is the canonical representative of the solution coset
    (coordinates Hermite-reduced against the annihilator lattice) and the
    ambiguity flag is set.
    """
    x._require_same(d)
    if d.is_zero():
        raise NotDivisible("division by zero")
    m = x.m
    lat = shift_lattice([d])
    q = lat.express(x.coeffs)
    if q is None:
        raise NotDivisible(
            f"a {x.bits()}-bit element is not a multiple of the {d.bits()}-bit divisor"
        )
    kernel = lat.kernel()
    if kernel:
        q = ZLattice(kernel, m, transform=False).reduce(q)
        return DivisionResult(GroupRingElement(m, q), True)
    return DivisionResult(GroupRingElement(m, q), False)


class UnitCheck(NamedTuple):
    is_unit: bool
    inverse: Optional[GroupRingElement]


def trivial_unit_inverse(x: GroupRingElement) -> Optional[GroupRingElement]:
    """+-gen^(-k) when x is the trivial unit +-gen^k, else None.

    x is one iff it has a single nonzero coefficient, and that is +-1; its
    inverse is then its conjugate.
    """
    c = x.coeffs
    if c.count(0) == x.m - 1 and (1 in c or -1 in c):
        return x.conj()
    return None


def is_unit(x: GroupRingElement) -> UnitCheck:
    """Unit test by one fraction-free solve, after two screens.

    A trivial unit +-gen^k is answered directly with its inverse
    +-gen^(-k) (trivial_unit_inverse). Augmentation is a ring map onto Z,
    so a unit has augmentation +-1 and anything else is rejected at once.
    Otherwise cramer_solve on mult_matrix(x) gives x*y = d with
    d = det mult(x); x is a unit iff d = +-1, and then d*y is its inverse.
    A singular matrix means x is a zero divisor, so no unit.
    """
    m = x.m
    inverse = trivial_unit_inverse(x)
    if inverse is not None:
        return UnitCheck(True, inverse)
    if x.aug() not in (1, -1):
        return UnitCheck(False, None)
    try:
        d, y = cramer_solve(mult_matrix(x), (1,) + (0,) * (m - 1))
    except ValueError:
        return UnitCheck(False, None)
    if d not in (1, -1):
        return UnitCheck(False, None)
    return UnitCheck(True, _trusted(m, tuple([d * c for c in y])))


class FormParameterKind(enum.Enum):
    """Form parameter: the subgroup of Z[Z/m] that quadratic values live over."""

    TILDE = "TILDE"  # generated by 1 and all w + conj(w)
    PLUS = "PLUS"  # generated by all w + conj(w)
    MINUS = "MINUS"  # generated by all w - conj(w)


@dataclass(frozen=True)
class ParameterClass:
    """Value of a quadratic refinement: a canonical coset representative."""

    kind: FormParameterKind
    rep: GroupRingElement

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __add__(self, other: "ParameterClass") -> "ParameterClass":
        if self.kind is not other.kind:
            raise ValueError("cannot add classes over different parameters")
        return param_reduce(self.rep + other.rep, self.kind)

    def to_json(self) -> dict:
        out = self.rep.to_json()
        out["kind"] = self.kind.value
        return out


def param_reduce(x: GroupRingElement, kind: FormParameterKind) -> ParameterClass:
    """Canonical class of x modulo the form parameter, in closed form.

    The parameter is spanned by gen^i + sign*gen^(m-i), with sign -1 for
    MINUS and +1 otherwise, together with 1 for TILDE. For each pair
    1 <= i < m-i the coefficient c_i folds into c_(m-i). TILDE sets c_0 to
    0 and PLUS to c_0 mod 2; both take c_(m/2) mod 2 for even m, while
    MINUS leaves c_0 and c_(m/2). The result is the Hermite-reduced coset
    representative.
    """
    m = x.m
    c = list(x.coeffs)
    sign = 1 if kind is FormParameterKind.MINUS else -1
    for i in range(1, (m + 1) // 2):
        c[m - i] += sign * c[i]
        c[i] = 0
    if kind is not FormParameterKind.MINUS:
        c[0] = 0 if kind is FormParameterKind.TILDE else c[0] % 2
        if m % 2 == 0:
            c[m // 2] %= 2
    return ParameterClass(kind, _trusted(m, tuple(c)))


@dataclass(frozen=True)
class NormData:
    """Output of ideal normalization.

    u = 1 + gen + ... + gen^(l-1) generates the ideal; gcd(l, m) = 1;
    a*m - b*l = 1 with 0 < b < m; and u*v = 1 - a*s with
    v = -gen*(1 + gen^l + ... + gen^((b-1)l)).
    """

    u: GroupRingElement
    v: GroupRingElement
    l: int
    a: int
    b: int

    @property
    def m(self) -> int:
        return self.u.m

    def verify(self) -> bool:
        m = self.m
        # positive_variant's closed form needs b in one period
        if math.gcd(self.l, m) != 1 or not 0 < self.b < m:
            return False
        if self.a * m - self.b * self.l != 1:
            return False
        if self.u != GroupRingElement.geometric(m, self.l):
            return False
        one = GroupRingElement.one(m)
        s = GroupRingElement.norm(m)
        return self.u * self.v == one - self.a * s

    def divide(self, x: GroupRingElement) -> GroupRingElement:
        """The q with u*q = x, in closed form; NotDivisible if there is none.

        From u*v = 1 - a*s: if x = u*q then x*v = q - a*aug(q)*s and
        aug(x) = l*aug(q), so q = x*v + a*(aug(x)/l)*s. u is not a zero
        divisor (gcd(l, m) = 1), so q is the only quotient; the product
        u*q is checked against x.
        """
        k, r = divmod(x.aug(), self.l)
        if r == 0:
            q = x * self.v + (self.a * k) * GroupRingElement.norm(self.m)
            if self.u * q == x:
                return q
        raise NotDivisible(f"a {x.bits()}-bit element is not a multiple of u")

    def positive_variant(self) -> tuple[GroupRingElement, int, int]:
        """The companion identity u*v2 + a2*s = 1 with b2*l + a2*m = 1, 0 < b2 < m.

        v2 = 1 + gen^l + ... + gen^((b2-1)l) and aug(v2) = b2, in closed
        form from (v, a, b): b2 = m - b. As gcd(l, m) = 1 the full stride
        sum over m terms is s, and gen^(b2*l) = gen turns its last b terms
        into -v, so v2 = s + v. Then u*s = l*s gives a2 = a - l.
        """
        return self.v + GroupRingElement.norm(self.m), self.a - self.l, self.m - self.b

    def to_json(self) -> dict:
        return {
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "l": self.l,
            "a": self.a,
            "b": self.b,
        }


def shift_lattice(
    elems: Sequence[GroupRingElement], *, transform: bool = True
) -> ZLattice:
    """Z-lattice of the ideal generated by elems: all gen-shifts as rows.

    With transform=False the lattice answers membership and reduction
    only (see ZLattice).
    """
    m = elems[0].m
    rows = []
    for e in elems:
        if e.m != m:
            raise ModulusMismatch(f"m={e.m} vs m={m}")
        c = e.coeffs
        for j in range(m):
            rows.append(c[m - j :] + c[: m - j])
    return ZLattice(rows, m, transform=transform)


def ideal_express(
    elems: Sequence[GroupRingElement], target: GroupRingElement
) -> Optional[list[GroupRingElement]]:
    """Ring coefficients r_i with sum r_i * elems[i] = target, or None."""
    m = target.m
    combo = shift_lattice(elems).express(target.coeffs)
    if combo is None:
        return None
    return [_trusted(m, tuple(combo[i : i + m])) for i in range(0, len(combo), m)]


def ideal_contains_one(elems: Sequence[GroupRingElement]) -> bool:
    """True iff the ideal generated by elems is the whole ring."""
    m = elems[0].m
    one = [1] + [0] * (m - 1)
    return shift_lattice(elems, transform=False).contains(one)


_NOT_WHOLE = "ideal plus the norm ideal is not the whole ring"


def ideal_normalize(generators: Sequence[GroupRingElement]) -> NormData:
    """Normalize an ideal A with A + (s) = Lambda to its principal form.

    Returns NormData (u, l, v, a, b): l is the positive generator of aug(A),
    u = 1 + gen + ... + gen^(l-1) satisfies u*Lambda = A, and u*v = 1 - a*s.
    Raises PreconditionFailed when A + (s) is not Lambda.
    """
    data, quotients = _normalize(generators)
    if not ideal_contains_one(quotients):
        raise PreconditionFailed(_NOT_WHOLE)
    return data


def _normalize(
    generators: Sequence[GroupRingElement],
) -> tuple[NormData, list[GroupRingElement]]:
    """ideal_normalize's data and the quotients generators[i] / u, unchecked.

    A + (s) = Lambda holds iff gcd(l, m) = 1 and the quotients generate
    Lambda. When gcd(l, m) = 1, u*Lambda has index |det mult(u)| = l and
    lies in {x : l divides aug(x)}, of index l too, so the two agree and u
    divides every generator; the divisions are closed forms
    (NormData.divide). If the quotients generate Lambda, A = u*Lambda and
    1 = u*v + a*s lies in A + (s). Conversely A + (s) = Lambda forces
    A = u*Lambda; as u is not a zero divisor, u = u*t with t in the
    quotients' ideal gives t = 1. Raises Degenerate on no or only zero
    generators and PreconditionFailed when gcd(l, m) > 1; whether the
    quotients generate Lambda is left to the caller.
    """
    if not generators:
        raise Degenerate("no generators")
    m = generators[0].m
    if all(gx.is_zero() for gx in generators):
        raise Degenerate("all generators are zero")
    l = 0
    for gx in generators:
        l = math.gcd(l, gx.aug())
    if math.gcd(l, m) != 1:
        raise PreconditionFailed(_NOT_WHOLE)
    data = _norm_data(m, l)
    return data, [data.divide(gx) for gx in generators]


@functools.lru_cache(maxsize=64, typed=True)
def _norm_data(m: int, l: int) -> NormData:
    """_normalize's NormData for gcd(l, m) = 1, built and verified once per (m, l).

    A bad modulus raises, and nothing is cached.
    """
    u = GroupRingElement.geometric(m, l)
    b = (-pow(l, -1, m)) % m
    a = (1 + b * l) // m
    assert a * m - b * l == 1
    c = [0] * m
    for j in range(b):
        c[(1 + j * l) % m] -= 1
    data = NormData(u=u, v=_trusted(m, tuple(c)), l=l, a=a, b=b)
    assert data.verify()
    return data


def nearest_bezout_pair(
    x1: GroupRingElement,
    x2: GroupRingElement,
    p: GroupRingElement,
    q: GroupRingElement,
) -> tuple[GroupRingElement, GroupRingElement]:
    """The Bezout pair of (x1, x2) that Babai round-off picks from (p, q).

    Given p*x1 + q*x2 = 1, every pair with that property is
    (p, q) - beta*(x2, -x1) for a beta in Lambda: if b1*x1 + b2*x2 = 0
    then b1 = x2*t and b2 = -x1*t with t = q*b1 - p*b2. In the coefficient
    inner product, the shifts gen^k*(x2, -x1) have as Gram matrix the
    circulant of N = x1*conj(x1) + x2*conj(x2), and (p, q) pairs with them
    as w = p*conj(x2) - q*conj(x1). So the real z with N*z = w gives the
    nearest point of the syzygy span, and beta = floor(z + 1/2),
    coefficientwise, is Babai's round-off (Combinatorica 6, 1986). N(zeta)
    = |x1(zeta)|^2 + |x2(zeta)|^2 > 0 at every m-th root of unity, so
    mult_matrix(N) is positive definite and one fraction-free solve gives
    z = y/d with d > 0. Another Bezout pair of (x1, x2) moves z by an
    element of Lambda and beta by the same, so the result depends on (x1, x2) alone,
    and reducing it again changes nothing.
    """
    m = x1.m
    c1, c2 = x1.coeffs, x2.coeffs
    n = _dot_coeffs(m, ((c1, _conj_coeffs(c1)), (c2, _conj_coeffs(c2))))
    w = _dot_coeffs(m, ((p.coeffs, _conj_coeffs(c2)), ((-q).coeffs, _conj_coeffs(c1))))
    d, y = cramer_solve(mult_matrix(_trusted(m, n)), w)
    beta = _trusted(m, tuple([(2 * c + d) // (2 * d) for c in y]))
    return p - beta * x2, q + beta * x1


def divide_by_one_minus_gen(x: GroupRingElement) -> GroupRingElement:
    """The quotient q of x by 1 - gen with q_0 = 0, as a prefix sum.

    (1 - gen)*q = x reads x_k = q_k - q_(k-1), solvable iff aug(x) = 0.
    The solutions differ by multiples of s, and q_0 = 0 picks the same
    canonical representative as exact_divide.
    """
    if x.aug() != 0:
        raise NotDivisible(
            f"a {x.bits()}-bit element of nonzero augmentation is not a multiple of 1 - gen"
        )
    return _trusted(x.m, (0,) + tuple(accumulate(x.coeffs[1:])))
