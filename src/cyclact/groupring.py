"""Exact arithmetic in the integral group ring of a finite cyclic group.

An element of Z[Z/m] is stored as a dense length-m vector of Python ints,
coefficient i belonging to gen^i. Multiplication is cyclic convolution, the
involution sends gen^i to gen^(m-i), and the augmentation sums coefficients.
The norm element s = 1 + gen + ... + gen^(m-1) satisfies x*s = aug(x)*s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import Degenerate, ModulusMismatch, NotDivisible, PreconditionFailed
from .intlattice import ZLattice, det_int


class GroupRingElement:
    """Immutable element of Z[Z/m] with arbitrary-precision coefficients."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Sequence[int]):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        if len(coeffs) != m:
            raise ValueError("coefficient vector must have length m")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "GroupRingElement":
        return GroupRingElement(m, [0] * m)

    @staticmethod
    def one(m: int) -> "GroupRingElement":
        return GroupRingElement(m, [1] + [0] * (m - 1))

    @staticmethod
    def gen(m: int, power: int = 1) -> "GroupRingElement":
        """gen^power, the group generator raised to a power."""
        c = [0] * m
        c[power % m] = 1
        return GroupRingElement(m, c)

    @staticmethod
    def norm(m: int) -> "GroupRingElement":
        """The norm element s = 1 + gen + ... + gen^(m-1)."""
        return GroupRingElement(m, [1] * m)

    @staticmethod
    def integer(m: int, n: int) -> "GroupRingElement":
        c = [0] * m
        c[0] = n
        return GroupRingElement(m, c)

    @staticmethod
    def geometric(m: int, l: int) -> "GroupRingElement":
        """1 + gen + ... + gen^(l-1) for l >= 0, folded modulo gen^m = 1."""
        if l < 0:
            raise ValueError("geometric length must be nonnegative")
        q, r = divmod(l, m)
        return GroupRingElement(m, [q + (i < r) for i in range(m)])

    # ring structure -------------------------------------------------------

    def _require_same(self, other: "GroupRingElement") -> None:
        if self.m != other.m:
            raise ModulusMismatch(f"m={self.m} vs m={other.m}")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._require_same(other)
        return GroupRingElement(
            self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._require_same(other)
        return GroupRingElement(
            self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.m, [other * a for a in self.coeffs])
        self._require_same(other)
        m = self.m
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % m] += a * b
        return GroupRingElement(m, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def conj(self) -> "GroupRingElement":
        """Involution: coefficient at i moves to (m - i) mod m."""
        m = self.m
        out = [0] * m
        for i, a in enumerate(self.coeffs):
            out[(m - i) % m] = a
        return GroupRingElement(m, out)

    def shift(self, j: int) -> "GroupRingElement":
        """Multiplication by gen^j."""
        m = self.m
        j %= m
        return GroupRingElement(m, self.coeffs[m - j :] + self.coeffs[: m - j])

    def aug(self) -> int:
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_symmetric(self) -> bool:
        return self.conj() == self

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
        return GroupRingElement(int(obj["m"]), [int(c) for c in obj["coeffs"]])


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
        raise NotDivisible(f"{x!r} is not a multiple of {d!r}")
    kernel = lat.kernel()
    if kernel:
        q = ZLattice(kernel, m).reduce(q)
        return DivisionResult(GroupRingElement(m, q), True)
    return DivisionResult(GroupRingElement(m, q), False)


class UnitCheck(NamedTuple):
    is_unit: bool
    inverse: Optional[GroupRingElement]


def is_unit(x: GroupRingElement) -> UnitCheck:
    """Unit test: determinant of the multiplication matrix equals +-1."""
    if det_int(mult_matrix(x)) not in (1, -1):
        return UnitCheck(False, None)
    inv = exact_divide(GroupRingElement.one(x.m), x).quotient
    return UnitCheck(True, inv)


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
    return ParameterClass(kind, GroupRingElement(m, c))


@dataclass(frozen=True)
class NormData:
    """Output of ideal normalization.

    u = 1 + gen + ... + gen^(l-1) generates the ideal; gcd(l, m) = 1;
    a*m - b*l = 1 with b > 0; and u*v = 1 - a*s with
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
        if math.gcd(self.l, m) != 1 or self.b <= 0:
            return False
        if self.a * m - self.b * self.l != 1:
            return False
        if self.u != GroupRingElement.geometric(m, self.l):
            return False
        one = GroupRingElement.one(m)
        s = GroupRingElement.norm(m)
        return self.u * self.v == one - self.a * s

    def positive_variant(self, parity: Optional[int] = None) -> tuple[GroupRingElement, int, int]:
        """The companion identity u*v2 + a2*s = 1 with b2*l + a2*m = 1, b2 > 0.

        v2 = 1 + gen^l + ... + gen^((b2-1)l) and aug(v2) = b2. For odd m the
        optional parity (0 or 1) selects b2's parity via b2 -> b2 + m; for
        even m the parity of b2 is forced.
        """
        m = self.m
        b2 = pow(self.l, -1, m)
        if b2 == 0:
            b2 = m
        if parity is not None:
            if m % 2 == 0:
                if b2 % 2 != parity:
                    raise ValueError("parity of b2 is forced when m is even")
            elif b2 % 2 != parity % 2:
                b2 += m
        a2 = (1 - b2 * self.l) // m
        assert b2 * self.l + a2 * m == 1
        c = [0] * m
        for j in range(b2):
            c[(j * self.l) % m] += 1
        v2 = GroupRingElement(m, c)
        return v2, a2, b2

    def to_json(self) -> dict:
        return {
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "l": self.l,
            "a": self.a,
            "b": self.b,
        }


def shift_lattice(elems: Sequence[GroupRingElement]) -> ZLattice:
    """Z-lattice of the ideal generated by elems: all gen-shifts as rows."""
    m = elems[0].m
    rows = []
    for e in elems:
        if e.m != m:
            raise ModulusMismatch(f"m={e.m} vs m={m}")
        for j in range(m):
            rows.append(list(e.shift(j).coeffs))
    return ZLattice(rows, m)


def ideal_express(
    elems: Sequence[GroupRingElement], target: GroupRingElement
) -> Optional[list[GroupRingElement]]:
    """Ring coefficients r_i with sum r_i * elems[i] = target, or None."""
    m = target.m
    combo = shift_lattice(elems).express(target.coeffs)
    if combo is None:
        return None
    return [GroupRingElement(m, combo[i * m : (i + 1) * m]) for i in range(len(elems))]


def ideal_contains_one(elems: Sequence[GroupRingElement]) -> bool:
    """True iff the ideal generated by elems is the whole ring."""
    m = elems[0].m
    one = [1] + [0] * (m - 1)
    return shift_lattice(elems).contains(one)


def ideal_normalize(generators: Sequence[GroupRingElement]) -> NormData:
    """Normalize an ideal A with A + (s) = Lambda to its principal form.

    Returns NormData (u, l, v, a, b): l is the positive generator of aug(A),
    u = 1 + gen + ... + gen^(l-1) satisfies u*Lambda = A (verified by
    two-sided lattice inclusion), and u*v = 1 - a*s.
    """
    if not generators:
        raise Degenerate("no generators")
    m = generators[0].m
    if all(gx.is_zero() for gx in generators):
        raise Degenerate("all generators are zero")
    lat_a = shift_lattice(generators)
    s = GroupRingElement.norm(m)
    one = [1] + [0] * (m - 1)
    with_s = ZLattice(lat_a.gens + [list(s.coeffs)], m)
    if not with_s.contains(one):
        raise PreconditionFailed("ideal plus the norm ideal is not the whole ring")
    l = 0
    for gx in generators:
        l = math.gcd(l, gx.aug())
    # the precondition forces gcd(l, m) = 1, hence l > 0
    assert l > 0 and math.gcd(l, m) == 1
    u = GroupRingElement.geometric(m, l)
    lat_u = shift_lattice([u])
    if not lat_u.same_lattice(lat_a):
        raise PreconditionFailed("normalized generator does not span the ideal")
    b = (-pow(l, -1, m)) % m
    if b == 0:
        b = m
    a = (1 + b * l) // m
    assert a * m - b * l == 1
    c = [0] * m
    for j in range(b):
        c[(1 + j * l) % m] -= 1
    v = GroupRingElement(m, c)
    data = NormData(u=u, v=v, l=l, a=a, b=b)
    assert data.verify()
    return data
