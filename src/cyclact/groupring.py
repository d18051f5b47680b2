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
from operator import add, itemgetter, mul, neg, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    Degenerate,
    ModulusMismatch,
    NotDivisible,
    PreconditionFailed,
    require_type,
    value_text,
)
from . import intlattice
from .intlattice import ZLattice


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

    def __reduce__(self):
        """copy and pickle rebuild through the validating constructor."""
        return GroupRingElement, (self.m, self.coeffs)

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
            return _trusted(self.m, tuple([other * a for a in self.coeffs]))
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
        """Multiplication by gen^j, for an int j."""
        if type(j) is not int:
            raise PreconditionFailed(f"a power of gen must be an int, got {value_text(j)}")
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


def _require_element(x) -> None:
    require_type("an element", x, GroupRingElement)


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


# Moduli up to this cap take the straight-line kernels of _straight; larger
# ones take _dot_coeffs's window loop. 12 is the largest modulus whose
# products a benchmark workload times.
STRAIGHT_MAX_M = 12


def _dot_coeffs(m: int, pairs) -> tuple:
    """Coefficients of sum_k a_k * b_k from pairs of coefficient tuples.

    Every product in Z[Z/m] is computed here. A pair with a zero factor
    is dropped; no live pairs give zero. When exactly one pair is live,
    m >= 4 and one of its factors has a single nonzero coefficient (1,
    +-g^k, an integer), the sum is the other factor rotated and scaled; at
    m <= 3 the straight-line sum is cheaper than the test for it.
    Otherwise (a*b)_i = sum_j a_j * b_(i-j mod m). For m <= STRAIGHT_MAX_M
    the live pairs go, in chunks of at most 4, through _straight(m, k),
    one compiled function per (m, k) that writes each coefficient out as a
    literal sum, and the chunks' outputs are added. Above the cap, b_(i-j)
    for j = 0..m-1 is the window [m-1-i, 2m-1-i) of b doubled and
    reversed, so with A the live a_k joined and B_i their b_k's windows
    joined, coefficient i is one sum(map(mul, A, B_i)), its inner loop in C.
    """
    live = []
    for a, b in pairs:
        if any(a) and any(b):
            live.append((a, b))
    if not live:
        return (0,) * m
    if len(live) == 1 and m > 3:
        a, b = live[0]
        zeros, b_zeros = a.count(0), b.count(0)
        if zeros < b_zeros:
            a, b, zeros = b, a, b_zeros
        if zeros == m - 1:
            c = sum(a)  # a's one nonzero coefficient, at index i
            i = a.index(c)
            rotated = b[m - i :] + b[: m - i]
            return rotated if c == 1 else tuple([c * x for x in rotated])
    if m <= STRAIGHT_MAX_M:
        if len(live) <= 4:
            return _straight(m, len(live))(*live)
        sums = [
            _straight(m, len(chunk))(*chunk)
            for chunk in (live[s : s + 4] for s in range(0, len(live), 4))
        ]
        return tuple(map(sum, zip(*sums)))
    A = ()
    bs = []
    for a, b in live:
        A += a
        bs.append(b)
    rs = [(b + b)[::-1] for b in bs]
    out = []
    for lo in range(m - 1, -1, -1):
        hi = lo + m
        B = ()
        for r in rs:
            B += r[lo:hi]
        out.append(sum(map(mul, A, B)))
    return tuple(out)


@functools.lru_cache(maxsize=(STRAIGHT_MAX_M - 1) * 4)
def _straight(m: int, k: int):
    """f(p_0, ..., p_(k-1)) = the coefficients of sum_p a_p * b_p in Z[Z/m].

    Each p_p is a pair (a_p, b_p) of length-m coefficient tuples, unpacked
    into locals a{p}_{j} and b{p}_{j}; coefficient i is the literal sum of
    a{p}_{j} * b{p}_{(i-j) % m} over p < k and j < m, with no loop, slice
    or intermediate tuple. The source is built from the ints m and k alone,
    as dataclasses and namedtuple build theirs from field names, and is
    compiled once per (m, k). _dot_coeffs asks only for 2 <= m <=
    STRAIGHT_MAX_M and k <= 4, so its 11 * 4 = 44 functions all fit in the
    cache, and any other caller evicts rather than grows it.
    """
    names = [
        ([f"a{p}_{j}" for j in range(m)], [f"b{p}_{j}" for j in range(m)]) for p in range(k)
    ]
    lines = [f"def _dot_{m}x{k}({', '.join(f'p{p}' for p in range(k))}):"]
    for p, (a, b) in enumerate(names):
        lines.append(f"    ({', '.join(a)},), ({', '.join(b)},) = p{p}")
    lines.append("    return (")
    for i in range(m):
        terms = (f"{a[j]}*{b[(i - j) % m]}" for a, b in names for j in range(m))
        lines.append(f"        {' + '.join(terms)},")
    lines.append("    )")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<product kernel m={m} k={k}>", "exec"), namespace)
    return namespace[f"_dot_{m}x{k}"]


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
    _require_element(d)
    c = d.coeffs
    return [[c[i - j] for j in range(d.m)] for i in range(d.m)]


class DivisionResult(NamedTuple):
    quotient: GroupRingElement
    ambiguous: bool


def exact_divide(x: GroupRingElement, d: GroupRingElement) -> DivisionResult:
    """Solve d*q = x exactly over Z[Z/m].

    The m x m integer system over the multiplication matrix of d is solved via
    Hermite normal form. When d is a zero divisor and several q work, the
    returned quotient is the canonical representative of the solution coset
    (coordinates Hermite-reduced against the annihilator lattice) and the
    ambiguity flag is set. Operands that are not elements raise
    PreconditionFailed.
    """
    _require_element(x)
    _require_element(d)
    x._require_same(d)
    if d.is_zero():
        raise NotDivisible("division by zero")
    m = x.m
    lat = ZLattice(*_shift_rows([d]))
    q = lat.express(x.coeffs)
    if q is None:
        raise NotDivisible(
            f"a {x.bits()}-bit element is not a multiple of the {d.bits()}-bit divisor"
        )
    kernel = lat.kernel()
    if kernel:
        q = ZLattice(kernel, m).reduce(q)
        return DivisionResult(GroupRingElement(m, q), True)
    return DivisionResult(GroupRingElement(m, q), False)


class UnitCheck(NamedTuple):
    is_unit: bool
    inverse: Optional[GroupRingElement]


def _is_trivial_unit(c: tuple) -> bool:
    """True iff the coefficient tuple c is +-gen^k: one nonzero coefficient, +-1.

    The inverse of +-gen^k is its conjugate +-gen^(-k).
    """
    return c.count(0) == len(c) - 1 and (1 in c or -1 in c)


def is_unit(x: GroupRingElement) -> UnitCheck:
    """Unit test by one adjugate, after two screens.

    A trivial unit +-gen^k is answered directly with its inverse
    +-gen^(-k) (_is_trivial_unit). Augmentation is a ring map onto Z,
    so a unit has augmentation +-1 and anything else is rejected at once.
    Otherwise _adjugate's walk down the cyclotomic tower gives x*y = d with
    d = det mult(x), the norm of x; x is a unit iff d = +-1, and then d*y
    is its inverse. d = 0 means x is a zero divisor, so no unit. An x that
    is not an element raises PreconditionFailed.
    """
    _require_element(x)
    if _is_trivial_unit(x.coeffs):
        return UnitCheck(True, x.conj())
    if x.aug() not in (1, -1):
        return UnitCheck(False, None)
    d, y = _adjugate(x.coeffs)
    if d not in (1, -1):
        return UnitCheck(False, None)
    return UnitCheck(True, _trusted(x.m, tuple([d * c for c in y])))


def _adjugate(c: tuple) -> tuple[int, Optional[tuple]]:
    """(d, y) with c*y = d = det mult(c), or (0, None) for a zero divisor c.

    mult(c)'s eigenvalues are c(w) over the m-th roots of unity w, so d is
    the norm prod_w c(w); a zero divisor, and only one, has d = 0. When
    d != 0, y = d*c^-1 is the product of c's other conjugates, the one
    element with c*y = d; as mult(c)*mult(y) = d*I, mult(y) is
    adj(mult(c)). Both come from a walk down the tower of _tower(m), each
    level a ring automorphism of Z[Z/m] and a few ring products:

    - m = 2n. tau(t) = -t is an automorphism. w = c*tau(c) is tau-invariant,
      so it lies in Z[t^2] = Z[Z/n]: with c = E(t^2) + t*O(t^2),
      w = E^2 - t^2*O^2. Its conjugates pair those of c at w and -w, so
      det_m(c) = det_n(w), and y = tau(c)*w#(t^2), whose even and odd
      coefficients are E*w# and -O*w#.
    - m = p*n with p an odd prime prime to n. Z[Z/m] = R[h]/(h^p - 1) with
      R = Z[t^p] = Z[Z/n] and h = t^n. sigma: t -> t^K, K = g mod p for a
      primitive root g and K = 1 mod n, fixes R and sends h to h^g, so
      z = sigma(c)*...*sigma^(p-2)(c) (a doubling chain) gives w = c*z,
      the norm of c down to R[h]^sigma. w is sigma-invariant, so its
      coefficients w_j on h^j (in R) agree for j != 0, and
      w = N - k*s_h with N = w_0 - w_1, k = -w_1 and s_h = 1 + h + ... +
      h^(p-1). Setting h = 1 gives a^(p-1) = N + p*w_1 for the coset sums
      a of c over <h>, so k = (N - a^(p-1))/p. As c*s_h = a*s_h,
      c*(a*z + k*s_h) = a*N, whose conjugates over R are c's: det_m(c) =
      det_n(a*N), and y = (a*z + k*s_h)*(a*N)#. At n = 1 all of R's
      arithmetic is on ints.
    - m = p*n with p an odd prime dividing n, when every prime of m is
      repeated (9, 25, 27, 49, ..., and the 9 below 18 or 45). Z[Z/m] =
      R[t]/(t^p - u) is free over R = Z[u] = Z[Z/n], u = t^p, on 1, t,
      ..., t^(p-1), and multiplication by t^j has trace 0 over R unless
      p | j, so tr_R(x) = p*x_0 for the coefficients x_0 of x at
      multiples of p. Faddeev-LeVerrier (Le Verrier 1840; Faddeev and
      Sominsky 1949) then runs on elements: Y_1 = 1 and Y_(k+1) =
      c*Y_k - (p/k)*(c*Y_k)_0 for k < p. Each (p/k)*(c*Y_k)_0 is
      tr_R(c*Y_k)/k, the negative of a coefficient of c's characteristic
      polynomial over R; that polynomial has its coefficients in R, so
      every division is exact. By Cayley-Hamilton c*Y_p = N is the
      determinant of c over R (p is odd), so det_m(c) = det_n(N) and
      y = Y_p*N#(u), whose coefficients at r mod p are Y_p's there times
      N#.

    At m = 1, d = c_0 and y = 1. At any level, a zero divisor below means
    one above: (0, None).
    """
    m = len(c)
    if m == 1:
        return (c[0], (1,)) if c[0] else (0, None)
    step = _tower(m)
    n = step.n
    if step.p == 2:
        e, o = c[0::2], c[1::2]
        if n == 1:
            d = e[0] * e[0] - o[0] * o[0]
            return (d, (e[0], -o[0])) if d else (0, None)
        neg_o = tuple(map(neg, o))
        d, w_adj = _adjugate(_dot_coeffs(n, ((e, e), (neg_o[-1:] + neg_o[:-1], o))))
        if w_adj is None:
            return 0, None
        y = [0] * m
        y[0::2] = _dot_coeffs(n, ((e, w_adj),))
        y[1::2] = _dot_coeffs(n, ((neg_o, w_adj),))
        return d, tuple(y)
    if step.sigma is None:
        p = step.p
        y = (1,) + (0,) * (m - 1)
        for k in range(1, p):
            cy = list(_dot_coeffs(m, ((c, y),)))
            cy[0::p] = [x - p * x // k for x in cy[0::p]]
            y = tuple(cy)
        d, n_adj = _adjugate(_dot_coeffs(m, ((c, y),))[0::p])
        if n_adj is None:
            return 0, None
        out = [0] * m
        for r in range(p):
            out[r::p] = _dot_coeffs(n, ((y[r::p], n_adj),))
        return d, tuple(out)
    sigma, cosets = step.sigma, step.cosets
    s1 = z = sigma(c)
    for power in step.chain:
        z = _dot_coeffs(m, ((s1, sigma(z)),) if power is None else ((z, power(z)),))
    if n == 1:
        zc = _conj_coeffs(z)
        a, w0, w1 = sum(c), sum(map(mul, c, zc)), sum(map(mul, c, zc[-1:] + zc[:-1]))
        d = a * (w0 - w1)
        return (d, tuple([a * x - w1 for x in z])) if d else (0, None)
    a = tuple([sum(c[r::n]) for r in range(n)])
    w = _dot_coeffs(m, ((c, z),))
    w1 = tuple([w[(i + n) % m] for i in cosets])
    norm = tuple([w[i] - x for i, x in zip(cosets, w1)])
    d, r_adj = _adjugate(_dot_coeffs(n, ((a, norm),)))
    if r_adj is None:
        return 0, None
    ar = [0] * m
    for i, x in zip(cosets, _dot_coeffs(n, ((a, r_adj),))):
        ar[i] = x
    spread = _dot_coeffs(n, ((w1, r_adj),)) * step.p  # -c*s_h*r#, as c = -w1
    return d, tuple(map(sub, _dot_coeffs(m, ((tuple(ar), z),)), spread))


class _Split(NamedTuple):
    """One level of _adjugate's tower at modulus m = p*n, p prime.

    For an odd p prime to n: sigma(x) permutes x's coefficients as
    t -> t^K does; chain holds, for each step of the doubling chain that
    builds sigma(c)*...*sigma^(p-2)(c) from sigma(c), the permutation of
    sigma^k for a doubling z -> z*sigma^k(z), or None for an increment
    z -> sigma(c)*sigma(z); cosets[r] is the exponent that is r mod n and
    0 mod p, the image of R's generator power r. For p = 2, and for an
    odd p dividing n (the Faddeev-LeVerrier level), the other fields are
    empty.
    """

    p: int
    n: int
    sigma: Optional[Callable] = None
    chain: tuple = ()
    cosets: tuple = ()


@functools.lru_cache(maxsize=64, typed=True)
def _tower(m: int) -> _Split:
    """_adjugate's step at modulus m >= 2: halve an even m, else split off
    the least odd prime p with p || m, else, when every prime of m is
    repeated, take the least one down by Faddeev-LeVerrier. A bad m
    raises, and nothing is cached.
    """
    _check_modulus(m)
    if m % 2 == 0:
        return _Split(2, m // 2)
    factors = _factor(m)
    exact = [q for q, e in factors.items() if e == 1]
    if not exact:
        p = min(factors)
        return _Split(p, m // p)
    p = min(exact)
    n = m // p
    roots = _factor(p - 1)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in roots))
    k = 1 + n * ((g - 1) * pow(n, -1, p) % p)
    k_inv = pow(k, -1, m)

    def permutation(power: int) -> Callable:
        # sigma^power(x)_i = x_(i * K^-power)
        stride = pow(k_inv, power, m)
        return itemgetter(*[i * stride % m for i in range(m)])

    chain, power = [], 1
    for bit in bin(p - 2)[3:]:
        chain.append(permutation(power))
        power *= 2
        if bit == "1":
            chain.append(None)
            power += 1
    p_inv = pow(p, -1, n)
    cosets = tuple([r * p * p_inv % m for r in range(n)])
    return _Split(p, n, permutation(1), tuple(chain), cosets)


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of an int n >= 1, by trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            n //= q
            out[q] = out.get(q, 0) + 1
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
        if not isinstance(other, ParameterClass):
            return NotImplemented
        if self.kind is not other.kind:
            raise PreconditionFailed(
                f"cannot add a {self.kind.value} class and a {other.kind.value} class"
            )
        return param_reduce(self.rep + other.rep, self.kind)

    def to_json(self) -> dict:
        out = self.rep.to_json()
        out["kind"] = self.kind.value
        return out


def _check_kind(kind: FormParameterKind) -> None:
    if not isinstance(kind, FormParameterKind):
        raise PreconditionFailed(
            f"a form parameter kind must be a FormParameterKind, got {value_text(kind)}"
        )


def param_reduce(x: GroupRingElement, kind: FormParameterKind) -> ParameterClass:
    """Canonical class of x modulo the form parameter, in closed form.

    The parameter is spanned by gen^i + sign*gen^(m-i), with sign -1 for
    MINUS and +1 otherwise, together with 1 for TILDE. For each pair
    1 <= i < m-i the coefficient c_i folds into c_(m-i). TILDE sets c_0 to
    0 and PLUS to c_0 mod 2; both take c_(m/2) mod 2 for even m, while
    MINUS leaves c_0 and c_(m/2). The result is the Hermite-reduced coset
    representative. A kind that is not a FormParameterKind raises
    PreconditionFailed.
    """
    _check_kind(kind)
    return ParameterClass(kind, _trusted(x.m, _class_coeffs(x.m, kind, x.coeffs)))


def _class_coeffs(m: int, kind: FormParameterKind, c: tuple) -> tuple:
    """param_reduce's representative of the coefficient tuple c, unchecked; zero iff all zeros."""
    c = list(c)
    sign = 1 if kind is FormParameterKind.MINUS else -1
    for i in range(1, (m + 1) // 2):
        c[m - i] += sign * c[i]
        c[i] = 0
    if kind is not FormParameterKind.MINUS:
        c[0] = 0 if kind is FormParameterKind.TILDE else c[0] % 2
        if m % 2 == 0:
            c[m // 2] %= 2
    return tuple(c)


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
        """For ints l > 0, a and b, True iff the identities above hold.

        Any other l, a or b (a bool, a float, l <= 0) gives False before
        any arithmetic runs.
        """
        m = self.m
        if any(type(n) is not int for n in (self.l, self.a, self.b)) or self.l <= 0:
            return False
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
        u*q is checked against x. On tuples (_quotient), s is all ones, so
        a*k*s adds a*k to each coefficient of x*v.
        """
        _require_element(x)
        x._require_same(self.u)
        return _trusted(x.m, self._quotient(x.coeffs))

    def _quotient(self, c: tuple) -> tuple:
        """divide on the coefficient tuple c of an element of modulus m."""
        m = len(c)
        k, r = divmod(sum(c), self.l)
        if r == 0:
            ak = self.a * k
            q = tuple([x + ak for x in _dot_coeffs(m, ((c, self.v.coeffs),))])
            if _dot_coeffs(m, ((self.u.coeffs, q),)) == c:
                return q
        raise NotDivisible(f"a {_trusted(m, c).bits()}-bit element is not a multiple of u")

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


def _shift_rows(elems: Sequence[GroupRingElement]) -> tuple[list[tuple], int]:
    """(rows, m): all gen-shifts of elems, which span the Z-lattice of their ideal.

    Raises Degenerate on no generators, PreconditionFailed on one that is
    not an element and ModulusMismatch on mixed moduli.
    """
    if not elems:
        raise Degenerate("no generators")
    for e in elems:
        _require_element(e)
    m = elems[0].m
    rows = []
    for e in elems:
        if e.m != m:
            raise ModulusMismatch(f"m={e.m} vs m={m}")
        c = e.coeffs
        for j in range(m):
            rows.append(c[m - j :] + c[: m - j])
    return rows, m


def ideal_express(
    elems: Sequence[GroupRingElement], target: GroupRingElement
) -> Optional[list[GroupRingElement]]:
    """Ring coefficients r_i with sum r_i * elems[i] = target, or None."""
    _require_element(target)
    lattice, m = ZLattice(*_shift_rows(elems)), target.m
    if m != lattice.ncols:
        raise ModulusMismatch(f"target m={m} vs generators m={lattice.ncols}")
    combo = lattice.express(target.coeffs)
    if combo is None:
        return None
    return [_trusted(m, tuple(combo[i : i + m])) for i in range(0, len(combo), m)]


def ideal_contains_one(elems: Sequence[GroupRingElement]) -> bool:
    """True iff the ideal generated by elems is the whole ring.

    The ideal is shift-invariant, so it holds 1 iff its lattice is Z^m,
    whose Hermite form is the identity: m pivots, each equal to 1. One form
    without transform decides.
    """
    rows, m = _shift_rows(elems)
    h, _, pivots = intlattice.row_hnf_transform(rows, m, transform=False)
    return len(pivots) == m and all(h[i][i] == 1 for i in range(m))


_NOT_WHOLE = "ideal plus the norm ideal is not the whole ring"


def ideal_normalize(generators: Sequence[GroupRingElement]) -> NormData:
    """Normalize an ideal A with A + (s) = Lambda to its principal form.

    Returns NormData (u, l, v, a, b): l is the positive generator of aug(A),
    u = 1 + gen + ... + gen^(l-1) satisfies u*Lambda = A, and u*v = 1 - a*s.
    Raises PreconditionFailed when A + (s) is not Lambda.
    """
    data, quotients = _normalize(generators)
    if not ideal_contains_one([_trusted(data.m, q) for q in quotients]):
        raise PreconditionFailed(_NOT_WHOLE)
    return data


def _normalize(
    generators: Sequence[GroupRingElement],
) -> tuple[NormData, list[tuple]]:
    """ideal_normalize's data and the quotients generators[i] / u, unchecked.

    The quotients are coefficient tuples (NormData._quotient).
    A + (s) = Lambda holds iff gcd(l, m) = 1 and the quotients generate
    Lambda. When gcd(l, m) = 1, u*Lambda has index |det mult(u)| = l and
    lies in {x : l divides aug(x)}, of index l too, so the two agree and u
    divides every generator; the divisions are closed forms
    (NormData.divide). If the quotients generate Lambda, A = u*Lambda and
    1 = u*v + a*s lies in A + (s). Conversely A + (s) = Lambda forces
    A = u*Lambda; as u is not a zero divisor, u = u*t with t in the
    quotients' ideal gives t = 1. Raises Degenerate on no or only zero
    generators, ModulusMismatch on mixed moduli and PreconditionFailed when
    gcd(l, m) > 1; whether the quotients generate Lambda is left to the
    caller.
    """
    if not generators:
        raise Degenerate("no generators")
    for gx in generators:
        _require_element(gx)
        if gx.m != generators[0].m:
            raise ModulusMismatch(f"m={gx.m} vs m={generators[0].m}")
    m = generators[0].m
    if all(gx.is_zero() for gx in generators):
        raise Degenerate("all generators are zero")
    l = 0
    for gx in generators:
        l = math.gcd(l, gx.aug())
    if math.gcd(l, m) != 1:
        raise PreconditionFailed(_NOT_WHOLE)
    data = _norm_data(m, l)
    return data, [data._quotient(gx.coeffs) for gx in generators]


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


def _reduced_bezout_pair(c1: tuple, c2: tuple) -> Optional[tuple[tuple, tuple]]:
    """The Bezout pair of (x1, x2) that Babai round-off picks, or None if they do not generate Lambda.

    x1, x2 and the pair are coefficient tuples of one modulus.

    N = x1*conj(x1) + x2*conj(x2) vanishes at an m-th root of unity only
    where x1 and x2 both do, so D = det mult(N) = 0 means a proper ideal.
    Otherwise a starting pair (p, q) with p*x1 + q*x2 = 1 comes from a
    trivial unit quotient, as (x1^-1, 0) or (0, x2^-1), or from
    determinants: N*N# = D gives (conj(x1)*N#, conj(x2)*N#) for the integer
    D in the ideal, and each y = a*x1 + b*x2 that is not a zero divisor
    gives (a*y#, b*y#) for det mult(y). The integer extended gcd folds in
    y = x1, x2, x1 + x2 and x1 - x2 in turn until the gcd is 1. Only if it
    stays above 1 does one Hermite form with transform (ideal_express)
    decide, and None means the ideal is proper. The trivial-unit start is a
    shortcut: det mult(+-gen^k) = +-1, so the fold reaches gcd 1 there too,
    after one or two more adjugates. Each (det mult(y), y#) is one
    _adjugate: ring products down the cyclotomic tower, and no elimination.

    The round-off: every Bezout pair is (p, q) - beta*(x2, -x1) for a beta
    in Lambda, since b1*x1 + b2*x2 = 0 gives b1 = x2*t and b2 = -x1*t with
    t = q*b1 - p*b2. In the coefficient inner product, the shifts
    gen^k*(x2, -x1) have as Gram matrix the circulant of N, and (p, q)
    pairs with them as w = p*conj(x2) - q*conj(x1). So the real z with
    N*z = w gives the nearest point of the syzygy span, and
    beta = floor(z + 1/2), coefficientwise, is Babai's round-off
    (Combinatorica 6, 1986). N(zeta) = |x1(zeta)|^2 + |x2(zeta)|^2 > 0 at
    every m-th root of unity, so D > 0, and z = N#*w/D is one more
    product. Another starting pair moves z by an element of Lambda and
    beta by the same, so the result depends on (x1, x2) alone, and any
    start gives the same reduced pair (p - beta*x2, q + beta*x1).
    """
    m = len(c1)
    k1, k2 = _conj_coeffs(c1), _conj_coeffs(c2)
    d, n_adj = _adjugate(_dot_coeffs(m, ((c1, k1), (c2, k2))))
    if n_adj is None:
        return None
    zero = (0,) * m
    if _is_trivial_unit(c1):
        p, q = k1, zero
    elif _is_trivial_unit(c2):
        p, q = zero, k2
    else:
        g, p, q = d, _dot_coeffs(m, ((k1, n_adj),)), _dot_coeffs(m, ((k2, n_adj),))
        for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):  # y = a*x1 + b*x2
            if g == 1:
                break
            dy, y_adj = _adjugate(tuple([a * u + b * v for u, v in zip(c1, c2)]))
            if y_adj is not None:
                g, s, t = _xgcd(g, dy)
                p = tuple([s * u + t * a * v for u, v in zip(p, y_adj)])
                q = tuple([s * u + t * b * v for u, v in zip(q, y_adj)])
        if g != 1:
            pair = ideal_express([_trusted(m, c1), _trusted(m, c2)], GroupRingElement.one(m))
            if pair is None:
                return None
            p, q = pair[0].coeffs, pair[1].coeffs
    w = _dot_coeffs(m, ((p, k2), (tuple(map(neg, q)), k1)))
    beta = tuple([(2 * c + d) // (2 * d) for c in _dot_coeffs(m, ((n_adj, w),))])
    bx2, bx1 = _dot_coeffs(m, ((beta, c2),)), _dot_coeffs(m, ((beta, c1),))
    return tuple(map(sub, p, bx2)), tuple(map(add, q, bx1))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - k * s1, t1, t0 - k * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


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
