"""Census of free cyclic symmetries on connected sums of sphere products.

Existence of a free Z/m-symmetry on the g-fold connected sum of
S^n x S^n is an Euler-characteristic divisibility condition. When it
holds, the classification below counts conjugacy classes and names
explicit quotient models, with a guard constant C(n) restricting the
prime factors of m in the high-dimensional range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import OutOfTable, PreconditionFailed, require_int, value_text

TOPOLOGICAL = "TOPOLOGICAL"
SMOOTH = "SMOOTH"
OUT_OF_RANGE = "OUT_OF_RANGE"

# Smallest admissible prime bound per dimension; no value is known
# outside this range.
_C_TABLE = {4: 3, 5: 3, 6: 3, 7: 3, 8: 5, 9: 5}


def c_of_n(n: int) -> int:
    """Guard constant C(n): primes dividing m must exceed it for n >= 4."""
    require_int("n", n)
    if n not in _C_TABLE:
        raise OutOfTable(f"no guard constant tabulated for n = {n}")
    return _C_TABLE[n]


def _prime_factors(m: int) -> set:
    out = set()
    d, rest = 2, m
    while d * d <= rest:
        while rest % d == 0:
            out.add(d)
            rest //= d
        d += 1
    if rest > 1:
        out.add(rest)
    return out


@dataclass(frozen=True)
class ActionQuery:
    n: int
    m: int
    genus: int
    pontryagin: Optional[tuple] = None

    def __post_init__(self):
        for name in ("n", "m", "genus"):
            require_int(name, getattr(self, name))
        if self.n < 2:
            raise PreconditionFailed("n must be at least 2")
        if self.m < 2:
            raise PreconditionFailed("m must be at least 2")
        if self.genus < 0:
            raise PreconditionFailed("genus must be nonnegative")
        if self.pontryagin is not None:
            if not isinstance(self.pontryagin, (list, tuple)):
                raise PreconditionFailed(
                    f"pontryagin data must be a list or tuple, got {value_text(self.pontryagin)}"
                )
            object.__setattr__(self, "pontryagin", tuple(self.pontryagin))
            want = self.n // 4
            if len(self.pontryagin) != want:
                raise PreconditionFailed(
                    f"pontryagin data for n = {self.n} needs {want} residues"
                )
            for r in self.pontryagin:
                require_int("a pontryagin residue", r)


def euler_characteristic(q: ActionQuery) -> Fraction:
    """chi of the quotient: 2(1 + (-1)^n g)/m."""
    return Fraction(2 * (1 + (-1) ** q.n * q.genus), q.m)


def existence_check(q: ActionQuery) -> tuple[bool, str]:
    """A free symmetry exists iff m divides g + (-1)^n."""
    sign = (-1) ** q.n
    value = q.genus + sign
    chi = euler_characteristic(q)
    if value % q.m == 0:
        return True, (
            f"g + (-1)^n = {value} is divisible by m = {q.m}; "
            f"quotient Euler characteristic {chi} is an even integer"
        )
    return False, (
        f"g + (-1)^n = {value} is not divisible by m = {q.m}; "
        f"the putative quotient Euler characteristic {chi} is not an integer"
    )


@dataclass(frozen=True)
class CensusReport:
    query: ActionQuery
    exists: bool
    reason: str
    class_count: Optional[int] = None
    parameterization: Optional[str] = None
    conjugation_kind: Optional[str] = None
    quotient_descriptors: tuple = ()
    realizable_module: Optional[str] = None
    euler_char: Optional[int] = None
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "query": {
                "n": self.query.n,
                "m": self.query.m,
                "genus": self.query.genus,
                "pontryagin": list(self.query.pontryagin)
                if self.query.pontryagin is not None
                else None,
            },
            "exists": self.exists,
            "reason": self.reason,
            "classCount": self.class_count,
            "parameterization": self.parameterization,
            "conjugationKind": self.conjugation_kind,
            "quotientDescriptors": list(self.quotient_descriptors),
            "realizableModule": self.realizable_module,
            "eulerChar": self.euler_char,
            "notes": list(self.notes),
        }


def _realizable_module(n: int) -> str:
    # middle homology as a module over the group ring: two rank-one
    # summands plus a free part of rank 2r
    if n % 2 == 1:
        return "Z^2 (+) Z[Z/m]^(2r)"
    return "I^2 (+) Z[Z/m]^(2r)"


def _bundle_descriptor(n: int, m: int, genus: int, pontryagin) -> str:
    if pontryagin:
        params = ", ".join(f"p{idx + 1}={r}" for idx, r in enumerate(pontryagin))
        xi = f"xi({params})"
    else:
        xi = "xi"
    if n % 2 == 1:
        k = (genus - 1) // m
        return f"S({xi}) # {k}(S^{n} x S^{n}) # (1/m) Sigma"
    k = (genus + 1) // m
    return f"N({xi}) # {k}(S^{n} x S^{n}) # (1/m) Sigma"


def classification(q: ActionQuery) -> CensusReport:
    """Count conjugacy classes of free symmetries and name quotient models."""
    exists, reason = existence_check(q)
    if not exists:
        return CensusReport(q, False, reason)
    chi = euler_characteristic(q)
    assert chi.denominator == 1 and chi.numerator % 2 == 0
    found = functools.partial(
        CensusReport, q, True, reason,
        realizable_module=_realizable_module(q.n), euler_char=int(chi),
    )

    if q.n == 2:
        return found(
            class_count=1,
            conjugation_kind=TOPOLOGICAL,
            notes=("smooth classification in dimension 2+2 remains open",),
        )

    if q.n == 3:
        k = (q.genus - 1) // q.m
        lens = f"(L^3_{q.m} x S^3) # {k}(S^3 x S^3)"
        if q.m % 2 == 1:
            return found(class_count=1, conjugation_kind=SMOOTH, quotient_descriptors=(lens,))
        return found(
            class_count=2,
            conjugation_kind=SMOOTH,
            quotient_descriptors=(lens, f"S(xi) # {k}(S^3 x S^3)"),
            notes=("the two classes are separated by the second "
                   "Stiefel-Whitney class of the quotient",),
        )

    try:
        bound = c_of_n(q.n)
    except OutOfTable as exc:
        return found(
            parameterization=OUT_OF_RANGE,
            notes=(f"{exc}; no classification is available here",),
        )

    small = sorted(p for p in _prime_factors(q.m) if p <= bound)
    if small:
        return found(
            parameterization=OUT_OF_RANGE,
            notes=(
                f"m has prime factor(s) {small} not exceeding C({q.n}) = "
                f"{bound}; outside the classified range",
            ),
        )

    r = q.n // 4
    return found(
        class_count=q.m ** r,
        parameterization=f"(Z/{q.m})^{r}",
        conjugation_kind=SMOOTH,
        quotient_descriptors=(_bundle_descriptor(q.n, q.m, q.genus, q.pontryagin),),
        notes=("descriptor instantiated at the supplied Pontryagin residues",)
        if q.pontryagin is not None else (),
    )
