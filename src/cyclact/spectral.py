"""Mod-2 cohomology of K(Z/m,1), Steenrod squares, and the 6-line check.

For even m the mod-2 cohomology ring is polynomial Z/2[x] with |x| = 1
when m = 2 (mod 4), and Z/2[x,y]/(x^2) with |x| = 1, |y| = 2 and
Sq^1 y = 0 when m = 0 (mod 4). Every graded piece is at most
one-dimensional, so classes are sums of monomials with mod-2
coefficients. The spectral bookkeeping fills E^2_{p,q} = H_p(K(Z/m,1);
Omega^spin_q) for p+q <= 8 and decides the 6-line, recording for every
step whether it was computed here or cited from the literature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import BadIndex, OddModulus, PreconditionFailed, require_int, value_text

# Spin bordism coefficients Omega^spin_q for q = 0..8:
# Z, Z/2, Z/2, 0, Z, 0, 0, 0, Z^2 (Milnor 1965; Anderson-Brown-Peterson).
# Group descriptors list cyclic orders, with 0 standing for Z.
OMEGA_SPIN: tuple[tuple[int, ...], ...] = (
    (0,),
    (2,),
    (2,),
    (),
    (0,),
    (),
    (),
    (),
    (0, 0),
)

COMPUTED = "COMPUTED"
PAPER_CITED = "PAPER_CITED"


class RingCase(enum.Enum):
    POLY = "POLY"
    TRUNC = "TRUNC"


def ring_case(m: int) -> RingCase:
    require_int("m", m)
    if m % 2 == 1:
        raise OddModulus("mod-2 cohomology ring shortcut needs even m")
    return RingCase.POLY if m % 4 == 2 else RingCase.TRUNC


@dataclass(frozen=True)
class CohomologyClass:
    """Homogeneous mod-2 class, a set of monomials x^i y^j."""

    m: int
    case: RingCase
    terms: frozenset

    def __post_init__(self):
        if ring_case(self.m) is not self.case:
            raise PreconditionFailed("ring case does not match the modulus")
        if not isinstance(self.terms, frozenset):
            raise PreconditionFailed(f"terms must be a frozenset, got {value_text(self.terms)}")
        degs = set()
        for term in self.terms:
            if type(term) is not tuple or len(term) != 2:
                raise PreconditionFailed(
                    f"a term must be a pair of exponents, got {value_text(term)}"
                )
            i, j = term
            require_int("an exponent", i)
            require_int("an exponent", j)
            if i < 0 or j < 0:
                raise PreconditionFailed("negative exponent")
            if self.case is RingCase.POLY and j != 0:
                raise PreconditionFailed("POLY classes use only x")
            if self.case is RingCase.TRUNC and i > 1:
                raise PreconditionFailed("x^2 = 0 in TRUNC")
            degs.add(i + 2 * j)
        if len(degs) > 1:
            raise PreconditionFailed("class is not homogeneous")

    @property
    def degree(self) -> Optional[int]:
        for i, j in self.terms:
            return i + 2 * j
        return None

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def zero(m: int) -> "CohomologyClass":
        return CohomologyClass(m, ring_case(m), frozenset())

    @staticmethod
    def monomial(m: int, i: int, j: int = 0) -> "CohomologyClass":
        return CohomologyClass(m, ring_case(m), frozenset([(i, j)]))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if self.m != other.m:
            raise PreconditionFailed("moduli differ")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise PreconditionFailed("cannot add classes of different degrees")
        return CohomologyClass(self.m, self.case, self.terms ^ other.terms)

    def __mul__(self, other: "CohomologyClass") -> "CohomologyClass":
        if self.m != other.m:
            raise PreconditionFailed("moduli differ")
        acc: set = set()
        for i1, j1 in self.terms:
            for i2, j2 in other.terms:
                i, j = i1 + i2, j1 + j2
                if self.case is RingCase.TRUNC and i > 1:
                    continue
                key = (i, j)
                if key in acc:
                    acc.remove(key)
                else:
                    acc.add(key)
        return CohomologyClass(self.m, self.case, frozenset(acc))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"

        def mono(i, j):
            parts = []
            if i == 1:
                parts.append("x")
            elif i > 1:
                parts.append(f"x^{i}")
            if j == 1:
                parts.append("y")
            elif j > 1:
                parts.append(f"y^{j}")
            return "*".join(parts) if parts else "1"

        return " + ".join(mono(i, j) for i, j in sorted(self.terms))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "case": self.case.value,
            "terms": sorted([i, j] for i, j in self.terms),
        }


def parse_class(m: int, text: str) -> CohomologyClass:
    """Parse monomial sums like "x^3", "x*y^2", "xy^2", "1", "0".

    "" and "0" are the zero class. A leading, trailing or doubled "+"
    leaves an empty monomial, and a leading, trailing or doubled "*" an
    empty factor; both raise BadIndex. text must be a str.
    """
    if not isinstance(text, str):
        raise PreconditionFailed(f"a class must be a string, got {value_text(text)}")
    text = text.replace(" ", "")
    if text in ("0", ""):
        return CohomologyClass.zero(m)
    parts = text.split("+")
    if "" in parts:
        raise BadIndex(f"an empty monomial in a {len(text)}-character class")
    total = CohomologyClass.zero(m)
    for part in parts:
        factors = part.split("*")
        if "" in factors:
            raise BadIndex(f"an empty factor in a {len(part)}-character monomial")
        i = j = 0
        for chunk in factors:
            pos = 0
            while pos < len(chunk):
                var = chunk[pos]
                if var not in ("x", "y", "1"):
                    raise BadIndex(f"cannot parse a {len(part)}-character monomial")
                pos += 1
                exp = 1
                if pos < len(chunk) and chunk[pos] == "^":
                    pos += 1
                    start = pos
                    while pos < len(chunk) and chunk[pos].isdigit():
                        pos += 1
                    if start == pos:
                        raise BadIndex(f"no exponent after '^' in a {len(part)}-character monomial")
                    try:
                        exp = int(chunk[start:pos])
                    except ValueError:  # past the digit limit, or not ASCII digits
                        raise BadIndex(f"cannot parse a {pos - start}-digit exponent") from None
                if var == "x":
                    i += exp
                elif var == "y":
                    j += exp
        total = total + CohomologyClass.monomial(m, i, j)
    return total


def cohomology_basis(m: int, degree: int) -> list[CohomologyClass]:
    """Monomial basis of H^degree(K(Z/m,1); Z/2) for even m."""
    case = ring_case(m)
    require_int("degree", degree)
    if degree < 0:
        raise PreconditionFailed("degree must be nonnegative")
    if case is RingCase.POLY:
        return [CohomologyClass.monomial(m, degree, 0)]
    if degree % 2 == 0:
        return [CohomologyClass.monomial(m, 0, degree // 2)]
    return [CohomologyClass.monomial(m, 1, (degree - 1) // 2)]


def steenrod_square(k: int, c: CohomologyClass) -> CohomologyClass:
    """Degree-k component of the total square, by the Cartan formula.

    Generator values: Sq(x) = x + x^2 (the square vanishes in TRUNC) and
    Sq(y) = y + y^2, so Sq^1 y = 0 holds by construction. The Cartan
    formula gives Sq^k x^i = C(i, k) x^(i+k), and by Lucas's theorem C(n, k)
    is odd iff the bits of k lie within those of n.
    """
    require_int("k", k)
    if k < 0:
        raise PreconditionFailed("k must be nonnegative")
    if not isinstance(c, CohomologyClass):
        raise PreconditionFailed(f"a class must be a CohomologyClass, got {value_text(c)}")
    out = CohomologyClass.zero(c.m)
    for i, j in c.terms:
        if c.case is RingCase.POLY:
            if k & ~i == 0:
                out = out + CohomologyClass.monomial(c.m, i + k, 0)
        else:
            if k % 2 == 0 and (k // 2) & ~j == 0:
                out = out + CohomologyClass.monomial(c.m, i, j + k // 2)
    return out


def w2_class(m: int) -> CohomologyClass:
    """The nonzero degree-2 class: x^2 in POLY, y in TRUNC."""
    if ring_case(m) is RingCase.POLY:
        return CohomologyClass.monomial(m, 2, 0)
    return CohomologyClass.monomial(m, 0, 1)


def d2_rank(m: int, p: int, twisted: bool = False) -> int:
    """Rank over Z/2 of Sq^2 (+ w2 cup when twisted): H^{p-2} -> H^p."""
    require_int("p", p)
    if p < 2:
        raise PreconditionFailed("p must be at least 2")
    ring_case(m)  # raises OddModulus for odd m
    (c,) = cohomology_basis(m, p - 2)
    image = steenrod_square(2, c)
    if twisted:
        image = image + w2_class(m) * c
    return 0 if image.is_zero() else 1


def e2_entry(m: int, p: int, q: int) -> tuple[int, ...]:
    """E^2_{p,q} = H_p(K(Z/m,1); Omega^spin_q) as a cyclic-order descriptor, 0 meaning Z.

    Each coefficient summand is Z or Z/2. H_p(K(Z/m,1); Z) is Z for p = 0,
    Z/m for odd p and 0 otherwise; H_p(K(Z/m,1); Z/2) is Z/2 for p = 0 or
    even m and 0 otherwise.
    """
    if q < 0 or q > 8 or p < 0:
        return ()
    desc: list[int] = []
    for order in OMEGA_SPIN[q]:
        if order == 2:
            if p == 0 or m % 2 == 0:
                desc.append(2)
        elif p == 0:
            desc.append(0)
        elif p % 2 == 1:
            desc.append(m)
    return tuple(desc)


@dataclass(frozen=True)
class Differential:
    source: tuple[int, int]
    target: tuple[int, int]
    rank: int
    provenance: str
    justification: str = ""

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "rank": self.rank,
            "provenance": self.provenance,
            "justification": self.justification,
        }


@dataclass(frozen=True)
class SpectralPage:
    page_index: int
    entries: dict
    differentials: tuple[Differential, ...]

    def entry(self, p: int, q: int) -> tuple[int, ...]:
        return self.entries.get((p, q), ())

    def to_json(self) -> dict:
        return {
            "pageIndex": self.page_index,
            "entries": {
                f"{p},{q}": list(desc) for (p, q), desc in sorted(self.entries.items())
            },
            "differentials": [d.to_json() for d in self.differentials],
        }


def _d2_differentials(m: int, twisted: bool) -> list[Differential]:
    """The d2 arrows with computable rank that touch the 6- and 7-lines."""
    if m % 2 == 1:
        return []
    out = []
    for (p, q) in [(7, 0), (6, 1), (5, 1), (4, 2), (6, 0), (5, 2)]:
        src = e2_entry(m, p, q)
        tgt = e2_entry(m, p - 2, q + 1)
        if not src or not tgt:
            rank = 0
        elif q in (0, 1):
            # mod-2 reduction is onto for even m, so the rank is the
            # rank of the dual squaring operation
            rank = d2_rank(m, p, twisted)
        else:
            rank = 0
        out.append(Differential((p, q), (p - 2, q + 1), rank, COMPUTED))
    return out


def e2_page(m: int, twisted: bool = False) -> SpectralPage:
    """E^2 of the spin-bordism spectral sequence for K(Z/m,1), p+q <= 8.

    The twisted flag does not change the entries, only which d2 ranks are
    recorded. For odd m the twisting class is trivial, so twisted input
    is accepted and coincides with the untwisted page.
    """
    require_int("m", m)
    if m < 2:
        raise PreconditionFailed("m must be at least 2")
    entries = {}
    for total in range(9):
        for p in range(total + 1):
            q = total - p
            entries[(p, q)] = e2_entry(m, p, q)
    return SpectralPage(2, entries, tuple(_d2_differentials(m, twisted)))


_SIX_LINE = [(p, 6 - p) for p in range(7)]


def _z2_dim(desc: tuple[int, ...]) -> int:
    if desc == ():
        return 0
    if desc == (2,):
        return 1
    raise PreconditionFailed(f"entry {desc} is not an elementary 2-group")


@dataclass(frozen=True)
class SpinLineReport:
    m: int
    twisted: bool
    e2_line: dict
    e3_line: dict
    steps: tuple[dict, ...]
    conclusion_zero: bool
    bibliography: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "twisted": self.twisted,
            "e2Line": {f"{p},{q}": list(d) for (p, q), d in sorted(self.e2_line.items())},
            "e3Line": {f"{p},{q}": list(d) for (p, q), d in sorted(self.e3_line.items())},
            "steps": list(self.steps),
            "conclusion": "zero" if self.conclusion_zero else "undetermined",
            "bibliography": list(self.bibliography),
        }


_BIBLIOGRAPHY = (
    "Spin bordism coefficients through degree 8: Z, Z/2, Z/2, 0, Z, 0, 0, 0, "
    "Z^2 (Milnor, Spin structures on manifolds; Anderson-Brown-Peterson).",
    "Pin^- bordism vanishes in degree 5 (Anderson-Brown-Peterson); recorded "
    "for reference only, unused by this computation.",
)

_D3_JUSTIFICATION = (
    "For m = 2 the circle bundle argument applies: RP^7 bounds no spin class "
    "at (4,2) because RP^7 is spin, so d3: E^3_{4,2} -> E^3_{1,4} = Z/m is "
    "nontrivial; naturality of the map induced by Z/2 -> Z/m (entry (4,2) "
    "compares isomorphically, entry (1,4) injects) carries nontriviality to "
    "every even m."
)


def _step(entry, action: str, rank, provenance: str, justification: str) -> dict:
    """One record of SpinLineReport.steps, its keys in document order."""
    return {
        "entry": entry,
        "action": action,
        "rank": rank,
        "provenance": provenance,
        "justification": justification,
    }


def spin_line_report(m: int, twisted: bool = False) -> SpinLineReport:
    """Decide the p+q = 6 line, labeling every step with its provenance."""
    page = e2_page(m, twisted)
    line = {pq: page.entry(*pq) for pq in _SIX_LINE}

    if m % 2 == 1:
        step = _step(
            None,
            "odd modulus: every entry on the line is already zero",
            None,
            COMPUTED,
            "mod-2 homology of an odd-order cyclic group vanishes in positive "
            "degrees and the remaining coefficients are zero in the relevant columns",
        )
        return SpinLineReport(m, twisted, line, dict(line), (step,), True, _BIBLIOGRAPHY)

    d2_why = "rank of the dual squaring operation" + (
        " with twisting correction" if twisted else ""
    )
    d2 = {d.source: d.rank for d in page.differentials}
    steps: list[dict] = []
    e3 = {}
    survivors = []
    for (p, q) in _SIX_LINE:
        dim = _z2_dim(line[(p, q)])
        if dim == 0:
            e3[(p, q)] = ()
            continue
        out_rank = d2.get((p, q), 0)
        in_rank = d2.get((p + 2, q - 1), 0)
        remaining = dim - out_rank - in_rank
        if out_rank:
            kill = (f"killed by outgoing d2 to {(p - 2, q + 1)}", out_rank)
        elif in_rank and remaining <= 0:
            kill = (f"killed by incoming d2 from {(p + 2, q - 1)}", in_rank)
        else:
            kill = None
        if kill:
            steps.append(_step([p, q], *kill, COMPUTED, d2_why))
        if remaining > 0:
            e3[(p, q)] = (2,)
            survivors.append((p, q))
        else:
            e3[(p, q)] = ()

    conclusion = True
    for (p, q) in survivors:
        if (p, q) == (4, 2):
            action = f"killed by d3 to (1, 4) = {list(page.entry(1, 4))}"
            steps.append(_step([4, 2], action, 1, PAPER_CITED, _D3_JUSTIFICATION))
        else:
            conclusion = False
            steps.append(_step(
                [p, q], "no differential available", 0, COMPUTED,
                "entry survives the recorded pages",
            ))
    return SpinLineReport(m, twisted, line, e3, tuple(steps), conclusion, _BIBLIOGRAPHY)
