"""Lagrangian complements of standard rank-2 summands in H^2.

Inputs describe S = span(v_1, v_2) inside H^2_eps with v_1 = e_1 and
v_2 = a_1 e_1 + a_2 e_2 + c f_1 + b_2 f_2, where c = s (the norm element)
in the skew branches and c = 1 - g in the symmetric branch. Each solver
normalizes v_2 by recorded isometries, produces an explicit Lagrangian
complement U of S, pulls U back to the input coordinates, and certifies
the result independently via verify_lagrangian_complement.
"""

from __future__ import annotations

import enum
import functools
import math
import random
import time
from dataclasses import dataclass
from operator import add, neg
from typing import ClassVar, Optional, Sequence

from .errors import (
    AugmentationObstruction,
    Degenerate,
    DimensionMismatch,
    ModulusMismatch,
    PreconditionFailed,
    SearchExhausted,
    value_text,
)
from .forms import (
    ComplementCertificate,
    QuadraticModule,
    RingMatrix,
    RingVector,
    _coords,
    _eps_conj,
    _lift_coeffs,
    _matrix,
    _mu_class,
    _vector,
    isometry_check,
    isometry_inverse,
    transvection,
    verify_lagrangian_complement,
)
from .groupring import (
    FormParameterKind,
    GroupRingElement,
    NormData,
    _conj_coeffs,
    _dot_coeffs,
    _normalize,
    _trusted,
    divide_by_one_minus_gen,
    ideal_contains_one,
    ideal_express,
    nearest_bezout_pair,
    trivial_unit_inverse,
)


class Branch(enum.Enum):
    ODD_M_SKEW = "odd-m"
    EVEN_M_SKEW = "even-m"
    EVEN_N_SYM = "even-n"

    @staticmethod
    def from_cli(name: str) -> "Branch":
        for b in Branch:
            if b.value == name:
                return b
        raise PreconditionFailed(
            f"unknown branch: {value_text(name)}; expected odd-m, even-m or even-n"
        )


_BRANCH_FORM = {
    Branch.ODD_M_SKEW: (-1, FormParameterKind.TILDE),
    Branch.EVEN_M_SKEW: (-1, FormParameterKind.TILDE),
    Branch.EVEN_N_SYM: (1, FormParameterKind.MINUS),
}


_SKEW_NOT_UNIT = "a2, b2 and the norm element must generate the unit ideal"


def _skew_normalize(
    a2: GroupRingElement, b2: GroupRingElement
) -> tuple[NormData, list[GroupRingElement]]:
    """_normalize of (a2, b2), every failure reported as _SKEW_NOT_UNIT.

    (a2, b2) + (s) = Lambda, the skew branches' unit-ideal test, holds iff
    this succeeds and the quotients generate Lambda; a2 = b2 = 0 fails it
    as Degenerate.
    """
    try:
        return _normalize([a2, b2])
    except (Degenerate, PreconditionFailed):
        raise PreconditionFailed(_SKEW_NOT_UNIT) from None


def _check_modulus_parity(branch: Branch, m: int) -> None:
    if branch is Branch.ODD_M_SKEW and m % 2 == 0:
        raise PreconditionFailed("odd-m branch requires odd modulus")
    if branch is Branch.EVEN_M_SKEW and m % 2 == 1:
        raise PreconditionFailed("even-m branch requires even modulus")


@functools.lru_cache(maxsize=64, typed=True)
def _branch_module(m: int, branch: Branch) -> QuadraticModule:
    """The branch's rank-2 module, built once; a bad modulus raises and caches nothing."""
    eps, kind = _BRANCH_FORM[branch]
    return QuadraticModule(m, 2, eps, kind)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Coefficients of the standard embedded pair (v_1, v_2)."""

    m: int
    branch: Branch
    a1: GroupRingElement
    a2: GroupRingElement
    b2: GroupRingElement

    def __post_init__(self):
        for name in ("a1", "a2", "b2"):
            el = getattr(self, name)
            if not isinstance(el, GroupRingElement):
                raise PreconditionFailed(
                    f"{name} must be a group ring element, got {value_text(el)}"
                )
            if el.m != self.m:
                raise ModulusMismatch(f"{name} has m={el.m}, spec has m={self.m}")

    @property
    def f1_coefficient(self) -> GroupRingElement:
        if self.branch is Branch.EVEN_N_SYM:
            return GroupRingElement.one(self.m) - GroupRingElement.gen(self.m)
        return GroupRingElement.norm(self.m)

    def module(self) -> QuadraticModule:
        return _branch_module(self.m, self.branch)

    def vectors(self) -> tuple[RingVector, RingVector]:
        m, zero = self.m, GroupRingElement.zero(self.m)
        v1 = _vector(m, (GroupRingElement.one(m), zero, zero, zero))
        return v1, _vector(m, (self.a1, self.a2, self.f1_coefficient, self.b2))

    def validate(self) -> tuple[QuadraticModule, RingVector, RingVector]:
        """Check the branch invariants; raise PreconditionFailed otherwise."""
        Q, v1, v2, _ = self._check_before_ideal()
        if self.branch is not Branch.EVEN_N_SYM:
            _, quotients = _skew_normalize(self.a2, self.b2)
            if not ideal_contains_one(quotients):
                raise PreconditionFailed(_SKEW_NOT_UNIT)
        return Q, v1, v2

    def _check_before_ideal(
        self,
    ) -> tuple[QuadraticModule, RingVector, RingVector, Optional[GroupRingElement]]:
        """validate, up to the skew branches' unit-ideal test, and P = a2*conj(b2) if skew.

        The skew solver answers that test, in validate's order and with its
        message, from the Hermite form it builds for its Bezout pair.
        lambda(v2, v2) = L + eps*conj(L) with L = a1*conj(c) + P, c being
        v2's f1 coefficient. In the skew branches c = s and a1*s = aug(a1)*s
        is symmetric, so lambda(v2, v2) = P - conj(P) vanishes iff P is
        symmetric. In the even-n branch aug(c) = 0, so
        aug lambda(v2, v2) = 2*aug(a2)*aug(b2).
        """
        _check_modulus_parity(self.branch, self.m)
        Q = self.module()
        v1, v2 = self.vectors()
        if self.branch is Branch.EVEN_N_SYM:
            if self.a2.aug() * self.b2.aug() != 0:
                raise PreconditionFailed(
                    "augmentation of lambda(v2, v2) must vanish"
                )
            if self.a2.aug() == 0 and self.b2.aug() == 0:
                raise AugmentationObstruction(
                    "both coefficient augmentations vanish; no unit normalization"
                )
            # Lambda/(1 - g) = Z via aug, so (a2, b2, 1 - g) = Lambda iff gcd = 1
            if math.gcd(self.a2.aug(), self.b2.aug()) != 1:
                raise PreconditionFailed(
                    "a2, b2 and 1-g must generate the unit ideal"
                )
            return Q, v1, v2, None
        P = self.a2 * self.b2.conj()
        if P.conj() != P:
            raise PreconditionFailed("lambda(v2, v2) must vanish")
        return Q, v1, v2, P

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "branch": self.branch.value,
            "a1": self.a1.to_json(),
            "a2": self.a2.to_json(),
            "b2": self.b2.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "EmbeddingSpec":
        missing = [k for k in ("m", "branch", "a1", "a2", "b2") if k not in obj]
        if missing:
            raise PreconditionFailed(f"spec is missing {', '.join(missing)}")
        m = obj["m"]
        if type(m) is not int:
            raise PreconditionFailed(f"modulus must be an integer, got {value_text(m)}")

        def coerce(val) -> GroupRingElement:
            if isinstance(val, dict):
                return GroupRingElement.from_json(val)
            return GroupRingElement.from_json({"m": m, "coeffs": val})

        return EmbeddingSpec(
            m=m,
            branch=Branch.from_cli(obj["branch"]),
            a1=coerce(obj["a1"]),
            a2=coerce(obj["a2"]),
            b2=coerce(obj["b2"]),
        )


@dataclass(frozen=True)
class TraceStep:
    """One recorded ambient isometry, acting on vectors as v -> matrix * v.

    Every step the solvers record is ambient, so kind is a class constant;
    it stays in the trace JSON under "kind".
    """

    kind: ClassVar[str] = "ambient"
    name: str
    matrix: RingMatrix

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind, "matrix": self.matrix.to_json()}


@dataclass(frozen=True)
class SolverTrace:
    branch: Branch
    steps: tuple[TraceStep, ...]
    norm: Optional[NormData]
    normalized_S: tuple[RingVector, ...]
    U: tuple[RingVector, ...]
    certificate: ComplementCertificate

    def replay(self) -> bool:
        """Re-apply the recorded steps to the input S and compare."""
        vs = list(self.certificate.S)
        for step in self.steps:
            vs = [step.matrix * v for v in vs]
        return tuple(vs) == self.normalized_S

    def to_json(self) -> dict:
        return {
            "branch": self.branch.value,
            "steps": [s.to_json() for s in self.steps],
            "normData": self.norm.to_json() if self.norm is not None else None,
            # v2's e1 coefficient as h*s is not computed, as the complement
            # does not depend on it; the key stays, always null
            "h": None,
            "normalizedS": [v.to_json() for v in self.normalized_S],
            "U": [v.to_json() for v in self.U],
            "certificate": self.certificate.to_json(),
        }


def _embed_block(Q: QuadraticModule, M2: RingMatrix, pos: tuple[int, int]) -> RingMatrix:
    """Embed a 2x2 block of Q's modulus into the identity at the given coordinate slots."""
    rows = [list(r) for r in RingMatrix.identity(Q.dim, Q.m).rows]
    for bi, pi in enumerate(pos):
        for bj, pj in enumerate(pos):
            rows[pi][pj] = M2.rows[bi][bj]
    return _matrix(Q.m, tuple(map(tuple, rows)))


_SHEAR_BASES = {"shear-T": ("e2", "f1"), "shear-R": ("e1", "f2")}


@functools.lru_cache(maxsize=64, typed=True)
def _shear_step(m: int, branch: Branch, name: str) -> TraceStep:
    """The named shear with parameter 1, built once; a bad modulus raises and caches nothing."""
    Q = _branch_module(m, branch)
    return TraceStep(name, transvection(Q, _SHEAR_BASES[name], GroupRingElement.one(m)))


def _bezout_coeffs(Q: QuadraticModule, name: str, pair) -> tuple[tuple, tuple]:
    """The coefficient tuples of a Bezout pair: two elements of Q's modulus."""
    if len(pair) != 2:
        raise DimensionMismatch(f"{name} Bezout pair has {len(pair)} entries, not 2")
    if not all(isinstance(c, GroupRingElement) for c in pair):
        raise PreconditionFailed(f"{name} Bezout pair entries must be group ring elements")
    for c in pair:
        if c.m != Q.m:
            raise ModulusMismatch(f"{name} Bezout pair has m={c.m} vs module m={Q.m}")
    return pair[0].coeffs, pair[1].coeffs


def rank2_vector_isometry(
    Q: QuadraticModule,
    source: RingVector,
    target: RingVector,
    source_pair: Sequence[GroupRingElement],
    target_pair: Sequence[GroupRingElement],
) -> RingMatrix:
    """Isometry M of a rank-1 hyperbolic block with M * source = target.

    Each vector x comes with a Bezout pair (p, q), p*x1 + q*x2 = 1, which
    proves it primitive and completes it; each pair must be two elements of
    Q's modulus (DimensionMismatch, PreconditionFailed or ModulusMismatch
    otherwise). Both vectors must be isotropic (lambda(x, x) = 0) with equal
    mu class; equal vectors give the identity. Each vector is completed to
    a standard hyperbolic pair, (x, x') and (y, y'); y' is sheared by c*y
    for the first c of up to four (0, 1, g^(m/2), 1 + g^(m/2)) with
    mu(y') = mu(x'); and M is the transport [y, y'] * [x, x']^-1 between
    the two pair bases. If no shear aligns the classes, SearchExhausted is
    raised, which is not a proof that no isometry exists.

    The 2 x 2 algebra runs on coefficient tuples: every Bezout check, mu
    lift, entry of M and coordinate of M * x is one sum of products, one
    call of the fused kernel, as is the product in each coordinate of a
    completion or shear. lambda(x, x) and mu(x) both come from x's mu
    lift L, as lambda(x, x) = L + eps * conj(L).
    """
    if Q.rank != 1:
        raise DimensionMismatch("vector transport is defined on rank-1 blocks")
    Q._check_vector(source)
    Q._check_vector(target)
    pairs = (
        _bezout_coeffs(Q, "source", source_pair),
        _bezout_coeffs(Q, "target", target_pair),
    )
    m, eps = Q.m, Q.eps
    one = GroupRingElement.one(m).coeffs
    x, y = _coords(source), _coords(target)
    for name, (x1, x2), (p, q) in zip(("source", "target"), (x, y), pairs):
        if _dot_coeffs(m, ((p, x1), (q, x2))) != one:
            raise PreconditionFailed(
                f"{name} Bezout pair does not satisfy p*x1 + q*x2 = 1"
            )

    def plus(a: tuple, c: tuple, v: tuple) -> tuple:
        """a + c*v."""
        return tuple(map(add, a, _dot_coeffs(m, ((c, v),))))

    lifts = [_lift_coeffs(Q, v) for v in (x, y)]
    lam_x, lam_y = (tuple(map(add, L, _eps_conj(eps, L))) for L in lifts)
    if lam_x != lam_y:
        raise PreconditionFailed("lambda(x, x) differs between source and target")
    if _mu_class(Q, lifts[0]) != _mu_class(Q, lifts[1]):
        raise PreconditionFailed("mu classes differ between source and target")
    if x == y:
        return RingMatrix.identity(2, m)
    if any(lam_x):
        raise PreconditionFailed(
            "source vector is not isotropic: lambda(x, x) must vanish"
        )

    def completion(v, p, q):
        """x' = z + d*x with z = (eps*conj(q), conj(p)) and d = -z0*conj(z1)."""
        z = (_eps_conj(eps, q), _conj_coeffs(p))
        d = tuple(map(neg, _dot_coeffs(m, ((z[0], p),))))
        return tuple(plus(zi, d, vi) for zi, vi in zip(z, v))

    xp, yp = (completion(v, *pair) for v, pair in zip((x, y), pairs))
    # A shear y' -> y' + c*y with conj(c) = -eps*c keeps (y, y') a standard
    # pair and moves mu(y') by [c*conj(c)*mu~(y)] - [c], where mu~(y) is the
    # lift a*conj(b) of mu(y). As y is isotropic, mu~(y) is antisymmetric
    # for eps = +1, as is c, so under MINUS the move is 0. For eps = -1 both
    # are symmetric and the move depends only on the parities of c_0 and
    # c_(m/2), so one c per parity pattern reaches every class any shear
    # reaches. The first c that aligns the classes is taken.
    shears = [GroupRingElement.zero(m).coeffs]
    if eps == -1:
        shears.append(one)
        if m % 2 == 0:
            g_half = GroupRingElement.gen(m, m // 2).coeffs
            shears += [g_half, tuple(map(add, one, g_half))]
    want = _mu_class(Q, _lift_coeffs(Q, xp))
    for c in shears:
        yc = tuple(plus(w, c, v) for w, v in zip(yp, y))
        if _mu_class(Q, _lift_coeffs(Q, yc)) == want:
            # (x, x') and (y, yc) are standard pairs, so both column
            # matrices preserve the Gram matrix, and [x, x']^-1 is
            # isometry_inverse's entry shuffle of [x, x']
            inv = (
                (_conj_coeffs(xp[1]), _eps_conj(eps, xp[0])),
                (_eps_conj(eps, x[1]), _conj_coeffs(x[0])),
            )
            rows = [
                [_dot_coeffs(m, ((y[i], inv[0][j]), (yc[i], inv[1][j]))) for j in (0, 1)]
                for i in (0, 1)
            ]
            M = _matrix(m, tuple(tuple([_trusted(m, e) for e in row]) for row in rows))
            if all(
                _dot_coeffs(m, zip(row, x)) == yi for row, yi in zip(rows, y)
            ) and isometry_check(Q, M):
                return M
            break
    raise SearchExhausted("no shear aligns the completions' mu classes")


def _finish(spec, Q, S, steps, v2n, U, norm=None) -> SolverTrace:
    """The trace of a solve, with its complement U certified against S.

    U is already in S's coordinates; verify_lagrangian_complement checks
    it independently of how the solver got it.
    """
    return SolverTrace(
        branch=spec.branch,
        steps=tuple(steps),
        norm=norm,
        normalized_S=(S[0], v2n),
        U=U,
        certificate=verify_lagrangian_complement(Q, S, U),
    )


def _solve_skew(spec: EmbeddingSpec) -> SolverTrace:
    """Lagrangian complement for both skew branches.

    The (e2, f2) coefficients x of v2 are normalized (_skew_normalize: the
    ideal (a2, b2) as u*Lambda and the quotients, whose Bezout pair is
    reduced by nearest_bezout_pair) and transported onto y = (v2', s),
    from the companion identity u*v2' + a2'*s = 1 (NormData.positive_variant),
    whose pair is (u, a2'). The quotients' starting Bezout pair is
    (x_i^-1, 0) or (0, x_i^-1) when a quotient x_i is a trivial unit
    (trivial_unit_inverse), else it comes from one Hermite form, which also
    decides validate's unit-ideal test; the reduced pair depends on the
    quotients alone. The complement of the result never sees a1:
    v1 = e1 lies in S, and U's lambda, U's mu and the e1 row of det[S | U]
    do not read the e1 coefficient of v2.

    The transport needs mu(x) = mu(y) = [aug(v2')*s] = [s], aug(v2') being
    odd for even m. Under TILDE a symmetric class is its coefficient at
    g^(m/2) mod 2, or 0 for odd m, so [s] is 1 for even m and 0 for odd m.
    For N = u*conj(u) and c symmetric the terms k and m - k of (N*c)_(m/2)
    agree, so it is N_0*c_(m/2) + N_(m/2)*c_0 mod 2; N_0 = l mod 2 and
    N_(m/2) is even, so [N*c] = [c] for odd l. The (e2, f2) block's own
    class [P], P = a2*conj(b2) symmetric, therefore decides, before
    normalizing: it differs from [s] exactly when m is even and P_(m/2) is
    even. A wrong class is flipped by one shear with parameter 1: shear-T
    on (e2, f1) adds s to a2 and moves the class by aug(b2)*[s], shear-R on
    (e1, f2) subtracts s from b2 and moves it by aug(a2)*[s]. As
    l = gcd(aug a2, aug b2) is odd, one of the two applies. Neither changes
    the ideal (a2, s, b2).

    Every step is the identity outside the (e2, f2) block or two shear
    entries, so v2's images and the pull-back of the standard complement
    are closed forms; the 4x4 step matrices are built for the trace alone,
    and replay re-checks the images against them. Shear-T maps v2 =
    (a1, a2, s, b2) to (a1 + b2, a2 + s, s, b2) and shear-R to
    (a1 + a2, a2, s, b2 - s); the inverse of either is the same
    transvection with parameter -1. The transport Phi embeds M2 with
    M2*x = y, and (a2, b2) = u*x, so Phi*v2 = (a1, u*v2', s, l*s). The
    standard complement (-a2'*e2 + f1, -a2'*e1 + f2) has block parts
    (-a2', 0) and (0, 1), which go back through M2's isometry inverse.
    """
    Q, v1, v2_in, P = spec._check_before_ideal()
    m = spec.m
    zero = GroupRingElement.zero(m)
    one = GroupRingElement.one(m)
    s = GroupRingElement.norm(m)
    a1, a2, b2 = spec.a1, spec.a2, spec.b2
    steps = []
    shear = None
    if m % 2 == 0 and P.coeffs[m // 2] % 2 == 0:
        if b2.aug() % 2:
            shear = "shear-T"
            a1, a2 = a1 + b2, a2 + s
        else:
            shear = "shear-R"
            a1, b2 = a1 + a2, b2 - s
        steps.append(_shear_step(m, spec.branch, shear))
    norm, (x1, x2) = _skew_normalize(a2, b2)
    if (inverse := trivial_unit_inverse(x1)) is not None:
        pair = (inverse, zero)
    elif (inverse := trivial_unit_inverse(x2)) is not None:
        pair = (zero, inverse)
    else:
        pair = ideal_express([x1, x2], one)
        if pair is None:
            raise PreconditionFailed(_SKEW_NOT_UNIT)
    v_t, a_t, _ = norm.positive_variant()
    Q1 = QuadraticModule(m, 1, Q.eps, Q.kind)
    M2 = rank2_vector_isometry(
        Q1,
        _vector(m, (x1, x2)),
        _vector(m, (v_t, s)),
        nearest_bezout_pair(x1, x2, *pair),
        (norm.u, GroupRingElement.integer(m, a_t)),
    )
    steps.append(TraceStep("vector-transport", _embed_block(Q, M2, (1, 3))))
    v2n = _vector(m, (a1, norm.u * v_t, s, norm.l * s))
    (p00, p01), (p10, p11) = isometry_inverse(Q1, M2).rows
    U = [
        [zero, p00 * -a_t, one, p10 * -a_t],
        [GroupRingElement.integer(m, -a_t), p01, zero, p11],
    ]
    if shear == "shear-T":  # e1 -= f2, e2 -= f1
        U = [[w0 - w3, w1 - w2, w2, w3] for w0, w1, w2, w3 in U]
    elif shear == "shear-R":  # e1 -= e2, f2 += f1
        U = [[w0 - w1, w1, w2, w3 + w2] for w0, w1, w2, w3 in U]
    return _finish(
        spec, Q, (v1, v2_in), steps, v2n, tuple(_vector(m, tuple(w)) for w in U), norm
    )


def solve_odd_m(spec: EmbeddingSpec) -> SolverTrace:
    """Lagrangian complement for the odd-modulus skew branch."""
    if spec.branch is not Branch.ODD_M_SKEW:
        raise PreconditionFailed("spec branch is not odd-m")
    return _solve_skew(spec)


def solve_even_m(spec: EmbeddingSpec) -> SolverTrace:
    """Lagrangian complement for the even-modulus skew branch."""
    if spec.branch is not Branch.EVEN_M_SKEW:
        raise PreconditionFailed("spec branch is not even-m")
    return _solve_skew(spec)


def solve_even_n(spec: EmbeddingSpec) -> SolverTrace:
    """Lagrangian complement for the symmetric branch, in closed form.

    v2's (e2, f2) coefficients (x, y) reach aug(x) = 1 by a swap if
    aug(x) = 0, then a negation if aug(x) = -1; validate leaves no other
    case, as aug lambda(v2, v2) = 2*aug(a2)*aug(b2) = 0 and gcd = 1. Both
    steps are their own inverses, so U is the complement (0, a, 1, 0),
    (-conj(a), 0, 0, 1) of x = 1 + (1 - g)*a, negated and swapped; the 4x4
    step matrices serve the trace alone, and replay re-checks v2's images.
    """
    if spec.branch is not Branch.EVEN_N_SYM:
        raise PreconditionFailed("spec branch is not even-n")
    Q, v1, v2_in = spec.validate()
    m = spec.m
    one, zero = GroupRingElement.one(m), GroupRingElement.zero(m)
    a1, x, c, y = v2_in.coords
    steps = []
    if swap := (x.aug() == 0):
        block = _matrix(m, ((zero, one), (one, zero)))
        steps.append(TraceStep("swap-e2-f2", _embed_block(Q, block, (1, 3))))
        x, y = y, x
    if negate := (x.aug() == -1):
        block = _matrix(m, ((-one, zero), (zero, -one)))
        steps.append(TraceStep("negate-block-2", _embed_block(Q, block, (1, 3))))
        x, y = -x, -y
    a = divide_by_one_minus_gen(x - one)
    U = [[zero, a, one, zero], [-a.conj(), zero, zero, one]]
    if negate:
        U = [[w0, -w1, w2, -w3] for w0, w1, w2, w3 in U]
    if swap:
        U = [[w0, w3, w2, w1] for w0, w1, w2, w3 in U]
    v2n = _vector(m, (a1, x, c, y))
    return _finish(spec, Q, (v1, v2_in), steps, v2n, tuple(_vector(m, tuple(w)) for w in U))


def solve(spec: EmbeddingSpec) -> SolverTrace:
    if spec.branch is Branch.EVEN_N_SYM:
        return solve_even_n(spec)
    return _solve_skew(spec)


def _random_element(rng: random.Random, m: int, lo: int = -2, hi: int = 2) -> GroupRingElement:
    return GroupRingElement(m, [rng.randint(lo, hi) for _ in range(m)])


def _random_symmetric(rng: random.Random, m: int) -> GroupRingElement:
    t = _random_element(rng, m, -1, 1)
    k = GroupRingElement.integer(m, rng.randint(-1, 1))
    return t + t.conj() + k


def _skew_pair_sample(
    rng: random.Random, m: int
) -> tuple[GroupRingElement, GroupRingElement]:
    """Unimodular (w1, w2) with w1 * conj(w2) symmetric, built by column ops.

    Starting from (1, c) with c symmetric, each op below preserves both
    unimodularity and the symmetry of w1 * conj(w2): shears by symmetric
    parameters, the swap (w1, w2) -> (w2, -w1), and scaling both entries
    by a trivial unit.
    """
    w1 = GroupRingElement.one(m)
    w2 = _random_symmetric(rng, m)
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(4)
        if op == 0:
            w2 = w2 + _random_symmetric(rng, m) * w1
        elif op == 1:
            w1 = w1 + _random_symmetric(rng, m) * w2
        elif op == 2:
            w1, w2 = w2, -w1
        else:
            t = GroupRingElement.gen(m, rng.randrange(m))
            if rng.randrange(2):
                t = -t
            w1, w2 = t * w1, t * w2
    return w1, w2


def sample_spec(branch: Branch, m: int, rng: random.Random) -> EmbeddingSpec:
    """Random EmbeddingSpec for the branch, valid by construction.

    A modulus below 2 or of the wrong parity raises PreconditionFailed
    before anything is drawn. No spec is checked after and no Hermite form
    runs: solve validates.
    - even-n: aug a2 = +-1 and aug b2 = 0, or swapped, so the augmentations
      have gcd 1 and aug lambda(v2, v2) = 2 aug(a2) aug(b2) = 0.
    - skew: (a2, b2) = u*(w1, w2), u = geometric(m, l) with l in [1, m)
      coprime to m, (w1, w2) unimodular and w1*conj(w2) symmetric, so
      lambda(v2, v2) = 0 and u*v + a*s = 1 puts 1 in (a2, s, b2). Every
      valid skew spec is such a pair with l = gcd(aug a2, aug b2) (see
      _normalize; u*conj(u) is no zero divisor); l > m gives larger u.
    """
    _check_modulus_parity(branch, m)
    if branch is Branch.EVEN_N_SYM:
        one = GroupRingElement.one(m)
        g = GroupRingElement.gen(m)
        a2 = one + (one - g) * _random_element(rng, m)
        b2 = (one - g) * _random_element(rng, m)
        style = rng.randrange(4)
        if style & 1:
            a2 = -a2
        if style & 2:
            a2, b2 = b2, a2
        return EmbeddingSpec(m, branch, _random_element(rng, m), a2, b2)
    w1, w2 = _skew_pair_sample(rng, m)
    ls = [l for l in range(1, m) if math.gcd(l, m) == 1]
    u = GroupRingElement.geometric(m, rng.choice(ls))
    return EmbeddingSpec(m, branch, _random_element(rng, m), u * w1, u * w2)


@dataclass(frozen=True)
class SweepReport:
    branch: Branch
    m: int
    count: int
    seed: int
    solved: int
    exhausted: int
    failures: tuple[str, ...]
    elapsed_s: float

    def to_json(self) -> dict:
        return {
            "branch": self.branch.value,
            "m": self.m,
            "count": self.count,
            "seed": self.seed,
            "solved": self.solved,
            "exhausted": self.exhausted,
            "failures": list(self.failures),
            "elapsedSeconds": round(self.elapsed_s, 3),
        }


def run_sweep(branch: Branch, m: int, count: int, seed: int) -> SweepReport:
    """Solve `count` random specs; certificates are verified inside solve."""
    if count < 0:
        raise PreconditionFailed("a sweep count must be nonnegative")
    rng = random.Random(seed)
    solved = 0
    exhausted = 0
    failures = []
    t0 = time.perf_counter()
    for i in range(count):
        spec = sample_spec(branch, m, rng)
        try:
            trace = solve(spec)
        except SearchExhausted:
            exhausted += 1
            continue
        except Exception as exc:  # noqa: BLE001 - report, do not mask
            failures.append(f"{type(exc).__name__}: {exc} on {spec.to_json()}")
            continue
        if not trace.replay():
            failures.append(f"trace replay mismatch on {spec.to_json()}")
            continue
        solved += 1
    return SweepReport(
        branch=branch,
        m=m,
        count=count,
        seed=seed,
        solved=solved,
        exhausted=exhausted,
        failures=tuple(failures),
        elapsed_s=time.perf_counter() - t0,
    )
