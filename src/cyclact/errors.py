"""Exception taxonomy shared across the package."""

from __future__ import annotations


class CyclactError(Exception):
    """Base class for all package errors."""


class ModulusMismatch(CyclactError):
    """Operands live over group rings with different m."""


class NotDivisible(CyclactError):
    """exact_divide has no solution."""


class PreconditionFailed(CyclactError):
    """An operation's stated precondition does not hold for the input."""


class Degenerate(CyclactError):
    """All generators are zero."""


class DimensionMismatch(CyclactError):
    """Vector or matrix dimensions do not match the quadratic module."""


class ZeroVector(CyclactError):
    """Primitivity is undefined for the zero vector."""


class BadIndex(CyclactError):
    """Basis index out of range for a transvection."""


class RankTooLarge(CyclactError):
    """A matrix is above the rank a routine supports (see forms.RING_DET_MAX_RANK)."""


class NotComplement(CyclactError):
    """Certification failed. `condition` names the first failed check."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"{condition}: {detail}" if detail else condition)


class SearchExhausted(CyclactError):
    """Constructive isometry transport found no isometry. Data, not a refutation."""


class NormalizationFailed(CyclactError):
    """Ideal normalization precondition failed inside a solver."""


class ParityObstruction(CyclactError):
    """The even-m quadratic-class match failed; must not occur on valid input."""


class AugmentationObstruction(CyclactError):
    """Neither coefficient augmentation can be normalized to 1."""


class OddModulus(CyclactError):
    """The mod-2 cohomology ring cases need an even modulus."""


class OutOfTable(CyclactError):
    """Requested a tabulated constant outside the tabulated range."""
