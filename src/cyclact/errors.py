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


class AugmentationObstruction(CyclactError):
    """Neither coefficient augmentation can be normalized to 1."""


class OddModulus(CyclactError):
    """The mod-2 cohomology ring cases need an even modulus."""


class OutOfTable(CyclactError):
    """Requested a tabulated constant outside the tabulated range."""


def value_text(value) -> str:
    """An input value for an error message, never echoing long input.

    An int up to 64 bits is written out and a longer one is named by its
    size in bits, as str fails past the interpreter's int-to-string digit
    limit. A string is named by its length, anything else by its type.
    """
    if type(value) is int:
        bits = value.bit_length()
        if bits <= 64:
            return str(value)
        return f"<{'negative ' if value < 0 else ''}{bits}-bit integer>"
    if isinstance(value, str):
        return f"a {len(value)}-character string"
    return f"a {type(value).__name__}"
