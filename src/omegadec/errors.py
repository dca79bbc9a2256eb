"""Exception types shared across the toolkit, the default limits of its guards, and
the readers of every outside number, each read once where it enters: `_integer`
reads counts, indices, exponents, root indices and dimensions; `_rational` exact
coefficients, tensor entries and scale radicands; `_real` float coefficients and
tensor, Gram and witness numbers; `_tolerance` the bound of a float comparison;
`_object` every JSON object a file reader indexes."""

import math
import numbers
from fractions import Fraction
from itertools import repeat

DEFAULT_MAX_WORK = 10**7      # steps of an enumeration or a search
DEFAULT_MAX_GROUP = 10080     # elements of a generated group
MAX_DIGITS = 4300             # digits of an int read or printed: Python's default limit


def digits_checked(text: str) -> str:
    """text, the digits of a number read from JSON, unless it holds more than
    MAX_DIGITS of them: that is a ValueError, decided before any conversion,
    whatever the interpreter's own limit (PYTHONINTMAXSTRDIGITS) says."""
    if len(text) > MAX_DIGITS and (n := sum(map(str.isdigit, text))) > MAX_DIGITS:
        raise ValueError(f"number has {n} digits, more than {MAX_DIGITS}")
    return text


def product_within(factors, limit: int) -> int | None:
    """The product of positive ints, multiplied up only until it passes limit:
    None then, so a bound on a product such as 3**(10**7) is decided in a few
    steps. Each guard of a dense size raises its own error on None."""
    product = 1
    for x in factors:
        product *= x
        if product > limit:
            return None
    return product


def power_within(base: int, exponent: int, limit: int) -> int | None:
    """base**exponent, for an int base >= 1 and exponent >= 0, by product_within:
    None once it passes limit. Base 1 takes one step at any exponent."""
    return product_within(repeat(base, exponent if base > 1 else 1), limit)


def _integer(x, what: str) -> int:
    """x as an int; a bool, a float such as 1.5 or 1.0, or a string is a
    ValueError, so ``1.5`` is never truncated and ``true`` never counts as 1."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _rational(c):
    """c as an exact rational, an int when integral and a Fraction otherwise.
    A float is a TypeError: ``0.1`` is no exact rational. So is a bool: JSON
    ``true`` is not the number 1. A string of over MAX_DIGITS digits is a ValueError."""
    if type(c) is int:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError(f"{type(c).__name__} {c!r} in rational mode holds no exact rational")
    c = Fraction(digits_checked(c) if isinstance(c, str) else c)
    return int(c) if c.denominator == 1 else c


def _real(c, what: str = "float coefficients") -> float:
    """c as a finite float. Only a real number is read: a bool or a string such
    as ``"1.5"`` is a TypeError, and a NaN or an infinity is a ValueError."""
    if type(c) is not float:    # the common case skips the slower ABC check
        if isinstance(c, bool) or not isinstance(c, numbers.Real):
            raise TypeError(f"{type(c).__name__} {c!r} in {what} is not a number")
        c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"{what} must be finite")
    return c


def _object(x, what: str) -> dict:
    """x, a JSON object. Any other value is a TypeError that names what was
    read, where indexing it would end in Python's own wording."""
    if not isinstance(x, dict):
        raise TypeError(f"{what} must be an object, got {type(x).__name__}")
    return x


def _tolerance(tol: float) -> float:
    """tol, for a float comparison: a NaN, infinite or negative tolerance is a
    ValueError. Every comparison with NaN is false and an infinite bound holds
    for any finite difference, so either would let any difference through; a
    negative bound would fail every comparison, equal sides included."""
    if math.isnan(tol):
        raise ValueError("tolerance must not be NaN")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


class OmegaError(Exception):
    """Base class for all toolkit errors."""


class GuardExceeded(OmegaError):
    """A configurable resource guard was exceeded (CLI exit code 3)."""


class UsageError(OmegaError):
    """The command line does not parse (CLI exit code 2)."""


# complexes

class EmptyFacet(OmegaError):
    """A facet with an empty vertex set was supplied."""


class NonMaximalFacet(OmegaError):
    """A facet is contained in (or duplicates) another facet."""


class UncoveredVertex(OmegaError):
    """Some vertex lies in no facet."""


class VertexOutOfRange(OmegaError):
    """A vertex index outside the complex was used."""


class InvalidSize(OmegaError):
    """A standard complex was requested with an unsupported size."""


# symmetry

class WeightNotPreserved(OmegaError):
    """A group element maps a facet to a set that is not a facet of equal weight."""


class CollapseNotLinear(OmegaError):
    """The multifacet permutation is inconsistent with the vertex permutation."""


class GroupTooLarge(GuardExceeded):
    """Generator closure exceeded the group-size cap."""


class SearchSpaceTooLarge(GuardExceeded):
    """An enumeration exceeded its work guard."""


class NotConnected(OmegaError):
    """The operation requires a connected complex."""


class ActionNotFree(OmegaError):
    """The operation requires a free action on the multifacets."""


class ActionNotBlending(OmegaError):
    """The operation requires a blending vertex action."""


# polynomials

class IncompatibleBlockSizes(OmegaError):
    """Variable counts differ between sites identified by the group action."""


class IncommensurableScales(OmegaError):
    """An exact result mixes radical scales with no common rational form."""


class NotHomogeneous(OmegaError):
    """The polynomial is not multi-homogeneous of a uniform local degree."""


# decompositions

class NotInvariant(OmegaError):
    """The polynomial is not invariant under the group action."""


class NotBipartite(OmegaError):
    """The operation requires a polynomial on exactly two sites."""


class SizeTooLarge(GuardExceeded):
    """A dense construction exceeded its size guard."""


# positivity

class MissingCertificate(OmegaError):
    """A certificate-based check was requested without a certificate."""


class DimensionMismatch(OmegaError):
    """Array dimensions are inconsistent with the declared shape."""


class NotInvariantPolynomial(OmegaError):
    """The Gram matrix does not represent an invariant polynomial."""


class NotPSD(OmegaError):
    """The matrix is not positive semidefinite within tolerance."""


class FactorNotInCone(OmegaError):
    """A local factor fails its cone membership check."""


class LocalsNotAligned(OmegaError):
    """Supplied per-site factors do not reconstruct the family."""


class MissingSquareSplits(OmegaError):
    """A local polynomial has no available sum-of-squares split."""


class NotFactorizable(OmegaError):
    """No positive invariant splitting of the overcount constants exists."""


# tensor bridge

class NotCanonicalForm(OmegaError):
    """A local polynomial is not in the squared-variable canonical form."""


class VertexActionNotFree(OmegaError):
    """The conversion requires the vertex action to be free."""


# approximation

class NotNormalized(OmegaError):
    """The separable witness must have trace at most one."""
