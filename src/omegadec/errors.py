"""Exception types shared across the toolkit."""


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
