"""Exception types shared across the package."""


class CoverSamplerError(Exception):
    """Base class for all library-specific errors."""


class ParseError(CoverSamplerError):
    """Malformed input text: bad header, bad line, id out of range, duplicate edge."""


class EmptyEdge(ParseError):
    """A hypergraph edge with no vertices."""


class InfeasibleInstance(CoverSamplerError):
    """Some element belongs to no set, so no cover exists."""


class InvalidEpsilon(CoverSamplerError):
    """eps outside the supported range (0, 1/2]."""


class InvalidConfig(CoverSamplerError, ValueError):
    """A configuration violates its preconditions.  Also a `ValueError`, the
    type some of these refusals raised before they were typed."""


class InsufficientTrials(CoverSamplerError):
    """Fewer Monte Carlo trials requested than the enforced minimum."""


class InsufficientSamples(CoverSamplerError):
    """A rejection estimator accepted zero trials."""


class TooLarge(CoverSamplerError):
    """Instance exceeds an exact oracle's size limit."""
