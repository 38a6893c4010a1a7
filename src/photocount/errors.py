"""Exception types raised by the measurement-statistics machinery."""


class PhotocountError(Exception):
    """Base class for domain errors."""


class ZeroProbability(PhotocountError):
    """An outcome with probability at or below the numerical floor was conditioned on."""


class NonReversible(PhotocountError):
    """A reversing measurement was requested for an operator with zero background."""


class NumericInconsistency(PhotocountError):
    """An internal algebraic identity failed beyond its tolerance."""
