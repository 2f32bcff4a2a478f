"""Exception hierarchy shared across the package.

Every error the package raises on bad input derives from
:class:`RacdnnError`, so a caller can catch them all with one clause.
"""


class RacdnnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(RacdnnError):
    """Invalid or mismatched tensor shapes."""


class ArgumentError(RacdnnError):
    """An argument violates an operation's contract."""


class GraphError(RacdnnError):
    """Backward requested on a tensor with no recorded computation graph."""


class ScaleError(RacdnnError):
    """Attention scale parameter is not strictly positive."""


class BatchError(RacdnnError):
    """Batch too small for the requested normalization mode."""


class NumericError(RacdnnError):
    """A NaN or Inf turned up where only finite values are allowed."""
