"""Exception types raised by the library.

Every exception derives from :class:`DipercolateError` so callers (and the
CLI) can catch library failures with a single handler.
"""


class DipercolateError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSequenceError(DipercolateError, ValueError):
    """Degree sequence has unequal in- and out-degree sums."""


class EmptySequenceError(DipercolateError, ValueError):
    """Operation requires a nonempty degree sequence."""


class NotGraphicalError(DipercolateError, ValueError):
    """Degree sequence is not realizable by a simple digraph."""


class DistributionFormatError(DipercolateError, ValueError):
    """Malformed degree-distribution input (file syntax, bad total mass)."""


class ImbalanceError(DipercolateError, ValueError):
    """Bivariate distribution has unequal mean in- and out-degree."""


class RepairFailedError(DipercolateError, RuntimeError):
    """Sum-repair of a sampled degree sequence exceeded its redraw budget."""


class DegreeMismatchError(DipercolateError, ValueError):
    """Graph does not realize the given degree sequence."""


class AttemptsExhaustedError(DipercolateError, RuntimeError):
    """Rejection sampling hit the attempt cap without a simple graph."""

    def __init__(self, attempts: int):
        super().__init__(
            f"no simple graph after {attempts} configuration draws; "
            "consider raising max_attempts"
        )
        self.attempts = attempts


class PiOutOfRangeError(DipercolateError, ValueError):
    """Percolation probability outside (0, 1]."""


class ZeroMeanDegreeError(DipercolateError, ValueError):
    """Distribution has zero mean degree; quantity undefined."""


class ZeroMu11Error(DipercolateError, ValueError):
    """Distribution has mu_11 = 0; percolation threshold undefined."""


class EmptyGraphError(DipercolateError, ValueError):
    """Operation requires a graph with at least one vertex."""


class ConfigError(DipercolateError, ValueError):
    """Invalid experiment configuration."""
