"""Exception types raised by the library.

Inputs the library cannot work with raise a :class:`DipercolateError`.  A bad
argument raises a bare :class:`ValueError` instead: in ``check_mode``,
``Digraph``, ``DegreeSequence``, ``realize_sequence``, ``sample_simple``, the
family constructors and ``simple_probability``.  The CLI catches both (exit 2).
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


class ConfigError(DipercolateError, ValueError):
    """Invalid experiment configuration."""
