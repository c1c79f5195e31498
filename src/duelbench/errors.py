"""Semantic exception hierarchy for duelbench.

Every error raised by the library derives from :class:`DuelbenchError`, so
callers can catch the whole family at once.  Each type carries the CLI
exit code it maps to (``exit_code``: validation -> 2, size gate -> 3,
I/O -> 4).
"""


class DuelbenchError(Exception):
    """Base class for all duelbench errors."""

    exit_code = 2


class ParseError(DuelbenchError, ValueError):
    """Input text could not be parsed (bad number, ragged or non-square matrix)."""


class ValidationError(DuelbenchError, ValueError):
    """Input parsed but violates a contract (asymmetry, bad diagonal, range)."""


class TiedPreferenceError(ValidationError):
    """An off-diagonal entry equals 1/2 where strict gaps are required."""


class DomainError(DuelbenchError, ValueError):
    """Argument outside the mathematical domain of a function."""


class UnknownDatasetError(DuelbenchError, ValueError):
    """Requested built-in dataset name does not exist."""


class ExhaustedRejectionsError(DuelbenchError, RuntimeError):
    """Rejection sampling hit its attempt cap without an acceptable draw."""


class NotAWinnerError(DuelbenchError, ValueError):
    """Arm passed as a candidate winner is not a Copeland winner."""


class TooLargeError(DuelbenchError, ValueError):
    """Problem size exceeds the exact-solver gate (K > K_max)."""

    exit_code = 3


class NumericalInstabilityError(DuelbenchError, ArithmeticError):
    """The LP solver found no pivot large enough to trust, or hit its pivot cap.

    The cap bounds the work, so reaching it does not mean the LP is ill-posed.
    """


class InternalInconsistencyError(DuelbenchError, RuntimeError):
    """Algorithm state violates an invariant that should be unreachable."""


class TraceIOError(DuelbenchError, OSError):
    """Reading or writing a trace or matrix file failed."""

    exit_code = 4
