"""Exception hierarchy shared across the library, and the rule that names where one happened."""
from contextlib import contextmanager


class TempconvError(Exception):
    """Base class for all library errors."""


class ShapeError(TempconvError):
    """Operand shapes or axes are inconsistent with the requested operation."""


class NumericError(TempconvError):
    """A numeric invariant was violated (NaN/Inf values, divergence, ...)."""


class TapeError(TempconvError):
    """Gradient tape misuse: missing ancestry, non-scalar loss, etc."""


class ConfigError(TempconvError):
    """Invalid or inconsistent model/training configuration."""


class FormatError(TempconvError):
    """Malformed tensor file, checkpoint, or fixture document."""


@contextmanager
def located(where):
    """Re-raise a library error from the block as its own class, ``where: `` first."""
    try:
        yield
    except TempconvError as exc:
        raise type(exc)(f"{where}: {exc}") from None
