"""Exception hierarchy shared across the library, and the rule that names where one happened."""
import threading
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


_enclosing = threading.local()


@contextmanager
def located(where):
    """Re-raise a library error from the block as its own class, ``where: ``
    first. A ``where`` that an enclosing block's already names is not named
    again, so an error names its file once."""
    where = str(where)
    outer = getattr(_enclosing, "wheres", ())
    if any(where in w for w in outer):
        yield
        return
    _enclosing.wheres = outer + (where,)
    try:
        yield
    except TempconvError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    finally:
        _enclosing.wheres = outer
