"""Exception hierarchy shared across the package, and ``float_range``, the
one guard that turns an overflow into ``FloatRangeError``."""

import math
from contextlib import contextmanager

import numpy as np


class ShapeCalcError(Exception):
    """Base class for all shapecalc errors."""


class DimensionMismatchError(ShapeCalcError, ValueError):
    """Operands live in different dimensions or have the wrong shape."""


class DegenerateSimplexError(ShapeCalcError, ValueError):
    """Vertex set is (numerically) affinely dependent; ``index``: stack position."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NotRightTriangleError(ShapeCalcError, ValueError):
    """Triangle fails the right-angle precondition at vertex C."""


class LegOrthogonalityError(ShapeCalcError, ValueError):
    """Leg vectors of a right simplex are not mutually orthogonal."""


class ShapeParseError(ShapeCalcError, ValueError):
    """Malformed shape document text."""


class ShapeValidationError(ShapeCalcError, ValueError):
    """Well-formed shape document with inconsistent content."""


class FloatRangeError(ShapeCalcError, ValueError):
    """A computed quantity overflows the double-precision float range."""


@contextmanager
def float_range(message: str):
    """Raise ``FloatRangeError(message)`` when the block overflows: a numpy
    overflow or invalid operation (raised under ``np.errstate``; the inputs
    are finite, so an invalid operation can only follow an overflow), or
    Python's ``OverflowError``. The block gets ``finite(*values)``, which
    raises the same error for a value that plain float arithmetic took to
    inf or nan without raising."""

    def finite(*values: float) -> None:
        if not all(map(math.isfinite, values)):
            raise FloatRangeError(message)

    try:
        with np.errstate(over="raise", invalid="raise"):
            yield finite
    except (FloatingPointError, OverflowError) as err:
        raise FloatRangeError(f"{message} ({err})") from err
