"""Exception hierarchy shared across the package, and ``float_range``, the
one guard that turns an overflow into ``FloatRangeError``: its message names
the guarded quantity only; how the overflow was noticed is its ``__cause__``.
``float_range`` is a plain context-manager class: it is entered four times
in every ``derive`` call, and a ``contextlib`` generator costs more to enter."""

import math

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


class float_range:
    """Raise ``FloatRangeError(message)`` when the block overflows: a numpy
    overflow or invalid operation (raised under ``np.errstate``; the inputs
    are finite, so an invalid operation can only follow an overflow), or
    Python's ``OverflowError``. The block gets ``finite(*values)``, which
    raises the same error for a value that plain float arithmetic took to
    inf or nan without raising. On exit the caller's numpy error state is
    restored, whether or not the block raised."""

    __slots__ = ("message", "_errstate")

    def __init__(self, message: str):
        self.message = message

    def finite(self, *values: float) -> None:
        if not all(map(math.isfinite, values)):
            raise FloatRangeError(self.message)

    def __enter__(self):
        self._errstate = np.errstate(over="raise", invalid="raise")
        self._errstate.__enter__()
        return self.finite

    def __exit__(self, kind, err, traceback):
        self._errstate.__exit__(kind, err, traceback)
        if isinstance(err, (FloatingPointError, OverflowError)):
            raise FloatRangeError(self.message) from err
