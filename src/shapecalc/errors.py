"""Exception hierarchy shared across the package."""


class ShapeCalcError(Exception):
    """Base class for all shapecalc errors."""


class DimensionMismatchError(ShapeCalcError, ValueError):
    """Operands live in different dimensions or have the wrong shape."""


class DegenerateSimplexError(ShapeCalcError, ValueError):
    """Vertex set is (numerically) affinely dependent."""


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
