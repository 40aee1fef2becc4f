"""Shape-derivative calculus on simplices.

Evaluates d/dt of the integral of an affine density over an affinely
perturbed simplex three independent ways (boundary quadrature, divergence
volume integral, finite differences) and uses the boundary decomposition
to verify the Pythagorean theorem, the laws of sines and cosines, and the
N-dimensional Pythagorean theorem.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    FloatRangeError,
    LegOrthogonalityError,
    NotRightTriangleError,
    ShapeCalcError,
    ShapeParseError,
    ShapeValidationError,
)
from .fields import (
    AffineDensity,
    AffineField,
    cosines_field,
    div_density_field,
    nd_pythagoras_field,
    pythagoras_field,
    sines_field,
)
from .geometry import (
    DEGENERACY_EPS,
    Facets,
    Simplex,
    Triangle,
    base_height_volume,
    facet_measure,
)
from .hadamard import (
    DerivativeReport,
    boundary_integral,
    default_fd_step,
    fd_derivative,
    hadamard_derivative,
    perturbed_integral,
    volume_integral,
)
from .theorems import (
    RightSimplexSpec,
    TheoremReport,
    random_right_simplex,
    random_triangle,
    verify_law_of_cosines,
    verify_law_of_sines,
    verify_nd_pythagoras,
    verify_pythagoras,
)

__all__ = [
    "__version__",
    "AffineDensity",
    "AffineField",
    "DEGENERACY_EPS",
    "DegenerateSimplexError",
    "DerivativeReport",
    "DimensionMismatchError",
    "Facets",
    "FloatRangeError",
    "LegOrthogonalityError",
    "NotRightTriangleError",
    "RightSimplexSpec",
    "ShapeCalcError",
    "ShapeParseError",
    "ShapeValidationError",
    "Simplex",
    "TheoremReport",
    "Triangle",
    "base_height_volume",
    "boundary_integral",
    "cosines_field",
    "default_fd_step",
    "div_density_field",
    "facet_measure",
    "fd_derivative",
    "hadamard_derivative",
    "nd_pythagoras_field",
    "perturbed_integral",
    "pythagoras_field",
    "random_right_simplex",
    "random_triangle",
    "sines_field",
    "verify_law_of_cosines",
    "verify_law_of_sines",
    "verify_nd_pythagoras",
    "verify_pythagoras",
    "volume_integral",
]
