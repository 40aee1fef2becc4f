"""Affine perturbation fields xi(x) = A x + b and affine densities
f(x) = g . x + c0, plus the four translation fields used by the theorem
verifiers. Constant fields are the A = 0 case; f == 1 is g = 0, c0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .geometry import Simplex, Triangle, as_vector


@dataclass(frozen=True, eq=False)
class AffineField:
    """Vector field xi(x) = matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(
                f"field matrix must be square, got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("field matrix has non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(
            self, "offset", as_vector(self.offset, m.shape[0], "field offset")
        )

    @classmethod
    def constant(cls, offset) -> "AffineField":
        b = as_vector(offset, name="field offset")
        return cls(np.zeros((b.shape[0], b.shape[0])), b)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    @property
    def is_constant(self) -> bool:
        return not self.matrix.any()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.offset

    def at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on a (..., N) stack of points, returning (..., N) values."""
        return points @ self.matrix.T + self.offset


@dataclass(frozen=True, eq=False)
class AffineDensity:
    """Scalar density f(x) = gradient . x + constant."""

    gradient: np.ndarray
    constant: float

    def __post_init__(self):
        object.__setattr__(
            self, "gradient", as_vector(self.gradient, name="density gradient")
        )
        c = float(self.constant)
        if not np.isfinite(c):
            raise ValueError("density constant is non-finite")
        object.__setattr__(self, "constant", c)

    @classmethod
    def one(cls, dim: int) -> "AffineDensity":
        return cls(np.zeros(dim), 1.0)

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    def __call__(self, x: np.ndarray) -> float:
        return float(self.gradient @ x + self.constant)

    def at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on a (..., N) stack of points, returning (...) values."""
        return points @ self.gradient + self.constant


def eval_field(field: AffineField, x) -> np.ndarray:
    """Evaluate ``field`` at a single point, with dimension checking."""
    return field(as_vector(x, field.dim, "evaluation point"))


def div_density_field(f: AffineDensity, xi: AffineField) -> AffineDensity:
    """The affine density x -> grad(f) . xi(x) + f(x) * tr(A), i.e. div(f xi).

    Exact: divergence of an affine density times an affine field is affine.
    """
    if f.dim != xi.dim:
        raise DimensionMismatchError(
            f"density dim {f.dim} != field dim {xi.dim}"
        )
    trace = np.trace(xi.matrix)  # a numpy scalar, so np.errstate covers its products
    gradient = xi.matrix.T @ f.gradient + trace * f.gradient
    constant = float(f.gradient @ xi.offset) + f.constant * trace
    return AffineDensity(gradient, constant)


def pythagoras_field(t: Triangle) -> AffineField:
    """Constant translation field c * n_c (along the hypotenuse normal)."""
    return AffineField.constant(t.c * t.n_c)


def sines_field(t: Triangle, side: str) -> AffineField:
    """Constant unit field parallel to the chosen side.

    Orientations: side ``a`` points C -> B, side ``b`` points A -> C,
    side ``c`` points B -> A.
    """
    if side == "a":
        direction = (t.B - t.C) / t.a
    elif side == "b":
        direction = (t.C - t.A) / t.b
    elif side == "c":
        direction = (t.A - t.B) / t.c
    else:
        raise ValueError(f"side must be 'a', 'b', or 'c', got {side!r}")
    return AffineField.constant(direction)


def cosines_field(t: Triangle) -> AffineField:
    """Constant translation field c * n_c - a * n_a - b * n_b."""
    return AffineField.constant(t.c * t.n_c - t.a * t.n_a - t.b * t.n_b)


def nd_pythagoras_field(s: Simplex, hyp_index: int) -> AffineField:
    """Constant translation field (hypotenuse measure) * (hypotenuse normal)."""
    if not 0 <= hyp_index <= s.dim:
        raise ValueError(
            f"hyp_index must be in 0..{s.dim}, got {hyp_index}"
        )
    facets = s.facets
    return AffineField.constant(facets.measures[hyp_index] * facets.normals[hyp_index])
