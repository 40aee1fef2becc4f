"""Affine perturbation fields xi(x) = A x + b and affine densities
f(x) = g . x + c0, plus the four translations that the theorem proofs
move a shape along. Constant fields are the A = 0 case; f == 1 is g = 0,
c0 = 1. Each translation builder returns one shape's (N,) vector, or, on
a stack of shapes (their attributes stacked, as the proofs give them),
one (M, N) row per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionMismatchError, ShapeValidationError
from .geometry import Simplex, Triangle, as_vector


@dataclass(frozen=True, eq=False)
class AffineField:
    """Vector field xi(x) = matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"field matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ShapeValidationError("field matrix has non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", as_vector(self.offset, m.shape[0], "field offset"))

    @classmethod
    def constant(cls, offset) -> "AffineField":
        """The constant field ``offset``: a translation."""
        b = as_vector(offset, name="field offset")
        return cls(np.zeros((b.size, b.size)), b)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

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
            raise ShapeValidationError("density constant is non-finite")
        object.__setattr__(self, "constant", c)

    @classmethod
    @cache
    def one(cls, dim: int) -> "AffineDensity":
        """f == 1 in ``dim`` dimensions, one shared object per ``dim``."""
        return cls(np.zeros(dim), 1.0)

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    def at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on a (..., N) stack of points, returning (...) values."""
        return points @ self.gradient + self.constant


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


def pythagoras_field(t: Triangle) -> np.ndarray:
    """The translation c * n_c (along the hypotenuse normal)."""
    return t.c * t.n_c


def sines_field(t: Triangle, side: str) -> np.ndarray:
    """The unit translation parallel to the chosen side.

    Orientations: side ``a`` points C -> B, side ``b`` points A -> C,
    side ``c`` points B -> A.
    """
    if side not in ("a", "b", "c"):
        raise ShapeValidationError(f"side must be 'a', 'b', or 'c', got {side!r}")
    head, tail = {"a": "BC", "b": "CA", "c": "AB"}[side]
    return (getattr(t, head) - getattr(t, tail)) / getattr(t, side)


def cosines_field(t: Triangle) -> np.ndarray:
    """The translation c * n_c - a * n_a - b * n_b."""
    return t.c * t.n_c - t.a * t.n_a - t.b * t.n_b


def nd_pythagoras_field(s: Simplex, hyp_index: int) -> np.ndarray:
    """The translation (hypotenuse measure) * (hypotenuse normal)."""
    if not 0 <= hyp_index <= s.dim:
        raise ShapeValidationError(f"hyp_index must be in 0..{s.dim}, got {hyp_index}")
    facets = s.facets
    return facets.measures[..., hyp_index, None] * facets.normals[..., hyp_index, :]
