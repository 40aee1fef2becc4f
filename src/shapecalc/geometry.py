"""Simplex geometry in R^N: volumes, facet enumeration, outward normals,
facet measures, and triangle-specific derived quantities.

Vertex and normal arrays are read-only and ``Simplex`` and ``Facet`` are
frozen dataclasses. ``Triangle`` is a plain class whose attributes can be
reassigned; only its arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSimplexError, DimensionMismatchError

# Degeneracy gate: |det(edge matrix)| must exceed DEGENERACY_EPS * scale**N,
# with scale the longest edge. Leaves conditioning headroom for
# double-precision determinants.
DEGENERACY_EPS = 1e-12


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite, read-only 1-D float array."""
    v = np.array(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must have dimension {dim}, got {v.shape[0]}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class Facet:
    """One (N-1)-face of an N-simplex.

    ``vertices`` holds the N facet vertices (rows); ``normal`` is the outward
    unit normal; ``measure`` the (N-1)-dimensional area.
    """

    opposite_vertex_index: int
    vertices: np.ndarray
    normal: np.ndarray
    measure: float

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


@dataclass(frozen=True, eq=False)
class Simplex:
    """Non-degenerate N-simplex given by N+1 vertices (rows) in R^N, N >= 2."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise DimensionMismatchError(
                f"expected (N+1, N) vertex array, got shape {v.shape}"
            )
        if v.shape[1] < 2:
            raise DimensionMismatchError("simplex dimension must be at least 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("simplex vertices have non-finite entries")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        n = self.dim
        det = abs(np.linalg.det(v[1:] - v[0]))
        if det <= DEGENERACY_EPS * self.scale**n:
            raise DegenerateSimplexError(
                f"degenerate simplex: |det| = {det:.3e} <= "
                f"{DEGENERACY_EPS} * scale^{n}"
            )

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def scale(self) -> float:
        """Longest edge length."""
        diffs = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((diffs**2).sum(axis=-1)).max())

    @cached_property
    def centroid(self) -> np.ndarray:
        c = self.vertices.mean(axis=0)
        c.flags.writeable = False
        return c

    @cached_property
    def volume(self) -> float:
        edges = self.vertices[1:] - self.vertices[0]
        return float(abs(np.linalg.det(edges)) / math.factorial(self.dim))

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """All N+1 facets, ordered by ascending opposite-vertex index.

        Closed form from the barycentric gradients: the rows of inv(E)^T,
        E = V[1:] - V[0], are grad lambda_1..N, and grad lambda_0 is minus
        their sum. Facet i lies on lambda_i = 0, so its outward normal is
        -grad lambda_i / |grad lambda_i|; its distance to vertex i is
        1 / |grad lambda_i|, so base-times-height gives the measure
        N * volume * |grad lambda_i|.
        """
        v = self.vertices
        grads = np.linalg.inv(v[1:] - v[0]).T
        grads = np.vstack([-grads.sum(axis=0), grads])
        lengths = np.linalg.norm(grads, axis=1)
        normals = -grads / lengths[:, None]
        normals.flags.writeable = False
        measures = self.dim * self.volume * lengths
        result = []
        for i in range(self.dim + 1):
            fverts = np.delete(v, i, axis=0)
            fverts.flags.writeable = False
            result.append(Facet(i, fverts, normals[i], float(measures[i])))
        return tuple(result)


def simplex_volume(s: Simplex) -> float:
    """N-volume of ``s``: |det(v_1 - v_0, ..., v_N - v_0)| / N!."""
    return s.volume


def facets(s: Simplex) -> tuple[Facet, ...]:
    """The N+1 facets of ``s``, ordered by ascending opposite-vertex index."""
    return s.facets


def facet_measure(f: Facet) -> float:
    """(N-1)-dimensional measure of a facet, recomputed from its vertices as
    sqrt(det(E E^T)) / (N-1)! for the edge matrix E rooted at the first
    vertex: a check independent of the closed form behind ``f.measure``."""
    edges = f.vertices[1:] - f.vertices[0]
    det = float(np.linalg.det(edges @ edges.T))
    return math.sqrt(det) / math.factorial(edges.shape[0])


def outward_normal(s: Simplex, i: int) -> np.ndarray:
    """Outward unit normal of the facet opposite vertex ``i``."""
    return s.facets[i].normal


def base_height_volume(s: Simplex, base_index: int) -> float:
    """Volume of ``s`` via the base-times-height rule (h / N) * measure(base),
    where h is the distance from the opposite vertex to the base's hull."""
    base = s.facets[base_index]
    h = float(base.normal @ (base.centroid - s.vertices[base_index]))
    return h / s.dim * base.measure


def _interior_angle(u: np.ndarray, v: np.ndarray) -> float:
    # atan2 of (rejection, projection) magnitudes; stable near 0 and pi.
    cross = u[0] * v[1] - u[1] * v[0]
    return math.atan2(abs(cross), float(u @ v))


class Triangle:
    """Plane triangle with labeled vertices A, B, C.

    Derived data follows the classical naming: side lengths ``a`` = |BC|,
    ``b`` = |AC|, ``c`` = |AB|; interior angles ``alpha``, ``beta``, ``gamma``
    at A, B, C; outward unit side normals ``n_a``, ``n_b``, ``n_c``.
    Side x corresponds to the facet opposite the like-named vertex, so the
    facet order of :attr:`simplex` is (a, b, c).
    """

    def __init__(self, vertex_a, vertex_b, vertex_c):
        a_pt = as_vector(vertex_a, 2, "vertex A")
        b_pt = as_vector(vertex_b, 2, "vertex B")
        c_pt = as_vector(vertex_c, 2, "vertex C")
        self.simplex = Simplex(np.array([a_pt, b_pt, c_pt]))
        self.A, self.B, self.C = self.simplex.vertices
        self.a = float(np.linalg.norm(self.B - self.C))
        self.b = float(np.linalg.norm(self.A - self.C))
        self.c = float(np.linalg.norm(self.A - self.B))
        self.alpha = _interior_angle(self.B - self.A, self.C - self.A)
        self.beta = _interior_angle(self.A - self.B, self.C - self.B)
        self.gamma = _interior_angle(self.A - self.C, self.B - self.C)
        side_a, side_b, side_c = self.simplex.facets
        self.n_a = side_a.normal
        self.n_b = side_b.normal
        self.n_c = side_c.normal

    def __repr__(self):
        return (
            f"Triangle(A={self.A.tolist()}, B={self.B.tolist()}, "
            f"C={self.C.tolist()})"
        )


def triangle_metrics(t: Triangle) -> dict:
    """Side lengths, angles, and outward side normals of ``t``."""
    return {
        "a": t.a,
        "b": t.b,
        "c": t.c,
        "alpha": t.alpha,
        "beta": t.beta,
        "gamma": t.gamma,
        "n_a": t.n_a,
        "n_b": t.n_b,
        "n_c": t.n_c,
    }
