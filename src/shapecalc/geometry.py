"""Simplex geometry in R^N: volumes, facet enumeration, outward normals,
facet measures, and triangle-specific derived quantities.

The facets of a simplex are held as arrays, one row per facet
(struct of arrays): ``Simplex.facets`` is a ``Facets`` sequence whose
``vertices``, ``normals`` and ``measures`` cover all N+1 facets at once, and
it builds a single ``Facet`` only when one is indexed.

Vertex, normal and measure arrays are read-only; ``Simplex``, ``Facets`` and
``Facet`` are frozen dataclasses. ``Triangle`` is a plain class whose
attributes can be reassigned; only its arrays are read-only.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateSimplexError, DimensionMismatchError, FloatRangeError

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
class Facets(Sequence):
    """All N+1 facets of an N-simplex, ordered by opposite-vertex index.

    ``vertices`` has shape (N+1, N, N): row i is the simplex's vertex array
    without vertex i. ``normals`` (N+1, N) holds the outward unit normals and
    ``measures`` (N+1,) the (N-1)-dimensional areas. ``facets[i]`` (negative
    ``i`` too) builds the ``Facet`` of row i on demand.
    """

    vertices: np.ndarray
    normals: np.ndarray
    measures: np.ndarray

    def __len__(self) -> int:
        return self.measures.shape[0]

    def __getitem__(self, index) -> Facet:
        n = len(self)
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"facet index {index} out of range for {n} facets")
        return Facet(i, self.vertices[i], self.normals[i], float(self.measures[i]))


@dataclass(frozen=True, eq=False)
class Simplex:
    """Non-degenerate N-simplex given by N+1 vertices (rows) in R^N, N >= 2.

    ``volume`` is |det(v_1 - v_0, ..., v_N - v_0)| / N!, from the determinant
    that the degeneracy gate computes.
    """

    vertices: np.ndarray
    volume: float = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise DimensionMismatchError(
                f"expected (N+1, N) vertex array, got shape {v.shape}"
            )
        if v.shape[1] < 2:
            raise DimensionMismatchError("simplex dimension must be at least 2")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        n = self.dim
        # With every |coordinate| <= peak, the edges, |det| and scale**N are
        # at most (2 sqrt(N) peak)**N (Hadamard's inequality), so below this
        # bound the gate cannot overflow. nan and inf fail the comparison
        # too, so one reduction also screens non-finite entries; only the
        # rare rest pays for the checked path.
        peak = np.abs(v).max()
        if peak < sys.float_info.max ** (1.0 / n) / (2.0 * math.sqrt(n)):
            det = self._gated_det()
        elif not np.isfinite(peak):
            raise ValueError("simplex vertices have non-finite entries")
        else:
            try:
                with np.errstate(over="raise"):
                    det = self._gated_det()
            except (FloatingPointError, OverflowError) as err:
                raise FloatRangeError(
                    "vertex coordinates overflow the float range"
                ) from err
        object.__setattr__(self, "volume", float(det / math.factorial(n)))

    def _gated_det(self) -> float:
        """|det(v_1 - v_0, ..., v_N - v_0)|, or DegenerateSimplexError when
        it is at most DEGENERACY_EPS * scale**N."""
        v = self.vertices
        n = self.dim
        det = abs(np.linalg.det(v[1:] - v[0]))
        if det <= DEGENERACY_EPS * self.scale**n:
            raise DegenerateSimplexError(
                f"degenerate simplex: |det| = {det:.3e} <= "
                f"{DEGENERACY_EPS} * scale^{n}"
            )
        return det

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
    def facets(self) -> Facets:
        """All N+1 facets, ordered by ascending opposite-vertex index.

        Closed form from the barycentric gradients: the rows of inv(E)^T,
        E = V[1:] - V[0], are grad lambda_1..N, and grad lambda_0 is minus
        their sum. Facet i lies on lambda_i = 0, so its outward normal is
        -grad lambda_i / |grad lambda_i|; its distance to vertex i is
        1 / |grad lambda_i|, so base-times-height gives the measure
        N * volume * |grad lambda_i|. The facet vertex arrays come from one
        gather: entry j of row i is vertex j + (j >= i).
        """
        v = self.vertices
        n = self.dim
        grads = np.linalg.inv(v[1:] - v[0]).T
        grads = np.vstack([-grads.sum(axis=0), grads])
        lengths = np.linalg.norm(grads, axis=1)
        normals = -grads / lengths[:, None]
        measures = n * self.volume * lengths
        j = np.arange(n)
        vertices = v[j + (j >= np.arange(n + 1)[:, None])]
        for a in (vertices, normals, measures):
            a.flags.writeable = False
        return Facets(vertices, normals, measures)


def facet_measure(f: Facet) -> float:
    """(N-1)-dimensional measure of a facet, recomputed from its vertices as
    sqrt(det(E E^T)) / (N-1)! for the edge matrix E rooted at the first
    vertex: a check independent of the closed form behind ``f.measure``."""
    edges = f.vertices[1:] - f.vertices[0]
    det = float(np.linalg.det(edges @ edges.T))
    return math.sqrt(det) / math.factorial(edges.shape[0])


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
        self.n_a, self.n_b, self.n_c = self.simplex.facets.normals

    def __repr__(self):
        return (
            f"Triangle(A={self.A.tolist()}, B={self.B.tolist()}, "
            f"C={self.C.tolist()})"
        )
