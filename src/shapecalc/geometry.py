"""Simplex geometry in R^N: the degeneracy gate, volumes, outward facet
normals and measures, and triangle-specific derived quantities.

``gated_volumes`` gates a (M, N+1, N) stack of vertex arrays on one path,
and ``stacked_facets`` builds the facets of one simplex or of a stack from
one stacked inverse, raising ``FloatRangeError`` where they overflow;
``Simplex`` runs both, on one simplex or on a stack of them, and computes
the facets on first read. Each item gets the bits it gets alone: stacked
``det`` and ``inv`` round each matrix as a lone call does, and each item's
normals keep the lone column-major layout. A ``Triangle`` holds its
read-only (3, 2) ``vertices``, rows A, B and C, and builds its simplex on
first read unless its float screen cannot settle the gate; its side
normals are views of that simplex's facets, so building one computes
none; the same properties read a stacked simplex's. ``Triangle.over``
reads a given simplex instead and builds none; ``base_height_volume``
takes one simplex. Vertex, normal and measure arrays are read-only;
``Simplex``, ``Facets`` and ``Triangle`` are frozen dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (DegenerateSimplexError, DimensionMismatchError, ShapeValidationError,
                     float_range)

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
    if not np.isfinite(v).all():
        raise ShapeValidationError(f"{name} has non-finite entries")
    v.flags.writeable = False
    return v


def _check_lone(s: Simplex):
    if s.vertices.ndim != 2:
        raise DimensionMismatchError(
            f"this route takes one simplex, not a stack of shape {s.vertices.shape}")


@dataclass(frozen=True, eq=False)
class Facets:
    """All N+1 facets of an N-simplex, row i for the facet opposite vertex i,
    as all that a proof reads of them: ``normals`` (N+1, N), the outward unit
    normals, and ``measures`` (N+1,), the (N-1)-dimensional areas. A stack
    of M simplices puts a leading (M,) axis on each array."""

    normals: np.ndarray
    measures: np.ndarray


def gated_volumes(stack: np.ndarray) -> tuple[list[float], list[float]]:
    """Volume |det(v_1 - v_0, ..., v_N - v_0)| / N! and longest edge (scale)
    of each vertex array of a (M, N+1, N) stack, as if gated alone. Raises
    DegenerateSimplexError, ``index`` its position, for the first array with
    |det| <= DEGENERACY_EPS * scale**N; ShapeValidationError for non-finite and
    FloatRangeError for overflowing vertices, and DimensionMismatchError
    for N < 2."""
    n = stack.shape[-1]
    if n < 2:
        raise DimensionMismatchError("simplex dimension must be at least 2")
    if not np.isfinite(stack).all():
        raise ShapeValidationError("simplex vertices have non-finite entries")
    with float_range("vertex coordinates overflow the float range"):
        with np.errstate(divide="ignore"):  # a zero pivot: |det| = 0 fails below
            dets = np.linalg.det(stack[:, 1:] - stack[:, :1]).tolist()
        ends = np.take(stack, _edge_index(n), axis=1)  # (M, 2, edges, N)
        diffs = ends[:, 0] - ends[:, 1]
        # sqrt is monotone, so the root of the largest square is the largest edge.
        scales = np.sqrt((diffs**2).sum(axis=-1).max(axis=-1)).tolist()
        for i, (det, scale) in enumerate(zip(dets, scales)):
            if abs(det) <= DEGENERACY_EPS * scale**n:
                raise DegenerateSimplexError(
                    f"degenerate simplex: |det| = {abs(det):.3e} <= "
                    f"{DEGENERACY_EPS} * scale^{n}", index=i)
    return [abs(det) / math.factorial(n) for det in dets], scales


@dataclass(frozen=True, eq=False)
class Simplex:
    """Non-degenerate N-simplex given by N+1 vertices (rows) in R^N, N >= 2,
    or a stack of M of them, vertices (M, N+1, N), gated as one.

    ``volume`` and ``scale`` (the longest edge length) come from
    ``gated_volumes``: floats for one simplex, lists of M floats for a
    stack, whose ``centroid`` and ``facets`` carry a leading (M,) axis.
    """

    vertices: np.ndarray
    volume: float | list[float] = field(init=False, repr=False)
    scale: float | list[float] = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim not in (2, 3) or v.shape[-2] != v.shape[-1] + 1:
            raise DimensionMismatchError(
                f"expected (N+1, N) vertex array, got shape {v.shape}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        lone = v.ndim == 2
        volumes, scales = gated_volumes(v[None] if lone else v)
        object.__setattr__(self, "volume", volumes[0] if lone else volumes)
        object.__setattr__(self, "scale", scales[0] if lone else scales)

    @property
    def dim(self) -> int:
        return self.vertices.shape[-1]

    @cached_property
    def centroid(self) -> np.ndarray:
        c = self.vertices.sum(axis=-2) / self.vertices.shape[-2]  # the bits of .mean
        c.flags.writeable = False
        return c

    @cached_property
    def facets(self) -> Facets:
        """All N+1 facets, ordered by ascending opposite-vertex index."""
        return stacked_facets(self.vertices, self.volume)


def stacked_facets(stack: np.ndarray, volumes) -> Facets:
    """The facets of a (..., N+1, N) vertex array that ``gated_volumes``
    accepted, given the volume of each simplex: one stacked inverse.

    Closed form from the barycentric gradients: the rows of inv(E)^T,
    E = V[1:] - V[0], are grad lambda_1..N, and grad lambda_0 is minus
    their sum. Facet i lies on lambda_i = 0, so its outward normal is
    -grad lambda_i / |grad lambda_i|; its distance to vertex i is
    1 / |grad lambda_i|, so base-times-height gives the measure
    N * volume * |grad lambda_i|. Raises ``FloatRangeError`` where the
    closed form overflows, as it does for a tiny simplex whose gradients
    square past the float range.
    """
    n = stack.shape[-1]
    with float_range("the facet geometry overflows the float range"):
        grads = np.linalg.inv(stack[..., 1:, :] - stack[..., :1, :]).swapaxes(-1, -2)
        # Column-major per item, as a lone transposed inverse is: the layout
        # fixes how the per-facet dots with the normals round.
        grads = np.concatenate([-grads.sum(axis=-2, keepdims=True), grads], axis=-2)
        lengths = np.sqrt((grads * grads).sum(axis=-1))
        normals = -grads / lengths[..., None]
        measures = (n * np.asarray(volumes))[..., None] * lengths
    normals.flags.writeable = measures.flags.writeable = False
    return Facets(normals, measures)


@cache
def _facet_index(n: int) -> np.ndarray:
    """Read-only facet gather index of an N-simplex: row i, entry j is j + (j >= i)."""
    index = np.arange(n) + (np.arange(n) >= np.arange(n + 1)[:, None])
    index.flags.writeable = False
    return index


@cache
def _edge_index(n: int) -> np.ndarray:
    """Read-only (2, (N+1)N/2) array of an N-simplex's edges: column k holds
    the vertex indices i < j of edge k."""
    index = np.array(np.triu_indices(n + 1, 1))
    index.flags.writeable = False
    return index


def facet_measure(vertices: np.ndarray) -> float:
    """(N-1)-dimensional measure of one facet, given its (N, N) vertex array,
    recomputed as sqrt(det(E E^T)) / (N-1)! for the edge matrix E rooted at
    the first vertex: a check independent of the closed form behind
    ``Facets.measures``."""
    edges = vertices[1:] - vertices[0]
    det = float(np.linalg.det(edges @ edges.T))
    return math.sqrt(det) / math.factorial(edges.shape[0])


def base_height_volume(s: Simplex, base_index: int) -> float:
    """Volume of ``s`` via the base-times-height rule (h / N) * measure(base),
    where h is the distance from the opposite vertex to the base's hull."""
    _check_lone(s)
    if not 0 <= base_index <= s.dim:
        raise ShapeValidationError(f"base_index must be in 0..{s.dim}, got {base_index}")
    facets = s.facets
    centroid = np.delete(s.vertices, base_index, axis=0).mean(axis=0)
    h = float(facets.normals[base_index] @ (centroid - s.vertices[base_index]))
    return h / s.dim * float(facets.measures[base_index])


def _side_normal(i: int) -> property:
    """Side i's outward unit normals: a read-only view of row ``sides[i]``
    of ``simplex.facets``, which the simplex computes once, on first read."""
    return property(lambda self: self.simplex.facets.normals[..., self.sides[i], :])


@dataclass(frozen=True, eq=False, repr=False)
class Triangle:
    """Plane triangle with labeled vertices A, B, C: ``Triangle(A, B, C)``.

    Derived data follows the classical naming: side lengths ``a`` = |BC|,
    ``b`` = |AC|, ``c`` = |AB|; interior angles ``alpha``, ``beta``, ``gamma``
    at A, B, C; outward unit side normals ``n_a``, ``n_b``, ``n_c``; and
    ``simplex``, whose facets ``sides`` are (a, b, c): side x is the facet
    opposite the like-named vertex, (0, 1, 2) unless the triangle is built
    ``over`` a given simplex. ``__post_init__`` checks the vertices as one
    (3, 2) array, ``vertices``, whose read-only rows A, B and C become
    (finite on its ``tolist()``; else a per-vertex check names the bad
    one), and sets every attribute in one update; ``simplex`` is built on
    first read, and the side normals are views of its facets.

    The gate is screened in floats (Shewchuk's static filter): cross =
    (B - A) x (C - A) and LAPACK's det of the same float edges both lie
    within about 4 eps * peak of the exact determinant, peak the largest
    squared side, so the gate passes where 1e-200 < peak < 1e200 and
    |cross| > 2 * DEGENERACY_EPS * peak. Elsewhere ``simplex`` is built at
    once, and raises or passes as the gate does.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    n_a, n_b, n_c = map(_side_normal, range(3))
    sides = (0, 1, 2)

    @cached_property
    def simplex(self) -> Simplex:
        return Simplex(self.vertices)

    @classmethod
    def over(cls, simplex: Simplex, sides: list[int]) -> Triangle:
        """The triangle whose A, B, C are the rows ``sides`` of ``simplex``,
        a triangle, and whose sides a, b, c are the facets opposite them.
        Its ``simplex`` is set before ``__post_init__`` runs, so it builds
        none of its own, even where the float screen cannot settle the gate."""
        _check_lone(simplex)
        if sorted(sides) != [0, 1, 2]:
            raise ShapeValidationError(f"sides must be 0, 1, 2 in some order, got {sides}")
        t = cls.__new__(cls)
        vars(t).update(simplex=simplex, sides=tuple(sides))
        t.__init__(*simplex.vertices[list(sides)])
        return t

    def __post_init__(self):
        try:
            v = np.array((self.A, self.B, self.C), dtype=float)
            rows = v.tolist()
            if v.shape != (3, 2) or not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
                raise ValueError
        except (TypeError, ValueError, OverflowError):  # as_vector names the bad vertex
            v = np.array([as_vector(getattr(self, k), 2, f"vertex {k}") for k in "ABC"])
            rows = v.tolist()
        v.flags.writeable = False
        (ax, ay), (bx, by), (cx, cy) = rows
        # The sides BC, AC, AB; the angles at A, B, C are (BA, CA), (AB, CB), (AC, BC).
        bc, ac, ab = (bx - cx, by - cy), (ax - cx, ay - cy), (ax - bx, ay - by)
        ba, ca, cb = (bx - ax, by - ay), (cx - ax, cy - ay), (cx - bx, cy - by)
        cross = [u[0] * w[1] - u[1] * w[0] for u, w in ((ba, ca), (ab, cb), (ac, bc))]
        peak = max(x * x + y * y for x, y in (bc, ac, ab))
        screened = 1e-200 < peak < 1e200 and abs(cross[0]) > 2 * DEGENERACY_EPS * peak
        if not screened and "simplex" not in vars(self):
            vars(self)["simplex"] = Simplex(v)  # the exact gate; past it, no dot overflows
        # One (1, 2) @ (2, 1) product per dot, the BLAS dot that d.dot(d) and
        # u @ w take: the squared sides, then u . w at A, B and C. The flat
        # list reshaped is the C layout of a (2, 6, 2) array of the pairs.
        pairs = np.array((*bc, *ac, *ab, *ba, *ab, *ac,
                          *bc, *ac, *ab, *ca, *cb, *bc)).reshape(2, 6, 2)
        dots = (pairs[0, :, None] @ pairs[1, :, :, None]).ravel().tolist()
        a, b, c = map(math.sqrt, dots[:3])
        # atan2 of (rejection, projection) magnitudes; stable near 0 and pi.
        alpha, beta, gamma = (math.atan2(abs(x), dot) for x, dot in zip(cross, dots[3:]))
        vars(self).update(zip("ABC", v), vertices=v, a=a, b=b, c=c,
                          alpha=alpha, beta=beta, gamma=gamma)

    def __repr__(self):
        return "Triangle(A={}, B={}, C={})".format(*self.vertices.tolist())
