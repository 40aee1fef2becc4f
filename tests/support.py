"""Shared oracles and instance generators for the test suite.

The Cayley-Menger oracle is deliberately independent of the Gram-determinant
route used inside the package.
"""

import math

import numpy as np

from shapecalc import AffineDensity, AffineField, DegenerateSimplexError, Simplex

_EPS = float(np.finfo(float).eps)


def cayley_menger_measure(points) -> float:
    """k-simplex measure from pairwise squared distances only."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0] - 1
    size = k + 2
    m = np.ones((size, size))
    m[0, 0] = 0.0
    for i in range(k + 1):
        for j in range(k + 1):
            d = pts[i] - pts[j]
            m[i + 1, j + 1] = float(d @ d)
    det = float(np.linalg.det(m))
    vol2 = (-1.0) ** (k + 1) / (2.0**k * math.factorial(k) ** 2) * det
    return math.sqrt(max(vol2, 0.0))


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_simplex(
    rng: np.random.Generator, dim: int, min_rel_det: float = 1e-2
) -> Simplex:
    """Vertices uniform in [-1, 1]^dim, resampled until the edge determinant
    clears min_rel_det * scale^dim (keeps test instances well-conditioned)."""
    while True:
        try:
            s = Simplex(rng.uniform(-1.0, 1.0, (dim + 1, dim)))
        except DegenerateSimplexError:
            continue
        if s.volume * math.factorial(dim) > min_rel_det * s.scale**dim:
            return s


def random_field(rng: np.random.Generator, dim: int) -> AffineField:
    return AffineField(
        rng.uniform(-1.0, 1.0, (dim, dim)), rng.uniform(-1.0, 1.0, dim)
    )


def random_density(rng: np.random.Generator, dim: int) -> AffineDensity:
    return AffineDensity(rng.uniform(-1.0, 1.0, dim), float(rng.uniform(-1.0, 1.0)))


def moved_field(xi: AffineField, rotation: np.ndarray, shift: np.ndarray) -> AffineField:
    """The pushforward of xi under y = R x + u, i.e. xi'(y) = R xi(R^T (y - u))."""
    matrix = rotation @ xi.matrix @ rotation.T
    return AffineField(matrix, rotation @ xi.offset - matrix @ shift)


def moved_density(f: AffineDensity, rotation: np.ndarray, shift: np.ndarray) -> AffineDensity:
    """The pullback-compatible density f'(y) = f(R^T (y - u))."""
    gradient = rotation @ f.gradient
    return AffineDensity(gradient, f.constant - float(gradient @ shift))


def boundary_integral_per_facet(s: Simplex, f: AffineDensity, xi: AffineField):
    """Reference boundary route, one ``Facet`` at a time: per facet the exact
    moment rule measure / (N (N+1)) * (sum(u) sum(v) + sum(u v)), with
    u = f and v = xi . n at the facet's own vertices.

    Returns (values, bounds): ``bounds[i]`` is 4 (N+1) eps times the sum of
    the magnitudes of facet i's terms, a rounding budget for any other
    evaluation order of the same products and sums."""
    n = s.dim
    values, bounds = [], []
    for facet in s.facets:
        u = f.at(facet.vertices)
        v = xi.at(facet.vertices) @ facet.normal
        weight = facet.measure / (n * (n + 1))
        values.append(float(weight * (u.sum() * v.sum() + (u * v).sum())))
        terms = weight * (np.abs(u).sum() * np.abs(v).sum() + np.abs(u * v).sum())
        bounds.append(4 * (n + 1) * _EPS * float(terms))
    return values, bounds
