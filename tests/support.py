"""Shared oracles and instance generators for the test suite.

The Cayley-Menger oracle is deliberately independent of the Gram-determinant
route used inside the package.
"""

import math
import sys
from contextlib import nullcontext

import numpy as np

from shapecalc import (
    DEGENERACY_EPS,
    AffineDensity,
    AffineField,
    DegenerateSimplexError,
    RightSimplexSpec,
    Simplex,
)
from shapecalc.errors import float_range

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


def _qr_frame(matrix: np.ndarray) -> np.ndarray:
    """Q factor of ``matrix``, column signs fixed so that diag(R) >= 0."""
    q, r = np.linalg.qr(matrix)
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q = _qr_frame(rng.standard_normal((dim, dim)))
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
    """Reference boundary route, one facet row at a time: per facet the exact
    moment rule measure / (N (N+1)) * (sum(u) sum(v) + sum(u v)), with
    u = f and v = xi . n at the facet's own vertices.

    Returns (values, bounds): ``bounds[i]`` is 4 (N+1) eps times the sum of
    the magnitudes of facet i's terms, a rounding budget for any other
    evaluation order of the same products and sums."""
    n = s.dim
    values, bounds = [], []
    facets = s.facets
    for vertices, normal, measure in zip(
        facets.vertices, facets.normals, facets.measures.tolist()
    ):
        u = f.at(vertices)
        v = xi.at(vertices) @ normal
        weight = measure / (n * (n + 1))
        values.append(float(weight * (u.sum() * v.sum() + (u * v).sum())))
        terms = weight * (np.abs(u).sum() * np.abs(v).sum() + np.abs(u * v).sum())
        bounds.append(4 * (n + 1) * _EPS * float(terms))
    return values, bounds


def boundary_integral_per_facet_vertex(s: Simplex, f: AffineDensity, xi: AffineField):
    """Reference stacked boundary route that evaluates the field at every
    facet's own vertices, ``xi.at(s.facets.vertices)``, instead of once per
    simplex vertex; otherwise the same products and sums in the same order.
    Returns (total, per-facet pairs) like ``boundary_integral``."""
    n = s.dim
    facets = s.facets
    u = f.at(facets.vertices)
    x = xi.at(facets.vertices)
    v = np.matmul(x, facets.normals[:, :, None])[:, :, 0]
    values = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=1) * v.sum(axis=1) + (u * v).sum(axis=1)
    )).tolist()
    total = 0.0
    for value in values:
        total += value
    return total, tuple(enumerate(values))


def random_right_simplex_reference(
    seed: int, dim: int, leg_mode: str = "orthonormal"
) -> RightSimplexSpec:
    """Reference right-simplex generator: one QR per matrix, and the SVD
    condition number ``np.linalg.cond`` on every draw. The package's
    generator must give the same legs and apex bit for bit."""
    rng = np.random.default_rng(seed)
    while True:
        raw = rng.standard_normal((dim, dim))
        if np.linalg.cond(raw) > 1e6:
            continue
        legs = _qr_frame(raw).T
        if leg_mode == "scaled":
            legs = legs * rng.uniform(0.5, 2.0, size=dim)[:, None]
        rotation = _qr_frame(rng.standard_normal((dim, dim)))
        if np.linalg.det(rotation) < 0.0:
            rotation[:, 0] = -rotation[:, 0]
        apex = rng.uniform(-1.0, 1.0, size=dim)
        return RightSimplexSpec(apex=apex, legs=legs @ rotation.T)


def perturbed_integral_per_image(
    s: Simplex, f: AffineDensity, xi: AffineField, t: float
) -> float:
    """Reference fd image integral, one ``Simplex`` per step: the moved
    vertices are built, gated and integrated as a lone simplex, with the
    centroid rule volume * f(centroid)."""
    image = Simplex(s.vertices + t * xi.at(s.vertices))
    return float(image.volume * f(image.centroid))


def fd_derivative_per_image(
    s: Simplex, f: AffineDensity, xi: AffineField, h: float
) -> float:
    """Reference Richardson-extrapolated central difference, composed from
    four ``perturbed_integral_per_image`` calls in the order h, -h, h/2,
    -h/2."""

    def central(hh: float) -> float:
        return (
            perturbed_integral_per_image(s, f, xi, hh)
            - perturbed_integral_per_image(s, f, xi, -hh)
        ) / (2.0 * hh)

    coarse = central(h)
    fine = central(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def gated_volumes_two_path(stack: np.ndarray) -> tuple[list[float], list[float]]:
    """Reference degeneracy gate with two paths: stacks whose coordinates
    all lie below (float max)**(1/N) / (2 sqrt(N)) skip the overflow screen,
    since Hadamard's inequality rules overflow out there; the rest run
    under ``float_range``. The package's one-path ``gated_volumes`` must
    give the same volumes and scales bit for bit, or the same error."""
    n = stack.shape[-1]
    peak = np.abs(stack).max()
    if peak < sys.float_info.max ** (1.0 / n) / (2.0 * math.sqrt(n)):
        screen = nullcontext()
    elif not np.isfinite(peak):
        raise ValueError("simplex vertices have non-finite entries")
    else:
        screen = float_range("vertex coordinates overflow the float range")
    with screen:
        with np.errstate(divide="ignore"):
            dets = np.linalg.det(stack[:, 1:] - stack[:, :1]).tolist()
        diffs = stack[:, :, None, :] - stack[:, None, :, :]
        scales = np.sqrt((diffs**2).sum(axis=-1).max(axis=(1, 2))).tolist()
        for i, (det, scale) in enumerate(zip(dets, scales)):
            if abs(det) <= DEGENERACY_EPS * scale**n:
                raise DegenerateSimplexError(
                    f"degenerate simplex: |det| = {abs(det):.3e} <= "
                    f"{DEGENERACY_EPS} * scale^{n}", index=i)
    return [abs(det) / math.factorial(n) for det in dets], scales
