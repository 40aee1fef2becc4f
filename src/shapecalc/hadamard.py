"""Three independent evaluations of the shape derivative
d/dt integral_{Omega_t} f at t = 0, for a simplex Omega perturbed along an
affine field xi:

* boundary route: exact facet-wise quadrature of f * (xi . n), one stacked
                  product over all facets: ``boundary_integral``, the one
                  route that also takes a stacked ``Simplex``,
* volume route:   centroid rule on the (affine) divergence density,
* fd route:       Richardson-extrapolated central differences of exact
                  integrals over the four perturbed images: one
                  ``perturbed_integral`` call, which gates the images as
                  one stack and returns one float per step.

Every other route raises ``DimensionMismatchError`` for a stack before any
arithmetic. The boundary and fd routes take ``values``, xi at the vertices,
in their shape: ``hadamard_derivative`` evaluates xi once for both. All
quadrature is exact for the affine f and xi handled here, so the
boundary/volume residual reflects geometry and rounding only. The boundary
route evaluates all facets with stacked ``matmul`` products; unlike
``einsum``, these round each facet as a lone per-facet product does, so the
per-facet values match a facet-by-facet loop bit for bit, and each item of
a stack gets the bits it gets alone. ``hadamard_derivative`` raises
``FloatRangeError`` when a route overflows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplexError, DimensionMismatchError, float_range
from .fields import AffineDensity, AffineField, div_density_field
from .geometry import Simplex, _check_lone, _facet_index, gated_volumes

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class DerivativeReport:
    """The three derivative evaluations and their reconciliation.

    ``per_facet`` lists [facet index, boundary contribution] in ascending
    facet order; ``boundary_total`` is their sum in exactly that order.
    """

    per_facet: list[list]
    boundary_total: float
    volume_total: float
    fd_estimate: float
    fd_step: float
    residual_bv: float
    residual_bf: float

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declaration order


def _check_dims(s: Simplex, f: AffineDensity, xi: AffineField):
    _check_lone(s)
    if f.dim != s.dim or xi.dim != s.dim:
        raise DimensionMismatchError(
            f"simplex dim {s.dim}, density dim {f.dim}, field dim {xi.dim}")


def _check_values(s: Simplex, values, f: AffineDensity):
    if np.shape(values) != s.vertices.shape:
        raise DimensionMismatchError(f"field values of shape {np.shape(values)} need "
                                     f"the vertices' shape {s.vertices.shape}")
    if f.dim != s.dim:
        raise DimensionMismatchError(f"simplex dim {s.dim}, density dim {f.dim}")


def _decomposition(values: list[float]) -> tuple[float, list[list]]:
    total = 0.0
    for value in values:  # not sum(): it compensates from Python 3.12 on
        total += value
    return total, [[i, value] for i, value in enumerate(values)]


def boundary_integral(s: Simplex, f: AffineDensity, values):
    """Integral of f * (xi . n) over the boundary of ``s``, xi at its vertices
    being ``values``.

    On each facet the integrand is a product of two affine functions, so the
    degree-2 barycentric moment rule
    int_F lam_i lam_j dS = measure(F) * (1 + delta_ij) / ((d+1)(d+2)),
    d = N - 1, integrates it exactly:
    int_F u v dS = measure / (N (N+1)) * (sum(u) sum(v) + sum(u v)),
    with u = f and v = xi . n at the facet's N vertices. All N+1 facets are
    evaluated at once, as stacked products over facet points gathered for
    this call only, unless f is a nonzero constant, which is its value on
    every point; xi's values at the vertices are gathered, which on the
    SkylakeX and Sandybridge OpenBLAS kernels (not always on Haswell or
    Prescott) gives the bits of evaluating xi on those points.

    Returns (total, [facet index, contribution] lists); the total is
    accumulated in ascending facet-index order. For a stacked ``Simplex``,
    returns the list of those pairs.
    """
    _check_values(s, values, f)
    n = s.dim
    facets, index = s.facets, _facet_index(n)
    if f.constant and not f.gradient.any():
        # f == c != 0 (f == 1 in every proof): c + (points @ 0) is c on every
        # point, while a zero c would keep that product's signed zero.
        u = np.full(s.vertices.shape[:-2] + index.shape, f.constant)
    else:
        # f stays on the gathered points: evaluated once per vertex and
        # gathered, its dot products take another BLAS kernel and round
        # differently.
        u = f.at(np.take(s.vertices, index, axis=-2))
    x = np.take(values, index, axis=-2)
    v = np.matmul(x, facets.normals[..., None])[..., 0]
    terms = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=-1) * v.sum(axis=-1) + (u * v).sum(axis=-1)
    )).tolist()
    return [_decomposition(t) for t in terms] if s.vertices.ndim == 3 else _decomposition(terms)


def volume_integral(s: Simplex, f: AffineDensity, xi: AffineField) -> float:
    """Integral of div(f xi) over ``s``, via the centroid rule (exact for the
    affine divergence density)."""
    _check_dims(s, f, xi)
    density = div_density_field(f, xi)
    return s.volume * float(density.at(s.centroid))


def perturbed_integral(
    s: Simplex, f: AffineDensity, values, steps: Sequence[float]
) -> list[float]:
    """Integral of f over the image of ``s`` under x -> x + t * xi(x), for
    each step t of ``steps``, as a list of floats; xi at the vertices is ``values``.

    Exact: an affine map sends the simplex to a simplex, and the centroid
    rule integrates the affine f exactly on each image of the one stack.
    """
    _check_lone(s)
    _check_values(s, values, f)
    steps = np.asarray(steps, dtype=float)
    moved = s.vertices + steps[:, None, None] * values
    try:
        volumes, _ = gated_volumes(moved)
    except DegenerateSimplexError as err:
        raise DegenerateSimplexError("perturbed simplex is degenerate at t = "
                                     f"{steps[err.index].item()!r}") from err
    # Python floats, so an overflow gives inf; f.at(c) rounds as on a lone image.
    centroids = moved.sum(axis=1) / moved.shape[1]  # the bits of .mean(axis=1)
    return [v * float(f.at(c)) for v, c in zip(volumes, centroids)]


def fd_derivative(s: Simplex, f: AffineDensity, values) -> tuple[float, float]:
    """(estimate, h): the central-difference estimate of the shape derivative
    at t = 0, with one Richardson extrapolation level (steps h and h/2), xi
    at the vertices being ``values``, and h = cbrt(machine eps) * scale(s) /
    max(1, max_v |xi(v)|), the usual truncation/rounding balance."""
    _check_lone(s)
    _check_values(s, values, f)
    # The row norms as np.linalg.norm(values, axis=1) computes them, bit for bit.
    field_scale = float(np.sqrt((values * values).sum(axis=1)).max())
    h = _EPS ** (1.0 / 3.0) * s.scale / max(1.0, field_scale)
    half = h / 2.0
    plus, minus, half_plus, half_minus = perturbed_integral(
        s, f, values, [h, -h, half, -half])
    coarse = (plus - minus) / (2.0 * h)
    fine = (half_plus - half_minus) / (2.0 * half)
    return (4.0 * fine - coarse) / 3.0, h


def hadamard_derivative(s: Simplex, f: AffineDensity, xi: AffineField) -> DerivativeReport:
    """Evaluate all three routes on one simplex and report their residuals;
    s, f and xi are checked before xi is evaluated, once, at the vertices.
    Raises ``FloatRangeError`` if any route overflows the float range."""
    _check_dims(s, f, xi)
    with float_range("the shape derivative overflows the float range") as finite:
        values = xi.at(s.vertices)
        boundary_total, per_facet = boundary_integral(s, f, values)
        volume_total = volume_integral(s, f, xi)
        fd_estimate, step = fd_derivative(s, f, values)
        residual_bv = abs(boundary_total - volume_total)
        residual_bf = abs(boundary_total - fd_estimate)
        finite(boundary_total, volume_total, fd_estimate, residual_bv, residual_bf)
    return DerivativeReport(
        per_facet=per_facet,
        boundary_total=boundary_total,
        volume_total=volume_total,
        fd_estimate=fd_estimate,
        fd_step=step,
        residual_bv=residual_bv,
        residual_bf=residual_bf,
    )
