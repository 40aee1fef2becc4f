"""Three independent evaluations of the shape derivative
d/dt integral_{Omega_t} f at t = 0, for a simplex Omega perturbed along an
affine field xi:

* boundary route: exact facet-wise quadrature of f * (xi . n), one stacked
                  product over all facets: ``boundary_integral`` on one
                  simplex and one field, or on a stack of simplices
                  (a stacked ``Simplex``) and a stack of fields, one each,
* volume route:   centroid rule on the (affine) divergence density,
* fd route:       Richardson-extrapolated central differences of exact
                  integrals over the four perturbed images: one
                  ``perturbed_integral`` call, which gates the images as
                  one stack and returns one float per step.

All quadrature is exact for the affine f and xi handled here, so the
boundary/volume residual reflects geometry and rounding only. The boundary
route evaluates all facets with stacked ``matmul`` products; unlike
``einsum``, these round each facet as a lone per-facet product does, so the
per-facet values match a facet-by-facet loop bit for bit, and each item of
a stack gets the bits it gets alone.
``hadamard_derivative`` raises ``FloatRangeError`` when a route overflows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplexError, DimensionMismatchError, float_range
from .fields import AffineDensity, AffineField, div_density_field
from .geometry import Simplex, _facet_index, gated_volumes

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
    if f.dim != s.dim or xi.dim != s.dim:
        raise DimensionMismatchError(
            f"simplex dim {s.dim}, density dim {f.dim}, field dim {xi.dim}"
        )
    if xi.offset.ndim > 1 and xi.offset.shape[:-1] != s.vertices.shape[:-2]:
        raise DimensionMismatchError(f"a stack of fields {xi.offset.shape[:-1]} "
                                     f"needs as many simplices, got {s.vertices.shape[:-2]}")


def _decomposition(values: list[float]) -> tuple[float, list[list]]:
    total = 0.0
    for value in values:  # not sum(): it compensates from Python 3.12 on
        total += value
    return total, [[i, value] for i, value in enumerate(values)]


def boundary_integral(s: Simplex, f: AffineDensity, xi: AffineField):
    """Integral of f * (xi . n) over the boundary of ``s``.

    On each facet the integrand is a product of two affine functions, so the
    degree-2 barycentric moment rule
    int_F lam_i lam_j dS = measure(F) * (1 + delta_ij) / ((d+1)(d+2)),
    d = N - 1, integrates it exactly:
    int_F u v dS = measure / (N (N+1)) * (sum(u) sum(v) + sum(u v)),
    with u = f and v = xi . n at the facet's N vertices. All N+1 facets are
    evaluated at once, as stacked products over facet points gathered for
    this call only; xi is evaluated once per simplex vertex and gathered,
    which on the SkylakeX and Sandybridge OpenBLAS kernels (not always on
    Haswell or Prescott) gives the bits of evaluating it on those points.

    Returns (total, [facet index, contribution] lists); the total is
    accumulated in ascending facet-index order. For a stacked ``Simplex``
    and a stack of fields, one per simplex, returns the list of those pairs.
    """
    _check_dims(s, f, xi)
    n = s.dim
    facets, index = s.facets, _facet_index(n)
    # f stays on the gathered points: evaluated once per vertex and gathered,
    # its dot products take another BLAS kernel and round differently.
    u = f.at(np.take(s.vertices, index, axis=-2))
    x = np.take(xi.at(s.vertices), index, axis=-2)
    v = np.matmul(x, facets.normals[..., None])[..., 0]
    values = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=-1) * v.sum(axis=-1) + (u * v).sum(axis=-1)
    )).tolist()
    return [_decomposition(v) for v in values] if s.vertices.ndim == 3 else _decomposition(values)


def volume_integral(s: Simplex, f: AffineDensity, xi: AffineField) -> float:
    """Integral of div(f xi) over ``s``, via the centroid rule (exact for the
    affine divergence density)."""
    _check_dims(s, f, xi)
    density = div_density_field(f, xi)
    return s.volume * float(density.at(s.centroid))


def perturbed_integral(
    s: Simplex, f: AffineDensity, xi: AffineField, steps: Sequence[float]
) -> list[float]:
    """Integral of f over the image of ``s`` under x -> x + t * xi(x), for
    each step t of ``steps``, as a list of floats.

    Exact: an affine map sends the simplex to a simplex, and the centroid
    rule integrates the affine f exactly on each image of the one stack.
    """
    _check_dims(s, f, xi)
    steps = np.asarray(steps, dtype=float)
    moved = s.vertices + steps[:, None, None] * xi.at(s.vertices)
    try:
        volumes, _ = gated_volumes(moved)
    except DegenerateSimplexError as err:
        raise DegenerateSimplexError("perturbed simplex is degenerate at t = "
                                     f"{steps[err.index].item()!r}") from err
    # Python floats, so an overflow gives inf; f.at(c) rounds as on a lone image.
    return [v * float(f.at(c)) for v, c in zip(volumes, moved.mean(axis=1))]


def default_fd_step(s: Simplex, xi: AffineField) -> float:
    """cbrt(machine eps) * scale(s) / max(1, field magnitude over vertices):
    the usual truncation/rounding balance for central differences."""
    field_scale = float(np.linalg.norm(xi.at(s.vertices), axis=1).max())
    return _EPS ** (1.0 / 3.0) * s.scale / max(1.0, field_scale)


def fd_derivative(
    s: Simplex, f: AffineDensity, xi: AffineField, step: float | None = None
) -> float:
    """Central-difference estimate of the shape derivative at t = 0, with one
    Richardson extrapolation level (steps h and h/2)."""
    h = default_fd_step(s, xi) if step is None else float(step)
    half = h / 2.0
    plus, minus, half_plus, half_minus = perturbed_integral(
        s, f, xi, [h, -h, half, -half])
    coarse = (plus - minus) / (2.0 * h)
    fine = (half_plus - half_minus) / (2.0 * half)
    return (4.0 * fine - coarse) / 3.0


def hadamard_derivative(
    s: Simplex, f: AffineDensity, xi: AffineField
) -> DerivativeReport:
    """Evaluate all three routes and report their residuals.

    Raises ``FloatRangeError`` if any route overflows the float range.
    """
    with float_range("the shape derivative overflows the float range") as finite:
        boundary_total, per_facet = boundary_integral(s, f, xi)
        volume_total = volume_integral(s, f, xi)
        step = default_fd_step(s, xi)
        fd_estimate = fd_derivative(s, f, xi, step)
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
