"""Three independent evaluations of the shape derivative
d/dt integral_{Omega_t} f at t = 0, for a simplex Omega perturbed along an
affine field xi:

* boundary route: exact facet-wise quadrature of f * (xi . n), one stacked
                  product over all facets of ``Simplex.facets``,
* volume route:   centroid rule on the (affine) divergence density,
* fd route:       Richardson-extrapolated central differences of exactly
                  computed perturbed integrals.

All quadrature is exact for the affine f and xi handled here, so the
boundary/volume residual reflects geometry and rounding only. The boundary
route evaluates all facets with stacked ``matmul`` products; unlike
``einsum``, these round each facet as a lone per-facet product does, so the
per-facet values match a facet-by-facet loop bit for bit.
``hadamard_derivative`` raises ``FloatRangeError`` when a route overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplexError, DimensionMismatchError, FloatRangeError
from .fields import AffineDensity, AffineField, div_density_field
from .geometry import Simplex

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class DerivativeReport:
    """The three derivative evaluations and their reconciliation.

    ``per_facet`` lists (facet index, boundary contribution) in ascending
    facet order; ``boundary_total`` is their sum in exactly that order.
    """

    per_facet: tuple[tuple[int, float], ...]
    boundary_total: float
    volume_total: float
    fd_estimate: float
    fd_step: float
    residual_bv: float
    residual_bf: float

    def to_dict(self) -> dict:
        return {
            "per_facet": [[i, v] for i, v in self.per_facet],
            "boundary_total": self.boundary_total,
            "volume_total": self.volume_total,
            "fd_estimate": self.fd_estimate,
            "fd_step": self.fd_step,
            "residual_bv": self.residual_bv,
            "residual_bf": self.residual_bf,
        }


def _check_dims(s: Simplex, f: AffineDensity, xi: AffineField):
    if f.dim != s.dim or xi.dim != s.dim:
        raise DimensionMismatchError(
            f"simplex dim {s.dim}, density dim {f.dim}, field dim {xi.dim}"
        )


def boundary_integral(
    s: Simplex, f: AffineDensity, xi: AffineField
) -> tuple[float, tuple[tuple[int, float], ...]]:
    """Integral of f * (xi . n) over the boundary of ``s``.

    On each facet the integrand is a product of two affine functions, so the
    degree-2 barycentric moment rule
    int_F lam_i lam_j dS = measure(F) * (1 + delta_ij) / ((d+1)(d+2)),
    d = N - 1, integrates it exactly:
    int_F u v dS = measure / (N (N+1)) * (sum(u) sum(v) + sum(u v)),
    with u = f and v = xi . n at the facet's N vertices. All N+1 facets are
    evaluated at once, as stacked products over ``s.facets.vertices``.

    Returns (total, per-facet contributions); the total is accumulated in
    ascending facet-index order.
    """
    _check_dims(s, f, xi)
    n = s.dim
    facets = s.facets
    u = f.at(facets.vertices)
    x = xi.at(facets.vertices)
    v = np.matmul(x, facets.normals[:, :, None])[:, :, 0]
    values = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=1) * v.sum(axis=1) + (u * v).sum(axis=1)
    )).tolist()
    total = 0.0
    for value in values:  # not sum(): it compensates from Python 3.12 on
        total += value
    return total, tuple(enumerate(values))


def volume_integral(s: Simplex, f: AffineDensity, xi: AffineField) -> float:
    """Integral of div(f xi) over ``s``, via the centroid rule (exact for the
    affine divergence density)."""
    _check_dims(s, f, xi)
    density = div_density_field(f, xi)
    return float(s.volume * density(s.centroid))


def perturbed_integral(
    s: Simplex, f: AffineDensity, xi: AffineField, t: float
) -> float:
    """Integral of f over the image of ``s`` under x -> x + t * xi(x).

    Exact: an affine map sends the simplex to a simplex, and the centroid
    rule integrates the affine f exactly on the image.
    """
    _check_dims(s, f, xi)
    moved = s.vertices + t * xi.at(s.vertices)
    try:
        image = Simplex(moved)
    except DegenerateSimplexError as err:
        raise DegenerateSimplexError(
            f"perturbed simplex is degenerate at t = {t!r}"
        ) from err
    return float(image.volume * f(image.centroid))


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

    def central(hh: float) -> float:
        return (
            perturbed_integral(s, f, xi, hh)
            - perturbed_integral(s, f, xi, -hh)
        ) / (2.0 * hh)

    coarse = central(h)
    fine = central(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def hadamard_derivative(
    s: Simplex, f: AffineDensity, xi: AffineField
) -> DerivativeReport:
    """Evaluate all three routes and report their residuals.

    Raises ``FloatRangeError`` if any route overflows the float range (the
    inputs are finite, so an invalid operation can only follow an overflow).
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            boundary_total, per_facet = boundary_integral(s, f, xi)
            volume_total = volume_integral(s, f, xi)
            step = default_fd_step(s, xi)
            fd_estimate = fd_derivative(s, f, xi, step)
    except FloatingPointError as err:
        raise FloatRangeError(
            f"the shape derivative overflows the float range ({err})"
        ) from err
    report = DerivativeReport(
        per_facet=per_facet,
        boundary_total=boundary_total,
        volume_total=volume_total,
        fd_estimate=fd_estimate,
        fd_step=step,
        residual_bv=abs(boundary_total - volume_total),
        residual_bf=abs(boundary_total - fd_estimate),
    )
    if not all(map(math.isfinite, (report.boundary_total, report.volume_total,
                                   report.fd_estimate, report.residual_bv,
                                   report.residual_bf))):
        raise FloatRangeError("the shape derivative overflows the float range")
    return report
