"""Shared oracles, instance generators, the in-process CLI runner and the
second-kernel runner for the test suite.

The Cayley-Menger oracle is deliberately independent of the Gram-determinant
route used inside the package.
"""

import io
import math
import os
import struct
import subprocess
import sys
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import numpy as np

from shapecalc import (
    DEGENERACY_EPS,
    AffineDensity,
    AffineField,
    DegenerateSimplexError,
    NotRightTriangleError,
    RightSimplexSpec,
    ShapeValidationError,
    Simplex,
    TheoremReport,
    Triangle,
    theorems,
)
from shapecalc.errors import float_range
from shapecalc.geometry import _facet_index, as_vector
from shapecalc.theorems import MAX_REJECTIONS, MIN_ANGLE, RIGHT_ANGLE_TOL

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


def facet_vertices(s: Simplex) -> np.ndarray:
    """Facet i's vertex array in row i, (..., N+1, N, N): the gather that
    ``boundary_integral`` makes for its call, in the same facet order."""
    return np.take(s.vertices, _facet_index(s.dim), axis=-2)


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
        facet_vertices(s), facets.normals, facets.measures.tolist()
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
    facet's own vertices, ``xi.at(facet_vertices(s))``, instead of once per
    simplex vertex; otherwise the same products and sums in the same order.
    Returns (total, per-facet pairs) like ``boundary_integral``."""
    n = s.dim
    facets = s.facets
    u = f.at(facet_vertices(s))
    x = xi.at(facet_vertices(s))
    v = np.matmul(x, facets.normals[:, :, None])[:, :, 0]
    values = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=1) * v.sum(axis=1) + (u * v).sum(axis=1)
    )).tolist()
    total = 0.0
    for value in values:
        total += value
    return total, [[i, value] for i, value in enumerate(values)]


def boundary_integral_gathered(s: Simplex, f: AffineDensity, values: np.ndarray):
    """Reference boundary route that always evaluates the density on the
    gathered facet points, ``f.at(facet_vertices(s))``; otherwise the same
    products and sums in the same order as ``boundary_integral``, for a lone
    or a stacked ``Simplex`` and the field's values at its vertices."""
    n = s.dim
    facets = s.facets
    u = f.at(facet_vertices(s))
    x = np.take(values, _facet_index(n), axis=-2)
    v = np.matmul(x, facets.normals[..., None])[..., 0]
    values = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=-1) * v.sum(axis=-1) + (u * v).sum(axis=-1)
    )).tolist()

    def decomposition(values):
        total = 0.0
        for value in values:
            total += value
        return total, [[i, value] for i, value in enumerate(values)]

    return [decomposition(v) for v in values] if s.vertices.ndim == 3 else decomposition(values)


def _scaled_inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(R, d) with inv(m) = R / d for a nonsingular integer matrix ``m``, by
    fraction-free Gauss-Jordan elimination (Bareiss), whose divisions are
    exact; d is det(m) up to sign. Checked exactly: m @ R == d * I."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    previous = 1
    for k in range(n):
        p = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        for i in range(n):
            if i != k:
                factor = rows[i][k]
                rows[i] = [(pivot * a - factor * b) // previous
                           for a, b in zip(rows[i], rows[k])]
        previous = pivot
    inverse = [row[n:] for row in rows]
    for i in range(n):
        for j in range(n):
            assert sum(a * inverse[k][j] for k, a in enumerate(m[i])) == previous * (i == j)
    return inverse, previous


def exact_area_vectors(vertices) -> tuple[list[list[Fraction]], Fraction]:
    """The area vectors S_i = A_i n_i = -N vol grad(lambda_i) of the simplex
    with these (N+1, N) float vertices, exactly, and its exact volume.

    Floats are dyadic rationals, so the edge matrix E = V[1:] - V[0] is
    M / D exactly for an integer matrix M and a power of two D. The rows of
    inv(E)^T are grad(lambda_1..N), and grad(lambda_0) is minus their sum;
    with inv(M) = R / d, S_j = -sign(d) R[:, j] / (D^(N-1) (N-1)!) and
    vol = |d| / (D^N N!)."""
    v = [[Fraction(x) for x in row] for row in np.asarray(vertices, dtype=float).tolist()]
    n = len(v) - 1
    edges = [[a - b for a, b in zip(row, v[0])] for row in v[1:]]
    scale = max(x.denominator for row in edges for x in row)
    inverse, d = _scaled_inverse([[int(x * scale) for x in row] for row in edges])
    weight = Fraction(-1 if d > 0 else 1, scale ** (n - 1) * math.factorial(n - 1))
    areas = [[weight * inverse[k][j] for k in range(n)] for j in range(n)]
    return ([[-sum(column) for column in zip(*areas)]] + areas,
            Fraction(abs(d), scale**n * math.factorial(n)))


def _exact_affine(vertices, f: AffineDensity, xi: AffineField):
    """The exact vertices, and f and xi as exact functions of exact points."""
    points = [[Fraction(x) for x in row] for row in np.asarray(vertices).tolist()]
    gradient = [Fraction(g) for g in f.gradient.tolist()]
    matrix = [[Fraction(a) for a in row] for row in xi.matrix.tolist()]
    offset = [Fraction(b) for b in xi.offset.tolist()]
    return (points,
            lambda x: sum(g * c for g, c in zip(gradient, x)) + Fraction(float(f.constant)),
            lambda x: [sum(a * c for a, c in zip(row, x)) + b for row, b in zip(matrix, offset)])


def exact_boundary_terms(vertices, f: AffineDensity, xi: AffineField) -> list[Fraction]:
    """The boundary route's per-facet terms on float vertices, f and xi,
    exactly: facet i's term is int_F f (xi . n_i) = (sum(u) sum(w) +
    sum(u w)) / (N (N+1)), with u = f and w = xi . S_i at its N vertices."""
    points, f_at, xi_at = _exact_affine(vertices, f, xi)
    areas, _ = exact_area_vectors(vertices)
    n = len(points) - 1
    terms = []
    for i, area in enumerate(areas):
        facet = points[:i] + points[i + 1:]
        u = [f_at(x) for x in facet]
        w = [sum(a * b for a, b in zip(xi_at(x), area)) for x in facet]
        terms.append((sum(u) * sum(w) + sum(a * b for a, b in zip(u, w))) / (n * (n + 1)))
    return terms


def exact_volume_route(vertices, f: AffineDensity, xi: AffineField) -> Fraction:
    """vol * div(f xi)(centroid) exactly: the volume route's exact value,
    div(f xi) = grad f . xi + f tr(matrix) being affine."""
    points, f_at, xi_at = _exact_affine(vertices, f, xi)
    _, volume = exact_area_vectors(vertices)
    centroid = [sum(column) / len(points) for column in zip(*points)]
    trace = sum(Fraction(x) for x in np.diag(xi.matrix).tolist())
    gradient = [Fraction(g) for g in f.gradient.tolist()]
    return volume * (sum(g * x for g, x in zip(gradient, xi_at(centroid)))
                     + f_at(centroid) * trace)


def random_right_simplex_reference(
    seed: int, dim: int, leg_mode: str = "orthonormal"
) -> RightSimplexSpec:
    """Reference right-simplex generator: one QR per matrix, and the SVD
    condition number ``np.linalg.cond`` on every draw. The package's
    generator must give the same vertices bit for bit."""
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
        return RightSimplexSpec(np.vstack([apex, apex + legs @ rotation.T]))


def _translate_into_box(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Center, then draw a translation keeping every coordinate in [-1, 1].
    centered = points - points.mean(axis=0)
    low = centered.min(axis=0)
    high = centered.max(axis=0)
    shift = rng.uniform(-1.0 - low, 1.0 - high)
    return centered + shift


def random_triangle_reference(seed: int, kind: str = "general") -> Triangle:
    """Reference triangle generator, a copy of ``theorems.random_triangle``
    as it was before its right triangles were computed in Python floats:
    the package's generator must give the same outcome bit for bit.

    Deterministic random triangle with vertices in [-1, 1]^2 and all
    angles at least MIN_ANGLE.

    ``kind``: "general" (uniform vertices), "right" (legs on a random
    orthonormal frame, then a random rigid motion; right angle at C), or
    "obtuse" (largest angle exceeds pi/2).
    """
    if kind not in ("general", "right", "obtuse"):
        raise ShapeValidationError(f"unknown triangle kind {kind!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REJECTIONS):
        if kind == "right":
            theta = rng.uniform(0.0, 2.0 * math.pi)
            frame = np.array(
                [
                    [math.cos(theta), math.sin(theta)],
                    [-math.sin(theta), math.cos(theta)],
                ]
            )
            leg_a, leg_b = rng.uniform(0.2, 0.9, size=2)
            # Right angle at C: B - C and A - C along orthogonal frame rows.
            points = _translate_into_box(
                np.array([leg_b * frame[1], leg_a * frame[0], np.zeros(2)]), rng
            )
        else:
            points = rng.uniform(-1.0, 1.0, size=(3, 2))
        try:
            tri = Triangle(points[0], points[1], points[2])
        except DegenerateSimplexError:
            continue
        angles = (tri.alpha, tri.beta, tri.gamma)
        if min(angles) < MIN_ANGLE:
            continue
        if kind == "obtuse" and max(angles) <= math.pi / 2.0:
            continue
        return tri
    raise RuntimeError(
        f"no acceptable {kind!r} triangle after {MAX_REJECTIONS} rejections"
    )


def generator_mismatches(seeds, kinds=("general", "right", "obtuse")) -> list:
    """The (seed, kind) cases where ``theorems.random_triangle`` and
    ``random_triangle_reference`` differ in ``triangle_outcome``: empty
    when every triangle has the same bits, normals included."""
    return [(seed, kind) for kind in kinds for seed in seeds
            if triangle_outcome(lambda: theorems.random_triangle(seed, kind))
            != triangle_outcome(lambda: random_triangle_reference(seed, kind))]


def apex_and_legs(r: RightSimplexSpec) -> tuple[np.ndarray, np.ndarray]:
    """A right simplex's apex, ``vertices[0]``, and its legs, the rows of
    ``vertices[1:] - vertices[0]``."""
    return r.vertices[0], r.vertices[1:] - r.vertices[0]


def right_simplex(apex, legs) -> RightSimplexSpec:
    """The right simplex at ``apex`` with the rows of ``legs`` as its leg
    vectors: the vertices are the apex, then apex + each leg."""
    apex = np.asarray(apex, dtype=float)
    return RightSimplexSpec(np.vstack([apex, apex + legs]))


def perturbed_integral_per_image(
    s: Simplex, f: AffineDensity, xi: AffineField, t: float
) -> float:
    """Reference fd image integral, one ``Simplex`` per step: the moved
    vertices are built, gated and integrated as a lone simplex, with the
    centroid rule volume * f(centroid)."""
    image = Simplex(s.vertices + t * xi.at(s.vertices))
    return float(image.volume * float(f.at(image.centroid)))


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
        raise ShapeValidationError("simplex vertices have non-finite entries")
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


def facets_alone(s: Simplex) -> SimpleNamespace:
    """Reference facets of one simplex, as computed before stacks: the
    closed form on the (N+1, N) vertex array itself. ``Simplex.facets``
    must match it bit for bit, with the normals in the same layout."""
    v, n = s.vertices, s.dim
    grads = np.linalg.inv(v[1:] - v[0]).T
    grads = np.concatenate([-grads.sum(axis=0)[None], grads])
    lengths = np.sqrt((grads * grads).sum(axis=1))
    return SimpleNamespace(normals=-grads / lengths[:, None], measures=n * s.volume * lengths)


def _boundary_integral_alone(s: Simplex, f: AffineDensity, xi: AffineField):
    # The boundary route on one simplex and one field, as before stacks.
    n = s.dim
    facets = s.facets
    u = f.at(facet_vertices(s))
    x = xi.at(s.vertices)[_facet_index(n)]
    v = np.matmul(x, facets.normals[:, :, None])[:, :, 0]
    values = (facets.measures / (n * (n + 1)) * (
        u.sum(axis=1) * v.sum(axis=1) + (u * v).sum(axis=1)
    )).tolist()
    total = 0.0
    for value in values:
        total += value
    return total, [[i, value] for i, value in enumerate(values)]


def _sines_direction(t, side):
    return {"a": (t.B - t.C) / t.a, "b": (t.C - t.A) / t.b, "c": (t.A - t.B) / t.c}[side]


def _pythagoras_auxiliary(t, decompositions):
    expected = (-t.a**2, -t.b**2, t.c**2)
    return {
        "expected_per_facet": [[i, e] for i, e in enumerate(expected)],
        "per_facet_deviation": max(
            abs(value - expected[i]) for i, value in decompositions[""][1]
        ),
        "c_nc_dot_na_plus_a": float(t.c * (t.n_c @ t.n_a) + t.a),
        "c_nc_dot_nb_plus_b": float(t.c * (t.n_c @ t.n_b) + t.b),
    }


def _sines_auxiliary(t, decompositions):
    return {
        "ratios": {
            "a": t.a / math.sin(t.alpha),
            "b": t.b / math.sin(t.beta),
            "c": t.c / math.sin(t.gamma),
        },
        "directions": {
            side: {"total": total, "per_facet": [[i, v] for i, v in per_facet]}
            for side, (total, per_facet) in decompositions.items()
        },
        "expected_per_facet_a": [
            [0, 0.0],
            [1, -t.b * math.sin(t.gamma)],
            [2, t.c * math.sin(t.beta)],
        ],
    }


def _right_angle_at_c(t):
    if abs(t.gamma - math.pi / 2.0) > RIGHT_ANGLE_TOL:
        raise NotRightTriangleError(
            f"gamma = {t.gamma!r} rad is not right within {RIGHT_ANGLE_TOL}"
        )


def _hyp_measure(r):
    return float(r.simplex.facets.measures[0])


def face_normal_identity_alone(r: RightSimplexSpec) -> tuple[float, ...]:
    """Reference leg-facet residuals |A_i + C (n_C . n_i)| of one simplex."""
    facets = r.simplex.facets
    dots = (facets.normals[1:, None, :] @ facets.normals[0, :, None])[:, 0, 0]
    return tuple(np.abs(facets.measures[1:] + facets.measures[0] * dots).tolist())


def _nd_auxiliary(r, decompositions):
    leg_measures = r.simplex.facets.measures[1:].tolist()
    expected = [_hyp_measure(r) ** 2] + [-m**2 for m in leg_measures]
    return {
        "leg_face_measures": leg_measures,
        "expected_per_facet": [[i, e] for i, e in enumerate(expected)],
        "face_normal_residuals": list(face_normal_identity_alone(r)),
    }


def _triangle_summary(t):
    return {"vertices": t.simplex.vertices.tolist(), "a": t.a, "b": t.b, "c": t.c,
            "alpha": t.alpha, "beta": t.beta, "gamma": t.gamma}


def _ratio_spread(_, auxiliary):
    return max(auxiliary["ratios"].values()) - min(auxiliary["ratios"].values())


_TRIANGLE = dict(shape=lambda t: t, summary=_triangle_summary,
                 scale=lambda t: max(t.a, t.b, t.c), precondition=lambda t: None,
                 residual=lambda decompositions, _: decompositions[""][0])

# The theorem table as it was when every instance was proved alone.
REFERENCE_ROWS = {
    "pythagoras": SimpleNamespace(**{
        **_TRIANGLE, "report": "pythagoras", "precondition": _right_angle_at_c,
        "fields": {"": lambda t: AffineField.constant(t.c * t.n_c)},
        "auxiliary": _pythagoras_auxiliary}),
    "sines": SimpleNamespace(**{
        **_TRIANGLE, "report": "sines", "residual": _ratio_spread,
        "fields": {side: lambda t, side=side: AffineField.constant(
            _sines_direction(t, side)) for side in "abc"},
        "auxiliary": _sines_auxiliary}),
    "cosines": SimpleNamespace(**{
        **_TRIANGLE, "report": "cosines",
        "fields": {"": lambda t: AffineField.constant(
            t.c * t.n_c - t.a * t.n_a - t.b * t.n_b)},
        "auxiliary": lambda t, _: {
            "law_value": t.c**2 - t.a**2 - t.b**2 + 2.0 * t.a * t.b * math.cos(t.gamma),
            "na_dot_nb_plus_cos_gamma": float(t.n_a @ t.n_b + math.cos(t.gamma)),
        }}),
    "nd-pythagoras": SimpleNamespace(
        report="nd_pythagoras", precondition=lambda r: None,
        shape=lambda r: (r.simplex, 0),
        fields={"": lambda shape: AffineField.constant(
            shape[0].facets.measures[shape[1]] * shape[0].facets.normals[shape[1]])},
        summary=lambda r: {
            "dim": r.simplex.dim,
            "vertices": r.simplex.vertices.tolist(),
            "leg_lengths": r.leg_lengths.tolist(),
            "hyp_measure": _hyp_measure(r),
        },
        scale=_hyp_measure, auxiliary=_nd_auxiliary,
        residual=lambda decompositions, _: decompositions[""][0]),
}


def prove_alone(theorem: str, instance, tol_abs: float, tol_rel: float) -> TheoremReport:
    """Reference proof of one instance, as ``theorems.prove`` ran before it
    took stacks: the row's fields built one ``AffineField`` each, one
    boundary integral per field, and the report assembled for this
    instance alone. ``prove`` on a list must give each instance this
    report bit for bit, or raise the error that the first failing instance
    raises here."""
    row = REFERENCE_ROWS[theorem]
    row.precondition(instance)
    s, shape = instance.simplex, row.shape(instance)
    one = AffineDensity.one(s.dim)
    with float_range(f"the {theorem} proof overflows the float range") as finite:
        decompositions = {
            key: _boundary_integral_alone(s, one, build(shape))
            for key, build in row.fields.items()
        }
        auxiliary = row.auxiliary(instance, decompositions)
        residual = row.residual(decompositions, auxiliary)
        finite(residual, *(total for total, _ in decompositions.values()),
               *(v for v in auxiliary.values() if type(v) is float))
        scale = row.scale(instance)
        return TheoremReport(
            theorem=row.report,
            summary=row.summary(instance),
            per_facet=next(iter(decompositions.values()))[1],
            residual=residual,
            tol_abs=tol_abs,
            tol_rel=tol_rel,
            scale=scale,
            passed=abs(residual) <= tol_abs + tol_rel * scale**2,
            auxiliary=auxiliary,
        )


def _interior_angle(u: np.ndarray, v: np.ndarray) -> float:
    # atan2 of (rejection, projection) magnitudes; stable near 0 and pi.
    cross = u[0] * v[1] - u[1] * v[0]
    return math.atan2(abs(cross), float(u @ v))


class TriangleReference:
    """Reference ``Triangle`` construction, as before the float screen: an
    eager ``Simplex`` gates the vertices, each side length is the root of
    ``d.dot(d)`` and each angle the atan2 of its edges' cross and dot, all
    on numpy differences. ``Triangle`` must give the same bits in every
    attribute, or raise the same error."""

    def __init__(self, A, B, C):
        self.simplex = Simplex(np.array([as_vector(A, 2, "vertex A"),
                                         as_vector(B, 2, "vertex B"),
                                         as_vector(C, 2, "vertex C")]))
        A, B, C = self.A, self.B, self.C = self.simplex.vertices
        self.a, self.b, self.c = (math.sqrt(d.dot(d)) for d in (B - C, A - C, A - B))
        self.alpha = _interior_angle(B - A, C - A)
        self.beta = _interior_angle(A - B, C - B)
        self.gamma = _interior_angle(A - C, B - C)

    n_a, n_b, n_c = (property(lambda self, i=i: self.simplex.facets.normals[i])
                     for i in range(3))


def document_triangle_reference(doc) -> Triangle:
    """Reference ``theorems._triangle_of``, the triangle rows' document
    reader, as before it read the document's simplex: a ``Triangle`` of
    the labelled rows, which builds a simplex of its own. For an
    unlabelled document, derive must report the same bits with the
    package's ``theorems._triangle_of``."""
    if doc.dim != 2:
        raise ShapeValidationError(
            f"triangle theorems need dim = 2, document has dim = {doc.dim}"
        )
    labels = doc.labels or {"A": 0, "B": 1, "C": 2}
    return Triangle(*(doc.vertices[labels[k]] for k in "ABC"))


def triangle_outcome(build) -> tuple:
    """The outcome of ``build()``, a triangle: its error's type and message,
    or the bits of A, B, C, a, b, c, alpha, beta and gamma, and of the
    side normals n_a, n_b, n_c (or what reading them raises)."""
    try:
        t = build()
    except Exception as err:
        return type(err), str(err)
    try:
        normals = np.array([t.n_a, t.n_b, t.n_c]).tobytes()
    except Exception as err:
        normals = type(err), str(err)
    return (t.A.tobytes() + t.B.tobytes() + t.C.tobytes()
            + struct.pack("6d", t.a, t.b, t.c, t.alpha, t.beta, t.gamma), normals)


def triangle_mismatches(vertex_triples=(), seeds=(), kinds=("general", "right", "obtuse")):
    """The cases where ``Triangle`` and ``TriangleReference`` differ in
    outcome: each (A, B, C) of ``vertex_triples``, and each seed and kind
    of ``random_triangle`` against the same generator building its draws
    with ``TriangleReference``. Empty when every outcome is identical."""
    mismatches = [
        (A, B, C) for A, B, C in vertex_triples
        if triangle_outcome(lambda: Triangle(A, B, C))
        != triangle_outcome(lambda: TriangleReference(A, B, C))]
    cases = [(seed, kind) for kind in kinds for seed in seeds]
    new = [triangle_outcome(lambda: theorems.random_triangle(*case)) for case in cases]
    with mock.patch.object(theorems, "Triangle", TriangleReference):
        reference = [triangle_outcome(lambda: theorems.random_triangle(*case))
                     for case in cases]
    return mismatches + [case for case, a, b in zip(cases, new, reference) if a != b]


SHAPE = "shape.json"  # the file of a call's inline shape document, in its workdir


class CliOutcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    report: str | None  # the text of the --out file, None where none was written
    warnings: tuple[str, ...]

    @property
    def written(self) -> str:
        """The report text: the ``--out`` file's, or else stdout."""
        return self.stdout if self.report is None else self.report


def run_cli(main, argv: list, workdir) -> CliOutcome:
    """``main`` (a ``cli.main``) run in-process on ``argv`` with
    ``workdir`` as the working directory, a ``{"file": text}`` item written
    to ``SHAPE`` there and passed as that name, which reports then show.
    argparse's ``SystemExit`` counts as its code. An ``--out`` file is
    removed before the call and read back after it. Warnings are recorded,
    neither raised nor printed, and returned as ``"Category: message"``:
    a caller under pytest fails on any."""
    args = []
    for item in argv:
        if isinstance(item, dict):
            Path(workdir, SHAPE).write_text(item["file"], encoding="utf-8")
            item = SHAPE
        args.append(item)
    out = None  # argparse reads the last --out
    for flag, value in zip(args, args[1:] + [None]):
        if flag == "--out" or flag.startswith("--out="):
            out = value if flag == "--out" else flag[len("--out="):]
    out = Path(workdir, out) if out else None
    if out and out.is_file():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(previous)
    return CliOutcome(code, stdout.getvalue(), stderr.getvalue(),
                      out.read_text(encoding="utf-8") if out and out.is_file() else None,
                      tuple(f"{w.category.__name__}: {w.message}" for w in caught))


def run_on_second_kernel(script: str, timeout: float) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter under OpenBLAS's Prescott
    kernels, with ``src`` and ``tests`` on ``PYTHONPATH``, its output
    captured as text. Builds without DYNAMIC_ARCH ignore the variable."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)
