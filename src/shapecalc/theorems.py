"""Executable reconstructions of four classical proofs: build the proof's
translation field, decompose the boundary derivative facet by facet, and
report the theorem residual.

Tolerances here are implementation choices (the underlying mathematics is
exact); a report passes iff |residual| <= tol_abs + tol_rel * scale**2,
with scale the longest side (hypotenuse-facet measure in the N-dimensional
case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    LegOrthogonalityError,
    NotRightTriangleError,
)
from .fields import (
    AffineDensity,
    cosines_field,
    nd_pythagoras_field,
    pythagoras_field,
    sines_field,
)
from .geometry import Simplex, Triangle, as_vector
from .hadamard import boundary_integral

DEFAULT_TOL_ABS = 1e-12
DEFAULT_TOL_REL = 1e-12
RIGHT_ANGLE_TOL = 1e-9  # rad; separates wrong input from numerical noise
LEG_ORTHOGONALITY_TOL = 1e-12  # relative to the leg-length product
MIN_ANGLE = 0.05  # rad; generator floor against slivers
MAX_REJECTIONS = 10_000


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Outcome of one theorem verification."""

    theorem: str
    summary: dict
    per_facet: tuple[tuple[int, float], ...]
    residual: float
    tol_abs: float
    tol_rel: float
    scale: float
    passed: bool
    auxiliary: dict

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "summary": self.summary,
            "per_facet": [[i, v] for i, v in self.per_facet],
            "residual": self.residual,
            "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "scale": self.scale,
            "passed": self.passed,
            "auxiliary": self.auxiliary,
        }


def _passes(residual: float, tol_abs: float, tol_rel: float, scale: float) -> bool:
    return abs(residual) <= tol_abs + tol_rel * scale**2


def _triangle_summary(t: Triangle) -> dict:
    return {
        "vertices": t.simplex.vertices.tolist(),
        "a": t.a,
        "b": t.b,
        "c": t.c,
        "alpha": t.alpha,
        "beta": t.beta,
        "gamma": t.gamma,
    }


@dataclass(frozen=True, eq=False)
class RightSimplexSpec:
    """Right N-simplex: an apex plus N mutually orthogonal leg vectors
    (rows of ``legs``). The hypotenuse facet is the one opposite the apex."""

    apex: np.ndarray
    legs: np.ndarray

    def __post_init__(self):
        legs = np.array(self.legs, dtype=float)
        if legs.ndim != 2 or legs.shape[0] != legs.shape[1]:
            raise DimensionMismatchError(
                f"expected (N, N) leg matrix, got shape {legs.shape}"
            )
        if not np.all(np.isfinite(legs)):
            raise ValueError("leg vectors have non-finite entries")
        legs.flags.writeable = False
        object.__setattr__(self, "legs", legs)
        object.__setattr__(
            self, "apex", as_vector(self.apex, legs.shape[0], "apex")
        )
        lengths = self.leg_lengths
        dots = np.abs(legs @ legs.T)
        np.fill_diagonal(dots, 0.0)
        bound = LEG_ORTHOGONALITY_TOL * np.outer(lengths, lengths)
        if np.any(dots > bound):
            worst = float((dots - bound).max())
            raise LegOrthogonalityError(
                f"legs not mutually orthogonal (worst excess {worst:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.legs.shape[0]

    @cached_property
    def leg_lengths(self) -> np.ndarray:
        lengths = np.linalg.norm(self.legs, axis=1)
        lengths.flags.writeable = False
        return lengths

    @property
    def hyp_index(self) -> int:
        """Facet index of the hypotenuse (opposite the apex vertex)."""
        return 0

    @cached_property
    def simplex(self) -> Simplex:
        return Simplex(np.vstack([self.apex, self.apex + self.legs]))


def verify_pythagoras(
    t: Triangle,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport:
    """Check c^2 - a^2 - b^2 == 0 for a right triangle (right angle at C) via
    the boundary decomposition of the translation along c * n_c.

    Facet expectations: side c contributes c^2, sides a and b contribute
    -a^2 and -b^2 (their normals satisfy c * n_c . n_a = -a and
    c * n_c . n_b = -b).
    """
    if abs(t.gamma - math.pi / 2.0) > RIGHT_ANGLE_TOL:
        raise NotRightTriangleError(
            f"gamma = {t.gamma!r} rad is not right within {RIGHT_ANGLE_TOL}"
        )
    total, per_facet = boundary_integral(
        t.simplex, AffineDensity.one(2), pythagoras_field(t)
    )
    expected = (-t.a**2, -t.b**2, t.c**2)
    scale = max(t.a, t.b, t.c)
    return TheoremReport(
        theorem="pythagoras",
        summary=_triangle_summary(t),
        per_facet=per_facet,
        residual=total,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        scale=scale,
        passed=_passes(total, tol_abs, tol_rel, scale),
        auxiliary={
            "expected_per_facet": [[i, e] for i, e in enumerate(expected)],
            "per_facet_deviation": max(
                abs(value - expected[i]) for i, value in per_facet
            ),
            "c_nc_dot_na_plus_a": float(t.c * (t.n_c @ t.n_a) + t.a),
            "c_nc_dot_nb_plus_b": float(t.c * (t.n_c @ t.n_b) + t.b),
        },
    )


def verify_law_of_sines(
    t: Triangle,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport:
    """Check a/sin(alpha) == b/sin(beta) == c/sin(gamma) for any triangle.

    Runs the boundary decomposition for the unit field parallel to each side;
    for the side-a direction the side-a facet contributes ~0 and the others
    c * sin(beta) and -b * sin(gamma). The residual is the maximum pairwise
    deviation of the three ratios.
    """
    ratios = {
        "a": t.a / math.sin(t.alpha),
        "b": t.b / math.sin(t.beta),
        "c": t.c / math.sin(t.gamma),
    }
    values = list(ratios.values())
    residual = max(values) - min(values)
    per_direction = {}
    for side in ("a", "b", "c"):
        total, per_facet = boundary_integral(
            t.simplex, AffineDensity.one(2), sines_field(t, side)
        )
        per_direction[side] = {
            "total": total,
            "per_facet": [[i, v] for i, v in per_facet],
        }
    scale = max(t.a, t.b, t.c)
    side_a_decomposition = tuple(
        (i, v) for i, v in per_direction["a"]["per_facet"]
    )
    return TheoremReport(
        theorem="sines",
        summary=_triangle_summary(t),
        per_facet=side_a_decomposition,
        residual=residual,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        scale=scale,
        passed=_passes(residual, tol_abs, tol_rel, scale),
        auxiliary={
            "ratios": ratios,
            "directions": per_direction,
            "expected_per_facet_a": [
                [0, 0.0],
                [1, -t.b * math.sin(t.gamma)],
                [2, t.c * math.sin(t.beta)],
            ],
        },
    )


def verify_law_of_cosines(
    t: Triangle,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport:
    """Check c^2 - a^2 - b^2 + 2ab cos(gamma) == 0 for any triangle via the
    boundary decomposition of the translation along c n_c - a n_a - b n_b."""
    total, per_facet = boundary_integral(
        t.simplex, AffineDensity.one(2), cosines_field(t)
    )
    law_value = (
        t.c**2 - t.a**2 - t.b**2 + 2.0 * t.a * t.b * math.cos(t.gamma)
    )
    scale = max(t.a, t.b, t.c)
    return TheoremReport(
        theorem="cosines",
        summary=_triangle_summary(t),
        per_facet=per_facet,
        residual=total,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        scale=scale,
        passed=_passes(total, tol_abs, tol_rel, scale),
        auxiliary={
            "law_value": law_value,
            "na_dot_nb_plus_cos_gamma": float(t.n_a @ t.n_b + math.cos(t.gamma)),
        },
    )


def verify_nd_pythagoras(
    r: RightSimplexSpec,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport:
    """Check C^2 - sum_i A_i^2 == 0 for a right N-simplex, where C is the
    hypotenuse-facet measure and A_i the leg-facet measures, via the boundary
    decomposition of the translation along C * n_C."""
    s = r.simplex
    total, per_facet = boundary_integral(
        s, AffineDensity.one(s.dim), nd_pythagoras_field(s, r.hyp_index)
    )
    measures = s.facets.measures
    hyp_measure = float(measures[r.hyp_index])
    leg_measures = measures[1:].tolist()
    expected = [hyp_measure**2] + [-m**2 for m in leg_measures]
    return TheoremReport(
        theorem="nd_pythagoras",
        summary={
            "dim": s.dim,
            "vertices": s.vertices.tolist(),
            "leg_lengths": r.leg_lengths.tolist(),
            "hyp_measure": hyp_measure,
        },
        per_facet=per_facet,
        residual=total,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        scale=hyp_measure,
        passed=_passes(total, tol_abs, tol_rel, hyp_measure),
        auxiliary={
            "leg_face_measures": leg_measures,
            "expected_per_facet": [[i, e] for i, e in enumerate(expected)],
            "face_normal_residuals": list(face_normal_identity(r)),
        },
    )


def face_normal_identity(r: RightSimplexSpec) -> tuple[float, ...]:
    """Residuals |A_i + C * (n_C . n_i)| of the leg-facet area identity,
    one per leg facet (ascending facet index)."""
    facets = r.simplex.facets
    hyp = r.hyp_index
    # One (1, N) @ (N, 1) product per leg facet: the same dot as n_C . n_i.
    dots = (facets.normals[1:, None, :] @ facets.normals[hyp, :, None])[:, 0, 0]
    return tuple(np.abs(facets.measures[1:] + facets.measures[hyp] * dots).tolist())


def _translate_into_box(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Center, then draw a translation keeping every coordinate in [-1, 1].
    centered = points - points.mean(axis=0)
    low = centered.min(axis=0)
    high = centered.max(axis=0)
    shift = rng.uniform(-1.0 - low, 1.0 - high)
    return centered + shift


def random_triangle(seed: int, kind: str = "general") -> Triangle:
    """Deterministic random triangle with vertices in [-1, 1]^2 and all
    angles at least MIN_ANGLE.

    ``kind``: "general" (uniform vertices), "right" (legs on a random
    orthonormal frame, then a random rigid motion; right angle at C), or
    "obtuse" (largest angle exceeds pi/2).
    """
    if kind not in ("general", "right", "obtuse"):
        raise ValueError(f"unknown triangle kind {kind!r}")
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


def _qr_frame(matrix: np.ndarray) -> np.ndarray:
    """Q factor of ``matrix`` with column signs fixed so that diag(R) >= 0,
    which makes the factorization unique (Haar-distributed for Gaussian
    input)."""
    q, r = np.linalg.qr(matrix)
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def random_right_simplex(
    seed: int, dim: int, leg_mode: str = "orthonormal"
) -> RightSimplexSpec:
    """Deterministic random right simplex, 2 <= dim <= 16.

    Legs come from orthonormalizing a random matrix (resampled if poorly
    conditioned); "scaled" mode multiplies each leg by a length in
    [0.5, 2]. A random rigid motion is applied.
    """
    if not 2 <= dim <= 16:
        raise ValueError(f"dim must be in 2..16, got {dim}")
    if leg_mode not in ("orthonormal", "scaled"):
        raise ValueError(f"unknown leg mode {leg_mode!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REJECTIONS):
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
    raise RuntimeError(
        f"no well-conditioned frame after {MAX_REJECTIONS} rejections"
    )
