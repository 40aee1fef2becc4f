"""Executable reconstructions of four classical proofs.

Every proof translates the simplex along a vector xi, splits the boundary
derivative sum_i A_i (xi . n_i) = 0 into one term per facet, and reads
the theorem off those terms. So each theorem is one ``Theorem`` row of
``THEOREMS``, keyed by its CLI name, and one routine, ``prove``, runs
every row on a list of instances as one stack: it checks ``precondition``
on each, builds the row's ``stack`` (one stacked ``Simplex``, so one gate
and one facet inverse, the proof's only one: the triangle rows read their
side normals through the ``Triangle`` properties on it), builds each of
``fields`` ("" or a side -> builder, the ones derive names) on the stack,
one translation row per instance, and decomposes them with one
``boundary_integral`` call on their values at the vertices, 0.0 + xi (the
bits of the constant field's x @ 0 + xi), then reads each instance's
(summary, scale, auxiliary, residual) off ``entries(stack,
decompositions)``, the row's one per-instance hook (decompositions: key
-> (total, per-facet terms)). The triangle rows stack each
``Triangle.vertices`` and take their auxiliary dots of side normals as one
stacked product per pair, over views of the stack's normals. Each
instance gets the bits it gets alone: stacked ``det`` and ``inv`` round
each matrix as a lone call does, dot products stay BLAS products in the
lone layout, angles stay ``math`` calls on Python floats, and totals add
in facet order. A report names its theorem by the row's key, with ``_``
for ``-``. The ``verify_*`` functions take one instance or a list, proved
in stacks of at most ``PROOF_CHUNK`` so that its memory stays bounded. An
instance is one vertex array: a ``Triangle``, or a ``RightSimplexSpec``,
which holds only its vertices, apex first. The CLI reads a row's
``flags`` (its generator's options after the seed, with defaults),
``generate(seed, *flags)``, ``verify`` and the readers of a parsed shape
document, ``document`` (an instance) and ``field_document`` (what derive's
named fields take). Rows call this module's functions by name at run time,
so a tracer can rebind them. Tolerances are implementation choices (the
underlying mathematics is exact).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    LegOrthogonalityError,
    NotRightTriangleError,
    ShapeValidationError,
    float_range,
)
from .fields import (
    AffineDensity,
    cosines_field,
    nd_pythagoras_field,
    pythagoras_field,
    sines_field,
)
from .geometry import Simplex, Triangle
from .hadamard import boundary_integral

DEFAULT_TOL_ABS = 1e-12
DEFAULT_TOL_REL = 1e-12
RIGHT_ANGLE_TOL = 1e-9  # rad; separates wrong input from numerical noise
LEG_ORTHOGONALITY_TOL = 1e-12  # relative to the leg-length product
MIN_ANGLE = 0.05  # rad; generator floor against slivers
MAX_REJECTIONS = 10_000
PROOF_CHUNK = 256  # instances per proof stack: bounds a batch's memory


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Outcome of one theorem verification."""

    theorem: str
    summary: dict
    per_facet: list[list]
    residual: float
    tol_abs: float
    tol_rel: float
    scale: float
    passed: bool
    auxiliary: dict

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declaration order


@dataclass(frozen=True, eq=False)
class RightSimplexSpec:
    """Right N-simplex given by its N+1 vertices (rows), apex first, with
    mutually orthogonal legs ``vertices[1:] - vertices[0]`` of lengths
    ``leg_lengths``; facet 0 of ``simplex``, opposite the apex, is its hypotenuse."""

    vertices: np.ndarray
    leg_lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise DimensionMismatchError(
                f"expected (N+1, N) vertex array, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ShapeValidationError("simplex vertices have non-finite entries")
        legs = v[1:] - v[0]
        lengths = np.sqrt((legs * legs).sum(axis=1))
        for name, value in (("vertices", v), ("leg_lengths", lengths)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        dots = np.abs(legs @ legs.T)
        np.fill_diagonal(dots, 0.0)
        bound = LEG_ORTHOGONALITY_TOL * (lengths[:, None] * lengths)
        if (dots > bound).any():
            worst = float((dots - bound).max())
            raise LegOrthogonalityError(
                f"legs not mutually orthogonal (worst excess {worst:.3e})"
            )

    @cached_property
    def simplex(self) -> Simplex:
        return Simplex(self.vertices)


def _right_angle_at_c(t: Triangle) -> None:
    if abs(t.gamma - math.pi / 2.0) > RIGHT_ANGLE_TOL:
        raise NotRightTriangleError(
            f"gamma = {t.gamma!r} rad is not right within {RIGHT_ANGLE_TOL}"
        )


class _Triangles:
    """A stack of triangles under the attribute names of one ``Triangle``:
    ``items``, their ``simplex`` (one ``Simplex`` of the M vertex arrays),
    lengths ``a``, ``b``, ``c`` (M, 1), vertices ``A``, ``B``, ``C`` and
    outward normals ``n_a``, ``n_b``, ``n_c`` (M, 2), read through the
    ``Triangle`` properties: the stack's facets are the proof's only ones."""

    n_a, n_b, n_c, sides = Triangle.n_a, Triangle.n_b, Triangle.n_c, Triangle.sides

    def __init__(self, triangles: list[Triangle]):
        self.items = triangles
        self.simplex = Simplex(np.array([t.vertices for t in triangles]))
        self.A, self.B, self.C = self.simplex.vertices.swapaxes(0, 1)
        self.a, self.b, self.c = np.array([(t.a, t.b, t.c) for t in triangles]).T[..., None]


def _triangle_entries(auxiliary: Callable, residual: Callable = lambda d, _: d[""][0]):
    """A triangle row's ``entries``, the longest side its scale. ``auxiliary``
    gets each triangle, its dots (n_c . n_a, n_c . n_b, n_a . n_b) and its
    decompositions. Each dot n_i . n_j is one (M, 1, 2) @ (M, 2, 1) product
    over views of the stack's normals, with a lone triangle's strides: each
    is the BLAS ddot of a lone ``n_i @ n_j``."""

    def entries(ts: _Triangles, decompositions: list[dict]):
        dots = zip(*((n_i[:, None] @ n_j[:, :, None]).ravel().tolist()
                     for n_i, n_j in ((ts.n_c, ts.n_a), (ts.n_c, ts.n_b), (ts.n_a, ts.n_b))))
        for t, vertices, t_dots, d in zip(ts.items, ts.simplex.vertices.tolist(), dots,
                                          decompositions):
            extra = auxiliary(t, t_dots, d)
            yield {"vertices": vertices, "a": t.a, "b": t.b, "c": t.c, "alpha": t.alpha,
                   "beta": t.beta, "gamma": t.gamma}, max(t.a, t.b, t.c), extra, residual(d, extra)

    return entries


def _pythagoras_auxiliary(t: Triangle, dots: tuple, decompositions: dict) -> dict:
    expected = (-t.a**2, -t.b**2, t.c**2)
    return {
        "expected_per_facet": [[i, e] for i, e in enumerate(expected)],
        "per_facet_deviation": max(
            abs(value - expected[i]) for i, value in decompositions[""][1]
        ),
        "c_nc_dot_na_plus_a": t.c * dots[0] + t.a,
        "c_nc_dot_nb_plus_b": t.c * dots[1] + t.b,
    }


def _sines_auxiliary(t: Triangle, _, decompositions: dict) -> dict:
    return {
        "ratios": {
            "a": t.a / math.sin(t.alpha),
            "b": t.b / math.sin(t.beta),
            "c": t.c / math.sin(t.gamma),
        },
        "directions": {
            side: {"total": total, "per_facet": per_facet}
            for side, (total, per_facet) in decompositions.items()
        },
        "expected_per_facet_a": [
            [0, 0.0],
            [1, -t.b * math.sin(t.gamma)],
            [2, t.c * math.sin(t.beta)],
        ],
    }


class _RightSimplices:
    """A stack of right simplices of one dimension: ``items`` and their
    ``simplex``, one ``Simplex`` of the M vertex arrays, each apex first,
    so that facet ``hyp_index`` = 0 of each is its hypotenuse."""

    hyp_index = 0

    def __init__(self, specs: list[RightSimplexSpec]):
        dims = sorted({r.vertices.shape[1] for r in specs})
        if len(dims) > 1:
            raise DimensionMismatchError(f"a proof stack needs one dimension, got {dims}")
        self.items = specs
        self.simplex = Simplex(np.array([r.vertices for r in specs]))


def _nd_entries(rs: _RightSimplices, decompositions: list[dict]):
    """The nd row's ``entries``, the hypotenuse measure C its scale, with
    |A_i + C * (n_C . n_i)| for each leg facet i (ascending) as the
    ``face_normal_residuals``."""
    s = rs.simplex
    normals, measures = s.facets.normals, s.facets.measures
    # One (1, N) @ (N, 1) product per leg facet: the same dot as n_C . n_i.
    dots = (normals[:, 1:, None, :] @ normals[:, None, 0, :, None])[..., 0, 0]
    face_normal = np.abs(measures[:, 1:] + measures[:, :1] * dots)
    for r, vertices, (hyp, *legs), residuals, d in zip(
            rs.items, s.vertices.tolist(), measures.tolist(), face_normal.tolist(),
            decompositions):
        expected = [hyp**2] + [-m**2 for m in legs]
        yield {
            "dim": s.dim,
            "vertices": vertices,
            "leg_lengths": r.leg_lengths.tolist(),
            "hyp_measure": hyp,
        }, hyp, {
            "leg_face_measures": legs,
            "expected_per_facet": [[i, e] for i, e in enumerate(expected)],
            "face_normal_residuals": residuals,
        }, d[""][0]


def _triangle_of(doc) -> Triangle:
    if doc.dim != 2:
        raise ShapeValidationError(
            f"triangle theorems need dim = 2, document has dim = {doc.dim}")
    labels = doc.labels or {"A": 0, "B": 1, "C": 2}
    return Triangle.over(doc.simplex, [labels[k] for k in "ABC"])


def _hypotenuse_of(doc):
    """The document, checked to have the ``hyp_index`` that the field reads."""
    if doc.hyp_index is None:
        raise ShapeValidationError("nd-pythagoras needs 'hyp_index' in the shape document")
    return doc


def _right_simplex_of(doc) -> RightSimplexSpec:
    """The document's own rows, apex first: the hypotenuse facet is opposite the apex."""
    hyp = _hypotenuse_of(doc).hyp_index
    order = [hyp] + [i for i in range(doc.dim + 1) if i != hyp]
    return RightSimplexSpec(doc.simplex.vertices[order])


@dataclass(frozen=True, eq=False)
class Theorem:
    """One row of ``THEOREMS``; the module docstring says what it holds."""

    generate: Callable
    flags: dict
    verify: Callable
    document: Callable
    field_document: Callable
    fields: dict[str, Callable]
    stack: Callable
    entries: Callable
    precondition: Callable = lambda instance: None


_TRIANGLE = dict(flags={}, document=lambda doc: _triangle_of(doc),
                 field_document=lambda doc: _triangle_of(doc), stack=_Triangles)

THEOREMS = {
    # Right angle at C, field c * n_c: side c contributes c^2, and sides a and
    # b contribute -a^2 and -b^2 (c * n_c . n_a = -a, c * n_c . n_b = -b).
    "pythagoras": Theorem(
        generate=lambda seed: random_triangle(seed, "right"),
        verify=lambda *args: verify_pythagoras(*args),
        fields={"": lambda t: pythagoras_field(t)},
        precondition=_right_angle_at_c,
        entries=_triangle_entries(_pythagoras_auxiliary),
        **_TRIANGLE,
    ),
    # A unit field along each side: along side a, facet a contributes ~0 and
    # the others -b sin(gamma) and c sin(beta). The residual is the largest
    # pairwise deviation of the three ratios side / sin(opposite angle).
    "sines": Theorem(
        generate=lambda seed: random_triangle(seed, "general"),
        verify=lambda *args: verify_law_of_sines(*args),
        fields={side: lambda t, side=side: sines_field(t, side) for side in "abc"},
        entries=_triangle_entries(_sines_auxiliary, residual=lambda _, auxiliary: (
            max(auxiliary["ratios"].values()) - min(auxiliary["ratios"].values()))),
        **_TRIANGLE,
    ),
    # Field c n_c - a n_a - b n_b: the terms add up to
    # c^2 - a^2 - b^2 + 2ab cos(gamma), the law's own residual.
    "cosines": Theorem(
        generate=lambda seed: random_triangle(seed, "general"),
        verify=lambda *args: verify_law_of_cosines(*args),
        fields={"": lambda t: cosines_field(t)},
        entries=_triangle_entries(lambda t, dots, _: {
            "law_value": t.c**2 - t.a**2 - t.b**2 + 2.0 * t.a * t.b * math.cos(t.gamma),
            "na_dot_nb_plus_cos_gamma": dots[2] + math.cos(t.gamma),
        }),
        **_TRIANGLE,
    ),
    # Right N-simplex, field C * n_C with C the hypotenuse-facet measure: the
    # hypotenuse contributes C^2, leg facet i -A_i^2 (A_i = -C n_C . n_i).
    # The field reads a simplex and its hypotenuse facet, ``simplex`` and
    # ``hyp_index``: of the stack here, of the document in derive.
    "nd-pythagoras": Theorem(
        generate=lambda *args: random_right_simplex(*args),
        flags={"dim": 3, "legs": "orthonormal"},
        verify=lambda *args: verify_nd_pythagoras(*args),
        document=lambda doc: _right_simplex_of(doc),
        field_document=lambda doc: _hypotenuse_of(doc),
        fields={"": lambda shape: nd_pythagoras_field(shape.simplex, shape.hyp_index)},
        stack=_RightSimplices,
        entries=_nd_entries,
    ),
}


def prove(theorem: str, instances: list, tol_abs: float, tol_rel: float
          ) -> list[TheoremReport]:
    """Run the proof of ``THEOREMS[theorem]`` on ``instances`` as one stack,
    returning one report per instance: the report it gets alone. Raises
    what the first failing instance raises alone: the row's precondition
    error, the degeneracy gate's errors, or ``FloatRangeError`` when its
    proof overflows the float range."""
    if not instances:
        return []
    row = THEOREMS[theorem]
    try:
        for instance in instances:
            row.precondition(instance)
        stack = row.stack(instances)
        s = stack.simplex
        one = AffineDensity.one(s.dim)
        with float_range(f"the {theorem} proof overflows the float range") as finite:
            per_key = {key: boundary_integral(s, one, np.broadcast_to(
                0.0 + build(stack)[:, None], s.vertices.shape))
                for key, build in row.fields.items()}
            decompositions = [dict(zip(per_key, d)) for d in zip(*per_key.values())]
            reports = []
            for d, (summary, scale, auxiliary, residual) in zip(
                    decompositions, row.entries(stack, decompositions)):
                finite(residual, *(total for total, _ in d.values()),
                       *(v for v in auxiliary.values() if type(v) is float))
                reports.append(TheoremReport(
                    theorem=theorem.replace("-", "_"),
                    summary=summary,
                    per_facet=next(iter(d.values()))[1],
                    residual=residual,
                    tol_abs=tol_abs,
                    tol_rel=tol_rel,
                    scale=scale,
                    passed=abs(residual) <= tol_abs + tol_rel * scale**2,
                    auxiliary=auxiliary,
                ))
            return reports
    except ValueError:
        if len(instances) > 1:
            # Some instance failed, not necessarily the first: proved alone
            # in order, the first failing one raises its own error.
            for instance in instances:
                prove(theorem, [instance], tol_abs, tol_rel)
        raise


def _verify(theorem: str, shapes, tol_abs: float, tol_rel: float):
    # A list in order in stacks of at most PROOF_CHUNK, one shape as a list of one.
    if isinstance(shapes, list):
        return [report for k in range(0, len(shapes), PROOF_CHUNK)
                for report in prove(theorem, shapes[k:k + PROOF_CHUNK], tol_abs, tol_rel)]
    return prove(theorem, [shapes], tol_abs, tol_rel)[0]


def verify_pythagoras(
    t: Triangle | list[Triangle],
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport | list[TheoremReport]:
    """c^2 == a^2 + b^2 for a right triangle (right angle at C); for a list
    of them, one report each."""
    return _verify("pythagoras", t, tol_abs, tol_rel)


def verify_law_of_sines(
    t: Triangle | list[Triangle],
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport | list[TheoremReport]:
    """a / sin(alpha) == b / sin(beta) == c / sin(gamma) for any triangle;
    for a list of them, one report each."""
    return _verify("sines", t, tol_abs, tol_rel)


def verify_law_of_cosines(
    t: Triangle | list[Triangle],
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport | list[TheoremReport]:
    """c^2 == a^2 + b^2 - 2ab cos(gamma) for any triangle; for a list of
    them, one report each."""
    return _verify("cosines", t, tol_abs, tol_rel)


def verify_nd_pythagoras(
    r: RightSimplexSpec | list[RightSimplexSpec],
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> TheoremReport | list[TheoremReport]:
    """C^2 == sum_i A_i^2 for a right N-simplex (C the hypotenuse-facet
    measure, A_i the leg-facet measures); for a list of them, all of one
    dimension, one report each."""
    return _verify("nd-pythagoras", r, tol_abs, tol_rel)


def random_triangle(seed: int, kind: str = "general") -> Triangle:
    """Deterministic random triangle with vertices in [-1, 1]^2 and all
    angles at least MIN_ANGLE: "general", "right" (right angle at C) or
    "obtuse" (largest angle above pi/2).

    Determinism contract: each attempt draws from ``default_rng(seed)``
    the vertices A, B, C as one (3, 2) uniform in [-1, 1] ("general",
    "obtuse"), or ("right") in order the frame angle theta in [0, 2 pi],
    the legs a, b as one size-2 uniform in [0.2, 0.9], and per axis, x
    then y, one uniform in [-1 - low, 1 - high]: the shift of A = b (-sin,
    cos), B = a (cos, sin) and C = 0 less their mean ((A + B) + C) / 3, low
    and high the extremes of the centred values. Degenerate draws, angles
    below MIN_ANGLE and, for "obtuse", non-obtuse draws are redrawn.
    """
    if kind not in ("general", "right", "obtuse"):
        raise ShapeValidationError(f"unknown triangle kind {kind!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REJECTIONS):
        if kind == "right":
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cos, sin = math.cos(theta), math.sin(theta)
            leg_a, leg_b = rng.uniform(0.2, 0.9, size=2).tolist()
            # Right angle at C: B - C and A - C along orthogonal frame rows. Python
            # floats give the bits of the same arithmetic on numpy arrays.
            axes = []
            for axis in zip((leg_b * -sin, leg_b * cos), (leg_a * cos, leg_a * sin), (0.0, 0.0)):
                mean = (axis[0] + axis[1] + axis[2]) / 3
                centred = [x - mean for x in axis]
                shift = rng.uniform(-1.0 - min(centred), 1.0 - max(centred))
                axes.append([x + shift for x in centred])
            points = zip(*axes)
        else:
            points = rng.uniform(-1.0, 1.0, size=(3, 2))
        try:
            tri = Triangle(*points)
        except DegenerateSimplexError:
            continue
        angles = (tri.alpha, tri.beta, tri.gamma)
        if min(angles) < MIN_ANGLE or kind == "obtuse" and max(angles) <= math.pi / 2.0:
            continue
        return tri
    raise RuntimeError(f"no acceptable {kind!r} triangle after {MAX_REJECTIONS} rejections")


def _well_conditioned(raw: np.ndarray) -> bool:
    """cond_2(raw) <= 1e6, decided without an SVD on almost every draw.

    cond_2(A) <= |A|_F |inv(A)|_F (Higham, Accuracy and Stability of
    Numerical Algorithms, section 6), so a Frobenius product of at most
    5e5 certifies the bound with a factor 2 to spare for rounding. A draw
    the certificate does not accept (a larger product, an overflow, or a
    singular ``raw``) is decided by ``np.linalg.cond``, the SVD.
    """
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(raw)
        except np.linalg.LinAlgError:
            pass
        else:
            if math.sqrt((raw * raw).sum() * (inverse * inverse).sum()) <= 5e5:
                return True
    return np.linalg.cond(raw) <= 1e6


def _qr_frames(matrices: np.ndarray) -> np.ndarray:
    """Q factors of a stack of square matrices, one stacked QR, with column
    signs fixed so that diag(R) >= 0, which makes each factorization unique
    (Haar-distributed for Gaussian input)."""
    q, r = np.linalg.qr(matrices)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)
    return q * signs[:, None]


def random_right_simplex(
    seed: int, dim: int, leg_mode: str = "orthonormal"
) -> RightSimplexSpec:
    """Deterministic random right simplex, 2 <= dim <= 16.

    Determinism contract: ``default_rng(seed)`` is drawn in the order
    ``raw`` (a (dim, dim) standard normal matrix), then the leg lengths
    (uniform in [0.5, 2], "scaled" mode only), then ``rotation`` (a
    (dim, dim) standard normal matrix), then the apex (uniform in
    [-1, 1]^dim). A ``raw`` with cond_2 > 1e6 is redrawn before anything
    else; ``_well_conditioned`` decides this with a Frobenius-norm
    certificate and falls back to the SVD only where the certificate does
    not accept. The legs are the rows of the Haar-random Q factor of
    ``raw`` (columns sign-fixed so diag(R) >= 0), each scaled by its
    length; they are rotated by the sign-fixed Q factor of ``rotation``,
    with its first column negated where its determinant is -1, and the
    vertices are the apex, then apex + each rotated leg.
    """
    if not 2 <= dim <= 16:
        raise ShapeValidationError(f"dim must be in 2..16, got {dim}")
    if leg_mode not in ("orthonormal", "scaled"):
        raise ShapeValidationError(f"unknown leg mode {leg_mode!r}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REJECTIONS):
        raw = rng.standard_normal((dim, dim))
        if not _well_conditioned(raw):
            continue
        scales = rng.uniform(0.5, 2.0, size=(dim, 1)) if leg_mode == "scaled" else 1.0
        frames = _qr_frames(np.array([raw, rng.standard_normal((dim, dim))]))
        legs, rotation = frames[0].T * scales, frames[1]
        if np.linalg.det(rotation) < 0.0:
            rotation[:, 0] = -rotation[:, 0]
        apex = rng.uniform(-1.0, 1.0, size=dim)
        return RightSimplexSpec(np.vstack([apex, apex + legs @ rotation.T]))
    raise RuntimeError(
        f"no well-conditioned frame after {MAX_REJECTIONS} rejections"
    )
