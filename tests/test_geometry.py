"""Geometry tests: worked examples, oracle equivalence, and invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from shapecalc import (
    DegenerateSimplexError,
    DimensionMismatchError,
    FloatRangeError,
    Simplex,
    Triangle,
    base_height_volume,
    facet_measure,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def unit_simplex(dim: int) -> Simplex:
    return Simplex(np.vstack([np.zeros(dim), np.eye(dim)]))


class TestVolume:
    def test_unit_2_simplex(self):
        assert unit_simplex(2).volume == pytest.approx(0.5, abs=1e-15)

    def test_unit_3_simplex(self):
        assert unit_simplex(3).volume == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_right_triangle_3_4(self):
        s = Simplex(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
        assert s.volume == pytest.approx(6.0, abs=1e-14)

    def test_collinear_vertices_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            Simplex(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))

    def test_coincident_vertices_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            Simplex(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Simplex(np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError):
            Simplex(verts)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_rejected(self, bad):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            Simplex(verts)

    @pytest.mark.parametrize(
        "verts",
        [
            # |det| = 1.2e401 and the squared edges overflow.
            [[0.0, 0.0], [3e200, 0.0], [0.0, 4e200]],
            # Every edge fits; det(E) = 1e320 and scale**16 overflow.
            np.vstack([np.zeros(16), 1e20 * np.eye(16)]),
            # Only the squared longest edge overflows.
            [[0.0, 0.0], [2e154, 0.0], [0.0, 1.0]],
            # Coordinates fit the square root of float max, the edge does not.
            [[-1e154, 0.0], [1e154, 0.0], [0.0, 1.0]],
            # Only the edge vectors overflow.
            [[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]],
        ],
    )
    def test_coordinates_beyond_float_range(self, verts):
        # The pytest configuration turns any numpy warning into an error.
        with pytest.raises(FloatRangeError, match="overflow the float range"):
            Simplex(np.array(verts))

    @pytest.mark.parametrize("factor", [1e150, 2e153])
    def test_large_coordinates_within_float_range(self, factor):
        # 2e153 is above the bound under which the gate cannot overflow, so
        # this shape takes the checked path and must still be built. numpy's
        # det is exp(log|det|), whose rounding grows with log|det| (~707 here).
        s = Simplex(factor * np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]))
        assert s.volume == pytest.approx(6.0 * factor**2, rel=1e-12)
        assert s.scale == pytest.approx(5.0 * factor, rel=1e-15)


class TestFacets:
    def test_unit_2_simplex_measures(self):
        measures = sorted(f.measure for f in unit_simplex(2).facets)
        assert measures == pytest.approx([1.0, 1.0, SQRT2], abs=1e-14)

    def test_unit_3_simplex_measures(self):
        # Oblique face spans e1, e2, e3; Gram matrix [[2,1],[1,2]] has
        # determinant 3, so its area is sqrt(3)/2.
        measures = sorted(f.measure for f in unit_simplex(3).facets)
        assert measures == pytest.approx([0.5, 0.5, 0.5, SQRT3 / 2.0], abs=1e-14)

    def test_facet_count(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4, 6):
            s = support.random_simplex(rng, dim)
            assert len(s.facets) == dim + 1

    def test_segment_length(self):
        s = Simplex(np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0]]))
        segment = s.facets[2]  # spans (0,0)-(3,4)
        assert segment.measure == pytest.approx(5.0, abs=1e-14)
        assert facet_measure(segment) == pytest.approx(5.0, abs=1e-14)

    def test_oblique_face_cross_product_oracle(self):
        s = unit_simplex(3)
        oblique = s.facets[0]
        e1, e2, e3 = np.eye(3)
        oracle = np.linalg.norm(np.cross(e2 - e1, e3 - e1)) / 2.0
        assert oblique.measure == pytest.approx(oracle, rel=1e-15)
        assert oblique.measure == pytest.approx(SQRT3 / 2.0, rel=1e-15)

    def test_standard_4_simplex_face_cayley_menger_oracle(self):
        s = unit_simplex(4)
        face = s.facets[0]  # spans e1..e4
        oracle = support.cayley_menger_measure(face.vertices)
        assert face.measure == pytest.approx(oracle, rel=1e-12)
        assert face.measure == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_facet_measure_matches_stored_measure(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 5):
            s = support.random_simplex(rng, dim)
            for f in s.facets:
                assert facet_measure(f) == pytest.approx(f.measure, rel=1e-14)


class TestFacetsArrays:
    """``Simplex.facets`` as a sequence over three read-only arrays."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_sequence_contract(self, dim):
        s = support.random_simplex(np.random.default_rng(dim), dim, min_rel_det=1e-6)
        fs = s.facets
        assert len(fs) == dim + 1
        assert fs.vertices.shape == (dim + 1, dim, dim)
        assert fs.normals.shape == (dim + 1, dim)
        assert fs.measures.shape == (dim + 1,)
        for i, f in enumerate(fs):
            assert f.opposite_vertex_index == i
            g = fs[i]
            assert np.array_equal(f.vertices, g.vertices)
            assert np.array_equal(f.normal, g.normal)
            assert f.measure == g.measure
        last = fs[-1]
        assert last.opposite_vertex_index == dim
        assert np.array_equal(last.vertices, fs[dim].vertices)
        for bad in (dim + 1, -(dim + 2)):
            with pytest.raises(IndexError):
                fs[bad]
        first, *_ = fs
        assert first.opposite_vertex_index == 0

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_arrays_are_read_only(self, dim):
        fs = support.random_simplex(
            np.random.default_rng(dim), dim, min_rel_det=1e-6
        ).facets
        for array in (fs.vertices, fs.normals, fs.measures):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert not fs[0].vertices.flags.writeable
        assert not fs[0].normal.flags.writeable

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_rows_match_the_vertex_array(self, dim):
        s = support.random_simplex(np.random.default_rng(dim), dim, min_rel_det=1e-6)
        fs = s.facets
        for i in range(dim + 1):
            f = fs[i]
            assert np.array_equal(f.vertices, np.delete(s.vertices, i, axis=0))
            assert np.array_equal(f.normal, fs.normals[i])
            assert f.measure == fs.measures[i]
            assert type(f.measure) is float

    def test_cached_on_the_simplex(self):
        s = unit_simplex(3)
        assert s.facets is s.facets


class TestNormals:
    def test_unit_triangle_normals(self):
        s = unit_simplex(2)
        hyp, left, bottom = s.facets
        assert hyp.normal == pytest.approx([1.0 / SQRT2, 1.0 / SQRT2], abs=1e-14)
        assert left.normal == pytest.approx([-1.0, 0.0], abs=1e-14)
        assert bottom.normal == pytest.approx([0.0, -1.0], abs=1e-14)

    def test_unit_tetrahedron_oblique_normal(self):
        n = unit_simplex(3).facets[0].normal
        assert n == pytest.approx(np.ones(3) / SQRT3, abs=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_normal_unit_and_orthogonal_to_edges(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        for f in s.facets:
            assert abs(np.linalg.norm(f.normal) - 1.0) <= 1e-14
            edges = f.vertices[1:] - f.vertices[0]
            for edge in edges:
                assert abs(f.normal @ edge) <= 1e-12 * np.linalg.norm(edge)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_outwardness(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        for f in s.facets:
            opposite = s.vertices[f.opposite_vertex_index]
            assert float(f.normal @ (f.centroid - opposite)) > 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_minkowski_normal_sum(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        fs = s.facets
        total = sum(f.measure for f in fs)
        resultant = np.linalg.norm(sum(f.measure * f.normal for f in fs))
        assert resultant <= 1e-13 * total


class TestTriangle:
    def test_3_4_5_metrics(self):
        t = Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])
        assert t.a == pytest.approx(4.0, abs=1e-14)
        assert t.b == pytest.approx(3.0, abs=1e-14)
        assert t.c == pytest.approx(5.0, abs=1e-14)
        assert t.gamma == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_equilateral_angles(self):
        t = Triangle([0.5, SQRT3 / 2.0], [1.0, 0.0], [0.0, 0.0])
        for angle in (t.alpha, t.beta, t.gamma):
            assert angle == pytest.approx(math.pi / 3.0, abs=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_angle_sum(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            pts = rng.uniform(-1.0, 1.0, (3, 2))
            try:
                t = Triangle(pts[0], pts[1], pts[2])
                break
            except DegenerateSimplexError:
                continue
        assert abs(t.alpha + t.beta + t.gamma - math.pi) <= 1e-12

    def test_law_of_sines_consistency_of_metrics(self):
        t = Triangle([0.1, 0.9], [0.8, -0.3], [-0.6, -0.2])
        ratios = [
            t.a / math.sin(t.alpha),
            t.b / math.sin(t.beta),
            t.c / math.sin(t.gamma),
        ]
        assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)

    def test_side_normals_are_unit_and_outward(self):
        t = Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])
        for n, opposite in ((t.n_a, t.A), (t.n_b, t.B), (t.n_c, t.C)):
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-14
        # n_c points away from C across side AB
        midpoint = (t.A + t.B) / 2.0
        assert float(t.n_c @ (midpoint - t.C)) > 0.0


class TestBaseHeightVolume:
    def test_unit_triangle_hypotenuse_base(self):
        s = unit_simplex(2)
        assert base_height_volume(s, 0) == pytest.approx(0.5, rel=1e-14)

    def test_unit_tetrahedron_oblique_base(self):
        # Height from the origin to the plane x + y + z = 1 is 1/sqrt(3).
        s = unit_simplex(3)
        height = 1.0 / SQRT3
        expected = height / 3.0 * (SQRT3 / 2.0)
        assert expected == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert base_height_volume(s, 0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_determinant_volume_for_every_base(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        for i in range(dim + 1):
            assert base_height_volume(s, i) == pytest.approx(
                s.volume, rel=1e-13
            )


class TestOracleEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_facet_measure_matches_cayley_menger(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        f = s.facets[int(rng.integers(0, dim + 1))]
        assert f.measure == pytest.approx(
            support.cayley_menger_measure(f.vertices), rel=1e-12
        )


def exact_gram_det(points) -> Fraction:
    """Exact det(E E^T) for the edge matrix E rooted at the first point.

    Floats are dyadic rationals, so one power-of-two scale turns every
    coordinate into an integer; fraction-free (Bareiss) elimination then
    stays in integers. The Gram matrix is positive definite, so every
    leading pivot is nonzero."""
    rational = [[Fraction(x) for x in p] for p in points]
    denom = math.lcm(*(x.denominator for p in rational for x in p))
    ints = [[int(x * denom) for x in p] for p in rational]
    edges = [[a - b for a, b in zip(p, ints[0])] for p in ints[1:]]
    m = [[sum(a * b for a, b in zip(u, v)) for v in edges] for u in edges]
    n, prev = len(m), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(m[-1][-1], denom ** (2 * n))


class TestExactOracle:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_facet_measure_squared_matches_exact_gram(self, dim):
        # Slivers: scaling the last coordinate shrinks the determinant while
        # the facets stay well shaped in their own hyperplanes.
        checked = 0
        for seed in range(3):
            base = np.random.default_rng(1000 + seed).uniform(
                -1.0, 1.0, (dim + 1, dim)
            )
            for factor in (1e-2, 1e-5, 1e-8):
                verts = base.copy()
                verts[:, -1] *= factor
                try:
                    s = Simplex(verts)
                except DegenerateSimplexError:
                    continue
                for f in s.facets:
                    exact = exact_gram_det(f.vertices.tolist()) / math.factorial(
                        dim - 1
                    ) ** 2
                    rel = abs(Fraction(f.measure) ** 2 - exact) / exact
                    assert rel <= Fraction(1, 10**12), (seed, factor, float(rel))
                checked += 1
        assert checked > 0


class TestRigidMotionInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_volume_measures_sides_angles(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        s = support.random_simplex(rng, dim)
        rotation = support.random_rotation(rng, dim)
        shift = rng.uniform(-2.0, 2.0, dim)
        moved = Simplex(s.vertices @ rotation.T + shift)
        assert moved.volume == pytest.approx(s.volume, rel=1e-12)
        for f, g in zip(s.facets, moved.facets):
            assert g.measure == pytest.approx(f.measure, rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_triangle_metrics_invariant(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            pts = rng.uniform(-1.0, 1.0, (3, 2))
            try:
                t = Triangle(pts[0], pts[1], pts[2])
                break
            except DegenerateSimplexError:
                continue
        rotation = support.random_rotation(rng, 2)
        shift = rng.uniform(-2.0, 2.0, 2)
        moved_pts = pts @ rotation.T + shift
        moved = Triangle(moved_pts[0], moved_pts[1], moved_pts[2])
        for before, after in (
            (t.a, moved.a),
            (t.b, moved.b),
            (t.c, moved.c),
        ):
            assert after == pytest.approx(before, rel=1e-12)
        for before, after in (
            (t.alpha, moved.alpha),
            (t.beta, moved.beta),
            (t.gamma, moved.gamma),
        ):
            assert abs(after - before) <= 1e-12
