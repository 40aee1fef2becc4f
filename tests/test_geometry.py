"""Geometry tests: worked examples, oracle equivalence, and invariants."""

import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from shapecalc import (
    DEGENERACY_EPS,
    DegenerateSimplexError,
    DimensionMismatchError,
    FloatRangeError,
    ShapeValidationError,
    Simplex,
    Triangle,
    base_height_volume,
    facet_measure,
    geometry,
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
        with pytest.raises(DimensionMismatchError, match="at least 2"):
            Simplex(np.array([[0.0], [1.0]]))  # two points on a line, N = 1

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
        # numpy's det is exp(log|det|), whose rounding grows with log|det|
        # (~707 here).
        s = Simplex(factor * np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]))
        assert s.volume == pytest.approx(6.0 * factor**2, rel=1e-12)
        assert s.scale == pytest.approx(5.0 * factor, rel=1e-15)


def gate_outcome(gate, stack):
    """What ``gate`` gives for ``stack``: its volumes and scales as float
    hex strings, or the type, message and ``index`` of its error. Any
    warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            volumes, scales = gate(stack)
        except ValueError as err:  # every gate error is a ValueError
            return type(err), str(err), getattr(err, "index", None)
    return [v.hex() for v in volumes], [v.hex() for v in scales]


# Per image of a stack: uniform vertices, or one of the shapes that reach
# the gate's edge cases.
SPECIAL_IMAGES = ("zero-pivot", "all-equal", "non-finite", "subnormal")


class TestOnePathGate:
    """``gated_volumes`` runs one path; the two-path gate it replaced, kept
    in tests/support.py, must give the same outcome on every stack."""

    @given(
        st.sampled_from([2, 3, 8, 16]),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(
                st.one_of(st.integers(-8, 8), st.integers(-1100, 1100)),
                st.one_of(st.just("plain"), st.sampled_from(SPECIAL_IMAGES)),
            ),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_two_path_reference(self, dim, seed, images):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(-1.0, 1.0, (len(images), dim + 1, dim))
        for image, (k, kind) in zip(stack, images):
            if kind == "zero-pivot":
                image[:, 0] = image[0, 0]  # a zero first column of edges
            elif kind == "all-equal":
                image[:] = image[0]
            elif kind == "non-finite":
                image[rng.integers(dim + 1), rng.integers(dim)] = rng.choice(
                    [np.nan, np.inf, -np.inf])
            elif kind == "subnormal":
                k = int(rng.integers(-1074, -1022))
            with np.errstate(over="ignore"):  # 2^k beyond float max gives inf
                image[:] = np.ldexp(image, k)
        assert gate_outcome(geometry.gated_volumes, stack) == gate_outcome(
            support.gated_volumes_two_path, stack)

    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_first_degenerate_image_is_named_before_a_later_overflow(self, dim):
        # Image 1 has a finite determinant and squared edges, but scale**N
        # overflows (at N = 2 it cannot without the squared edge too).
        long_edge = np.vstack([np.zeros(dim), np.eye(dim)])
        long_edge[1, 0] = 2.0 ** (1100 // dim)
        stack = np.stack([np.zeros((dim + 1, dim)), long_edge])
        outcome = gate_outcome(geometry.gated_volumes, stack)
        assert outcome == gate_outcome(support.gated_volumes_two_path, stack)
        assert outcome[0] is DegenerateSimplexError and outcome[2] == 0
        with pytest.raises(FloatRangeError, match="overflow the float range"):
            geometry.gated_volumes(stack[1:])


# Stack shapes (M, N) of single simplices, triangle batches and the
# right-simplex batches that verify proves as one stack.
STACK_SHAPES = [(1, 2), (25, 2), (1, 3), (4, 2), (4, 16), (5, 16), (1, 16), (4, 8)]


def scaled_stack(m: int, dim: int) -> np.ndarray:
    """M well-shaped simplices, each scaled by its own power of two."""
    rng = np.random.default_rng(100 * m + dim)
    stack = np.array([support.random_simplex(rng, dim, min_rel_det=1e-6).vertices
                      for _ in range(m)])
    return np.ldexp(stack, rng.integers(-60, 61, (m, 1, 1)))


class TestStackedGeometry:
    """A stack gets from ``gated_volumes`` and ``stacked_facets`` what each
    of its simplices gets alone, bit for bit and, for the normals, in the
    same memory layout."""

    @pytest.mark.parametrize("m, dim", STACK_SHAPES)
    def test_gate_matches_two_path_reference(self, m, dim):
        stack = scaled_stack(m, dim)
        assert gate_outcome(geometry.gated_volumes, stack) == gate_outcome(
            support.gated_volumes_two_path, stack)

    @pytest.mark.parametrize("m, dim", STACK_SHAPES)
    def test_items_match_lone_simplices(self, m, dim):
        stack = scaled_stack(m, dim)
        volumes, scales = geometry.gated_volumes(stack)
        facets = geometry.stacked_facets(stack, volumes)
        for k, vertices in enumerate(stack):
            s = Simplex(vertices)
            assert (volumes[k], scales[k]) == (s.volume, s.scale)
            for name in ("normals", "measures"):
                stacked, alone = getattr(facets, name)[k], getattr(s.facets, name)
                assert stacked.tobytes() == alone.tobytes(), name
                assert stacked.strides == alone.strides, name
                assert not stacked.flags.writeable

    @pytest.mark.parametrize("m, dim", STACK_SHAPES)
    def test_lone_facets_match_the_reference(self, m, dim):
        for vertices in scaled_stack(m, dim):
            s = Simplex(vertices)
            expected = support.facets_alone(s)
            for name in ("normals", "measures"):
                got, want = getattr(s.facets, name), getattr(expected, name)
                assert got.tobytes() == want.tobytes(), name
                assert got.strides == want.strides, name

    @pytest.mark.parametrize("m, dim", STACK_SHAPES)
    def test_stacked_simplex_is_its_items(self, m, dim):
        stack = scaled_stack(m, dim)
        stacked = Simplex(stack)
        assert stacked.dim == dim
        alone = [Simplex(vertices) for vertices in stack]
        assert stacked.volume == [s.volume for s in alone]
        assert stacked.scale == [s.scale for s in alone]
        for k, s in enumerate(alone):
            assert stacked.centroid[k].tobytes() == s.centroid.tobytes()
            for name in ("normals", "measures"):
                item = getattr(stacked.facets, name)[k]
                assert item.tobytes() == getattr(s.facets, name).tobytes(), name

    def test_stacked_simplex_gates_every_item(self):
        stack = scaled_stack(4, 3)
        stack[2, 3] = stack[2, 1]  # a repeated vertex
        with pytest.raises(DegenerateSimplexError) as err:
            Simplex(stack)
        assert err.value.index == 2
        with pytest.raises(DimensionMismatchError, match="expected"):
            Simplex(np.zeros((2, 4, 4, 3)))

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_edge_index_is_cached_and_read_only(self, dim):
        index = geometry._edge_index(dim)
        assert index.shape == (2, (dim + 1) * dim // 2)
        assert sorted(map(tuple, index.T.tolist())) == [
            (i, j) for i in range(dim + 1) for j in range(i + 1, dim + 1)]
        assert geometry._edge_index(dim) is index
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1


class TestFacets:
    def test_unit_2_simplex_measures(self):
        measures = sorted(unit_simplex(2).facets.measures)
        assert measures == pytest.approx([1.0, 1.0, SQRT2], abs=1e-14)

    def test_unit_3_simplex_measures(self):
        # Oblique face spans e1, e2, e3; Gram matrix [[2,1],[1,2]] has
        # determinant 3, so its area is sqrt(3)/2.
        measures = sorted(unit_simplex(3).facets.measures)
        assert measures == pytest.approx([0.5, 0.5, 0.5, SQRT3 / 2.0], abs=1e-14)

    def test_facet_count(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4, 6):
            s = support.random_simplex(rng, dim)
            assert s.facets.measures.shape == (dim + 1,)

    def test_segment_length(self):
        s = Simplex(np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0]]))
        fs = s.facets  # facet 2 spans (0,0)-(3,4)
        assert fs.measures[2] == pytest.approx(5.0, abs=1e-14)
        assert facet_measure(support.facet_vertices(s)[2]) == pytest.approx(5.0, abs=1e-14)

    def test_oblique_face_cross_product_oracle(self):
        s = unit_simplex(3)
        oblique = s.facets.measures[0]
        e1, e2, e3 = np.eye(3)
        oracle = np.linalg.norm(np.cross(e2 - e1, e3 - e1)) / 2.0
        assert oblique == pytest.approx(oracle, rel=1e-15)
        assert oblique == pytest.approx(SQRT3 / 2.0, rel=1e-15)

    def test_standard_4_simplex_face_cayley_menger_oracle(self):
        s = unit_simplex(4)
        fs = s.facets  # facet 0 spans e1..e4
        oracle = support.cayley_menger_measure(support.facet_vertices(s)[0])
        assert fs.measures[0] == pytest.approx(oracle, rel=1e-12)
        assert fs.measures[0] == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_facet_measure_matches_stored_measure(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 5):
            s = support.random_simplex(rng, dim)
            fs = s.facets
            for vertices, measure in zip(support.facet_vertices(s), fs.measures):
                assert facet_measure(vertices) == pytest.approx(measure, rel=1e-14)


class TestFacetsArrays:
    """``Simplex.facets`` as a frozen record of two read-only arrays."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_record_of_two_arrays(self, dim):
        s = support.random_simplex(np.random.default_rng(dim), dim, min_rel_det=1e-6)
        fs = s.facets
        assert [f.name for f in dataclasses.fields(fs)] == ["normals", "measures"]
        assert fs.normals.shape == (dim + 1, dim)
        assert fs.measures.shape == (dim + 1,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fs.measures = fs.measures

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_arrays_are_read_only(self, dim):
        fs = support.random_simplex(
            np.random.default_rng(dim), dim, min_rel_det=1e-6
        ).facets
        for array in (fs.normals, fs.measures):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert not fs.normals[0].flags.writeable

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_rows_match_the_vertex_array(self, dim):
        # boundary_integral pairs gathered row i with normal i and measure i.
        s = support.random_simplex(np.random.default_rng(dim), dim, min_rel_det=1e-6)
        rows = support.facet_vertices(s)
        for i in range(dim + 1):
            assert np.array_equal(rows[i], np.delete(s.vertices, i, axis=0))
            assert float(s.facets.normals[i] @ (rows[i][0] - s.vertices[i])) > 0.0

    @pytest.mark.parametrize("m, dim", STACK_SHAPES)
    def test_stack_holds_only_normals_and_measures(self, m, dim):
        # M (N+1) normals of N floats and M (N+1) measures: no facet points.
        fs = Simplex(scaled_stack(m, dim)).facets
        held = sum(vars(fs)[name].size for name in vars(fs))
        assert held == m * (dim + 1) * (dim + 1)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_closed_form_matches_norm_and_vstack(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(20):
            s = support.random_simplex(rng, dim, min_rel_det=1e-6)
            grads = np.linalg.inv(s.vertices[1:] - s.vertices[0]).T
            grads = np.vstack([-grads.sum(axis=0), grads])
            lengths = np.linalg.norm(grads, axis=1)
            normals = -grads / lengths[:, None]
            fs = s.facets
            assert np.array_equal(fs.normals, normals)
            assert np.array_equal(fs.measures, dim * s.volume * lengths)
            # Column-major: the layout decides how the per-facet dots with
            # the normals round, so reports pin it.
            assert fs.normals.strides == normals.strides
            assert fs.normals.flags.f_contiguous
            assert not fs.normals.flags.c_contiguous

    def test_cached_on_the_simplex(self):
        s = unit_simplex(3)
        assert s.facets is s.facets

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_gather_index_is_cached_and_read_only(self, dim):
        index = geometry._facet_index(dim)
        j = np.arange(dim)
        assert np.array_equal(index, j + (j >= np.arange(dim + 1)[:, None]))
        assert geometry._facet_index(dim) is index
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1


class TestNormals:
    def test_unit_triangle_normals(self):
        s = unit_simplex(2)
        hyp, left, bottom = s.facets.normals
        assert hyp == pytest.approx([1.0 / SQRT2, 1.0 / SQRT2], abs=1e-14)
        assert left == pytest.approx([-1.0, 0.0], abs=1e-14)
        assert bottom == pytest.approx([0.0, -1.0], abs=1e-14)

    def test_unit_tetrahedron_oblique_normal(self):
        n = unit_simplex(3).facets.normals[0]
        assert n == pytest.approx(np.ones(3) / SQRT3, abs=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_normal_unit_and_orthogonal_to_edges(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        fs = s.facets
        for vertices, normal in zip(support.facet_vertices(s), fs.normals):
            assert abs(np.linalg.norm(normal) - 1.0) <= 1e-14
            edges = vertices[1:] - vertices[0]
            for edge in edges:
                assert abs(normal @ edge) <= 1e-12 * np.linalg.norm(edge)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_outwardness(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        fs = s.facets
        for i, opposite in enumerate(s.vertices):
            centroid = support.facet_vertices(s)[i].mean(axis=0)
            assert float(fs.normals[i] @ (centroid - opposite)) > 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_minkowski_normal_sum(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        fs = s.facets
        total = fs.measures.sum()
        resultant = np.linalg.norm((fs.measures[:, None] * fs.normals).sum(axis=0))
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

    @pytest.mark.parametrize("exponent", [-150, -20, 0, 20, 150])
    def test_side_lengths_are_norms(self, exponent):
        # math.sqrt(d.dot(d)) is what np.linalg.norm computes for 1-D floats.
        rng = np.random.default_rng(exponent + 150)
        for _ in range(200):
            d = rng.standard_normal(2) * 10.0**exponent
            assert math.sqrt(d.dot(d)) == float(np.linalg.norm(d))
        pts = rng.uniform(-1.0, 1.0, (3, 2)) * 10.0**exponent
        t = Triangle(*pts)
        assert (t.a, t.b, t.c) == tuple(float(np.linalg.norm(d)) for d in
                                        (t.B - t.C, t.A - t.C, t.A - t.B))

    def test_frozen_dataclass(self):
        t = Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])
        assert repr(t) == "Triangle(A=[0.0, 3.0], B=[4.0, 0.0], C=[0.0, 0.0])"
        assert [f.name for f in dataclasses.fields(t)] == ["A", "B", "C"]
        for name in ("A", "B", "C", "simplex", "a", "b", "c", "alpha", "beta",
                     "gamma", "n_a", "n_b", "n_c"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, getattr(t, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        assert Triangle(A=t.A, B=t.B, C=t.C).c == t.c
        # The vertices and side normals match the rows of the simplex's arrays.
        assert np.array_equal(np.array([t.A, t.B, t.C]), t.simplex.vertices)
        assert np.array_equal(np.array([t.n_a, t.n_b, t.n_c]), t.simplex.facets.normals)
        for array in (t.A, t.B, t.C, t.n_a, t.n_b, t.n_c):
            assert not array.flags.writeable

    def test_side_normals_are_computed_on_first_read(self):
        # Building a triangle computes no facets, so the tiny triangle, whose
        # squared barycentric gradients overflow, builds; reading a side
        # normal computes them all, once, and raises where they overflow.
        t = Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])
        assert "facets" not in vars(t.simplex)
        n_b = t.n_b
        facets = vars(t.simplex)["facets"]
        assert np.shares_memory(n_b, facets.normals)
        assert np.array_equal(n_b, facets.normals[1])
        t.n_c
        assert t.simplex.facets is facets
        tiny = Triangle([3e-160, 0.0], [0.0, 4e-160], [0.0, 0.0])
        with pytest.raises(FloatRangeError, match="the facet geometry overflows"):
            tiny.n_a

    def test_side_normals_are_unit_and_outward(self):
        t = Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])
        for n, opposite in ((t.n_a, t.A), (t.n_b, t.B), (t.n_c, t.C)):
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-14
        # n_c points away from C across side AB
        midpoint = (t.A + t.B) / 2.0
        assert float(t.n_c @ (midpoint - t.C)) > 0.0


class TestTriangleConstruction:
    """``Triangle`` decides the gate in floats where a rounding bound settles
    it, builds ``simplex`` on first read, and reads its sides and angles
    from one product; ``support.TriangleReference``, the construction
    before that (an eager ``Simplex``, ``d.dot(d)`` per side, one ``u @ v``
    per angle), must give the same bits, or the same error, everywhere."""

    def test_simplex_is_built_on_first_read(self):
        t = Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])
        assert "simplex" not in vars(t)
        s = t.simplex
        assert vars(t)["simplex"] is s and t.simplex is s
        assert np.array_equal(s.vertices, [t.A, t.B, t.C])
        # Outside the screen's range the gate runs at construction.
        tiny = Triangle([0.0, 3e-150], [4e-150, 0.0], [0.0, 0.0])
        assert "simplex" in vars(tiny)
        # So does a triangle near the gate's threshold: 1.5 * DEGENERACY_EPS.
        near = Triangle([0.0, 0.0], [1.0, 0.0], [0.5, 1.5 * DEGENERACY_EPS])
        assert "simplex" in vars(near)

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_over_a_simplex_matches_a_triangle_of_its_rows(self, scale):
        # Vertices, lengths and angles are those of the triangle of the
        # same rows; the side normals are the given simplex's facets.
        # At 1e150 the float screen cannot settle the gate.
        rng = np.random.default_rng(16)
        for _ in range(100):
            s = Simplex(support.random_simplex(rng, 2).vertices * scale)
            for sides in map(list, itertools.permutations(range(3))):
                t = Triangle.over(s, sides)
                assert t.simplex is s
                alone = support.triangle_outcome(lambda: Triangle(*s.vertices[sides]))
                assert support.triangle_outcome(lambda: t)[0] == alone[0]
                assert (np.array([t.n_a, t.n_b, t.n_c]).tobytes()
                        == s.facets.normals[sides].tobytes())

    @pytest.mark.parametrize("kind", ["general", "right", "obtuse"])
    def test_random_triangles_match_reference(self, kind):
        assert support.triangle_mismatches(seeds=range(5000), kinds=(kind,)) == []

    def test_raw_draws_match_reference(self):
        rng = np.random.default_rng(15)
        triples = [((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),
                   ((0.0, -0.0), (-0.0, 1.0), (1.0, 0.0)),
                   ((0.0, 0.0), (-0.0, 1e-300), (5e-324, 1.0)),
                   ((np.inf, 0.0), (0.0, 1.0), (1.0, 0.0)),
                   ((0.0, 0.0), (1.0, np.nan), (1.0, 0.0)),
                   ((0.0, 0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
        for _ in range(500):
            p, q, r = rng.uniform(-1.0, 1.0, (3, 2))
            t = rng.uniform(-2.0, 2.0)
            triples += [(p, q, r), (p, p, r), (p, q, q), (r, q, r), (p, p, p),
                        (p, q, p + t * (q - p))]  # repeated and collinear points
        assert support.triangle_mismatches(triples) == []

    def test_bad_vertices_raise_the_reference_error(self):
        # The one-array check fails on each of these, and the per-vertex
        # check raises the error that names the first bad vertex.
        good = (0.0, 1.0)
        bad = [None, "x", ("x", 1.0), 1.0, (1.0,), (1.0, 2.0, 3.0), ((1.0, 2.0),),
               (1.0, (2.0, 3.0)), (10**400, 0.0), (np.inf, 0.0), (0.0, -np.nan), {}]
        triples = [tuple(value if i == k else good for i in range(3))
                   for value in bad for k in range(3)]
        triples += [(bad[0], bad[5], good), (good, bad[4], bad[2]), (bad[9], bad[8], bad[3])]
        assert support.triangle_mismatches(triples) == []

    def test_vertices_are_read_only_rows_of_one_array(self):
        points = np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]])
        for args in ([*points], points.tolist(), [tuple(p) for p in points]):
            t = Triangle(*args)
            assert t.A.base is t.B.base is t.C.base is not None
            assert t.A.base.shape == (3, 2)
            assert not any(v.flags.writeable for v in (t.A, t.B, t.C, t.A.base))
            assert np.array_equal(np.array([t.A, t.B, t.C]), points)
        t = Triangle(*points)
        points[0, 0] = 7.0  # a copy: the caller's array does not move the triangle
        assert t.A.tolist() == [0.0, 3.0]

    @pytest.mark.parametrize("level", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_near_the_gate_matches_reference(self, level):
        # |det| = level * DEGENERACY_EPS * scale**2 up to the rounding of the
        # vertices, on random lines; the screen's own threshold is level 2.
        rng = np.random.default_rng(int(level * 10))
        triples, passed = [], 0
        for scale in (1e-100, 1e-3, 1.0, 1e3, 1e99, 1e100):
            for _ in range(40):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                edge = scale * np.array([math.cos(theta), math.sin(theta)])
                normal = np.array([-edge[1], edge[0]])
                A = rng.uniform(-1.0, 1.0, 2) * scale
                triples.append((A, A + edge, A + edge / 2.0 + level * DEGENERACY_EPS * normal))
                try:
                    Triangle(*triples[-1])
                    passed += 1
                except DegenerateSimplexError:
                    pass
        assert support.triangle_mismatches(triples) == []
        # The cases straddle the gate: all fail below it, all pass above it.
        if level == 0.5:
            assert passed == 0
        elif level == 1.0:
            assert 0 < passed < len(triples)
        elif level == 3.0:
            assert passed == len(triples)

    @pytest.mark.parametrize("factor", [1e150, 1e-150, 1e160, 1e-160, 1e200, 1e-200, 2e153])
    def test_scaled_3_4_5_matches_reference(self, factor):
        vertices = tuple(np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]) * factor)
        assert support.triangle_mismatches([vertices]) == []

    def test_reference_match_on_a_second_kernel(self):
        # The comparison on 2000 draws under OpenBLAS's Prescott kernels: an
        # assumption about the default kernel in the one product fails here.
        script = ("import numpy as np, support\n"
                  "rng = np.random.default_rng(2)\n"
                  "draws = [tuple(rng.uniform(-1.0, 1.0, (3, 2))) for _ in range(1000)]\n"
                  "print(support.triangle_mismatches(draws, range(500), ('general', 'right')))\n")
        result = support.run_on_second_kernel(script, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


class TestTriangleVertices:
    """``Triangle.vertices`` is the read-only (3, 2) array whose rows are A, B
    and C; the vertices are checked as that one array, finiteness on its
    list, and a bad vertex still raises the error that names it."""

    def test_read_only_rows_with_the_bits_of_the_vertices(self):
        rows = [(0.1, -0.0), (5e-324, 0.7), (-0.55, 1e-300)]
        t = Triangle(*rows)
        assert t.vertices.shape == (3, 2) and not t.vertices.flags.writeable
        assert t.vertices.tobytes() == np.array(rows).tobytes()
        for name, row in zip("ABC", t.vertices):
            assert getattr(t, name).base is t.vertices
            assert getattr(t, name).tobytes() == row.tobytes()
        assert t.simplex.vertices.tobytes() == t.vertices.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            t.vertices[0, 0] = 1.0

    def test_over_gives_the_labelled_rows(self):
        s = Simplex([[0.1, 0.7], [0.93, -0.31], [-0.55, 0.2]])
        for sides in map(list, itertools.permutations(range(3))):
            t = Triangle.over(s, sides)
            assert t.simplex is s
            assert t.vertices.tobytes() == s.vertices[sides].tobytes()
            assert not t.vertices.flags.writeable

    @pytest.mark.parametrize("sides", [[0, 0, 1], [0, 1, 5], [2, 1, -1], [0, 1], [0, 1, 2, 0]])
    def test_over_rejects_sides_other_than_the_three_vertices(self, sides):
        with pytest.raises(ShapeValidationError) as err:
            Triangle.over(unit_simplex(2), sides)
        assert str(err.value) == f"sides must be 0, 1, 2 in some order, got {sides}"

    def test_over_takes_one_simplex(self):
        a = unit_simplex(2).vertices
        with pytest.raises(DimensionMismatchError) as err:
            Triangle.over(Simplex(np.array([a, 2 * a])), [0, 1, 2])
        assert str(err.value) == (
            "this route takes one simplex, not a stack of shape (2, 3, 2)")

    @pytest.mark.parametrize("vertices, error, message", [
        (((0.0, 1.0), (1.0, np.nan), (1.0, 0.0)), ShapeValidationError,
         "vertex B has non-finite entries"),
        (((np.inf, 0.0), (0.0, 1.0), (1.0, 0.0)), ShapeValidationError,
         "vertex A has non-finite entries"),
        (((0.0, 1.0), (1.0, 0.0), (0.0, -np.inf)), ShapeValidationError,
         "vertex C has non-finite entries"),
        (((0.0, np.nan), (np.inf, 1.0), (1.0, 0.0)), ShapeValidationError,
         "vertex A has non-finite entries"),
        (((1.0, 2.0, 3.0), (0.0, 1.0), (1.0, 0.0)), DimensionMismatchError,
         "vertex A must have dimension 2, got 3"),
        (((0.0, 1.0), (1.0, 0.0), (1.0,)), DimensionMismatchError,
         "vertex C must have dimension 2, got 1"),
        (((0.0, 1.0), ((1.0, 2.0),), (1.0, 0.0)), DimensionMismatchError,
         "vertex B must be 1-D, got shape (1, 2)"),
        ((1.0, (0.0, 1.0), (1.0, 0.0)), DimensionMismatchError,
         "vertex A must be 1-D, got shape ()"),
        (((0.0, 1.0), "x", (1.0, 0.0)), ValueError, "could not convert string to float: 'x'"),
        (((0.0, 1.0), (1.0, 0.0), (10**400, 0.0)), OverflowError,
         "int too large to convert to float"),
        (((0.0, 1.0), {}, (1.0, 0.0)), TypeError,
         "float() argument must be a string or a real number, not 'dict'"),
    ])
    def test_bad_vertices_keep_their_error(self, vertices, error, message):
        with pytest.raises(error) as info:
            Triangle(*vertices)
        assert type(info.value) is error and str(info.value) == message


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

    def test_takes_one_simplex(self):
        a = unit_simplex(2).vertices
        for i in (0, 1):
            with pytest.raises(DimensionMismatchError) as err:
                base_height_volume(Simplex(np.array([a, 2 * a])), i)
            assert str(err.value) == (
                "this route takes one simplex, not a stack of shape (2, 3, 2)")

    @pytest.mark.parametrize("dim, base", [(2, 5), (2, 3), (2, -1), (3, 4), (3, -4)])
    def test_base_outside_the_facets_is_rejected(self, dim, base):
        # -1 used to read facet N, 5 raised IndexError.
        with pytest.raises(ShapeValidationError) as err:
            base_height_volume(unit_simplex(dim), base)
        assert str(err.value) == f"base_index must be in 0..{dim}, got {base}"


class TestOracleEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_facet_measure_matches_cayley_menger(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = support.random_simplex(rng, dim)
        i = int(rng.integers(0, dim + 1))
        assert s.facets.measures[i] == pytest.approx(
            support.cayley_menger_measure(support.facet_vertices(s)[i]), rel=1e-12
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
                fs = s.facets
                for vertices, measure in zip(support.facet_vertices(s),
                                             fs.measures.tolist()):
                    exact = exact_gram_det(vertices.tolist()) / math.factorial(
                        dim - 1
                    ) ** 2
                    rel = abs(Fraction(measure) ** 2 - exact) / exact
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
        for before, after in zip(s.facets.measures, moved.facets.measures):
            assert after == pytest.approx(before, rel=1e-12)

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
