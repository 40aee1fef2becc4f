"""Field and density tests, including the four proof-field constructors."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import support
from shapecalc import (
    AffineDensity,
    AffineField,
    DimensionMismatchError,
    Simplex,
    Triangle,
    cosines_field,
    div_density_field,
    nd_pythagoras_field,
    pythagoras_field,
    sines_field,
)

SQRT3 = math.sqrt(3.0)


def triangle_345():
    return Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])


def equilateral():
    return Triangle([0.5, SQRT3 / 2.0], [1.0, 0.0], [0.0, 0.0])


class TestEvaluation:
    def test_constant_field(self):
        xi = AffineField.constant([2.0, 0.0])
        assert xi.at(np.array([[5.0, 5.0]]))[0] == pytest.approx([2.0, 0.0])

    def test_identity_field(self):
        xi = AffineField(np.eye(2), np.zeros(2))
        assert xi.at(np.array([[1.0, 2.0]]))[0] == pytest.approx([1.0, 2.0])

    def test_shear_field(self):
        xi = AffineField(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
        assert xi.at(np.array([[3.0, 4.0]]))[0] == pytest.approx([4.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AffineField(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.zeros(2))
        with pytest.raises(ValueError):
            AffineDensity(np.zeros(2), math.nan)

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_unit_density_is_shared_and_read_only(self, dim):
        one = AffineDensity.one(dim)
        assert AffineDensity.one(dim) is one
        assert one.constant == 1.0
        assert np.array_equal(one.gradient, np.zeros(dim))
        assert not one.gradient.flags.writeable
        with pytest.raises(AttributeError):
            one.constant = 2.0

    def test_constant_field_has_zero_matrix(self):
        assert not AffineField.constant([1.0, 2.0]).matrix.any()
        assert AffineField(np.eye(2), np.zeros(2)).matrix.any()


class TestDivergenceDensity:
    def test_constant_field_unit_density(self):
        div = div_density_field(AffineDensity.one(2), AffineField.constant([3.0, -1.0]))
        assert div.gradient == pytest.approx([0.0, 0.0])
        assert div.constant == 0.0

    def test_identity_field_unit_density(self):
        div = div_density_field(
            AffineDensity.one(2), AffineField(np.eye(2), np.zeros(2))
        )
        assert div.gradient == pytest.approx([0.0, 0.0])
        assert div.constant == pytest.approx(2.0)

    def test_coordinate_density_constant_field(self):
        f = AffineDensity(np.array([1.0, 0.0]), 0.0)
        div = div_density_field(f, AffineField.constant([1.0, 0.0]))
        assert div.gradient == pytest.approx([0.0, 0.0])
        assert div.constant == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            div_density_field(AffineDensity.one(3), AffineField.constant([1.0, 0.0]))

    def test_linear_in_density_and_field(self):
        rng = np.random.default_rng(3)
        dim = 3
        f1, f2 = support.random_density(rng, dim), support.random_density(rng, dim)
        xi1, xi2 = support.random_field(rng, dim), support.random_field(rng, dim)
        f_sum = AffineDensity(f1.gradient + f2.gradient, f1.constant + f2.constant)
        xi_sum = AffineField(xi1.matrix + xi2.matrix, xi1.offset + xi2.offset)
        points = rng.uniform(-1.0, 1.0, (10, dim))
        for x in points:
            lhs = div_density_field(f_sum, xi1).at(x)
            rhs = div_density_field(f1, xi1).at(x) + div_density_field(f2, xi1).at(x)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)
            lhs = div_density_field(f1, xi_sum).at(x)
            rhs = div_density_field(f1, xi1).at(x) + div_density_field(f1, xi2).at(x)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_matches_pointwise_divergence_formula(self):
        rng = np.random.default_rng(9)
        dim = 4
        f = support.random_density(rng, dim)
        xi = support.random_field(rng, dim)
        div = div_density_field(f, xi)
        for x in rng.uniform(-1.0, 1.0, (10, dim)):
            direct = (float(f.gradient @ xi.at(x[None])[0])
                      + float(f.at(x)) * float(np.trace(xi.matrix)))
            assert float(div.at(x)) == pytest.approx(direct, rel=1e-13, abs=1e-14)


class TestFieldStacks:
    def test_each_field_of_a_stack_evaluates_as_alone(self):
        # Signed zeros included: the zero matrix product adds +0.0 either way.
        rng = np.random.default_rng(5)
        for dim in (2, 3, 8, 16):
            offsets = rng.choice([0.0, -0.0, 1.5, -2.0, 1e-300], (7, dim))
            points = rng.choice([0.0, -0.0, -1.0, 3.0], (7, dim + 1, dim))
            values = AffineField.constant(offsets).at(points)
            assert values.shape == points.shape
            for b, p, row in zip(offsets, points, values):
                assert row.tobytes() == AffineField.constant(b).at(p).tobytes()

    def test_bad_stacks_are_rejected(self):
        with pytest.raises(DimensionMismatchError, match="must have dimension 2"):
            AffineField(np.zeros((2, 2)), [1.0, 2.0, 3.0])
        for offsets in (np.zeros((4, 3)), np.full((4, 2), np.inf)):
            with pytest.raises(ValueError, match="field offset must be 1-D"):
                AffineField(np.zeros((2, 2)), offsets)

    def test_proof_fields_of_a_stack_match_the_lone_fields(self):
        # One builder per translation: on a stack, each row of the offsets
        # is the offset of that triangle's or simplex's own field.
        triangles = [triangle_345(), equilateral(),
                     Triangle([0.3, -0.2], [-0.9, 0.4], [0.6, 0.8])]
        stack = SimpleNamespace(**{
            name: np.array([getattr(t, name) for t in triangles])
            for name in ("A", "B", "C", "n_a", "n_b", "n_c")},
            **{name: np.array([[getattr(t, name)] for t in triangles])
               for name in ("a", "b", "c")})
        builds = [pythagoras_field, cosines_field] + [
            lambda t, side=side: sines_field(t, side) for side in "abc"]
        for build in builds:
            for t, row in zip(triangles, build(stack).offset):
                assert row.tobytes() == build(t).offset.tobytes()
        simplices = [support.random_simplex(np.random.default_rng(k), 4) for k in range(3)]
        stacked = Simplex(np.array([s.vertices for s in simplices]))
        for hyp in range(5):
            offsets = nd_pythagoras_field(stacked, hyp).offset
            for s, row in zip(simplices, offsets):
                assert row.tobytes() == nd_pythagoras_field(s, hyp).offset.tobytes()


class TestProofFields:
    def test_pythagoras_345_norm(self):
        field = pythagoras_field(triangle_345())
        assert np.all(field.matrix == 0.0)
        assert np.linalg.norm(field.offset) == pytest.approx(5.0, rel=1e-14)

    def test_pythagoras_unit_right_isoceles(self):
        t = Triangle([0.0, 1.0], [1.0, 0.0], [0.0, 0.0])
        field = pythagoras_field(t)
        assert field.offset == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_sines_345_side_a_direction(self):
        t = triangle_345()  # C = (0,0), B = (4,0)
        field = sines_field(t, "a")
        assert field.offset == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_sines_unit_norm_and_parallel_to_side(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pts = rng.uniform(-1.0, 1.0, (3, 2))
            try:
                t = Triangle(pts[0], pts[1], pts[2])
            except Exception:
                continue
            for side, normal in (("a", t.n_a), ("b", t.n_b), ("c", t.n_c)):
                e = sines_field(t, side).offset
                assert abs(np.linalg.norm(e) - 1.0) <= 1e-14
                assert abs(float(e @ normal)) <= 1e-14

    def test_sines_equilateral_paper_value(self):
        # e_x . n_b = -cos(pi/2 - gamma) = -sin(60 deg)
        t = equilateral()
        e_x = sines_field(t, "a").offset
        assert float(e_x @ t.n_b) == pytest.approx(-SQRT3 / 2.0, abs=1e-14)
        assert float(e_x @ t.n_c) == pytest.approx(SQRT3 / 2.0, abs=1e-14)

    def test_sines_bad_side(self):
        with pytest.raises(ValueError):
            sines_field(triangle_345(), "d")

    def test_cosines_equilateral_norm(self):
        # Outward normals are 120 degrees apart, so |n_c - n_a - n_b| = 2.
        field = cosines_field(equilateral())
        assert np.all(field.matrix == 0.0)
        assert np.linalg.norm(field.offset) == pytest.approx(2.0, rel=1e-13)

    def test_cosines_345_coordinate_oracle(self):
        # Direct coordinate arithmetic gives c n_c - a n_a - b n_b = (6, 8).
        t = triangle_345()
        oracle = t.c * t.n_c - t.a * t.n_a - t.b * t.n_b
        field = cosines_field(t)
        assert field.offset == pytest.approx(oracle, rel=1e-14)
        assert field.offset == pytest.approx([6.0, 8.0], abs=1e-13)
        assert np.linalg.norm(field.offset) == pytest.approx(10.0, rel=1e-14)

    def test_nd_field_unit_tetrahedron(self):
        s = Simplex(np.vstack([np.zeros(3), np.eye(3)]))
        field = nd_pythagoras_field(s, 0)
        assert field.offset == pytest.approx([0.5, 0.5, 0.5], abs=1e-14)

    def test_nd_field_unit_triangle(self):
        s = Simplex(np.vstack([np.zeros(2), np.eye(2)]))
        field = nd_pythagoras_field(s, 0)
        assert field.offset == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_nd_field_norm_equals_facet_measure(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 5):
            s = support.random_simplex(rng, dim)
            for i in range(dim + 1):
                field = nd_pythagoras_field(s, i)
                assert np.linalg.norm(field.offset) == pytest.approx(
                    s.facets.measures[i], rel=1e-14
                )

    def test_nd_field_bad_index(self):
        s = Simplex(np.vstack([np.zeros(2), np.eye(2)]))
        with pytest.raises(ValueError):
            nd_pythagoras_field(s, 5)

    def test_every_proof_field_is_constant(self):
        t = triangle_345()
        s = Simplex(np.vstack([np.zeros(3), np.eye(3)]))
        constructed = [
            pythagoras_field(t),
            sines_field(t, "a"),
            sines_field(t, "b"),
            sines_field(t, "c"),
            cosines_field(t),
            nd_pythagoras_field(s, 0),
        ]
        for field in constructed:
            assert np.all(field.matrix == 0.0)
