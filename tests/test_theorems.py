"""Theorem verifier and generator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from shapecalc import (
    LegOrthogonalityError,
    NotRightTriangleError,
    RightSimplexSpec,
    Triangle,
    face_normal_identity,
    random_right_simplex,
    random_triangle,
    verify_law_of_cosines,
    verify_law_of_sines,
    verify_nd_pythagoras,
    verify_pythagoras,
)

SQRT3 = math.sqrt(3.0)


def triangle_345():
    return Triangle([0.0, 3.0], [4.0, 0.0], [0.0, 0.0])


class TestPythagoras:
    def test_345_per_facet_decomposition(self):
        report = verify_pythagoras(triangle_345())
        contributions = dict(report.per_facet)
        assert contributions[0] == pytest.approx(-16.0, abs=1e-12 * 25.0)
        assert contributions[1] == pytest.approx(-9.0, abs=1e-12 * 25.0)
        assert contributions[2] == pytest.approx(25.0, abs=1e-12 * 25.0)
        assert abs(report.residual) <= 1e-12 * 25.0
        assert report.passed

    def test_unit_right_isoceles(self):
        report = verify_pythagoras(Triangle([0.0, 1.0], [1.0, 0.0], [0.0, 0.0]))
        contributions = dict(report.per_facet)
        assert contributions[0] == pytest.approx(-1.0, abs=1e-13)
        assert contributions[1] == pytest.approx(-1.0, abs=1e-13)
        assert contributions[2] == pytest.approx(2.0, abs=1e-13)
        assert report.passed

    def test_normal_identities_reported(self):
        report = verify_pythagoras(triangle_345())
        assert abs(report.auxiliary["c_nc_dot_na_plus_a"]) <= 1e-12
        assert abs(report.auxiliary["c_nc_dot_nb_plus_b"]) <= 1e-12
        assert report.auxiliary["per_facet_deviation"] <= 1e-12 * 25.0

    def test_rotated_translated_right_triangle(self):
        rng = np.random.default_rng(31)
        pts = np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]])
        rotation = support.random_rotation(rng, 2)
        moved = pts @ rotation.T + rng.uniform(-2.0, 2.0, 2)
        report = verify_pythagoras(Triangle(moved[0], moved[1], moved[2]))
        assert abs(report.residual) <= 1e-12 * report.scale**2
        assert report.passed

    def test_rejects_non_right_triangle(self):
        equilateral = Triangle([0.5, SQRT3 / 2.0], [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(NotRightTriangleError):
            verify_pythagoras(equilateral)


class TestLawOfSines:
    def test_345_circumdiameter(self):
        report = verify_law_of_sines(triangle_345())
        for ratio in report.auxiliary["ratios"].values():
            assert ratio == pytest.approx(5.0, rel=1e-13)
        assert report.passed

    def test_equilateral_ratios(self):
        t = Triangle([0.5, SQRT3 / 2.0], [1.0, 0.0], [0.0, 0.0])
        report = verify_law_of_sines(t)
        for ratio in report.auxiliary["ratios"].values():
            assert ratio == pytest.approx(2.0 / SQRT3, rel=1e-13)

    def test_side_a_decomposition_matches_paper_terms(self):
        t = Triangle([0.1, 0.9], [0.8, -0.3], [-0.6, -0.2])
        report = verify_law_of_sines(t)
        contributions = dict(report.per_facet)
        assert abs(contributions[0]) <= 1e-13  # field parallel to side a
        assert contributions[1] == pytest.approx(
            -t.b * math.sin(t.gamma), abs=1e-12 * report.scale
        )
        assert contributions[2] == pytest.approx(
            t.c * math.sin(t.beta), abs=1e-12 * report.scale
        )

    def test_all_three_directions_reported_with_null_totals(self):
        t = Triangle([0.1, 0.9], [0.8, -0.3], [-0.6, -0.2])
        report = verify_law_of_sines(t)
        directions = report.auxiliary["directions"]
        assert set(directions) == {"a", "b", "c"}
        for side in "abc":
            assert abs(directions[side]["total"]) <= 1e-13 * report.scale

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_ratio_spread_property(self, seed):
        report = verify_law_of_sines(random_triangle(seed, "general"))
        ratios = list(report.auxiliary["ratios"].values())
        assert report.residual <= 1e-12 * max(ratios)
        assert report.passed


class TestLawOfCosines:
    def test_equilateral(self):
        t = Triangle([0.5, SQRT3 / 2.0], [1.0, 0.0], [0.0, 0.0])
        report = verify_law_of_cosines(t)
        # 1 - 1 - 1 + 2 * (1/2) = 0
        assert abs(report.auxiliary["law_value"]) <= 1e-13
        assert abs(report.residual) <= 1e-12
        assert report.passed

    def test_345_reduces_to_pythagoras(self):
        t = triangle_345()
        cos_report = verify_law_of_cosines(t)
        pyth_report = verify_pythagoras(t)
        assert abs(cos_report.residual - pyth_report.residual) <= 1e-12 * t.c**2
        assert cos_report.passed

    def test_obtuse_triangle(self):
        report = verify_law_of_cosines(
            Triangle([0.0, 0.0], [1.0, 0.0], [-0.5, 0.3])
        )
        c = report.summary["c"]
        assert abs(report.residual) <= 1e-12 * c**2
        assert report.passed

    def test_normal_identity(self):
        t = random_triangle(99, "general")
        report = verify_law_of_cosines(t)
        assert abs(report.auxiliary["na_dot_nb_plus_cos_gamma"]) <= 1e-13

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_residual_property(self, seed):
        report = verify_law_of_cosines(random_triangle(seed, "general"))
        assert abs(report.residual) <= 1e-12 * report.scale**2


class TestNdPythagoras:
    def test_unit_tetrahedron(self):
        r = RightSimplexSpec(apex=np.zeros(3), legs=np.eye(3))
        report = verify_nd_pythagoras(r)
        contributions = dict(report.per_facet)
        assert contributions[0] == pytest.approx(0.75, rel=1e-13)
        for i in (1, 2, 3):
            assert contributions[i] == pytest.approx(-0.25, rel=1e-13)
        assert abs(report.residual) <= 1e-12
        assert report.passed

    def test_n2_is_classical_pythagoras(self):
        r = RightSimplexSpec(apex=np.zeros(2), legs=np.eye(2))
        report = verify_nd_pythagoras(r)
        contributions = dict(report.per_facet)
        assert contributions[0] == pytest.approx(2.0, rel=1e-13)
        assert contributions[1] == pytest.approx(-1.0, rel=1e-13)
        assert contributions[2] == pytest.approx(-1.0, rel=1e-13)

    def test_scaled_legs_2_3_6(self):
        r = RightSimplexSpec(apex=np.zeros(3), legs=np.diag([2.0, 3.0, 6.0]))
        report = verify_nd_pythagoras(r)
        hyp = report.summary["hyp_measure"]
        # Hypotenuse area from the independent Cayley-Menger oracle.
        oracle = support.cayley_menger_measure(r.simplex.vertices[1:])
        assert hyp == pytest.approx(oracle, rel=1e-12)
        assert hyp**2 == pytest.approx(126.0, rel=1e-13)
        assert report.auxiliary["leg_face_measures"] == pytest.approx(
            [9.0, 6.0, 3.0], rel=1e-13
        )
        assert abs(report.residual) <= 1e-10 * 126.0
        assert report.passed

    def test_orthogonality_violation_rejected(self):
        legs = np.array([[1.0, 0.0], [0.5, 1.0]])
        with pytest.raises(LegOrthogonalityError):
            RightSimplexSpec(apex=np.zeros(2), legs=legs)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_residual_property_both_leg_modes(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        for mode in ("orthonormal", "scaled"):
            report = verify_nd_pythagoras(random_right_simplex(seed, dim, mode))
            c = report.summary["hyp_measure"]
            assert abs(report.residual) <= 1e-10 * c**2

    @pytest.mark.parametrize("dim", [8, 16])
    def test_relative_only_verdict_at_high_dim(self, dim):
        # tol_abs is in units of C^2. For these seeds C^2 is at most 1e-4 at
        # dim 8 and 1e-17 at dim 16, so the default tol_abs = 1e-12 outweighs
        # tol_rel * C^2 there. With tol_abs = 0 only the relative check runs.
        for seed in range(50):
            r = random_right_simplex(seed, dim, "scaled")
            assert verify_nd_pythagoras(r, tol_abs=0.0).passed, seed


class TestFaceNormalIdentity:
    def test_unit_tetrahedron_values(self):
        r = RightSimplexSpec(apex=np.zeros(3), legs=np.eye(3))
        s = r.simplex
        # A_1 = 1/2, C = sqrt(3)/2, n_C . n_1 = -1/sqrt(3).
        assert s.facets[1].measure == pytest.approx(0.5, rel=1e-14)
        assert s.facets[0].measure == pytest.approx(SQRT3 / 2.0, rel=1e-14)
        assert float(s.facets[0].normal @ s.facets[1].normal) == pytest.approx(
            -1.0 / SQRT3, rel=1e-13
        )
        for residual in face_normal_identity(r):
            assert residual <= 1e-14

    def test_triangle_case(self):
        r = RightSimplexSpec(apex=np.zeros(2), legs=np.eye(2))
        for residual in face_normal_identity(r):
            assert residual <= 1e-13

    def test_seeded_frame_dimension_5(self):
        r = random_right_simplex(123, 5, "orthonormal")
        c = r.simplex.facets[0].measure
        for residual in face_normal_identity(r):
            assert residual <= 1e-12 * c

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        mode = "scaled" if seed % 2 else "orthonormal"
        r = random_right_simplex(seed, dim, mode)
        c = r.simplex.facets[0].measure
        for residual in face_normal_identity(r):
            assert residual <= 1e-12 * c


class TestRandomTriangle:
    def test_deterministic(self):
        for kind in ("general", "right", "obtuse"):
            first = random_triangle(17, kind)
            second = random_triangle(17, kind)
            assert np.array_equal(first.simplex.vertices, second.simplex.vertices)

    def test_right_kind_has_right_angle(self):
        for seed in range(30):
            t = random_triangle(seed, "right")
            assert abs(math.cos(t.gamma)) <= 1e-12

    def test_vertices_in_box_and_angle_floor(self):
        for kind in ("general", "right", "obtuse"):
            for seed in range(30):
                t = random_triangle(seed, kind)
                assert np.all(np.abs(t.simplex.vertices) <= 1.0)
                assert min(t.alpha, t.beta, t.gamma) >= 0.05

    def test_obtuse_kind(self):
        for seed in range(30):
            t = random_triangle(seed, "obtuse")
            assert max(t.alpha, t.beta, t.gamma) > math.pi / 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_triangle(0, "acute")


class TestRandomRightSimplex:
    def test_orthonormal_leg_dots(self):
        r = random_right_simplex(3, 3, "orthonormal")
        dots = r.legs @ r.legs.T
        off_diag = dots - np.diag(np.diag(dots))
        assert np.abs(off_diag).max() <= 1e-14

    def test_n2_orthonormal_is_unit_isoceles(self):
        r = random_right_simplex(5, 2, "orthonormal")
        assert r.leg_lengths == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_scaled_lengths_in_range(self):
        r = random_right_simplex(9, 6, "scaled")
        assert np.all(r.leg_lengths >= 0.5 - 1e-12)
        assert np.all(r.leg_lengths <= 2.0 + 1e-12)

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError):
            random_right_simplex(0, 1)
        with pytest.raises(ValueError):
            random_right_simplex(0, 17)

    def test_deterministic(self):
        first = random_right_simplex(8, 4, "scaled")
        second = random_right_simplex(8, 4, "scaled")
        assert np.array_equal(first.legs, second.legs)
        assert np.array_equal(first.apex, second.apex)

    def test_dim8_scaled_verifies(self):
        report = verify_nd_pythagoras(random_right_simplex(2, 8, "scaled"))
        c = report.summary["hyp_measure"]
        assert abs(report.residual) <= 1e-10 * c**2


class TestConsistencyAndInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_right_triangle_residuals_agree(self, seed):
        t = random_triangle(seed, "right")
        pyth = verify_pythagoras(t)
        cos = verify_law_of_cosines(t)
        assert abs(pyth.residual - cos.residual) <= 1e-12 * t.c**2

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_triangle_residuals_rigid_motion_invariant(self, seed):
        rng = np.random.default_rng(seed + 777)
        t = random_triangle(seed, "right")
        rotation = support.random_rotation(rng, 2)
        shift = rng.uniform(-2.0, 2.0, 2)
        pts = t.simplex.vertices @ rotation.T + shift
        moved = Triangle(pts[0], pts[1], pts[2])
        scale2 = max(t.a, t.b, t.c) ** 2
        assert abs(
            verify_pythagoras(moved).residual - verify_pythagoras(t).residual
        ) <= 1e-12 * scale2
        assert abs(
            verify_law_of_cosines(moved).residual
            - verify_law_of_cosines(t).residual
        ) <= 1e-12 * scale2
        assert abs(
            verify_law_of_sines(moved).residual
            - verify_law_of_sines(t).residual
        ) <= 1e-12 * scale2

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nd_residual_rigid_motion_invariant(self, seed):
        rng = np.random.default_rng(seed + 333)
        r = random_right_simplex(seed, 4, "scaled")
        rotation = support.random_rotation(rng, 4)
        shift = rng.uniform(-2.0, 2.0, 4)
        moved = RightSimplexSpec(
            apex=rotation @ r.apex + shift, legs=r.legs @ rotation.T
        )
        before = verify_nd_pythagoras(r)
        after = verify_nd_pythagoras(moved)
        assert abs(after.residual - before.residual) <= 1e-12 * before.scale**2
