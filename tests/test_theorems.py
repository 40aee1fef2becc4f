"""Theorem verifier and generator tests."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from shapecalc import theorems
from shapecalc import (
    DegenerateSimplexError,
    DimensionMismatchError,
    FloatRangeError,
    LegOrthogonalityError,
    NotRightTriangleError,
    RightSimplexSpec,
    Triangle,
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


class TestOverflow:
    def test_overflowing_decomposition_raises(self):
        # 3-4-5 scaled by 2e153: c^2 = 1e308 fits, but an intermediate of
        # the cosines decomposition overflows.
        t = Triangle([6e153, 0.0], [0.0, 8e153], [0.0, 0.0])
        with pytest.raises(FloatRangeError, match="cosines proof overflows"):
            verify_law_of_cosines(t)
        assert verify_law_of_sines(t).passed
        assert verify_pythagoras(t).passed

    def test_overflowing_tolerance_raises(self):
        # A right tetrahedron scaled by 1e100: the volume fits, C^2 does not.
        r = support.right_simplex(np.zeros(3), np.eye(3) * 1e100)
        with pytest.raises(FloatRangeError, match="nd-pythagoras proof overflows"):
            verify_nd_pythagoras(r)


class TestNdPythagoras:
    def test_unit_tetrahedron(self):
        r = support.right_simplex(np.zeros(3), np.eye(3))
        report = verify_nd_pythagoras(r)
        contributions = dict(report.per_facet)
        assert contributions[0] == pytest.approx(0.75, rel=1e-13)
        for i in (1, 2, 3):
            assert contributions[i] == pytest.approx(-0.25, rel=1e-13)
        assert abs(report.residual) <= 1e-12
        assert report.passed

    def test_n2_is_classical_pythagoras(self):
        r = support.right_simplex(np.zeros(2), np.eye(2))
        report = verify_nd_pythagoras(r)
        contributions = dict(report.per_facet)
        assert contributions[0] == pytest.approx(2.0, rel=1e-13)
        assert contributions[1] == pytest.approx(-1.0, rel=1e-13)
        assert contributions[2] == pytest.approx(-1.0, rel=1e-13)

    def test_scaled_legs_2_3_6(self):
        r = support.right_simplex(np.zeros(3), np.diag([2.0, 3.0, 6.0]))
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
            support.right_simplex(np.zeros(2), legs)

    def test_malformed_vertices_rejected(self):
        for vertices in (np.ones((2, 2)), np.ones((3, 3)), np.ones((2, 3, 2))):
            with pytest.raises(DimensionMismatchError,
                               match="expected \\(N\\+1, N\\) vertex array"):
                RightSimplexSpec(vertices)
        with pytest.raises(ValueError, match="non-finite"):
            RightSimplexSpec([[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]])

    def test_leg_lengths_are_read_from_the_vertices(self):
        r = RightSimplexSpec([[1.0, 2.0], [4.0, 2.0], [1.0, 6.0]])
        assert r.leg_lengths.tolist() == [3.0, 4.0]
        assert not hasattr(r, "legs") and not hasattr(r, "apex")
        for array in (r.vertices, r.leg_lengths):
            assert not array.flags.writeable
        assert np.array_equal(r.simplex.vertices, r.vertices)

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


def face_normal_residuals(r):
    return verify_nd_pythagoras(r).auxiliary["face_normal_residuals"]


class TestFaceNormalIdentity:
    def test_unit_tetrahedron_values(self):
        r = support.right_simplex(np.zeros(3), np.eye(3))
        s = r.simplex
        # A_1 = 1/2, C = sqrt(3)/2, n_C . n_1 = -1/sqrt(3).
        measures, normals = s.facets.measures, s.facets.normals
        assert measures[1] == pytest.approx(0.5, rel=1e-14)
        assert measures[0] == pytest.approx(SQRT3 / 2.0, rel=1e-14)
        assert float(normals[0] @ normals[1]) == pytest.approx(
            -1.0 / SQRT3, rel=1e-13
        )
        for residual in face_normal_residuals(r):
            assert residual <= 1e-14

    def test_triangle_case(self):
        r = support.right_simplex(np.zeros(2), np.eye(2))
        for residual in face_normal_residuals(r):
            assert residual <= 1e-13

    def test_seeded_frame_dimension_5(self):
        r = random_right_simplex(123, 5, "orthonormal")
        c = r.simplex.facets.measures[0]
        for residual in face_normal_residuals(r):
            assert residual <= 1e-12 * c

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        mode = "scaled" if seed % 2 else "orthonormal"
        r = random_right_simplex(seed, dim, mode)
        c = r.simplex.facets.measures[0]
        for residual in face_normal_residuals(r):
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
                assert "facets" not in vars(t.simplex)  # the proof stack computes them

    def test_obtuse_kind(self):
        for seed in range(30):
            t = random_triangle(seed, "obtuse")
            assert max(t.alpha, t.beta, t.gamma) > math.pi / 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_triangle(0, "acute")


class TestRandomRightSimplex:
    def test_orthonormal_leg_dots(self):
        _, legs = support.apex_and_legs(random_right_simplex(3, 3, "orthonormal"))
        dots = legs @ legs.T
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

    def test_unknown_leg_mode(self):
        with pytest.raises(ValueError, match="unknown leg mode 'skewed'"):
            random_right_simplex(0, 3, "skewed")

    def test_deterministic(self):
        first = random_right_simplex(8, 4, "scaled")
        second = random_right_simplex(8, 4, "scaled")
        assert np.array_equal(first.vertices, second.vertices)

    def test_dim8_scaled_verifies(self):
        report = verify_nd_pythagoras(random_right_simplex(2, 8, "scaled"))
        c = report.summary["hyp_measure"]
        assert abs(report.residual) <= 1e-10 * c**2

    @staticmethod
    def assert_matches_reference(seed, dim, leg_mode):
        r = random_right_simplex(seed, dim, leg_mode)
        expected = support.random_right_simplex_reference(seed, dim, leg_mode)
        assert np.array_equal(r.vertices, expected.vertices)
        assert (verify_nd_pythagoras(r).to_dict()
                == verify_nd_pythagoras(expected).to_dict())

    @pytest.mark.parametrize("leg_mode", ["orthonormal", "scaled"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_matches_reference_generator(self, dim, leg_mode):
        for seed in range(200):
            self.assert_matches_reference(seed, dim, leg_mode)

    @pytest.mark.parametrize("leg_mode", ["orthonormal", "scaled"])
    @pytest.mark.parametrize("dim, seed", [
        (2, 209979), (3, 233134), (5, 9320), (5, 92417),
        (16, 27569), (16, 65337), (16, 89371), (16, 110469),
    ])
    def test_rejected_first_draw_matches_reference(self, dim, seed, leg_mode):
        first = np.random.default_rng(seed).standard_normal((dim, dim))
        assert np.linalg.cond(first) > 1e6
        self.assert_matches_reference(seed, dim, leg_mode)

    def test_svd_runs_only_where_the_certificate_does_not_accept(self, monkeypatch):
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda a, *args: calls.append(a) or cond(a, *args))
        for seed in range(50):
            random_right_simplex(seed, 16, "scaled")
        assert calls == []
        random_right_simplex(27569, 16, "scaled")  # its first draw is rejected
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_legs_and_lengths_match_vertices_and_norm(self, dim):
        for seed in range(20):
            r = random_right_simplex(seed, dim, "scaled")
            _, legs = support.apex_and_legs(r)
            assert np.array_equal(r.leg_lengths, np.linalg.norm(legs, axis=1))
            assert np.array_equal(r.simplex.vertices, r.vertices)


def svd_matrix(seed: int, dim: int, log_cond: float, exponent: int, kind: str):
    """U diag(sigma) V^T * 2^exponent with Haar U, V and singular values
    from 1 down to 10^-log_cond; "rank-deficient" zeroes the smallest
    singular values, "singular" also zeroes a column (an exact zero pivot)."""
    rng = np.random.default_rng(seed)
    u = support.random_rotation(rng, dim)
    v = support.random_rotation(rng, dim)
    sigma = np.logspace(0.0, -log_cond, dim)
    if kind != "full":
        sigma[dim - 1 - int(rng.integers(0, dim - 1)):] = 0.0
    a = (u * sigma) @ v.T
    if kind == "singular":
        a[:, int(rng.integers(0, dim))] = 0.0
    return np.ldexp(a, exponent)


class TestConditionCertificate:
    """The generator's gate: the Frobenius certificate, with the SVD as
    fallback, accepts exactly the draws with ``np.linalg.cond(a) <= 1e6``."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 5, 8, 16]),
        log_cond=st.floats(4.0, 8.0),
        exponent=st.sampled_from([-500, 0, 500]) | st.integers(-500, 500),
        kind=st.sampled_from(["full", "rank-deficient", "singular"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_decision_equals_the_svd_rule(self, seed, dim, log_cond, exponent, kind):
        a = svd_matrix(seed, dim, log_cond, exponent, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accepted = theorems._well_conditioned(a)
        assert accepted == (not np.linalg.cond(a) > 1e6)

    @pytest.mark.parametrize("exponent", [-500, 0, 500])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_accepts_without_svd_far_below_the_bound(self, dim, exponent, monkeypatch):
        a = svd_matrix(dim, dim, 3.0, exponent, "full")
        monkeypatch.setattr(np.linalg, "cond", None)
        assert theorems._well_conditioned(a)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_exactly_singular_is_rejected(self, dim):
        assert not theorems._well_conditioned(np.zeros((dim, dim)))
        assert not theorems._well_conditioned(svd_matrix(dim, dim, 4.0, 0, "singular"))


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
        apex, legs = support.apex_and_legs(r)
        moved = support.right_simplex(rotation @ apex + shift, legs @ rotation.T)
        before = verify_nd_pythagoras(r)
        after = verify_nd_pythagoras(moved)
        assert abs(after.residual - before.residual) <= 1e-12 * before.scale**2


def outcome(prove_all):
    """The reports of ``prove_all()`` as JSON text, exact to the bit for
    every float, or the type and message of the error it raises."""
    try:
        return [json.dumps(report.to_dict()) for report in prove_all()]
    except ValueError as err:
        return type(err), str(err)


def stacked_and_alone(theorem, instances, tol_abs=1e-12, tol_rel=1e-12):
    return (outcome(lambda: theorems.prove(theorem, instances, tol_abs, tol_rel)),
            outcome(lambda: [support.prove_alone(theorem, instance, tol_abs, tol_rel)
                             for instance in instances]))


def scaled_345(k: float) -> Triangle:
    return Triangle([3.0 * k, 0.0], [0.0, 4.0 * k], [0.0, 0.0])


def right_tetrahedron(legs) -> RightSimplexSpec:
    return support.right_simplex(np.zeros(3), np.diag(legs))


class TestStackedProof:
    """``prove`` proves a list as one stack; each instance must get, bit for
    bit, the report of ``support.prove_alone``, the per-instance proof it
    replaced, or the error that the first failing instance raises there."""

    @given(
        theorem=st.sampled_from(list(theorems.THEOREMS)),
        count=st.integers(1, 30),
        seed=st.integers(0, 2**31 - 31),
        dim=st.sampled_from([2, 3, 5, 8, 16]),
        legs=st.sampled_from(["orthonormal", "scaled"]),
        kind=st.sampled_from(["general", "obtuse", "right"]),
        tolerances=st.sampled_from([(1e-12, 1e-12), (0.0, 0.0), (0.0, 1e-14)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_reports_match_the_reference(self, theorem, count, seed, dim, legs, kind,
                                         tolerances):
        if theorem == "nd-pythagoras":
            instances = [random_right_simplex(seed + k, dim, legs) for k in range(count)]
        else:
            kind = "right" if theorem == "pythagoras" else kind
            instances = [random_triangle(seed + k, kind) for k in range(count)]
        stacked, alone = stacked_and_alone(theorem, instances, *tolerances)
        assert stacked == alone
        assert len(stacked) == count

    @pytest.mark.parametrize("verify, make", [
        (verify_pythagoras, lambda k: random_triangle(k, "right")),
        (verify_law_of_sines, lambda k: random_triangle(k, "general")),
        (verify_law_of_cosines, lambda k: random_triangle(k, "obtuse")),
        (verify_nd_pythagoras, lambda k: random_right_simplex(k, 5, "scaled")),
    ])
    def test_verify_takes_one_instance_or_a_list(self, verify, make):
        instances = [make(k) for k in range(7)]
        reports = verify(instances, 1e-12, 0.0)
        assert [json.dumps(r.to_dict()) for r in reports] == [
            json.dumps(verify(instance, 1e-12, 0.0).to_dict()) for instance in instances]
        assert verify([]) == []

    @pytest.mark.parametrize("legs", ["orthonormal", "scaled"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_nd_batch_of_thirty(self, dim, legs):
        instances = [random_right_simplex(700 + k, dim, legs) for k in range(30)]
        stacked, alone = stacked_and_alone("nd-pythagoras", instances)
        assert stacked == alone

    @pytest.mark.parametrize("theorem", ["pythagoras", "sines", "cosines"])
    def test_axis_aligned_triangles(self, theorem):
        # Exact zeros in the normals and translations, so signed zeros in
        # the per-facet terms, at several placements and scales.
        instances = [Triangle(np.add([3.0 * k, 0.0], shift), np.add([0.0, 4.0 * k], shift),
                              shift)
                     for k in (1.0, 0.5, 3.0, 1e-3, 1e100)
                     for shift in ([0.0, 0.0], [-2.0, 5.0], [1.0, -0.0])]
        stacked, alone = stacked_and_alone(theorem, instances)
        assert stacked == alone

    def test_axis_aligned_right_simplices(self):
        instances = [right_tetrahedron(legs)
                     for legs in ([1.0, 1.0, 1.0], [2.0, 3.0, 6.0], [1e-3, 1.0, 1e3])]
        stacked, alone = stacked_and_alone("nd-pythagoras", instances)
        assert stacked == alone

    @pytest.mark.parametrize("theorem, instances, error", [
        ("pythagoras", lambda: [random_triangle(1, "right"), random_triangle(2, "right"),
                                Triangle([0.0, 0.0], [1.0, 0.0], [0.5, 0.8]),
                                random_triangle(3, "right")], NotRightTriangleError),
        # The overflow comes first, so it is named, not the later non-right
        # triangle that a precondition pass over the stack would meet first.
        ("pythagoras", lambda: [random_triangle(1, "right"), scaled_345(1e-160),
                                Triangle([0.0, 0.0], [1.0, 0.0], [0.5, 0.8])],
         FloatRangeError),
        ("cosines", lambda: [random_triangle(1, "general"), scaled_345(2e153),
                             random_triangle(2, "general")], FloatRangeError),
        ("nd-pythagoras", lambda: [right_tetrahedron([1.0, 2.0, 3.0]),
                                   right_tetrahedron([1e100] * 3),
                                   right_tetrahedron([1.0, 1.0, 1e-13])], FloatRangeError),
        ("nd-pythagoras", lambda: [right_tetrahedron([1.0, 2.0, 3.0]),
                                   right_tetrahedron([1.0, 1.0, 1e-13]),
                                   right_tetrahedron([1e100] * 3)], DegenerateSimplexError),
    ])
    def test_first_failing_instance_raises_its_own_error(self, theorem, instances, error):
        stacked, alone = stacked_and_alone(theorem, instances())
        assert stacked == alone
        assert stacked[0] is error

    def test_empty_list(self):
        assert theorems.prove("sines", [], 1e-12, 1e-12) == []

    def test_reference_match_on_a_second_kernel(self):
        # Every row's comparison under OpenBLAS's Prescott kernels, in a fresh
        # interpreter: 50 triangles per triangle row and 20 right simplices at
        # each of dims 3, 8 and 16. Builds without DYNAMIC_ARCH ignore it.
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent("""
            import json, support
            from shapecalc import theorems
            cases = [(name, [theorems.random_triangle(k, kind) for k in range(50)])
                     for name, kind in [("pythagoras", "right"), ("sines", "general"),
                                        ("cosines", "obtuse")]]
            cases += [("nd-pythagoras", [theorems.random_right_simplex(
                k, dim, "scaled" if k % 2 else "orthonormal") for k in range(20)])
                for dim in (3, 8, 16)]
            mismatches = []
            for theorem, instances in cases:
                stacked = theorems.prove(theorem, instances, 1e-12, 1e-12)
                alone = [support.prove_alone(theorem, instance, 1e-12, 1e-12)
                         for instance in instances]
                mismatches += [(theorem, k) for k, (a, b) in enumerate(zip(stacked, alone))
                               if json.dumps(a.to_dict()) != json.dumps(b.to_dict())]
            print([len(instances) for _, instances in cases], mismatches)
        """)
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "[50, 50, 50, 20, 20, 20] []\n"

    def test_one_dimension_per_stack(self):
        mixed = [random_right_simplex(0, 3), random_right_simplex(0, 4)]
        with pytest.raises(DimensionMismatchError, match="one dimension, got \\[3, 4\\]"):
            theorems.prove("nd-pythagoras", mixed, 1e-12, 1e-12)


class TestProofChunks:
    """A list is proved in stacks of at most ``PROOF_CHUNK`` instances, in
    order; each report keeps the bits of the lone proof, and the first
    failing instance still raises its own error."""

    COUNT = theorems.PROOF_CHUNK + 3

    @pytest.mark.parametrize("verify, make", [
        (verify_law_of_sines, lambda k: random_triangle(k, "general")),
        (verify_nd_pythagoras, lambda k: random_right_simplex(k, 5, "scaled")),
    ])
    def test_reports_across_a_chunk_boundary_are_the_lone_ones(self, verify, make):
        instances = [make(k) for k in range(self.COUNT)]
        reports = verify(instances)
        assert len(reports) == self.COUNT
        assert [json.dumps(r.to_dict()) for r in reports] == [
            json.dumps(verify(instance).to_dict()) for instance in instances]

    def test_no_stack_exceeds_the_chunk(self, monkeypatch):
        sizes = []
        prove = theorems.prove

        def spy(theorem, instances, *tolerances):
            sizes.append(len(instances))
            return prove(theorem, instances, *tolerances)

        monkeypatch.setattr(theorems, "prove", spy)
        count = 2 * theorems.PROOF_CHUNK + 1
        reports = verify_law_of_cosines([random_triangle(k) for k in range(count)])
        assert len(reports) == count
        assert sizes == [theorems.PROOF_CHUNK, theorems.PROOF_CHUNK, 1]

    @pytest.mark.parametrize("bad, error", [
        (Triangle([0.0, 0.0], [1.0, 0.0], [0.5, 0.8]), NotRightTriangleError),
        (scaled_345(1e-160), FloatRangeError),
    ])
    def test_failure_past_the_boundary_raises_its_own_error(self, bad, error):
        instances = [random_triangle(k, "right") for k in range(self.COUNT)]
        instances[theorems.PROOF_CHUNK + 1] = bad
        got = outcome(lambda: verify_pythagoras(instances))
        assert got == outcome(lambda: [verify_pythagoras(bad)])
        assert got[0] is error
