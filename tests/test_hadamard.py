"""Shape-derivative tests: the three evaluation routes and their agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from shapecalc import (
    AffineDensity,
    AffineField,
    DegenerateSimplexError,
    DimensionMismatchError,
    Simplex,
    boundary_integral,
    default_fd_step,
    fd_derivative,
    hadamard_derivative,
    perturbed_integral,
    volume_integral,
)


def unit_simplex(dim: int) -> Simplex:
    return Simplex(np.vstack([np.zeros(dim), np.eye(dim)]))


def identity_field(dim: int) -> AffineField:
    return AffineField(np.eye(dim), np.zeros(dim))


def random_instance(rng):
    dim = int(rng.integers(2, 5))
    s = support.random_simplex(rng, dim)
    return s, support.random_density(rng, dim), support.random_field(rng, dim)


class TestBoundaryIntegral:
    def test_constant_field_unit_density_is_null(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s, _, _ = random_instance(rng)
            xi = AffineField.constant(rng.uniform(-1.0, 1.0, s.dim))
            total, per_facet = boundary_integral(s, AffineDensity.one(s.dim), xi)
            terms = sum(abs(v) for _, v in per_facet)
            assert abs(total) <= 1e-13 * max(terms, 1e-30)

    def test_identity_field_unit_simplex(self):
        total, _ = boundary_integral(
            unit_simplex(2), AffineDensity.one(2), identity_field(2)
        )
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_coordinate_density_hand_value(self):
        # int over the boundary of x1 * (e1 . n) = area = 0.5 by divergence.
        f = AffineDensity(np.array([1.0, 0.0]), 0.0)
        xi = AffineField.constant([1.0, 0.0])
        total, per_facet = boundary_integral(unit_simplex(2), f, xi)
        assert total == pytest.approx(0.5, abs=1e-14)
        contributions = dict(per_facet)
        assert contributions[0] == pytest.approx(0.5, abs=1e-14)  # hypotenuse
        assert contributions[1] == pytest.approx(0.0, abs=1e-15)
        assert contributions[2] == pytest.approx(0.0, abs=1e-15)

    def test_total_is_ordered_sum_of_contributions(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s, f, xi = random_instance(rng)
            total, per_facet = boundary_integral(s, f, xi)
            acc = 0.0
            for index, (i, v) in enumerate(per_facet):
                assert i == index
                acc += v
            assert acc == total  # bit-identical: same summation order

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_matches_per_facet_reference(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(10):
            s = support.random_simplex(rng, dim, min_rel_det=1e-6)
            f = support.random_density(rng, dim)
            xi = support.random_field(rng, dim)
            total, per_facet = boundary_integral(s, f, xi)
            values, bounds = support.boundary_integral_per_facet(s, f, xi)
            assert [i for i, _ in per_facet] == list(range(dim + 1))
            for (_, value), expected, bound in zip(per_facet, values, bounds):
                assert abs(value - expected) <= bound
            acc = 0.0
            for _, value in per_facet:
                acc += value
            assert acc == total

    def test_linearity_in_field_and_density(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            s = support.random_simplex(rng, dim)
            f1 = support.random_density(rng, dim)
            f2 = support.random_density(rng, dim)
            xi1 = support.random_field(rng, dim)
            xi2 = support.random_field(rng, dim)
            f_sum = AffineDensity(f1.gradient + f2.gradient, f1.constant + f2.constant)
            xi_sum = AffineField(xi1.matrix + xi2.matrix, xi1.offset + xi2.offset)
            lhs, _ = boundary_integral(s, f_sum, xi1)
            rhs = boundary_integral(s, f1, xi1)[0] + boundary_integral(s, f2, xi1)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
            lhs, _ = boundary_integral(s, f1, xi_sum)
            rhs = boundary_integral(s, f1, xi1)[0] + boundary_integral(s, f1, xi2)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            boundary_integral(
                unit_simplex(2), AffineDensity.one(3), identity_field(2)
            )


class TestVolumeIntegral:
    def test_zero_divergence(self):
        s = unit_simplex(3)
        xi = AffineField.constant([0.3, -0.2, 0.9])
        assert volume_integral(s, AffineDensity.one(3), xi) == 0.0

    def test_identity_field_unit_tetrahedron(self):
        value = volume_integral(unit_simplex(3), AffineDensity.one(3), identity_field(3))
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_coordinate_density(self):
        f = AffineDensity(np.array([1.0, 0.0]), 0.0)
        xi = AffineField.constant([1.0, 0.0])
        assert volume_integral(unit_simplex(2), f, xi) == pytest.approx(0.5, abs=1e-15)


class TestPerturbedIntegral:
    def test_zero_step_is_plain_integral(self):
        rng = np.random.default_rng(6)
        s, f, xi = random_instance(rng)
        expected = s.volume * f(s.centroid)
        assert perturbed_integral(s, f, xi, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_dilation_by_one(self):
        value = perturbed_integral(
            unit_simplex(2), AffineDensity.one(2), identity_field(2), 1.0
        )
        assert value == pytest.approx(2.0, rel=1e-14)

    def test_translation_preserves_volume(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s, _, _ = random_instance(rng)
            xi = AffineField.constant(rng.uniform(-1.0, 1.0, s.dim))
            t = float(rng.uniform(-2.0, 2.0))
            value = perturbed_integral(s, AffineDensity.one(s.dim), xi, t)
            assert value == pytest.approx(s.volume, rel=1e-13)

    def test_degenerate_perturbation_reports_step(self):
        s = unit_simplex(2)
        collapse = AffineField(-np.eye(2), np.zeros(2))  # x -> x - t x
        with pytest.raises(DegenerateSimplexError, match="t = 1.0"):
            perturbed_integral(s, AffineDensity.one(2), collapse, 1.0)


class TestFiniteDifferences:
    def test_constant_field_near_zero(self):
        s = unit_simplex(2)
        xi = AffineField.constant([0.4, 0.7])
        assert abs(fd_derivative(s, AffineDensity.one(2), xi)) <= 1e-9

    def test_identity_field_unit_simplex(self):
        value = fd_derivative(unit_simplex(2), AffineDensity.one(2), identity_field(2))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_default_step_scales(self):
        s = unit_simplex(2)
        cbrt_eps = float(np.finfo(float).eps) ** (1.0 / 3.0)
        small = AffineField.constant([0.1, 0.0])
        big = AffineField.constant([100.0, 0.0])
        assert default_fd_step(s, small) == pytest.approx(cbrt_eps * s.scale)
        assert default_fd_step(s, big) == pytest.approx(cbrt_eps * s.scale / 100.0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_boundary_integral(self, seed):
        rng = np.random.default_rng(seed)
        s, f, xi = random_instance(rng)
        exact, _ = boundary_integral(s, f, xi)
        estimate = fd_derivative(s, f, xi)
        assert abs(estimate - exact) <= 1e-8 * (1.0 + abs(exact))


class TestHadamardDerivative:
    def test_identity_field_report(self):
        report = hadamard_derivative(
            unit_simplex(2), AffineDensity.one(2), identity_field(2)
        )
        assert report.boundary_total == pytest.approx(1.0, abs=1e-14)
        assert report.volume_total == pytest.approx(1.0, abs=1e-14)
        assert report.fd_estimate == pytest.approx(1.0, abs=1e-9)
        assert report.residual_bv <= 1e-12 * 2.0
        assert report.fd_step > 0.0

    def test_translation_nullity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            s = support.random_simplex(rng, dim)
            xi = AffineField.constant(rng.uniform(-1.0, 1.0, dim))
            budget = sum(f.measure for f in s.facets) * float(
                np.linalg.norm(xi.offset)
            )
            report = hadamard_derivative(s, AffineDensity.one(dim), xi)
            assert abs(report.boundary_total) <= 1e-13 * budget
            assert abs(report.volume_total) <= 1e-13 * budget
            # Central differences carry a cbrt(eps) rounding floor, so the
            # fd route only meets its oracle tolerance here.
            assert abs(report.fd_estimate) <= 1e-6 * (1.0 + budget)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_divergence_theorem_residual(self, seed):
        rng = np.random.default_rng(seed)
        s, f, xi = random_instance(rng)
        report = hadamard_derivative(s, f, xi)
        terms = sum(abs(v) for _, v in report.per_facet)
        assert report.residual_bv <= 1e-12 * (1.0 + terms)
        assert report.residual_bf <= 1e-6 * (1.0 + abs(report.boundary_total))

    def test_report_round_trips_to_dict(self):
        report = hadamard_derivative(
            unit_simplex(3), AffineDensity.one(3), identity_field(3)
        )
        data = report.to_dict()
        assert data["boundary_total"] == report.boundary_total
        assert data["per_facet"] == [[i, v] for i, v in report.per_facet]
