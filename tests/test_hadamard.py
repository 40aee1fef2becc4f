"""Shape-derivative tests: the three evaluation routes and their agreement."""

import math
import re
import warnings

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
    FloatRangeError,
    Simplex,
    boundary_integral,
    fd_derivative,
    hadamard_derivative,
    perturbed_integral,
    volume_integral,
)
from shapecalc.errors import float_range


def unit_simplex(dim: int) -> Simplex:
    return Simplex(np.vstack([np.zeros(dim), np.eye(dim)]))


def identity_field(dim: int) -> AffineField:
    return AffineField(np.eye(dim), np.zeros(dim))


def identity_values(dim: int) -> np.ndarray:
    """The identity field's values at the vertices of ``unit_simplex(dim)``."""
    return identity_field(dim).at(unit_simplex(dim).vertices)


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
            total, per_facet = boundary_integral(s, AffineDensity.one(s.dim),
                                                 xi.at(s.vertices))
            terms = sum(abs(v) for _, v in per_facet)
            assert abs(total) <= 1e-13 * max(terms, 1e-30)

    def test_identity_field_unit_simplex(self):
        total, _ = boundary_integral(
            unit_simplex(2), AffineDensity.one(2), identity_values(2)
        )
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_coordinate_density_hand_value(self):
        # int over the boundary of x1 * (e1 . n) = area = 0.5 by divergence.
        f = AffineDensity(np.array([1.0, 0.0]), 0.0)
        s = unit_simplex(2)
        xi = AffineField.constant([1.0, 0.0])
        total, per_facet = boundary_integral(s, f, xi.at(s.vertices))
        assert total == pytest.approx(0.5, abs=1e-14)
        contributions = dict(per_facet)
        assert contributions[0] == pytest.approx(0.5, abs=1e-14)  # hypotenuse
        assert contributions[1] == pytest.approx(0.0, abs=1e-15)
        assert contributions[2] == pytest.approx(0.0, abs=1e-15)

    def test_total_is_ordered_sum_of_contributions(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s, f, xi = random_instance(rng)
            total, per_facet = boundary_integral(s, f, xi.at(s.vertices))
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
            total, per_facet = boundary_integral(s, f, xi.at(s.vertices))
            values, bounds = support.boundary_integral_per_facet(s, f, xi)
            assert [i for i, _ in per_facet] == list(range(dim + 1))
            for (_, value), expected, bound in zip(per_facet, values, bounds):
                assert abs(value - expected) <= bound
            acc = 0.0
            for _, value in per_facet:
                acc += value
            assert acc == total

    @given(dim=st.sampled_from([2, 3, 5, 8, 16]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_field_gathered_from_vertices_is_bit_identical(self, dim, seed):
        # The field is evaluated once per simplex vertex and gathered to the
        # facets; evaluating it at each facet's own vertices gives the same bits.
        rng = np.random.default_rng(seed)
        s = support.random_simplex(rng, dim, min_rel_det=1e-6)
        f = support.random_density(rng, dim)
        xi = support.random_field(rng, dim)
        expected = support.boundary_integral_per_facet_vertex(s, f, xi)
        assert boundary_integral(s, f, xi.at(s.vertices)) == expected

    @given(dim=st.sampled_from([2, 3, 5, 8, 16]), m=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_stacked_simplex_and_values_match_lone_integrals(self, dim, m, seed):
        # What a proof passes: a stacked Simplex and the values of one
        # constant field at each simplex's vertices; every item gets the
        # lone integral's bits.
        rng = np.random.default_rng(seed)
        simplices = [support.random_simplex(rng, dim, min_rel_det=1e-6) for _ in range(m)]
        values = [AffineField.constant(b).at(s.vertices)
                  for s, b in zip(simplices, rng.standard_normal((m, dim)))]
        f = support.random_density(rng, dim)
        stacked = boundary_integral(Simplex(np.array([s.vertices for s in simplices])), f,
                                    np.array(values))
        assert stacked == [boundary_integral(s, f, v) for s, v in zip(simplices, values)]

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    @pytest.mark.parametrize("m", [None, 1, 5])
    @pytest.mark.parametrize("gradient, constant",
                             [(0.0, 1.0), (0.0, 3.0), (-0.0, -0.5), (0.0, 0.0), (0.0, -0.0),
                              (0.5, 1.0)])
    def test_constant_density_matches_gathered_points(self, dim, m, gradient, constant):
        # A nonzero constant density is not evaluated on the gathered facet
        # points; every per-facet value and total keeps the bits of that
        # evaluation, for a lone simplex (m None) and a stack of m. A zero
        # constant keeps the gather: the sign of its zeros is the product's.
        rng = np.random.default_rng(dim * 10 + (m or 0))
        f = AffineDensity(np.full(dim, gradient), constant)
        for _ in range(5):
            simplices = [support.random_simplex(rng, dim, min_rel_det=1e-6)
                         for _ in range(m or 1)]
            offsets = rng.standard_normal((m or 1, dim))
            s = (simplices[0] if m is None
                 else Simplex(np.array([t.vertices for t in simplices])))
            # A constant field has one sign per facet, so a zero's sign can last.
            for matrix in (rng.standard_normal((dim, dim)), np.zeros((dim, dim))):
                values = np.array([AffineField(matrix, b).at(t.vertices)
                                   for t, b in zip(simplices, offsets)])
                values = values[0] if m is None else values
                # repr tells -0.0 from 0.0
                assert (repr(boundary_integral(s, f, values))
                        == repr(support.boundary_integral_gathered(s, f, values)))

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
            v1, v2, v_sum = (xi.at(s.vertices) for xi in (xi1, xi2, xi_sum))
            lhs, _ = boundary_integral(s, f_sum, v1)
            rhs = boundary_integral(s, f1, v1)[0] + boundary_integral(s, f2, v1)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
            lhs, _ = boundary_integral(s, f1, v_sum)
            rhs = boundary_integral(s, f1, v1)[0] + boundary_integral(s, f1, v2)[0]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            boundary_integral(
                unit_simplex(2), AffineDensity.one(3), identity_values(2)
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
        expected = s.volume * float(f.at(s.centroid))
        (value,) = perturbed_integral(s, f, xi.at(s.vertices), [0.0])
        assert value == pytest.approx(expected, rel=1e-15)

    def test_dilation_by_one(self):
        (value,) = perturbed_integral(
            unit_simplex(2), AffineDensity.one(2), identity_values(2), [1.0]
        )
        assert value == pytest.approx(2.0, rel=1e-14)

    def test_translation_preserves_volume(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s, _, _ = random_instance(rng)
            xi = AffineField.constant(rng.uniform(-1.0, 1.0, s.dim))
            t = float(rng.uniform(-2.0, 2.0))
            (value,) = perturbed_integral(s, AffineDensity.one(s.dim), xi.at(s.vertices), [t])
            assert value == pytest.approx(s.volume, rel=1e-13)

    def test_degenerate_perturbation_reports_step(self):
        s = unit_simplex(2)
        collapse = AffineField(-np.eye(2), np.zeros(2))  # x -> x - t x
        with pytest.raises(DegenerateSimplexError, match="t = 1.0"):
            perturbed_integral(s, AffineDensity.one(2), collapse.at(s.vertices), [1.0])

    def test_degenerate_image_in_a_stack_reports_its_step(self):
        s = unit_simplex(2)
        collapse = AffineField(-np.eye(2), np.zeros(2))  # collapses at t = 1
        with pytest.raises(DegenerateSimplexError, match=r"t = 1\.0$") as err:
            perturbed_integral(s, AffineDensity.one(2), collapse.at(s.vertices),
                               [0.5, 1.0, 0.25])
        assert str(err.value.__cause__).startswith("degenerate simplex: |det| = ")

    def test_overflowing_image_is_screened(self):
        # Outside hadamard_derivative no errstate is active, so only the
        # gate's own overflow screen turns this into FloatRangeError.
        s = Simplex(1e150 * np.array([[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for steps in ([1e5], [1.0, 1e5]):
                with pytest.raises(
                    FloatRangeError,
                    match="^vertex coordinates overflow the float range$",
                ):
                    perturbed_integral(s, AffineDensity.one(2),
                                       identity_field(2).at(s.vertices), steps)
        assert [str(w.message) for w in caught] == []

    def test_one_python_float_per_step(self):
        s = unit_simplex(3)
        f, at_vertices = AffineDensity.one(3), identity_values(3)
        for steps in ([0.5], (0.5, -0.5), np.array([0.5, -0.5, 0.25])):
            values = perturbed_integral(s, f, at_vertices, steps)
            assert type(values) is list and len(values) == len(steps)
            assert all(type(v) is float for v in values)


def placed_simplex(rng, dim: int) -> Simplex:
    """A perturbed unit simplex, rotated, scaled and shifted: well
    conditioned at every dimension up to 16."""
    base = np.vstack([np.zeros(dim), np.eye(dim)])
    base = base + rng.uniform(-0.25, 0.25, (dim + 1, dim))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    rotation = support.random_rotation(rng, dim)
    return Simplex(scale * base @ rotation.T + rng.uniform(-1.0, 1.0, dim))


class TestStackedImages:
    """The images of all steps are one stack; each value must equal, bit
    for bit, the lone-``Simplex`` reference in tests/support.py."""

    @given(
        st.sampled_from([2, 3, 5, 8, 16]),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_image_reference(self, dim, seed, steps):
        rng = np.random.default_rng(seed)
        s = placed_simplex(rng, dim)
        f, xi = support.random_density(rng, dim), support.random_field(rng, dim)
        values = xi.at(s.vertices)
        expected = []
        for t in steps:
            try:
                expected.append(support.perturbed_integral_per_image(s, f, xi, t))
            except DegenerateSimplexError:
                # The stack names the first step whose image collapses.
                with pytest.raises(DegenerateSimplexError,
                                   match=f"t = {re.escape(repr(t))}$"):
                    perturbed_integral(s, f, values, steps)
                return
        assert perturbed_integral(s, f, values, steps) == expected
        assert [v for t in steps for v in perturbed_integral(s, f, values, [t])] == expected
        estimate, h = fd_derivative(s, f, values)
        assert estimate == support.fd_derivative_per_image(s, f, xi, h)


# Each route that takes a field's values at the vertices, as a call on
# (simplex, values).
VALUES_ROUTES = {
    "boundary_integral": lambda s, v: boundary_integral(s, AffineDensity.one(s.dim), v),
    "perturbed_integral": lambda s, v: perturbed_integral(
        s, AffineDensity.one(s.dim), v, [0.5]),
    "fd_derivative": lambda s, v: fd_derivative(s, AffineDensity.one(s.dim), v),
}


def stack_message(s: Simplex) -> str:
    """The error of a route that takes one simplex, given the stack ``s``."""
    shape = re.escape(str(s.vertices.shape))
    return f"^this route takes one simplex, not a stack of shape {shape}$"


class TestValuesShape:
    @pytest.mark.parametrize("route", VALUES_ROUTES)
    @pytest.mark.parametrize("stacked", [False, True])
    def test_values_not_shaped_like_the_vertices_are_rejected(self, route, stacked):
        lone = unit_simplex(3)
        s = Simplex(np.array([lone.vertices] * 2)) if stacked else lone
        bad = {
            "stack or lone": np.ones((4, 3)) if stacked else np.ones((2, 4, 3)),
            "extra row": np.ones(s.vertices.shape[:-2] + (5, 3)),
            "wrong N": np.ones(s.vertices.shape[:-1] + (4,)),
        }
        if stacked:
            bad["another stack size"] = np.ones((3, 4, 3))
        if stacked and route != "boundary_integral":
            # The fd routes take one simplex: a stack fails first, whatever the values.
            for values in [np.ones(s.vertices.shape), *bad.values()]:
                with pytest.raises(DimensionMismatchError, match=stack_message(s)):
                    VALUES_ROUTES[route](s, values)
            return
        VALUES_ROUTES[route](s, np.ones(s.vertices.shape))  # the vertices' shape passes
        for values in bad.values():
            message = (f"field values of shape {values.shape} need the vertices' shape "
                       f"{s.vertices.shape}")
            with pytest.raises(DimensionMismatchError, match=re.escape(message)):
                VALUES_ROUTES[route](s, values)

    @pytest.mark.parametrize("route", VALUES_ROUTES)
    def test_density_of_another_dimension_is_rejected(self, route):
        s = unit_simplex(2)
        call = {"boundary_integral": boundary_integral,
                "perturbed_integral": lambda *args: perturbed_integral(*args, [0.5]),
                "fd_derivative": fd_derivative}[route]
        with pytest.raises(DimensionMismatchError, match="simplex dim 2, density dim 3$"):
            call(s, AffineDensity.one(3), identity_values(2))


class TestOneSimplex:
    """Only ``boundary_integral`` takes a stacked ``Simplex``. Every other
    route raises ``DimensionMismatchError`` for one, before any other check
    and before any arithmetic."""

    stack = Simplex(np.array([unit_simplex(2).vertices, 2.0 * unit_simplex(2).vertices]))

    @pytest.mark.parametrize("route", ["volume_integral", "perturbed_integral",
                                       "fd_derivative", "hadamard_derivative"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_is_rejected_first(self, route, dim):
        # dim 3: a density, field and values that mismatch the stack as well.
        s, f, xi = self.stack, AffineDensity.one(dim), identity_field(dim)
        values = identity_field(2).at(s.vertices) if dim == 2 else np.ones((4, 3))
        call = {"volume_integral": lambda: volume_integral(s, f, xi),
                "perturbed_integral": lambda: perturbed_integral(s, f, values, [0.1]),
                "fd_derivative": lambda: fd_derivative(s, f, values),
                "hadamard_derivative": lambda: hadamard_derivative(s, f, xi)}[route]
        with pytest.raises(DimensionMismatchError, match=stack_message(s)):
            call()

    def test_boundary_integral_takes_the_stack(self):
        f, s = AffineDensity.one(2), self.stack
        values = identity_field(2).at(s.vertices)
        assert boundary_integral(s, f, values) == [
            boundary_integral(Simplex(v), f, x) for v, x in zip(s.vertices, values)]


class TestFiniteDifferences:
    def test_constant_field_near_zero(self):
        s = unit_simplex(2)
        xi = AffineField.constant([0.4, 0.7])
        estimate, _ = fd_derivative(s, AffineDensity.one(2), xi.at(s.vertices))
        assert abs(estimate) <= 1e-9

    def test_identity_field_unit_simplex(self):
        value, _ = fd_derivative(unit_simplex(2), AffineDensity.one(2), identity_values(2))
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_default_step_scales(self):
        s = unit_simplex(2)
        cbrt_eps = float(np.finfo(float).eps) ** (1.0 / 3.0)
        small = AffineField.constant([0.1, 0.0])
        big = AffineField.constant([100.0, 0.0])
        f = AffineDensity.one(2)
        _, small_step = fd_derivative(s, f, small.at(s.vertices))
        _, big_step = fd_derivative(s, f, big.at(s.vertices))
        assert small_step == pytest.approx(cbrt_eps * s.scale)
        assert big_step == pytest.approx(cbrt_eps * s.scale / 100.0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_boundary_integral(self, seed):
        rng = np.random.default_rng(seed)
        s, f, xi = random_instance(rng)
        exact, _ = boundary_integral(s, f, xi.at(s.vertices))
        estimate, _ = fd_derivative(s, f, xi.at(s.vertices))
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
            budget = s.facets.measures.sum() * float(
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

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_fd_step_is_the_fd_route_step(self, seed):
        s, f, xi = random_instance(np.random.default_rng(seed))
        report = hadamard_derivative(s, f, xi)
        assert (report.fd_estimate, report.fd_step) == fd_derivative(s, f, xi.at(s.vertices))

    def test_report_round_trips_to_dict(self):
        report = hadamard_derivative(
            unit_simplex(3), AffineDensity.one(3), identity_field(3)
        )
        data = report.to_dict()
        assert data["boundary_total"] == report.boundary_total
        assert data["per_facet"] == [[i, v] for i, v in report.per_facet]


class TestFloatRange:
    """The one guard that turns an overflow into FloatRangeError."""

    def test_numpy_overflow(self):
        with pytest.raises(FloatRangeError, match="^too big$") as err:
            with float_range("too big"):
                np.float64(1e308) * 10.0
        assert type(err.value.__cause__) is FloatingPointError

    def test_python_overflow(self):
        with pytest.raises(FloatRangeError, match="^too big$") as err:
            with float_range("too big"):
                1e200**2
        assert type(err.value.__cause__) is OverflowError

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value(self, value):
        with pytest.raises(FloatRangeError, match="^too big$"):
            with float_range("too big") as finite:
                finite(1.0, value)

    def test_in_range_passes_through(self):
        with float_range("too big") as finite:
            finite(1e308, -1e308, 0.0)
            total = np.float64(1e154) * 1e154
        assert total == 1e308

    # Each test sets a state of its own around the guard, so a guard that
    # failed to restore the state leaks nothing into the next test.
    @np.errstate(over="warn", invalid="ignore")
    def test_error_state_is_restored_on_normal_exit(self):
        before = np.geterr()
        with float_range("too big") as finite:
            assert np.geterr()["over"] == np.geterr()["invalid"] == "raise"
            finite(1.0)
        assert np.geterr() == before

    @pytest.mark.parametrize("block, error", [
        (lambda finite: np.float64(1e308) * 10.0, FloatRangeError),
        (lambda finite: 1e200**2, FloatRangeError),
        (lambda finite: finite(math.inf), FloatRangeError),
        (lambda finite: {}["missing"], KeyError),  # not an overflow: passes through
    ])
    @np.errstate(over="warn", invalid="ignore")
    def test_error_state_is_restored_after_a_raise(self, block, error):
        before = np.geterr()
        with pytest.raises(error):
            with float_range("too big") as finite:
                block(finite)
        assert np.geterr() == before

    @pytest.mark.parametrize("block, cause", [
        (lambda finite: np.float64(1e308) * 10.0, FloatingPointError),
        (lambda finite: 1e200**2, OverflowError),
        (lambda finite: finite(math.nan), type(None)),
    ])
    def test_nested_guard_keeps_the_inner_error(self, block, cause):
        with pytest.raises(FloatRangeError, match="^inner$") as err:
            with float_range("outer"):
                with float_range("inner") as finite:
                    block(finite)
        assert type(err.value.__cause__) is cause
