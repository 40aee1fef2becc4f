"""The boundary route, the volume route and every proof's per-facet terms
against exact ``fractions.Fraction`` arithmetic.

Floats are dyadic rationals, so ``support.exact_area_vectors`` gives the
area vectors S_i = A_i n_i of a float simplex with no rounding, and the
exact routes follow from them (``support.exact_boundary_terms`` and
``support.exact_volume_route``). Each float result must lie within
K * eps times a normalizer of its exact value:

* a boundary term, facet i: A_i * max|f| * max|xi|, both maxima over the
  facet's vertices;
* the volume total: sum_i A_i * max|f| * max|xi|, over all vertices;
* a proof's per-facet term xi . S_i, xi the proof's own float field:
  |xi| * sum_i A_i, ROADMAP item 1's normalizer.

The exact boundary terms must also add up to the exact volume value: the
divergence theorem, in exact arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

import support
from shapecalc import boundary_integral, random_right_simplex, random_triangle, volume_integral
from shapecalc.theorems import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, THEOREMS, prove

EPS = float(np.finfo(float).eps)
# The largest ratio |float - exact| / (eps * normalizer) measured on the
# draws below: 1.96 for the boundary terms, 0.13 for the volume totals, and
# at most 1.1 for the proofs.
K = 4


def ratio(value: float, exact: Fraction, normalizer: float) -> float:
    """|value - exact| in units of eps * normalizer."""
    return float(abs(Fraction(value) - exact) / Fraction(EPS * normalizer))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_routes_match_the_exact_values(dim):
    for seed in range(40):
        rng = np.random.default_rng([dim, seed])
        s = support.random_simplex(rng, dim)
        f, xi = support.random_density(rng, dim), support.random_field(rng, dim)
        exact = support.exact_boundary_terms(s.vertices, f, xi)
        volume = support.exact_volume_route(s.vertices, f, xi)
        assert sum(exact) == volume, seed
        f_peak = np.abs(f.at(s.vertices))
        xi_peak = np.linalg.norm(xi.at(s.vertices), axis=1)
        _, per_facet = boundary_integral(s, f, xi.at(s.vertices))
        for (i, value), term, measure in zip(per_facet, exact, s.facets.measures.tolist()):
            facet = np.arange(dim + 1) != i
            normalizer = measure * f_peak[facet].max() * xi_peak[facet].max()
            assert ratio(value, term, normalizer) <= K, (seed, i)
        normalizer = s.facets.measures.sum() * f_peak.max() * xi_peak.max()
        assert ratio(volume_integral(s, f, xi), volume, normalizer) <= K, seed


def proof_ratios(theorem: str, instances: list) -> list[float]:
    """Each per-facet term of each field of the proofs of ``instances``,
    against the exact xi . S_i of the proof's own vertices and float
    field xi, in units of eps * |xi| * sum_i A_i."""
    row = THEOREMS[theorem]
    stack = row.stack(instances)
    reports = prove(theorem, instances, DEFAULT_TOL_ABS, DEFAULT_TOL_REL)
    ratios = []
    for key, build in row.fields.items():
        for vertices, measures, xi, report in zip(
                stack.simplex.vertices, stack.simplex.facets.measures,
                build(stack), reports):
            areas, _ = support.exact_area_vectors(vertices)
            field = [Fraction(x) for x in xi.tolist()]
            terms = (report.auxiliary["directions"][key]["per_facet"] if theorem == "sines"
                     else report.per_facet)
            normalizer = float(np.linalg.norm(xi)) * float(measures.sum())
            ratios += [ratio(value, sum(a * b for a, b in zip(field, areas[i])), normalizer)
                       for i, value in terms]
    return ratios


@pytest.mark.parametrize("theorem, kind", [("pythagoras", "right"), ("sines", "general"),
                                           ("cosines", "general")])
def test_triangle_proof_terms_match_the_exact_terms(theorem, kind):
    triangles = [random_triangle(seed, kind) for seed in range(200)]
    assert max(proof_ratios(theorem, triangles)) <= K


@pytest.mark.parametrize("dim", [3, 8, 16])
def test_nd_proof_terms_match_the_exact_terms(dim):
    simplices = [random_right_simplex(seed, dim, ("orthonormal", "scaled")[seed % 2])
                 for seed in range(30)]
    assert max(proof_ratios("nd-pythagoras", simplices)) <= K


def test_exact_area_vectors_close_and_match_the_facets():
    # Minkowski's identity sum_i S_i = 0 holds exactly, and each S_i is
    # the float facets' A_i n_i up to rounding; the volume is |det E| / N!.
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5, 8):
        s = support.random_simplex(rng, dim)
        areas, volume = support.exact_area_vectors(s.vertices)
        assert [sum(column) for column in zip(*areas)] == [0] * dim
        expected = s.facets.measures[:, None] * s.facets.normals
        assert np.allclose(np.array(areas, dtype=float), expected, rtol=0, atol=1e-14)
        assert float(volume) == pytest.approx(s.volume, rel=1e-14)
