"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (visible with ``pytest -s`` or on failure)."""

import json
import math
import time

import numpy as np

import support
from shapecalc import (
    RightSimplexSpec,
    Simplex,
    Triangle,
    base_height_volume,
    face_normal_identity,
    hadamard_derivative,
    random_right_simplex,
    random_triangle,
    verify_law_of_cosines,
    verify_law_of_sines,
    verify_nd_pythagoras,
    verify_pythagoras,
)
from shapecalc.cli import ShapeDocument, main, parse_shape

TOL_ABS = 1e-12
TOL_REL = 1e-12

T345 = {
    "dim": 2,
    "vertices": [[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]],
    "labels": {"A": 0, "B": 1, "C": 2},
}


def _conclude(name: str, failures: list):
    ok = not failures
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{len(failures)} failure(s), first: {failures[:3]}"


def test_criterion_1_theorem_residual_suite():
    failures = []
    started = time.perf_counter()
    for seed in range(1000):
        report = verify_pythagoras(random_triangle(seed, "right"))
        if abs(report.residual) > TOL_ABS + 1e-12 * report.scale**2:
            failures.append(("pythagoras", seed, report.residual))
    for seed in range(1000):
        t = random_triangle(seed, "general")
        for verifier in (verify_law_of_cosines, verify_law_of_sines):
            report = verifier(t)
            if abs(report.residual) > TOL_ABS + 1e-12 * report.scale**2:
                failures.append((report.theorem, seed, report.residual))
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(("runtime_s", elapsed))
    _conclude("1 theorem-residual-suite", failures)


def test_criterion_2_nd_pythagoras_sweep():
    failures = []
    for dim in range(2, 9):
        for k in range(100):
            for mode in ("orthonormal", "scaled"):
                report = verify_nd_pythagoras(
                    random_right_simplex(1000 * dim + k, dim, mode)
                )
                c2 = report.summary["hyp_measure"] ** 2
                if abs(report.residual) > 1e-10 * c2:
                    failures.append((dim, k, mode, report.residual))
    # Hand-derived cross-check: legs (2, 3, 6) give C^2 = 126.
    spec = RightSimplexSpec(apex=np.zeros(3), legs=np.diag([2.0, 3.0, 6.0]))
    report = verify_nd_pythagoras(spec)
    c2 = report.summary["hyp_measure"] ** 2
    oracle = support.cayley_menger_measure(spec.simplex.vertices[1:]) ** 2
    if abs(c2 - 126.0) > 1e-12 * 126.0 or abs(oracle - 126.0) > 1e-10:
        failures.append(("legs236", c2, oracle))
    if abs(report.residual) > 1e-10 * c2:
        failures.append(("legs236 residual", report.residual))
    _conclude("2 nd-pythagoras", failures)


def test_criterion_3_hadamard_identity():
    failures = []
    rng = np.random.default_rng(20260810)
    for k in range(1000):
        dim = 2 + k % 3
        s = support.random_simplex(rng, dim)
        f = support.random_density(rng, dim)
        xi = support.random_field(rng, dim)
        report = hadamard_derivative(s, f, xi)
        budget = 1.0 + abs(report.boundary_total)
        if report.residual_bv > 1e-12 * budget:
            failures.append(("bv", k, report.residual_bv))
        if report.residual_bf > 1e-6 * budget:
            failures.append(("bf", k, report.residual_bf))
    _conclude("3 hadamard-identity", failures)


def test_criterion_4_per_facet_decomposition(tmp_path):
    failures = []
    shape = tmp_path / "t345.json"
    shape.write_text(json.dumps(T345))
    out = tmp_path / "report.json"
    code = main(
        ["derive", "--input", str(shape), "--field", "pythagoras",
         "--out", str(out)]
    )
    if code != 0:
        failures.append(("exit", code))
    else:
        entry = json.loads(out.read_text())["entries"][0]
        contributions = {facet: value for facet, value in entry["per_facet"]}
        # Facet indices follow the labels: 0 -> side a, 1 -> side b, 2 -> side c.
        for facet, expected in ((2, 25.0), (0, -16.0), (1, -9.0)):
            if abs(contributions[facet] - expected) > 1e-12:
                failures.append((facet, contributions[facet], expected))
    _conclude("4 per-facet-decomposition", failures)


def test_criterion_5_face_normal_identity():
    failures = []
    for dim in range(2, 9):
        for k in range(100):
            for mode in ("orthonormal", "scaled"):
                spec = random_right_simplex(2000 * dim + k, dim, mode)
                c = spec.simplex.facets[spec.hyp_index].measure
                for i, residual in enumerate(face_normal_identity(spec)):
                    if residual > 1e-12 * c:
                        failures.append((dim, k, mode, i, residual))
    _conclude("5 face-normal-identity", failures)


def test_criterion_6_geometry_invariants():
    failures = []
    rng = np.random.default_rng(77)
    for k in range(1000):
        dim = 2 + k % 5
        s = support.random_simplex(rng, dim)
        fs = s.facets
        total_measure = sum(f.measure for f in fs)
        resultant = np.linalg.norm(sum(f.measure * f.normal for f in fs))
        if resultant > 1e-13 * total_measure:
            failures.append(("minkowski", k, resultant))
        volume = s.volume
        for i in range(dim + 1):
            if abs(base_height_volume(s, i) - volume) > 1e-13 * volume:
                failures.append(("base-height", k, i))
    for k in range(100):
        dim = 2 + k % 5
        s = support.random_simplex(rng, dim)
        f = s.facets[int(rng.integers(0, dim + 1))]
        oracle = support.cayley_menger_measure(f.vertices)
        if abs(f.measure - oracle) > 1e-12 * oracle:
            failures.append(("cayley-menger", k, f.measure, oracle))
    _conclude("6 geometry-invariants", failures)


def test_criterion_7_rigid_motion_invariance():
    failures = []
    rng = np.random.default_rng(4242)

    def moved_triangle(t):
        rotation = support.random_rotation(rng, 2)
        shift = rng.uniform(-2.0, 2.0, 2)
        pts = t.simplex.vertices @ rotation.T + shift
        return Triangle(pts[0], pts[1], pts[2])

    for seed in range(100):
        t = random_triangle(seed, "right")
        moved = moved_triangle(t)
        scale2 = max(t.a, t.b, t.c) ** 2
        delta = abs(
            verify_pythagoras(moved).residual - verify_pythagoras(t).residual
        )
        if delta > 1e-12 * scale2:
            failures.append(("pythagoras", seed, delta))
    for seed in range(100):
        t = random_triangle(seed, "general")
        moved = moved_triangle(t)
        scale2 = max(t.a, t.b, t.c) ** 2
        for verifier in (verify_law_of_cosines, verify_law_of_sines):
            delta = abs(verifier(moved).residual - verifier(t).residual)
            if delta > 1e-12 * scale2:
                failures.append((verifier.__name__, seed, delta))
    for seed in range(50):
        dim = 2 + seed % 7
        spec = random_right_simplex(seed, dim, "scaled")
        rotation = support.random_rotation(rng, dim)
        shift = rng.uniform(-2.0, 2.0, dim)
        moved = RightSimplexSpec(
            apex=rotation @ spec.apex + shift, legs=spec.legs @ rotation.T
        )
        before = verify_nd_pythagoras(spec)
        after = verify_nd_pythagoras(moved)
        if abs(after.residual - before.residual) > 1e-12 * before.scale**2:
            failures.append(("nd", seed))
    for k in range(200):
        dim = 2 + k % 3
        s = support.random_simplex(rng, dim)
        f = support.random_density(rng, dim)
        xi = support.random_field(rng, dim)
        rotation = support.random_rotation(rng, dim)
        shift = rng.uniform(-2.0, 2.0, dim)
        moved = Simplex(s.vertices @ rotation.T + shift)
        f2 = support.moved_density(f, rotation, shift)
        xi2 = support.moved_field(xi, rotation, shift)
        before = hadamard_derivative(s, f, xi)
        after = hadamard_derivative(moved, f2, xi2)
        scale2 = s.scale**2
        if abs(after.boundary_total - before.boundary_total) > 1e-12 * scale2:
            failures.append(("boundary", k))
        if abs(after.volume_total - before.volume_total) > 1e-12 * scale2:
            failures.append(("volume", k))
    _conclude("7 rigid-motion-invariance", failures)


def test_criterion_8_cli_contract(tmp_path):
    failures = []

    # Determinism: identical command + seed, byte-identical minus wall time.
    out = tmp_path / "report.json"
    argv = ["verify", "nd-pythagoras", "--random", "--count", "5",
            "--seed", "11", "--dim", "4", "--out", str(out)]
    rendered = []
    for run in range(2):
        if main(argv) != 0:
            failures.append(("determinism exit", run))
            continue
        data = json.loads(out.read_text())
        del data["aggregate"]["wall_time_s"]
        rendered.append(json.dumps(data, sort_keys=True))
    if len(rendered) == 2 and rendered[0] != rendered[1]:
        failures.append(("determinism", "reports differ"))

    # Round-trip: emit then re-parse yields an equal document.
    rng = np.random.default_rng(31337)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        verts = rng.uniform(-1.0, 1.0, (dim + 1, dim)).tolist()
        doc = ShapeDocument(dim=dim, vertices=verts, hyp_index=None)
        try:
            if parse_shape(doc.to_json()) != doc:
                failures.append(("round-trip", doc.dim))
        except Exception:
            continue  # degenerate draw; round-trip needs a valid document

    # Exit-code classes.
    shape = tmp_path / "t345.json"
    shape.write_text(json.dumps(T345))
    equilateral = tmp_path / "equilateral.json"
    equilateral.write_text(json.dumps({
        "dim": 2,
        "vertices": [[0.5, 0.8660254037844386], [1.0, 0.0], [0.0, 0.0]],
    }))
    if main(["verify", "pythagoras", "--input", str(shape),
             "--out", str(tmp_path / "c0.json")]) != 0:
        failures.append(("exit 0",))
    # A generic triangle: its zero-tolerance cosines residual is rounding
    # noise, while the 3-4-5 terms are exact and leave a residual of 0.
    generic = tmp_path / "generic.json"
    generic.write_text(json.dumps({
        "dim": 2,
        "vertices": [[0.1, 0.7], [0.93, -0.31], [-0.55, 0.2]],
    }))
    if main(["verify", "cosines", "--input", str(generic), "--tol-abs", "0",
             "--tol-rel", "0", "--out", str(tmp_path / "c1.json")]) != 1:
        failures.append(("exit 1",))
    if main(["verify", "pythagoras", "--input", str(equilateral),
             "--out", str(tmp_path / "c2.json")]) != 2:
        failures.append(("exit 2 precondition",))
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    if main(["verify", "sines", "--input", str(bad)]) != 2:
        failures.append(("exit 2 parse",))
    _conclude("8 cli-contract", failures)
