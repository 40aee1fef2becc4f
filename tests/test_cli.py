"""CLI contract tests: parsing, exit codes, determinism, output formats."""

import argparse
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapecalc
import support
from test_corpus import stored_report
from shapecalc import (
    AffineDensity,
    AffineField,
    DegenerateSimplexError,
    DimensionMismatchError,
    RightSimplexSpec,
    Simplex,
    hadamard_derivative,
    random_right_simplex,
    random_triangle,
    verify_law_of_cosines,
    verify_law_of_sines,
    verify_nd_pythagoras,
    verify_pythagoras,
)
import shapecalc.cli as cli
from shapecalc.cli import (
    THEOREMS,
    ShapeDocument,
    ShapeParseError,
    ShapeValidationError,
    build_parser,
    json_text,
    main,
    parse_shape,
    run_derive,
    run_verify,
)

T345 = {
    "dim": 2,
    "vertices": [[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]],
    "labels": {"A": 0, "B": 1, "C": 2},
}
EQUILATERAL = {
    "dim": 2,
    "vertices": [[0.5, 0.8660254037844386], [1.0, 0.0], [0.0, 0.0]],
}
# Generic triangle whose zero-tolerance cosines residual is nonzero rounding
# noise (-8.9e-16); the 3-4-5 per-facet terms are exact, so its residual is 0.
GENERIC = {"dim": 2, "vertices": [[0.1, 0.7], [0.93, -0.31], [-0.55, 0.2]]}
# An integer literal too large for a float: float() raises OverflowError.
HUGE_INT = 10**400
UNIT_SIMPLEX_2 = {"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
RIGHT_TETRA = {
    "dim": 3,
    "vertices": [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ],
    "hyp_index": 0,
}
# A tetrahedron whose legs from vertex 0 are not orthogonal.
SKEWED_TETRA = {
    "dim": 3,
    "vertices": [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.4, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ],
    "hyp_index": 0,
}

# verify's generator flags, each with a value, and those that --random reads
# for each theorem; a document reads none of them.
FLAG_VALUES = {"--count": "2", "--seed": "3", "--dim": "4", "--legs": "scaled"}
RANDOM_READS = {"pythagoras": ("--count", "--seed"), "sines": ("--count", "--seed"),
                "cosines": ("--count", "--seed"), "nd-pythagoras": tuple(FLAG_VALUES)}
UNREAD_FLAGS = [
    (theorem, [*source, flag, value], flag)
    for theorem, reads in RANDOM_READS.items()
    for source in (["--random"], ["--input", RIGHT_TETRA if theorem == "nd-pythagoras"
                                  else T345])
    for flag, value in FLAG_VALUES.items() if "--input" in source or flag not in reads]


# derive on the 3-4-5 triangle scaled by 1e-200 ... 2e153: exit code and
# message. At 1e-200 det and scale**2 underflow, so the gate, which is not
# yet scale-free, rejects the shape; at 1e-160 the gate passes it but the
# squared barycentric gradients overflow; from 1e150 up a route of the
# derivative overflows.
IDENTITY = '{"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}'
DENSITY = '{"gradient": [1, 2], "constant": 3}'
_UNDERFLOW = "degenerate simplex: |det| = 0.000e+00 <= 1e-12 * scale^2"
_OVERFLOW = "the shape derivative overflows the float range"
_FACETS = (2, "the facet geometry overflows the float range")
SCALED_DERIVE = [
    (field, density, scale, *outcome)
    for field, density, outcomes in [
        (IDENTITY, None, [(2, _UNDERFLOW), _FACETS] + [(0, None)] * 5 + [(2, _OVERFLOW)]),
        (IDENTITY, DENSITY, [(2, _UNDERFLOW), _FACETS] + [(0, None)] * 3
         + [(2, _OVERFLOW)] * 3),
        ("sines:a", DENSITY, [(2, _UNDERFLOW), _FACETS] + [(0, None)] * 3
         + [(2, _OVERFLOW)] * 3),
    ]
    for scale, outcome in zip([1e-200, 1e-160, 1e-150, 1.0, 1e100, 1e150, 1e153, 2e153],
                              outcomes)
] + [("pythagoras", None, 1e-160, *_FACETS)]  # a named field reads the normals first


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def shape_file(tmp_path):
    def write(document: dict, name: str = "shape.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    return write


class TestParseShape:
    def test_parses_345(self):
        doc = parse_shape(json.dumps(T345))
        assert doc.dim == 2
        assert doc.labels == {"A": 0, "B": 1, "C": 2}
        t = THEOREMS["pythagoras"].document(doc)
        assert t.c == pytest.approx(5.0)

    def test_malformed_json(self):
        with pytest.raises(ShapeParseError):
            parse_shape("{not json")

    def test_non_object(self):
        with pytest.raises(ShapeParseError):
            parse_shape("[1, 2, 3]")

    def test_missing_keys(self):
        with pytest.raises(ShapeParseError):
            parse_shape('{"dim": 2}')

    def test_bad_dim_type(self):
        with pytest.raises(ShapeParseError):
            parse_shape('{"dim": "2", "vertices": [[0,0],[1,0],[0,1]]}')

    @pytest.mark.parametrize("vertices, shape", [
        ([[0, 0], [1, 0]], (2, 2)),
        ([[0, 0], [1, 0], [0, 1], [1, 1]], (4, 2)),
        ([], (0,)),
    ])
    def test_vertex_count_mismatch(self, vertices, shape):
        # The document's Simplex checks the count.
        with pytest.raises(DimensionMismatchError) as err:
            parse_shape(json.dumps({"dim": 2, "vertices": vertices}))
        assert str(err.value) == f"expected (N+1, N) vertex array, got shape {shape}"

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_coordinate(self, value):
        # The document's Simplex checks finiteness.
        with pytest.raises(ShapeValidationError) as err:
            parse_shape(f'{{"dim": 2, "vertices": [[0, 3], [4, {value}], [0, 0]]}}')
        assert str(err.value) == "simplex vertices have non-finite entries"

    def test_coordinate_count_mismatch(self):
        with pytest.raises(ShapeValidationError):
            parse_shape('{"dim": 2, "vertices": [[0,0],[1,0],[0,1,5]]}')

    def test_coordinate_beyond_float_range(self):
        with pytest.raises(ShapeValidationError):
            parse_shape(
                f'{{"dim": 2, "vertices": [[0, {HUGE_INT}], [1, 0], [0, 1]]}}'
            )

    def test_collinear_vertices(self):
        with pytest.raises(DegenerateSimplexError):
            parse_shape('{"dim": 2, "vertices": [[0,0],[1,1],[2,2]]}')

    def test_bad_labels(self):
        bad = dict(T345, labels={"A": 0, "B": 1, "C": 1})
        with pytest.raises(ShapeValidationError):
            parse_shape(json.dumps(bad))

    def test_bad_hyp_index(self):
        bad = dict(RIGHT_TETRA, hyp_index=9)
        with pytest.raises(ShapeValidationError):
            parse_shape(json.dumps(bad))

    def test_round_trip(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            while True:
                verts = rng.uniform(-1.0, 1.0, (dim + 1, dim))
                try:
                    parse_shape(
                        json.dumps({"dim": dim, "vertices": verts.tolist()})
                    )
                    break
                except DegenerateSimplexError:
                    continue
            raw = {"dim": dim, "vertices": verts.tolist(), "hyp_index": 0}
            if dim == 2:
                raw["labels"] = {"A": 0, "B": 1, "C": 2}
            assert parse_shape(json.dumps(raw)) == ShapeDocument(**raw)

    def test_direct_construction_gates(self):
        with pytest.raises(DegenerateSimplexError):
            ShapeDocument(dim=2, vertices=[[0, 0], [1, 1], [2, 2]])
        with pytest.raises(ShapeValidationError, match="document has dim = 3"):
            ShapeDocument(dim=3, vertices=[[0, 0], [1, 0], [0, 1]])
        doc = ShapeDocument(dim=2, vertices=[[0, 0], [1, 0], [0, 1]])
        assert {type(x) for v in doc.vertices for x in v} == {float}

    def test_parse_builds_one_simplex(self, monkeypatch):
        built = []
        post_init = Simplex.__post_init__

        def record(s):
            post_init(s)
            built.append(s)

        monkeypatch.setattr(Simplex, "__post_init__", record)
        doc = parse_shape(json.dumps(RIGHT_TETRA))
        THEOREMS["nd-pythagoras"].field_document(doc)
        THEOREMS["nd-pythagoras"].document(doc)
        assert len(built) == 1 and built[0] is doc.simplex

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_labelled_triangle_reads_the_document_simplex(self, order, scale):
        # At 1e150 the Triangle's float screen cannot settle the gate.
        labels = dict(zip("ABC", order))
        vertices = [[x * scale for x in v] for v in GENERIC["vertices"]]
        doc = parse_shape(json.dumps(dict(GENERIC, vertices=vertices, labels=labels)))
        t = THEOREMS["sines"].document(doc)
        assert t.simplex is doc.simplex
        normals = doc.simplex.facets.normals
        for k, vertex, normal in zip("ABC", (t.A, t.B, t.C), (t.n_a, t.n_b, t.n_c)):
            assert vertex.tobytes() == doc.simplex.vertices[labels[k]].tobytes()
            assert normal.tobytes() == normals[labels[k]].tobytes()

    @pytest.mark.parametrize("field", ["pythagoras", "sines:a", "sines:b", "sines:c",
                                       "cosines"])
    def test_unlabelled_derive_matches_a_triangle_with_its_own_simplex(
            self, field, shape_file, monkeypatch):
        documents = [T345, GENERIC, EQUILATERAL, UNIT_SIMPLEX_2] + [
            {"dim": 2, "vertices": np.array([t.A, t.B, t.C]).tolist()}
            for t in (random_triangle(seed, kind) for seed in range(20)
                      for kind in ("general", "right"))]
        documents += [
            {"dim": 2, "vertices": [[x * scale for x in v] for v in d["vertices"]]}
            for d in documents[:4] for scale in (1e-150, 1e150)]

        def outcome(path):
            try:
                report, code = run_derive(path, field)
            except ShapeValidationError as err:
                return type(err), str(err)
            return code, json.dumps(report.entries)

        for document in documents:
            path = shape_file(document)
            with monkeypatch.context() as patch:
                patch.setattr("shapecalc.theorems._triangle_of",
                              support.document_triangle_reference)
                expected = outcome(path)
            assert outcome(path) == expected, document

    def test_triangle_requires_dim_2(self):
        doc = parse_shape(json.dumps(RIGHT_TETRA))
        for name in ("pythagoras", "sines", "cosines"):
            for read in (THEOREMS[name].document, THEOREMS[name].field_document):
                with pytest.raises(ShapeValidationError) as err:
                    read(doc)
                assert str(err.value) == (
                    "triangle theorems need dim = 2, document has dim = 3")

    def test_right_simplex_requires_hyp_index(self):
        doc = parse_shape(json.dumps(UNIT_SIMPLEX_2))
        row = THEOREMS["nd-pythagoras"]
        for read in (row.document, row.field_document):
            with pytest.raises(ShapeValidationError) as err:
                read(doc)
            assert str(err.value) == "nd-pythagoras needs 'hyp_index' in the shape document"


class TestRightSimplexDocuments:
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_verify_proves_the_file_rows_apex_first(self, dim, shape_file):
        # Right simplices rotated, scaled and shifted, with the apex at every
        # row: apex + (v - apex) is not v for most of their vertices.
        rng = np.random.default_rng(dim)
        for mode in ("orthonormal", "scaled"):
            placed = (random_right_simplex(dim, dim, mode).vertices
                      @ support.random_rotation(rng, dim).T * rng.uniform(0.5, 2.0)
                      + rng.uniform(-1.0, 1.0, dim))
            apex, *others = placed
            for hyp in range(dim + 1):
                rows = [*others[:hyp], apex, *others[hyp:]]
                path = shape_file({"dim": dim, "vertices": np.array(rows).tolist(),
                                   "hyp_index": hyp})
                report, code = run_verify("nd-pythagoras", input_path=path)
                assert code == 0
                entry = report.entries[0]
                vertices = np.array(entry["summary"]["vertices"])
                assert vertices.tobytes() == placed.tobytes()
                expected = verify_nd_pythagoras(RightSimplexSpec(placed)).to_dict()
                assert json.dumps(entry) == json.dumps(dict(expected, seed=None))


class TestExitCodes:
    def test_verify_pass_is_zero(self, shape_file):
        assert main(["verify", "pythagoras", "--input", shape_file(T345)]) == 0

    def test_precondition_error_is_two(self, shape_file, capsys):
        code = main(["verify", "pythagoras", "--input", shape_file(EQUILATERAL)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_verification_failure_is_one(self, shape_file):
        # The GENERIC cosines residual is nonzero rounding noise, so zero
        # tolerances must fail it.
        report, code = run_verify(
            "cosines",
            input_path=shape_file(GENERIC),
            tol_abs=0.0,
            tol_rel=0.0,
        )
        assert report.entries[0]["residual"] != 0.0
        assert code == 1
        assert (
            main(
                [
                    "verify", "cosines", "--input", shape_file(GENERIC),
                    "--tol-abs", "0", "--tol-rel", "0",
                ]
            )
            == 1
        )

    def test_missing_file_is_two(self, tmp_path):
        assert main(["verify", "sines", "--input", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file_is_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["verify", "sines", "--input", str(path)]) == 2

    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_non_utf8_file_is_two(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dim": 2, "vertices": [[0, 3], [4, 0], [0, 0]], "é": 1}'
                         .encode("latin-1"))
        argv = (["verify", "sines", "--input", str(path)] if command == "verify" else
                ["derive", "--input", str(path), "--field", "cosines"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapecalc: error: shape file is not UTF-8: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["document", "field", "density"])
    def test_too_deeply_nested_json_is_two(self, shape_file, tmp_path, capsys, where):
        # The decoder's RecursionError is a parse error, not a bug.
        deep = '{"dim": ' + "[" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        argv = ["derive", "--input", str(path) if where == "document" else shape_file(T345),
                "--field", deep if where == "field" else "cosines"]
        if where == "density":
            argv += ["--density", deep]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("shapecalc: error: invalid ") and "recursion" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where, text", [
        ("document", '{"dim": BIG, "vertices": [[0, 3], [4, 0], [0, 0]]}'),
        ("document", '{"dim": 2, "vertices": [[0, 3], [4, -BIG], [0, 0]]}'),
        ("document", '{"dim": 2, "vertices": [[0, 3], [4, 0], [0, 0]], "hyp_index": BIG}'),
        ("document", '{"dim": 2, "vertices": [[0, 3], [4, 0], [0, 0]], '
                     '"labels": {"A": 0, "B": BIG, "C": 2}}'),
        ("field", '{"matrix": [[1, 0], [0, 1]], "offset": [0, BIG]}'),
        ("field", '{"matrix": [[1, 0], [0, -BIG]], "offset": [0, 0]}'),
        ("density", '{"gradient": [0, 0], "constant": BIG}'),
        ("density", '{"gradient": [BIG, 0], "constant": 1}'),
    ])
    def test_oversized_integer_is_two(self, shape_file, tmp_path, capsys, where, text):
        # An integer literal past Python's int-string digit limit: json.loads
        # raises a plain ValueError, which is a parse error, not a bug.
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter has no int-string digit limit")
        text = text.replace("BIG", "7" * (limit + 1))
        path = tmp_path / "big.json"
        path.write_text(text)
        argv = ["derive", "--input", str(path) if where == "document" else shape_file(T345),
                "--field", text if where == "field" else "cosines"]
        if where == "density":
            argv += ["--density", text]
        assert main(argv) == 2
        err = capsys.readouterr().err
        name = "JSON" if where == "document" else f"{where} JSON"
        assert err.startswith(f"shapecalc: error: invalid {name}: Exceeds the limit ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("vertices, message", [
        ([[0, 3], [4, 0], [0, 0]], "every vertex needs {dim} coordinates, got 2"),
        ([], "expected (N+1, N) vertex array, got shape (0,)"),
    ])
    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_dim_at_the_digit_limit_is_two(self, tmp_path, capsys, command, vertices,
                                           message):
        # A dim of exactly the limit's digits loads, and no check formats a
        # number past the limit from it, as "dim + 1 vertices" once did.
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter has no int-string digit limit")
        dim = "9" * limit
        path = tmp_path / "dim.json"
        path.write_text(f'{{"dim": {dim}, "vertices": {json.dumps(vertices)}}}')
        argv = (["verify", "sines", "--input", str(path)] if command == "verify" else
                ["derive", "--input", str(path), "--field", "cosines"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"shapecalc: error: {message.format(dim=dim)}\n"
        assert "internal error" not in err and err.count("\n") == 1

    def test_dimension_out_of_range_is_two(self, capsys):
        assert main(["verify", "nd-pythagoras", "--random", "--dim", "20"]) == 2
        assert capsys.readouterr().err == "shapecalc: error: dim must be in 2..16, got 20\n"

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_internal_error_is_three(self, monkeypatch, tmp_path, capsys, error):
        # Only a ShapeCalcError or an OSError is an input error; anything
        # else, a plain ValueError included, is a bug in the program.
        def broken(seed, kind="general"):
            raise error("the generator broke")

        monkeypatch.setattr("shapecalc.theorems.random_triangle", broken)
        out = tmp_path / "report.json"
        assert main(["verify", "sines", "--random", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"shapecalc: internal error: {error.__name__}: the generator broke\n")
        assert not out.exists()

    def test_no_source_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sines"])
        assert exc.value.code == 2
        assert "one of the arguments --input --random is required" in (
            capsys.readouterr().err)
        # Library callers get run_verify's own check.
        with pytest.raises(ShapeValidationError, match="needs --input PATH or --random"):
            run_verify("sines")

    def test_input_and_random_together_is_two(self, shape_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "pythagoras", "--input", shape_file(T345),
                  "--random", "--count", "3", "--seed", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: shapecalc verify")
        assert "argument --random: not allowed with argument --input" in err
        # Library callers get run_verify's own check, not just the file.
        with pytest.raises(ShapeValidationError, match="--input PATH or --random, not both"):
            run_verify("pythagoras", input_path=shape_file(T345), random_batch=True,
                       count=3, seed=5)

    @pytest.mark.parametrize("theorem, argv, flag", [
        ("pythagoras", ["--random", "--dim", "8", "--legs", "scaled", "--format", "csv"],
         "--dim"),
        ("sines", ["--random", "--legs", "orthonormal"], "--legs"),
        ("cosines", ["--random", "--count", "2", "--dim", "3"], "--dim"),
        ("nd-pythagoras", ["--input", RIGHT_TETRA, "--count", "5", "--seed", "9",
                           "--dim", "7"], "--count"),
        ("nd-pythagoras", ["--input", RIGHT_TETRA, "--seed", "0"], "--seed"),
        ("nd-pythagoras", ["--input", RIGHT_TETRA, "--dim", "3"], "--dim"),
        ("pythagoras", ["--input", T345, "--legs", "orthonormal"], "--legs"),
        *UNREAD_FLAGS,
    ])
    def test_unread_flag_is_two(self, shape_file, capsys, theorem, argv, flag):
        argv = [shape_file(a) if isinstance(a, dict) else a for a in argv]
        assert main(["verify", theorem, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        source = " --input" if "--input" in argv else ""
        assert err == f"shapecalc: error: verify {theorem}{source} does not read {flag}\n"

    def test_unset_flags_read_their_defaults(self, shape_file):
        defaults = dict(count=1, seed=0, dim=3, legs="orthonormal")
        for theorem in THEOREMS:
            read = defaults if theorem == "nd-pythagoras" else dict(count=1, seed=0)
            unset, _ = run_verify(theorem, random_batch=True)
            given, _ = run_verify(theorem, random_batch=True, **read)
            assert unset.entries == given.entries
        with pytest.raises(ShapeValidationError, match="does not read --seed"):
            run_verify("sines", input_path=shape_file(T345), seed=0)
        with pytest.raises(ShapeValidationError, match="verify sines does not read --dim"):
            run_verify("sines", random_batch=True, dim=3)

    @pytest.mark.parametrize("value, message", [
        ("-1", "argument --seed: must be >= 0, got '-1'"),
        ("abc", "argument --seed: invalid int value: 'abc'"),
    ])
    def test_bad_seed_is_two(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "sines", "--random", "--seed", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: shapecalc verify")
        assert err.endswith(f"shapecalc verify: error: {message}\n")

    def test_degenerate_shape_is_two(self, shape_file):
        degenerate = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
        assert main(["verify", "sines", "--input", shape_file(degenerate)]) == 2

    def test_nonorthogonal_nd_input_is_two(self, shape_file):
        assert main(["verify", "nd-pythagoras", "--input", shape_file(SKEWED_TETRA)]) == 2

    def test_nd_field_needs_no_orthogonal_legs(self, shape_file):
        # derive's nd-pythagoras field reads the document's own simplex and
        # hyp_index, not a right simplex: it takes any non-degenerate shape.
        assert main(["derive", "--input", shape_file(SKEWED_TETRA),
                     "--field", "nd-pythagoras", "--out", os.devnull]) == 0

    def test_unknown_theorem_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thales"])
        assert exc.value.code == 2
        # Library callers get run_verify's own check.
        with pytest.raises(ShapeValidationError, match="unknown theorem 'thales'"):
            run_verify("thales")

    def test_bad_field_spec_is_two(self, shape_file, capsys):
        for spec in (
            "bogus",
            '{"matrix": {}, "offset": [0, 0]}',
            f'{{"matrix": [[1, 0], [0, {HUGE_INT}]], "offset": [0, 0]}}',
            f'{{"matrix": [[1, 0], [0, 1]], "offset": [{HUGE_INT}, 0]}}',
            '{"matrix": [[1, 0], [0, 1]], "offset": [[0, 0], [1, 1]]}',
            "sines:d",
            "sines:",
            "sines",
            "cosines:a",
            "pythagoras:",
            "{broken",
            '{"matrix": [[1, 0, 0], [0, 1, 0]], "offset": [0, 0]}',
        ):
            assert (
                main(["derive", "--input", shape_file(T345), "--field", spec])
                == 2
            ), spec
            err = capsys.readouterr().err
            if not spec.startswith("{"):
                assert (f"unknown field spec {spec!r}; use inline JSON or one of "
                        "pythagoras, sines:a|b|c, cosines, nd-pythagoras") in err, err
            if "[[0, 0]" in spec:  # a stack of offsets is not one field
                assert "field offset must be 1-D, got shape (2, 2)" in err, err
            if spec == "{broken":
                assert "shapecalc: error: invalid field JSON: " in err, err
            if "[0, 1, 0]" in spec:
                assert "field matrix must be square, got shape (2, 3)" in err, err

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("mismatched", ["field", "density"])
    def test_mismatched_derive_dimension_is_two(self, shape_file, capsys, n, mismatched):
        # derive checks the field's and the density's dimension against the
        # document's before it evaluates either of them.
        doc = {"dim": n, "vertices": np.vstack([np.zeros(n), np.eye(n)]).tolist()}
        field_dim, density_dim = (3, n) if mismatched == "field" else (n, 3)
        field = json.dumps({"matrix": np.eye(field_dim).tolist(), "offset": [0.5] * field_dim})
        density = json.dumps({"gradient": [1.0] * density_dim, "constant": 2})
        code = main(["derive", "--input", shape_file(doc), "--field", field,
                     "--density", density])
        assert (code, capsys.readouterr().err) == (2, (
            f"shapecalc: error: simplex dim {n}, density dim {density_dim}, "
            f"field dim {field_dim}\n"))

    def test_field_help_lists_the_named_fields(self, capsys):
        with pytest.raises(SystemExit):
            main(["derive", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("named proof field (pythagoras, sines:a|b|c, cosines, "
                "nd-pythagoras)") in text
        assert "--input PATH --field FIELD [--density DENSITY]" in text
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "(--input PATH | --random)" in " ".join(capsys.readouterr().out.split())

    def test_dim_help_reads_the_row_default(self, monkeypatch, capsys):
        monkeypatch.setitem(THEOREMS["nd-pythagoras"].flags, "dim", 5)
        build_parser.cache_clear()
        try:
            with pytest.raises(SystemExit):
                main(["verify", "--help"])
        finally:
            build_parser.cache_clear()
        assert ("simplex dimension for nd-pythagoras (default 5)"
                in " ".join(capsys.readouterr().out.split()))

    def test_bad_density_spec_is_two(self, shape_file):
        for spec in (
            "{broken",
            '{"gradient": [0, 0], "constant": null}',
            '{"gradient": [0, 0], "constant": [1]}',
            '{"gradient": [0, 0], "constant": "1"}',
            '{"gradient": {}, "constant": 1}',
            f'{{"gradient": [0, 0], "constant": {HUGE_INT}}}',
        ):
            assert (
                main(
                    [
                        "derive", "--input", shape_file(T345),
                        "--field", "pythagoras", "--density", spec,
                    ]
                )
                == 2
            ), spec

    @pytest.mark.parametrize(
        "field, density",
        [
            # The repro: the field overflows at the vertices and its trace.
            ('{"matrix": [[1e308, 0], [0, 1e308]], "offset": [0, 0]}', None),
            # Every array entry is finite; only the facet sums overflow.
            ('{"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}',
             '{"gradient": [0, 0], "constant": 1e307}'),
        ],
    )
    def test_overflowing_derivative_is_two(self, shape_file, capsys, field, density):
        argv = ["derive", "--input", shape_file(T345), "--field", field]
        if density is not None:
            argv += ["--density", density]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        assert "overflows the float range" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_overflowing_coordinates_is_two(self, shape_file, capsys):
        big = {"dim": 2, "vertices": [[0, 0], [3e200, 0], [0, 4e200]]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["derive", "--input", shape_file(big),
                         "--field", "pythagoras"])
        assert code == 2
        assert ("vertex coordinates overflow the float range"
                in capsys.readouterr().err)
        assert [str(w.message) for w in caught] == []

    def test_overflowing_proof_is_two(self, shape_file, tmp_path, capsys):
        # 3-4-5 scaled by 2e153: c^2 = 1e308 fits, but an intermediate of the
        # cosines decomposition overflows. Sines and Pythagoras stay in range.
        big = {"dim": 2, "vertices": [[6e153, 0], [0, 8e153], [0, 0]]}
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "cosines", "--input", shape_file(big),
                         "--out", str(out)]) == 2
            assert not out.exists()
            for theorem in ("sines", "pythagoras"):
                assert main(["verify", theorem, "--input", shape_file(big),
                             "--out", str(out)]) == 0
        assert (capsys.readouterr().err
                == "shapecalc: error: the cosines proof overflows the float range\n")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-150, 1.0, 1e100, 1e150, 1e153,
                                       2e153])
    @pytest.mark.parametrize(
        "argv",
        [["verify", theorem] for theorem in THEOREMS]
        + [["derive", "--field", name] for name in
           ("pythagoras", "sines:a", "sines:b", "sines:c", "cosines", "nd-pythagoras")],
        ids=" ".join,
    )
    def test_scaled_shapes_exit_cleanly(self, shape_file, tmp_path, argv, scale):
        # Exit 0 or 1 with a strictly valid JSON report, or 2 and no report;
        # never a warning, a traceback, or a bare NaN or Infinity.
        shape = RIGHT_TETRA if "nd-pythagoras" in argv else T345
        vertices = [[x * scale for x in v] for v in shape["vertices"]]
        scaled = dict(shape, vertices=vertices)
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--input", shape_file(scaled), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
        else:
            json.loads(out.read_text(), parse_constant=_reject_constant)

    @pytest.mark.parametrize("field, density, scale, code, message",
                             SCALED_DERIVE, ids=str)
    def test_scaled_derive_outcome(self, shape_file, capsys, field, density,
                                   scale, code, message):
        vertices = [[x * scale for x in v] for v in T345["vertices"]]
        argv = ["derive", "--input", shape_file(dict(T345, vertices=vertices)),
                "--field", field, "--out", os.devnull]
        if density is not None:
            argv += ["--density", density]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == ("" if message is None else f"shapecalc: error: {message}\n")

    def test_zero_pivot_prints_only_the_error(self, shape_file):
        # The edge matrix underflows to an exactly-zero pivot, so det
        # divides by zero. Run as a program, numpy's warning would show.
        underflow = {"dim": 2, "vertices": [[0, 0], [-0.0, 1e-300], [5e-324, 1]]}
        src = os.path.dirname(os.path.dirname(shapecalc.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "shapecalc.cli", "derive",
             "--input", shape_file(underflow), "--field", "pythagoras"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "shapecalc: error: degenerate simplex: |det| = 0.000e+00 "
            "<= 1e-12 * scale^2"]

    def test_module_entry_point_matches_main(self, shape_file, capsys):
        # python -m shapecalc.cli: main's exit code, stdout and stderr.
        src = os.path.dirname(os.path.dirname(shapecalc.__file__))
        zero_tol = ["--tol-abs", "0", "--tol-rel", "0"]
        for argv, code in [
            (["verify", "pythagoras", "--input", shape_file(T345), *zero_tol], 0),
            (["verify", "sines", "--random", "--count", "5", *zero_tol], 1),
            (["derive", "--input", shape_file(T345), "--field", "bogus"], 2),
        ]:
            done = subprocess.run(
                [sys.executable, "-m", "shapecalc.cli", *argv],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            )
            assert (done.returncode, main(argv)) == (code, code)
            out, err = capsys.readouterr()
            wall_time = re.compile(r'"wall_time_s": [^\n]*')
            assert wall_time.sub("", done.stdout) == wall_time.sub("", out)
            assert (code == 2) == (out == "")
            assert done.stderr == err

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_two(self, tmp_path, capsys, target):
        out = tmp_path / "nope" / "r.json" if target == "missing-dir" else tmp_path
        code = main(["verify", "sines", "--random", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("shapecalc: error: ")
        assert str(out) in err
        assert "Traceback" not in err
        assert not (tmp_path / "nope").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_report_write_is_two(self, capsys):
        # Writes to /dev/full fail with ENOSPC once the buffer is flushed.
        code = main(["verify", "sines", "--random", "--count", "30",
                     "--out", "/dev/full"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("shapecalc: error: ")
        assert "Traceback" not in err

    def test_failed_stdout_write_is_two(self, monkeypatch, capsys):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", BrokenPipe())
        assert main(["verify", "cosines", "--random"]) == 2
        assert capsys.readouterr().err == "shapecalc: error: [Errno 32] Broken pipe\n"

    def test_input_error_leaves_no_report_file(self, shape_file, tmp_path):
        degenerate = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
        out = tmp_path / "report.json"
        code = main(["derive", "--input", shape_file(degenerate),
                     "--field", "cosines", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_input_error_leaves_an_existing_report_untouched(self, shape_file, tmp_path):
        degenerate = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
        out = tmp_path / "report.json"
        old = b"an earlier report\n\x00\xff" * 100
        out.write_bytes(old)
        code = main(["derive", "--input", shape_file(degenerate),
                     "--field", "cosines", "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == old

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-abs", "nan"), ("--tol-abs", "inf"), ("--tol-rel", "-1"),
         ("--tol-rel", "abc")],
    )
    def test_bad_tolerance_is_two(self, shape_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "pythagoras", "--input", shape_file(T345),
                  flag, value])
        assert exc.value.code == 2


class TestCachedParser:
    COMMANDS = [
        ["verify", "nd-pythagoras", "--random", "--dim", "16", "--count", "2"],
        ["verify", "thales"],  # argparse error, exit 2
        ["derive", "--field", "sines:b", "--tol-abs", "0",
         "--density", '{"gradient": [1, 2], "constant": 3}'],
        ["verify", "sines", "--random", "--count", "3", "--seed", "4",
         "--format", "csv"],
        ["verify", "nd-pythagoras", "--random", "--dim", "16", "--count", "2"],
        # Unrecognized: the dispatch falls back to the top-level parse, exit 2.
        ["verify", "sines", "--random", "--count", "2", "--bogus"],
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_leaks_no_state(self, tmp_path):
        def run(argv):
            if argv[0] == "derive":
                argv = argv[:1] + ["--input", {"file": json.dumps(T345)}] + argv[1:]
            got = support.run_cli(main, argv + ["--out", str(tmp_path / "report.txt")],
                                  tmp_path)
            assert got.warnings == (), argv
            return got.code, got.stderr, stored_report(argv, got.report)

        fresh = []
        for argv in self.COMMANDS:
            build_parser.cache_clear()
            fresh.append(run(argv))
        reused = [run(argv) for argv in self.COMMANDS]
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0, 2]
        assert fresh[0] == fresh[4]
        assert fresh[5][1].endswith("\nshapecalc: error: unrecognized arguments: --bogus\n")

    def test_a_settled_argv_is_parsed_once(self, monkeypatch):
        # Only the subcommand's parser reads a valid argv: parse_args, the
        # top-level parse, is never called.
        argv = ["derive", "--input", "x.json", "--field", "sines:a", "--format=csv"]
        expected = vars(build_parser().parse_args(argv))

        def parse_args(*args):
            raise AssertionError("argv parsed from the top")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        assert cli.parse_options(argv) == expected


class TestVerifyRuns:
    def test_nd_pythagoras_from_file(self, shape_file):
        report, code = run_verify(
            "nd-pythagoras", input_path=shape_file(RIGHT_TETRA)
        )
        assert code == 0
        entry = report.entries[0]
        assert entry["passed"]
        assert entry["summary"]["hyp_measure"] == pytest.approx(
            0.8660254037844386
        )

    def test_random_batch_aggregate(self):
        report, code = run_verify(
            "sines", random_batch=True, count=5, seed=3
        )
        assert code == 0
        assert report.seeds == [3, 4, 5, 6, 7]
        assert report.aggregate["count"] == 5
        assert report.aggregate["pass_count"] == 5
        max_abs = max(abs(e["residual"]) for e in report.entries)
        assert report.aggregate["max_abs_residual"] == max_abs

    def test_random_nd_batch(self):
        report, code = run_verify(
            "nd-pythagoras", random_batch=True, count=4, seed=7, dim=5,
            legs="scaled",
        )
        assert code == 0
        for entry in report.entries:
            assert entry["summary"]["dim"] == 5

    def test_random_nd_batch_dim5_residual_bound(self):
        report, code = run_verify(
            "nd-pythagoras", random_batch=True, count=100, seed=7, dim=5
        )
        assert code == 0
        for entry in report.entries:
            c2 = entry["summary"]["hyp_measure"] ** 2
            assert abs(entry["residual"]) <= 1e-10 * c2

    def test_bad_count(self):
        with pytest.raises(ShapeValidationError):
            run_verify("sines", random_batch=True, count=0)


class TestDeriveRuns:
    def test_pythagoras_field_decomposition(self, shape_file):
        report, code = run_derive(shape_file(T345), "pythagoras")
        assert code == 0
        entry = report.entries[0]
        contributions = dict(
            (facet, value) for facet, value in entry["per_facet"]
        )
        assert contributions[2] == pytest.approx(25.0, abs=1e-12)
        assert contributions[0] == pytest.approx(-16.0, abs=1e-12)
        assert contributions[1] == pytest.approx(-9.0, abs=1e-12)
        assert abs(entry["boundary_total"]) <= 1e-12

    def test_inline_identity_field(self, shape_file):
        report, code = run_derive(
            shape_file(UNIT_SIMPLEX_2),
            '{"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}',
        )
        assert code == 0
        entry = report.entries[0]
        assert entry["boundary_total"] == pytest.approx(1.0, abs=1e-13)
        assert entry["volume_total"] == pytest.approx(1.0, abs=1e-13)
        assert entry["fd_estimate"] == pytest.approx(1.0, abs=1e-8)

    def test_coordinate_density(self, shape_file):
        report, code = run_derive(
            shape_file(UNIT_SIMPLEX_2),
            '{"matrix": [[0, 0], [0, 0]], "offset": [1, 0]}',
            '{"gradient": [1, 0], "constant": 0}',
        )
        assert code == 0
        entry = report.entries[0]
        assert entry["boundary_total"] == pytest.approx(0.5, abs=1e-13)
        assert entry["volume_total"] == pytest.approx(0.5, abs=1e-13)

    def test_named_sines_field(self, shape_file):
        report, code = run_derive(shape_file(T345), "sines:a")
        assert code == 0

    def test_named_nd_field(self, shape_file):
        report, code = run_derive(shape_file(RIGHT_TETRA), "nd-pythagoras")
        assert code == 0

    def test_nd_field_needs_hyp_index(self, shape_file):
        doc = {k: v for k, v in RIGHT_TETRA.items() if k != "hyp_index"}
        with pytest.raises(ShapeValidationError):
            run_derive(shape_file(doc), "nd-pythagoras")


class TestFieldEvaluations:
    """derive evaluates its field once, at the vertices, for every route
    that reads it there; verify passes the proofs' translations as values
    and evaluates no field."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        shapes, at = [], AffineField.at

        def counted(self, points):
            shapes.append(points.shape)
            return at(self, points)

        monkeypatch.setattr(AffineField, "at", counted)
        return shapes

    @pytest.mark.parametrize("field", ["pythagoras", "sines:a", IDENTITY])
    @pytest.mark.parametrize("density", [None, DENSITY])
    def test_derive_evaluates_its_field_once(self, shape_file, evaluations, field, density):
        argv = ["derive", "--input", shape_file(T345), "--field", field, "--out", os.devnull]
        assert main(argv + (["--density", density] if density else [])) == 0
        assert evaluations == [(3, 2)]

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_verify_evaluates_no_field(self, evaluations, theorem):
        argv = ["verify", theorem, "--random", "--count", "5", "--out", os.devnull]
        assert main(argv) == 0
        assert evaluations == []


class TestOutputFormats:
    def test_json_report_structure(self, shape_file, capsys):
        code = main(["verify", "pythagoras", "--input", shape_file(T345)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"]
        assert report["aggregate"]["count"] == 1
        assert report["entries"][0]["theorem"] == "pythagoras"

    def test_csv_report(self, capsys):
        code = main(
            [
                "verify", "cosines", "--random", "--count", "3",
                "--seed", "5", "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theorem,seed,residual,passed"
        assert len(lines) == 4
        for line, seed in zip(lines[1:], (5, 6, 7)):
            theorem, seed_text, residual, passed = line.split(",")
            assert theorem == "cosines"
            assert seed_text == str(seed)
            float(residual)
            assert passed in ("true", "false")

    def test_out_path(self, shape_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify", "pythagoras", "--input", shape_file(T345),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["aggregate"]["pass_count"] == 1

    def test_out_replaces_a_longer_file(self, shape_file, tmp_path, capsys):
        # The new report, and no stale tail of the longer file it replaces.
        out = tmp_path / "report.csv"
        out.write_text("stale,row\n" * 1000)
        argv = ["verify", "pythagoras", "--input", shape_file(T345), "--format", "csv"]
        assert main([*argv, "--out", str(out)]) == 0
        assert main(argv) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_determinism_modulo_wall_time(self, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "verify", "nd-pythagoras", "--random", "--count", "3",
            "--seed", "11", "--dim", "4", "--out", str(out),
        ]
        reports = []
        for _ in range(2):
            assert main(argv) == 0
            data = json.loads(out.read_text())
            del data["aggregate"]["wall_time_s"]
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]

    def test_csv_is_byte_identical(self, tmp_path):
        out = tmp_path / "report.csv"
        argv = [
            "verify", "sines", "--random", "--count", "4", "--seed", "2",
            "--format", "csv", "--out", str(out),
        ]
        contents = []
        for _ in range(2):
            assert main(argv) == 0
            contents.append(out.read_bytes())
        assert contents[0] == contents[1]


PLAIN_LEAVES = (int, float, str, bool, type(None))


def assert_plain(value, path="report"):
    """Every container is exactly a dict or list and every leaf exactly a
    JSON scalar type. json.dumps accepts np.float64 as a float subclass, so
    only an exact type check catches a leaked numpy value."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r}"
            assert_plain(item, f"{path}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            assert_plain(item, f"{path}[{i}]")
    else:
        assert type(value) in PLAIN_LEAVES, f"{path}: {type(value).__name__}"


class TestReportsArePlainData:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "verify, kind",
        [
            (verify_pythagoras, "right"),
            (verify_law_of_sines, "general"),
            (verify_law_of_cosines, "general"),
            (verify_law_of_cosines, "obtuse"),
        ],
    )
    def test_triangle_reports(self, verify, kind, seed):
        assert_plain(verify(random_triangle(seed, kind)).to_dict())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim", [3, 16])
    @pytest.mark.parametrize("legs", ["orthonormal", "scaled"])
    def test_nd_reports(self, dim, legs, seed):
        r = random_right_simplex(seed, dim, legs)
        assert_plain(verify_nd_pythagoras(r).to_dict())

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_derivative_report(self, dim):
        rng = np.random.default_rng(dim)
        s = Simplex(np.vstack([np.zeros(dim), np.eye(dim)]))
        f = AffineDensity(rng.standard_normal(dim), 0.5)
        xi = AffineField(rng.standard_normal((dim, dim)), rng.standard_normal(dim))
        assert_plain(hadamard_derivative(s, f, xi).to_dict())

    @pytest.mark.parametrize("theorem", list(THEOREMS))
    def test_verify_run_report(self, theorem):
        nd = {"dim": 16, "legs": "scaled"} if theorem == "nd-pythagoras" else {}
        report, _ = run_verify(theorem, random_batch=True, count=2, seed=4, **nd)
        assert_plain(report.to_dict())

    def test_derive_run_report(self, shape_file):
        report, _ = run_derive(
            shape_file(T345), "sines:b", '{"gradient": [1, 2], "constant": 3}'
        )
        assert_plain(report.to_dict())


def reference_csv(report) -> str:
    """The CSV text of the whole-string serializer that render replaced."""
    lines = ["theorem,seed,residual,passed"]
    for entry in report.entries:
        seed = entry.get("seed")
        lines.append(
            f"{entry['theorem']},{'' if seed is None else seed},"
            f"{entry['residual']!r},{str(entry['passed']).lower()}"
        )
    return "\n".join(lines) + "\n"


def rendered(report, fmt: str) -> str:
    stream = io.StringIO()
    report.render(fmt, stream)
    return stream.getvalue()


def assert_renders_whole_text(report):
    assert rendered(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"
    assert rendered(report, "csv") == reference_csv(report)


# Quotes, a backslash and non-ASCII text, as a command line may hold them.
AWKWARD = 'dir "q" \\ wörk ✓'


# Plain report data as TestReportsArePlainData defines it, with the values
# json.dumps spells in its own way.
PLAIN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                       2**64 + 1, -(2**100)])
    | st.text() | st.sampled_from(["\x00\x1f\x7f", AWKWARD, "\ud800", "😀 \u2028"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=24,
)


# A number of each kind json.dumps spells in its own way, to renumber a value.
NUMBERS = (st.integers(-(2**200), 2**200) | st.floats()
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**64 + 1]))


def renumbered(value, draw):
    """``value`` with each number replaced by a drawn one: the same layout."""
    if type(value) is dict:
        return {key: renumbered(item, draw) for key, item in value.items()}
    if type(value) is list:
        return [renumbered(item, draw) for item in value]
    return draw(NUMBERS) if type(value) in (int, float) else value


def dumped(write, value):
    """What ``write(value)`` returns, or ValueError if it raises one."""
    try:
        return write(value)
    except ValueError:
        return ValueError


# Edge values, among them values whose layouts differ only in one place:
# True against 1 against 1.0, key order, or list length.
EDGE_VALUES = [
    [], {}, [[]], [{}], {"": {}}, {"a": [[], {}]}, "", "\x00", 0, -0.0,
    math.nan, math.inf, -math.inf, 5e-324, 1e308, 2**64 + 1, -(2**100),
    True, False, None, [True, 1, 1.0, "1", None],
    [True], [1], [1.0], {"a": 1, "b": 2}, {"b": 1, "a": 2}, [1, 2], [1, 2, 3],
    {"%s": "%%", "%": ["%s", 1], "\x00": "%", "%%s": 2.5}, ["%s", 1.5, "%%s", "%", "\x00"],
    [1, math.nan, -2, math.inf, 3, -math.inf, -0.0, 0, 2**64, -(2**70)],
    [10**4299, -(10**4299)], [1.5, 10**4300], {"a": -(10**4300)},
]


def edge_id(value) -> str:
    """A test id: the repr, cut short; an int past the digit limit has none."""
    try:
        text = repr(value)
    except ValueError:
        return "past-the-digit-limit"
    return text if len(text) <= 60 else text[:57] + "..."


class TestJsonWriter:
    """``json_text`` writes exactly what ``json.dumps(indent=2)`` writes, for
    plain data only, whether its layout is built or taken from the memo."""

    @given(PLAIN_VALUES, st.data())
    @settings(max_examples=500, deadline=None)
    def test_equals_json_dumps(self, value, data):
        assert json_text(value) == json.dumps(value, indent=2)
        nested = {"a": [value]}
        assert json_text(nested) == json.dumps(nested, indent=2)
        # Written again from the memo, then with other numbers.
        assert json_text(value) == json.dumps(value, indent=2)
        other = renumbered(value, data.draw)
        assert json_text(other) == json.dumps(other, indent=2)

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=edge_id)
    def test_edge_values(self, value):
        # Every edge value first fills the emptied memo, so a layout that two
        # of them share by mistake writes the wrong text here.
        cli._layout.cache_clear()
        for other in EDGE_VALUES:
            dumped(json_text, other)
        expected = dumped(lambda v: json.dumps(v, indent=2), value)
        assert dumped(json_text, value) == expected

    @pytest.mark.parametrize(
        "value",
        [np.float64(1.0), np.int64(1), np.bool_(True), np.array([1.0]), (1, 2),
         {1}, {1: 2}, {None: 1}, {1.5: 2}, {True: 1}, {(1,): 2}, b"x",
         [1, (2,)], {"a": {"b": np.float64(0.5)}}],
        ids=repr,
    )
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            json_text(value)
        # So do a report's entries.
        report = cli.RunReport("0.1.0", [], None, [{"x": value}, {"x": value}])
        with pytest.raises(TypeError):
            report.render("json", io.StringIO())


class TestStreamedRender:
    """``RunReport.render`` writes exactly the text of ``json.dumps(indent=2)``
    plus a newline, or the old CSV text, while it encodes."""

    @pytest.mark.parametrize("count", [1, 40])
    @pytest.mark.parametrize(
        "theorem, dim",
        [("pythagoras", 3), ("sines", 3), ("cosines", 3),
         ("nd-pythagoras", 3), ("nd-pythagoras", 16)],
    )
    def test_verify_reports(self, theorem, dim, count):
        argv = ["verify", theorem, "--random", "--count", str(count), AWKWARD]
        # Only nd-pythagoras reads dim and legs.
        nd = {"dim": dim, "legs": "scaled"} if theorem == "nd-pythagoras" else {}
        report, _ = run_verify(theorem, random_batch=True, count=count, seed=5,
                               command=argv, **nd)
        assert_renders_whole_text(report)

    @pytest.mark.parametrize(
        "shape, field, density",
        [
            (T345, "pythagoras", None),
            (T345, "sines:b", '{"gradient": [1, 2], "constant": 3}'),
            (T345, "cosines", None),
            (RIGHT_TETRA, "nd-pythagoras", None),
            (UNIT_SIMPLEX_2, '{"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}', None),
            (RIGHT_TETRA,
             '{"matrix": [[1, 2, 0], [0, 1, 0], [3, 0, 1]], "offset": [0.5, 0, -1]}',
             '{"gradient": [1, 0, 2], "constant": -0.25}'),
        ],
    )
    def test_derive_reports(self, shape_file, shape, field, density):
        path = shape_file(shape)
        argv = ["derive", "--input", path + AWKWARD, "--field", field]
        report, _ = run_derive(path, field, density, command=argv)
        assert_renders_whole_text(report)

    @given(entries=st.lists(st.dictionaries(st.text(), PLAIN_VALUES), max_size=3),
           command=st.lists(st.text(), max_size=3),
           seeds=st.none() | st.lists(st.integers(), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_any_plain_report(self, entries, command, seeds):
        report = cli.RunReport("0.1.0", command, seeds, entries, {"count": 1})
        assert rendered(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_no_write_holds_two_entries(self, count):
        class Writes(list):
            write = list.append
            writelines = list.extend

        report, _ = run_verify("sines", random_batch=True, count=count, seed=2)
        writes = Writes()
        report.render("json", writes)
        assert "".join(writes) == json.dumps(report.to_dict(), indent=2) + "\n"
        longest = max(len(json_text(e, "\n    ")) for e in report.entries)
        assert len(writes) > count
        assert max(map(len, writes)) <= longest + len(",\n    ")

    @pytest.mark.parametrize("change, layouts", [
        (lambda j, entry: None, 1),
        (lambda j, entry: entry.update(seed=None if j % 2 else j), 2),
        (lambda j, entry: entry.update(passed=None if j % 2 else j), 2),
        (lambda j, entry: entry.update(extra=[0.5] * j), 25),
    ], ids=["batch", "seed None or int", "passed None or int", "lengths differ"])
    def test_layouts_built_per_report(self, change, layouts):
        # A report builds one layout per distinct entry layout, and one per
        # other top-level value (version, command, seeds and aggregate); its
        # other entries reuse theirs. A writer that rebuilds per entry fails here.
        report, _ = run_verify("sines", random_batch=True, count=25, seed=2)
        for j, entry in enumerate(report.entries):
            change(j, entry)
        cli._layout.cache_clear()
        assert rendered(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"
        assert cli._layout.cache_info().misses == layouts + 4

    def test_memo_is_bounded(self):
        # Every call's command is a layout of its own; an unbounded memo
        # would keep them all.
        assert cli._layout.cache_info().maxsize is not None
        for k in range(200):
            report = cli.RunReport("0.1.0", ["verify", str(k)], None, [{"residual": 0.5}])
            assert rendered(report, "json") == json.dumps(report.to_dict(), indent=2) + "\n"
            info = cli._layout.cache_info()
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_main_writes_file_and_stdout_alike(self, tmp_path, capsys, fmt):
        folder = tmp_path / AWKWARD
        folder.mkdir()
        shape = folder / "shape.json"
        shape.write_text(json.dumps(T345))
        out = folder / "report.out"
        argv = ["derive", "--input", str(shape), "--field", "sines:a",
                "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        written = out.read_text(encoding="utf-8")
        printed = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(written)["command"] == argv + ["--out", str(out)]
            data = json.loads(printed)
            assert data["command"] == argv
            assert printed == json.dumps(data, indent=2) + "\n"
        else:
            assert written == printed
            assert printed.startswith("theorem,seed,residual,passed\nderive,,")

    def test_memory_stays_flat_in_the_report_size(self, tmp_path):
        # The whole-string serializer peaked at about 27 MB on this report:
        # the list of its pieces plus the text.
        report, _ = run_verify("sines", random_batch=True, count=2000, seed=0)
        with open(tmp_path / "report.json", "w", encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                report.render("json", handle)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2_000_000


# Stand-ins that json.dumps cannot write, spelled out in the document text
# afterwards: an integer literal past the int-string digit limit, and
# nesting deeper than the decoder's recursion limit.
BIG_INT, DEEP = "<big int>", "<deep>"
FUZZ_KEYS = ["dim", "vertices", "labels", "hyp_index", "A", "B", "C", "D",
             "matrix", "offset", "gradient", "constant"]
FUZZ_VALUES = st.one_of(
    st.sampled_from([BIG_INT, DEEP, math.nan, math.inf, -math.inf, None, True, False,
                     "", "A", 0, 1, 2, 3, -1, 0.5, 1e308, -5e-324, HUGE_INT]),
    st.floats(),
    st.integers(-4, 20),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3)), max_size=4),
    st.dictionaries(st.sampled_from(FUZZ_KEYS), st.integers(-1, 4), max_size=4),
)


def _locations(value, path=()):
    """Every path into ``value``'s nested dicts and lists, the root first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _locations(item, path + (key,))


@st.composite
def mutated_json(draw, base):
    """The JSON text of ``base`` after up to three mutations: a value
    replaced, a key or item deleted, or a key added."""
    value = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_locations(value))))
        if not path:
            value = draw(FUZZ_VALUES)
            continue
        *parents, last = path
        parent = value
        for key in parents:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del parent[last]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(FUZZ_KEYS))] = draw(FUZZ_VALUES)
        else:
            parent[last] = draw(FUZZ_VALUES)
    digits = draw(st.sampled_from(["9", "-1", "1"])) + "0" * draw(st.integers(4300, 6000))
    depth = draw(st.sampled_from([2_000, 100_000]))
    return (json.dumps(value).replace(json.dumps(BIG_INT), digits)
            .replace(json.dumps(DEEP), "[" * depth + "]" * depth))


# argv for the dispatch fuzz: a head that may parse, then words of the flag
# vocabulary. --t, --f (derive) and --tol are ambiguous abbreviations.
ARGV_HEADS = [[], ["verify"], ["derive"], ["verify", "sines"],
              ["verify", "nd-pythagoras", "--random"],
              ["derive", "--input", "x.json", "--field", "cosines"]]
ARGV_FLAGS = ["--input", "--in", "--random", "--ra", "--count", "--cou", "--seed", "--se",
              "--dim", "--legs", "--tol-abs", "--tol-rel", "--tol", "--t", "--format", "--fo",
              "--f", "--out", "--field", "--fi", "--density", "--dens", "-h", "--help", "--he",
              "--bogus", "-x"]
ARGV_VALUES = ["verify", "derive", "verif", *THEOREMS, "thales", "1", "-1", "2.5", "nan",
               "csv", "scaled", "x.json", "sines:a", "{}", "-", ""]
ARGV_WORDS = st.one_of(
    st.sampled_from([*ARGV_FLAGS, *ARGV_VALUES, "--"]),
    st.builds("{}={}".format, st.sampled_from(ARGV_FLAGS), st.sampled_from(ARGV_VALUES)))


def _parse_outcome(parse, argv: list) -> tuple:
    """``parse(argv)``'s options (None where it exits), exit code (None
    where it returns), stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            options, code = parse(list(argv)), None
        except SystemExit as exc:
            options, code = None, exc.code
    return options, code, stdout.getvalue(), stderr.getvalue()


class TestFuzz:
    """``main`` on mutated shape documents, fields and densities exits 0, 1
    or 2, never with an internal error, and writes strict JSON; argv reaches
    the options that argparse's own parse gives."""

    @given(head=st.sampled_from(ARGV_HEADS), words=st.lists(ARGV_WORDS, max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_dispatch_matches_argparse(self, head, words):
        argv = head + words
        assert _parse_outcome(cli.parse_options, argv) == _parse_outcome(
            lambda args: vars(build_parser().parse_args(args)), argv), argv

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_inputs_exit_cleanly(self, tmp_path_factory, data):
        base = data.draw(st.sampled_from([T345, GENERIC, UNIT_SIMPLEX_2, RIGHT_TETRA,
                                          SKEWED_TETRA]))
        document = {"file": data.draw(mutated_json(base))}
        if data.draw(st.booleans()):
            argv = ["verify", data.draw(st.sampled_from(list(THEOREMS))), "--input", document]
        else:
            # The field and the density take the document's dimension or another.
            dims = st.sampled_from([base["dim"], 2, 3, 5])
            n = data.draw(dims)
            field = data.draw(st.one_of(
                st.sampled_from([*cli.NAMED_FIELDS, "sines:d", "nope"]),
                mutated_json({"matrix": np.eye(n).tolist(), "offset": [0.5] * n})))
            # --field=TEXT: a spec such as -1e+16 is a value, not a flag.
            argv = ["derive", "--input", document, f"--field={field}"]
            if data.draw(st.booleans()):
                n = data.draw(dims)
                argv.append("--density=" + data.draw(mutated_json(
                    {"gradient": [1.0] * n, "constant": 2})))
        got = support.run_cli(main, argv, tmp_path_factory.getbasetemp())
        assert got.code in (0, 1, 2) and got.warnings == (), (argv, got.stderr, got.warnings)
        assert "internal error" not in got.stderr, argv
        if got.code != 2:  # a report that a strict JSON parser reads: no NaN or Infinity
            json.loads(got.stdout, parse_constant=_reject_constant)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_flag_values_exit_cleanly(self, tmp_path_factory, data):
        # verify on a random batch or a document, or derive, with each flag
        # left out or given a drawn value. --count stays small: run_verify
        # holds every instance and entry of a call in memory.
        base = tmp_path_factory.getbasetemp()
        command = data.draw(st.sampled_from([*THEOREMS, "derive"]))
        document = {"file": json.dumps(RIGHT_TETRA if command == "nd-pythagoras" else T345)}
        if command == "derive":
            argv = ["derive", "--input", document, "--field=cosines"]
        elif data.draw(st.booleans()):
            argv = ["verify", command, "--random"]
        else:
            argv = ["verify", command, "--input", document]
        junk = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e400", "-1e400", "abc",
                                "", "1.5", "0x10", "9" * 5000, "-" + "9" * 5000])
        values = {
            "count": st.integers(-2, 4).map(str) | junk,
            "seed": st.integers(-2, 10**30).map(str) | junk,
            "dim": st.integers(-2, 20).map(str) | junk,
            "legs": st.sampled_from(["orthonormal", "scaled", "skewed"]) | junk,
            "tol-abs": st.sampled_from(["0", "1e-300", "1e-12", "1"]) | junk,
            "tol-rel": st.sampled_from(["0", "5e-324", "1e-12", "1e300"]) | junk,
            "format": st.sampled_from(["json", "csv", "xml"]) | junk,
            "out": st.sampled_from([str(base / "report.out"), str(base),
                                    str(base / "missing" / "report.out")]),
        }
        for flag, strategy in values.items():
            if data.draw(st.booleans()):
                argv.append(f"--{flag}={data.draw(strategy)}")  # =: "-inf" is a value
        got = support.run_cli(main, argv, base)  # argparse's rejections exit 2
        assert got.code in (0, 1, 2) and got.warnings == (), (argv, got.stderr, got.warnings)
        assert "internal error" not in got.stderr, argv
        if got.code != 2 and "--format=csv" not in argv:  # strict JSON: no NaN or Infinity
            json.loads(got.written, parse_constant=_reject_constant)
