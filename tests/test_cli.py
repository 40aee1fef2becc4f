"""CLI contract tests: parsing, exit codes, determinism, output formats."""

import json

import numpy as np
import pytest

from shapecalc import DegenerateSimplexError
from shapecalc.cli import (
    ShapeDocument,
    ShapeParseError,
    ShapeValidationError,
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
        t = doc.triangle()
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

    def test_vertex_count_mismatch(self):
        with pytest.raises(ShapeValidationError):
            parse_shape('{"dim": 2, "vertices": [[0,0],[1,0]]}')

    def test_coordinate_count_mismatch(self):
        with pytest.raises(ShapeValidationError):
            parse_shape('{"dim": 2, "vertices": [[0,0],[1,0],[0,1,5]]}')

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
            doc = ShapeDocument(
                dim=dim,
                vertices=verts.tolist(),
                labels={"A": 0, "B": 1, "C": 2} if dim == 2 else None,
                hyp_index=0,
            )
            assert parse_shape(doc.to_json()) == doc

    def test_triangle_requires_dim_2(self):
        doc = parse_shape(json.dumps(RIGHT_TETRA))
        with pytest.raises(ShapeValidationError):
            doc.triangle()

    def test_right_simplex_requires_hyp_index(self):
        doc = parse_shape(json.dumps(UNIT_SIMPLEX_2))
        with pytest.raises(ShapeValidationError):
            doc.right_simplex()


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

    def test_no_source_is_two(self, capsys):
        assert main(["verify", "sines"]) == 2

    def test_degenerate_shape_is_two(self, shape_file):
        degenerate = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
        assert main(["verify", "sines", "--input", shape_file(degenerate)]) == 2

    def test_nonorthogonal_nd_input_is_two(self, shape_file):
        skewed = {
            "dim": 3,
            "vertices": [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.4, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ],
            "hyp_index": 0,
        }
        assert main(["verify", "nd-pythagoras", "--input", shape_file(skewed)]) == 2

    def test_unknown_theorem_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thales"])
        assert exc.value.code == 2

    def test_bad_field_spec_is_two(self, shape_file):
        for spec in ("bogus", '{"matrix": {}, "offset": [0, 0]}'):
            assert (
                main(["derive", "--input", shape_file(T345), "--field", spec])
                == 2
            ), spec

    def test_bad_density_spec_is_two(self, shape_file):
        for spec in (
            "{broken",
            '{"gradient": [0, 0], "constant": null}',
            '{"gradient": [0, 0], "constant": [1]}',
            '{"gradient": [0, 0], "constant": "1"}',
            '{"gradient": {}, "constant": 1}',
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
        "flag, value",
        [("--tol-abs", "nan"), ("--tol-abs", "inf"), ("--tol-rel", "-1"),
         ("--tol-rel", "abc")],
    )
    def test_bad_tolerance_is_two(self, shape_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "pythagoras", "--input", shape_file(T345),
                  flag, value])
        assert exc.value.code == 2


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
