"""CLI contract tests: parsing, exit codes, determinism, output formats."""

import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from shapecalc import (
    AffineDensity,
    AffineField,
    DegenerateSimplexError,
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
    RENDER_BLOCK,
    THEOREMS,
    ShapeDocument,
    ShapeParseError,
    ShapeValidationError,
    build_parser,
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
        for spec in (
            "bogus",
            '{"matrix": {}, "offset": [0, 0]}',
            f'{{"matrix": [[1, 0], [0, {HUGE_INT}]], "offset": [0, 0]}}',
            f'{{"matrix": [[1, 0], [0, 1]], "offset": [{HUGE_INT}, 0]}}',
        ):
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
    ]

    @staticmethod
    def _run(argv, shape, out):
        if argv[0] == "derive":
            argv = argv[:1] + ["--input", shape] + argv[1:]
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            return exc.code, None
        text = out.read_text()
        if text.startswith("{"):
            data = json.loads(text)
            del data["aggregate"]["wall_time_s"]
            text = json.dumps(data)
        return code, text

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_leaks_no_state(self, shape_file, tmp_path, capsys):
        shape = shape_file(T345)
        out = tmp_path / "report.txt"
        fresh = []
        for argv in self.COMMANDS:
            build_parser.cache_clear()
            fresh.append(self._run(argv, shape, out))
        reused = [self._run(argv, shape, out) for argv in self.COMMANDS]
        assert reused == fresh
        assert [code for code, _ in fresh] == [0, 2, 0, 0, 0]
        assert fresh[0] == fresh[4]


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
        report, _ = run_verify(
            theorem, random_batch=True, count=2, seed=4, dim=16, legs="scaled"
        )
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
        report, _ = run_verify(theorem, random_batch=True, count=count, seed=5,
                               dim=dim, legs="scaled", command=argv)
        if count > 1:  # more than one block of pieces
            pieces = cli.JSON_ENCODER.iterencode(report.to_dict())
            assert sum(1 for _ in pieces) > RENDER_BLOCK
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

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_any_block_size(self, monkeypatch, block):
        report, _ = run_verify("sines", random_batch=True, count=3, seed=2,
                               command=["verify", AWKWARD])
        monkeypatch.setattr(cli, "RENDER_BLOCK", block)
        assert_renders_whole_text(report)

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
