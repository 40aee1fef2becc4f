"""Command-line front end.

Subcommands
-----------
``verify {pythagoras|sines|cosines|nd-pythagoras}``
    Verify a theorem on a shape file (``--input``) or on a seeded random
    batch (``--random --count K --seed S``).
``derive``
    Full shape-derivative report (per-facet boundary terms, the three
    totals, residuals) for a shape file, a field spec, and an optional
    density spec.

Exit codes: 0 all instances pass, 1 at least one verification failure,
2 input / parse / precondition error or a report that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import __version__
from .errors import ShapeParseError, ShapeValidationError
from .fields import (
    AffineDensity,
    AffineField,
    cosines_field,
    nd_pythagoras_field,
    pythagoras_field,
    sines_field,
)
from .geometry import Simplex, Triangle
from .hadamard import hadamard_derivative
from .theorems import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    RightSimplexSpec,
    random_right_simplex,
    random_triangle,
    verify_law_of_cosines,
    verify_law_of_sines,
    verify_nd_pythagoras,
    verify_pythagoras,
)

FD_REL_TOL = 1e-6  # finite differences vs boundary, for derive pass/fail

# Everything that counts as a class-2 failure at the CLI boundary: bad input,
# and (OSError) a file that cannot be read or a report that cannot be
# written. Every ShapeCalcError is a ValueError. ROADMAP Open item 4 narrows
# this.
INPUT_ERRORS = (ValueError, OSError)

# The encoder json.dumps(indent=2) builds, made once. Its pure-Python
# iterencode yields the text in small pieces; render joins RENDER_BLOCK of
# them per write.
JSON_ENCODER = json.JSONEncoder(indent=2)
RENDER_BLOCK = 4096


@dataclass
class ShapeDocument:
    """Parsed shape file: dim, dim+1 vertices, optional triangle labels,
    optional hypotenuse facet index for right simplices. ``simplex()`` is
    built once and kept, so the vertices must not change afterwards."""

    dim: int
    vertices: list[list[float]]
    labels: dict[str, int] | None = None
    hyp_index: int | None = None
    _simplex: Simplex | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def to_dict(self) -> dict:
        doc: dict = {"dim": self.dim, "vertices": self.vertices}
        if self.labels is not None:
            doc["labels"] = self.labels
        if self.hyp_index is not None:
            doc["hyp_index"] = self.hyp_index
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def simplex(self) -> Simplex:
        """The document's simplex, built on the first call and then kept."""
        if self._simplex is None:
            self._simplex = Simplex(np.array(self.vertices))
        return self._simplex

    def triangle(self) -> Triangle:
        if self.dim != 2:
            raise ShapeValidationError(
                f"triangle theorems need dim = 2, document has dim = {self.dim}"
            )
        labels = self.labels or {"A": 0, "B": 1, "C": 2}
        return Triangle(
            self.vertices[labels["A"]],
            self.vertices[labels["B"]],
            self.vertices[labels["C"]],
        )

    def right_simplex(self) -> RightSimplexSpec:
        if self.hyp_index is None:
            raise ShapeValidationError(
                "nd-pythagoras needs 'hyp_index' in the shape document"
            )
        verts = np.array(self.vertices)
        apex = verts[self.hyp_index]  # hypotenuse facet is opposite the apex
        legs = np.delete(verts, self.hyp_index, axis=0) - apex
        return RightSimplexSpec(apex=apex, legs=legs)


def _require(condition: bool, message: str, parse: bool = False):
    if not condition:
        raise (ShapeParseError if parse else ShapeValidationError)(message)


def parse_shape(text: str) -> ShapeDocument:
    """Parse and validate a JSON shape document; the simplex is constructed
    here to surface degeneracy early, and the document keeps it."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ShapeParseError(f"invalid JSON: {err}") from err
    _require(isinstance(raw, dict), "shape document must be a JSON object", parse=True)
    _require("dim" in raw and "vertices" in raw,
             "shape document needs 'dim' and 'vertices'", parse=True)
    dim = raw["dim"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 2,
             f"'dim' must be an integer >= 2, got {dim!r}", parse=True)
    vertices = raw["vertices"]
    _require(isinstance(vertices, list)
             and all(isinstance(v, list) for v in vertices),
             "'vertices' must be a list of coordinate lists", parse=True)
    _require(len(vertices) == dim + 1,
             f"expected {dim + 1} vertices for dim {dim}, got {len(vertices)}")
    coords = []
    for v in vertices:
        _require(len(v) == dim,
                 f"every vertex needs {dim} coordinates, got {len(v)}")
        _require(all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     for x in v),
                 "vertex coordinates must be numbers", parse=True)
        row = _float_array(v, "vertex coordinates")
        _require(np.isfinite(row).all(), "vertex coordinates must be finite")
        coords.append(row.tolist())

    labels = raw.get("labels")
    if labels is not None:
        _require(isinstance(labels, dict), "'labels' must be an object", parse=True)
        _require(set(labels) == {"A", "B", "C"},
                 f"'labels' must map exactly A, B, C, got {sorted(labels)}")
        indices = list(labels.values())
        _require(all(isinstance(i, int) and not isinstance(i, bool)
                     and 0 <= i <= dim for i in indices)
                 and len(set(indices)) == 3,
                 "'labels' must hold three distinct vertex indices")
        labels = {k: labels[k] for k in ("A", "B", "C")}

    hyp_index = raw.get("hyp_index")
    if hyp_index is not None:
        _require(isinstance(hyp_index, int) and not isinstance(hyp_index, bool)
                 and 0 <= hyp_index <= dim,
                 f"'hyp_index' must be a facet index in 0..{dim}")

    doc = ShapeDocument(dim=dim, vertices=coords, labels=labels,
                        hyp_index=hyp_index)
    doc.simplex()  # degeneracy check
    return doc


@dataclass
class RunReport:
    """Machine-readable outcome of one CLI invocation."""

    version: str
    command: list[str]
    seeds: list[int] | None
    entries: list[dict]
    aggregate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "seeds": self.seeds,
            "entries": self.entries,
            "aggregate": self.aggregate,
        }

    def render(self, fmt: str, stream) -> None:
        """Write the report to ``stream`` as JSON (``json.dumps(indent=2)``
        plus a newline) or CSV, while encoding it: neither the whole text
        nor the list of its pieces is ever held."""
        if fmt == "csv":
            stream.write("theorem,seed,residual,passed\n")
            _write_blocks(map(_csv_row, self.entries), stream)
        else:
            _write_blocks(JSON_ENCODER.iterencode(self.to_dict()), stream)
            stream.write("\n")


def _csv_row(entry: dict) -> str:
    seed = entry.get("seed")
    return (f"{entry['theorem']},{'' if seed is None else seed},"
            f"{entry['residual']!r},{str(entry['passed']).lower()}\n")


def _write_blocks(pieces, stream) -> None:
    # No piece is empty, so an empty block means the pieces are used up.
    while block := "".join(islice(pieces, RENDER_BLOCK)):
        stream.write(block)


def _finish_report(command, seeds, entries, started) -> tuple[RunReport, int]:
    pass_count = sum(1 for e in entries if e["passed"])
    aggregate = {
        "count": len(entries),
        "pass_count": pass_count,
        "max_abs_residual": max(abs(e["residual"]) for e in entries),
        "wall_time_s": time.perf_counter() - started,
    }
    report = RunReport(
        version=__version__,
        command=list(command or []),
        seeds=seeds,
        entries=entries,
        aggregate=aggregate,
    )
    return report, 0 if pass_count == len(entries) else 1


# theorem -> (random instance from (seed, dim, legs), verifier taking
# (instance, tol_abs, tol_rel), instance from a ShapeDocument). The lambdas
# look the functions up by name when called, so a function rebound on this
# module after import (by a tracer or a test) is the one that runs.
THEOREM_TABLE = {
    "pythagoras": (lambda seed, dim, legs: random_triangle(seed, "right"),
                   lambda *args: verify_pythagoras(*args),
                   ShapeDocument.triangle),
    "sines": (lambda seed, dim, legs: random_triangle(seed, "general"),
              lambda *args: verify_law_of_sines(*args),
              ShapeDocument.triangle),
    "cosines": (lambda seed, dim, legs: random_triangle(seed, "general"),
                lambda *args: verify_law_of_cosines(*args),
                ShapeDocument.triangle),
    "nd-pythagoras": (lambda *args: random_right_simplex(*args),
                      lambda *args: verify_nd_pythagoras(*args),
                      ShapeDocument.right_simplex),
}
THEOREMS = tuple(THEOREM_TABLE)


def run_verify(
    theorem: str,
    *,
    input_path: str | None = None,
    random_batch: bool = False,
    count: int = 1,
    seed: int = 0,
    dim: int = 3,
    legs: str = "orthonormal",
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    command: list[str] | None = None,
) -> tuple[RunReport, int]:
    """Run one verification command; returns (report, exit code 0/1).

    Input errors raise (the caller maps them to exit code 2).
    """
    if theorem not in THEOREM_TABLE:
        raise ShapeValidationError(f"unknown theorem {theorem!r}")
    generate, verify, from_document = THEOREM_TABLE[theorem]
    started = time.perf_counter()
    seeds = None
    if input_path is not None:
        with open(input_path, "r", encoding="utf-8") as handle:
            doc = parse_shape(handle.read())
        instances = [(None, from_document(doc))]
    elif random_batch:
        if count < 1:
            raise ShapeValidationError(f"--count must be positive, got {count}")
        seeds = [seed + k for k in range(count)]
        # Lazy, so each instance is generated just before it is verified.
        instances = ((s, generate(s, dim, legs)) for s in seeds)
    else:
        raise ShapeValidationError("verify needs --input PATH or --random")
    entries = []
    for s, instance in instances:
        entry = verify(instance, tol_abs, tol_rel).to_dict()
        entry["seed"] = s
        entries.append(entry)
    return _finish_report(command, seeds, entries, started)


def _parse_field_spec(spec: str, doc: ShapeDocument) -> AffineField:
    if spec.lstrip().startswith("{"):
        try:
            raw = json.loads(spec)
        except json.JSONDecodeError as err:
            raise ShapeParseError(f"invalid field JSON: {err}") from err
        _require(isinstance(raw, dict) and "matrix" in raw and "offset" in raw,
                 "field spec needs 'matrix' and 'offset'", parse=True)
        return AffineField(_float_array(raw["matrix"], "field 'matrix'"),
                           _float_array(raw["offset"], "field 'offset'"))
    if spec == "pythagoras":
        return pythagoras_field(doc.triangle())
    if spec.startswith("sines:"):
        return sines_field(doc.triangle(), spec.split(":", 1)[1])
    if spec == "cosines":
        return cosines_field(doc.triangle())
    if spec == "nd-pythagoras":
        if doc.hyp_index is None:
            raise ShapeValidationError(
                "field 'nd-pythagoras' needs 'hyp_index' in the shape document"
            )
        return nd_pythagoras_field(doc.simplex(), doc.hyp_index)
    raise ShapeValidationError(
        f"unknown field spec {spec!r}; use inline JSON or one of "
        "pythagoras, sines:a|b|c, cosines, nd-pythagoras"
    )


def _parse_density_spec(spec: str | None, dim: int) -> AffineDensity:
    if spec is None:
        return AffineDensity.one(dim)
    try:
        raw = json.loads(spec)
    except json.JSONDecodeError as err:
        raise ShapeParseError(f"invalid density JSON: {err}") from err
    _require(isinstance(raw, dict) and "gradient" in raw and "constant" in raw,
             "density spec needs 'gradient' and 'constant'", parse=True)
    constant = raw["constant"]
    _require(isinstance(constant, (int, float)) and not isinstance(constant, bool),
             f"density 'constant' must be a number, got {constant!r}", parse=True)
    return AffineDensity(_float_array(raw["gradient"], "density 'gradient'"),
                         _float_array(constant, "density 'constant'"))


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except OverflowError as err:
        raise ShapeValidationError(f"{name} must fit in a float: {err}") from err
    except (TypeError, ValueError) as err:
        raise ShapeParseError(f"{name} must hold numbers: {err}") from err


def tolerance(text: str) -> float:
    """argparse type of ``--tol-abs`` / ``--tol-rel``: finite and >= 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def run_derive(
    input_path: str,
    field_spec: str,
    density_spec: str | None = None,
    *,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    command: list[str] | None = None,
) -> tuple[RunReport, int]:
    """Run one derivative command; returns (report, exit code 0/1).

    An instance passes when the boundary/volume residual stays within
    tol_abs + tol_rel * (1 + |boundary total|) and the finite-difference
    residual within max(tol_abs, FD_REL_TOL * (1 + |boundary total|)).
    """
    started = time.perf_counter()
    with open(input_path, "r", encoding="utf-8") as handle:
        doc = parse_shape(handle.read())
    xi = _parse_field_spec(field_spec, doc)
    f = _parse_density_spec(density_spec, doc.dim)
    report = hadamard_derivative(doc.simplex(), f, xi)
    budget = 1.0 + abs(report.boundary_total)
    passed = (
        report.residual_bv <= tol_abs + tol_rel * budget
        and report.residual_bf <= max(tol_abs, FD_REL_TOL * budget)
    )
    entry = report.to_dict()
    entry.update(
        theorem="derive",
        seed=None,
        residual=report.residual_bv,
        passed=passed,
    )
    return _finish_report(command, None, [entry], started)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="shapecalc",
        description="Shape-derivative computations and theorem verification "
        "on simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=tolerance, default=DEFAULT_TOL_ABS,
                        help="absolute residual tolerance (default %(default)s)")
    common.add_argument("--tol-rel", type=tolerance, default=DEFAULT_TOL_REL,
                        help="relative residual tolerance (default %(default)s)")
    common.add_argument("--format", choices=["json", "csv"], default="json",
                        help="report format (default json)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")

    verify = sub.add_parser("verify", parents=[common],
                            help="verify a theorem on one shape or a batch")
    verify.add_argument("theorem", choices=THEOREMS)
    verify.add_argument("--input", metavar="PATH", help="shape document file")
    verify.add_argument("--random", action="store_true",
                        help="generate seeded random instances instead")
    verify.add_argument("--count", type=int, default=1,
                        help="number of random instances (default 1)")
    verify.add_argument("--seed", type=int, default=0,
                        help="base seed; instance k uses seed + k")
    verify.add_argument("--dim", type=int, default=3,
                        help="simplex dimension for nd-pythagoras (default 3)")
    verify.add_argument("--legs", choices=["orthonormal", "scaled"],
                        default="orthonormal",
                        help="leg mode for random right simplices")

    derive = sub.add_parser("derive", parents=[common],
                            help="full derivative report for one shape")
    derive.add_argument("--input", metavar="PATH", required=True,
                        help="shape document file")
    derive.add_argument("--field", required=True,
                        help="named proof field (pythagoras, sines:a|b|c, "
                        "cosines, nd-pythagoras) or inline JSON "
                        '{"matrix": ..., "offset": ...}')
    derive.add_argument("--density",
                        help='inline JSON {"gradient": ..., "constant": ...}; '
                        "defaults to f == 1")
    return parser


def _dispatch(args: argparse.Namespace, argv: list[str]) -> tuple[RunReport, int]:
    if args.command == "verify":
        return run_verify(
            args.theorem,
            input_path=args.input,
            random_batch=args.random,
            count=args.count,
            seed=args.seed,
            dim=args.dim,
            legs=args.legs,
            tol_abs=args.tol_abs,
            tol_rel=args.tol_rel,
            command=argv,
        )
    return run_derive(
        args.input,
        args.field,
        args.density,
        tol_abs=args.tol_abs,
        tol_rel=args.tol_rel,
        command=argv,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        report, code = _dispatch(args, argv)
        # Opened only after a successful run: an input error leaves no file.
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                report.render(args.format, handle)
        else:
            report.render(args.format, sys.stdout)
    except INPUT_ERRORS as err:
        print(f"shapecalc: error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
