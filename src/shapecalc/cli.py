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

Each theorem's row of ``theorems.THEOREMS`` owns its inputs: verify reads
its ``flags`` (the ``--random`` options besides ``--count`` and ``--seed``,
with their defaults), ``generate``, ``verify`` and ``document`` reader, and
derive its named ``fields`` (of its ``field_document`` reader). A shape file
parses to a ``ShapeDocument``: its data and its ``simplex``, built once, at
construction. The parser names each option after the ``run_verify`` /
``run_derive`` parameter it sets, so ``main`` passes the parsed options
straight to the run function. ``parse_options`` hands argv after a leading
subcommand name straight to that subcommand's parser, and parses any argv
that this does not settle from the top, so help and usage errors are
argparse's own.

A JSON report is written one value at a time by ``json_text``: one walk
takes the value's numbers and its signature, and the layout, the text
between the numbers, comes from the signature alone, memoized within
``functools.lru_cache``'s default bound. Values with equal signatures, such
as the entries of a batch, share one layout.

Exit codes: 0 all instances pass, 1 at least one verification failure,
2 input / parse / precondition error or a report that cannot be written,
3 internal error: any other exception, reported as one stderr line
``shapecalc: internal error: <Type>: <message>`` with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import ShapeCalcError, ShapeParseError, ShapeValidationError
from .fields import AffineDensity, AffineField
from .geometry import Simplex
from .hadamard import hadamard_derivative
from .theorems import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, THEOREMS

FD_REL_TOL = 1e-6  # finite differences vs boundary, for derive pass/fail

# derive's named proof fields, from the theorem table: "pythagoras",
# "sines:a", ... -> (row, field key), and the list that help and errors show.
NAMED_FIELDS = {f"{name}:{key}" if key else name: (row, key)
                for name, row in THEOREMS.items() for key in row.fields}
FIELD_NAMES = ", ".join(f"{name}:{'|'.join(row.fields)}" if "" not in row.fields
                        else name for name, row in THEOREMS.items())

# Everything that counts as a class-2 failure at the CLI boundary: bad input,
# which the package raises as a ShapeCalcError, and (OSError) a file that
# cannot be read or a report that cannot be written. Anything else is a bug.
INPUT_ERRORS = (ShapeCalcError, OSError)

# json.dumps's spelling of the floats whose repr it does not use.
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A number's token in a layout signature; a None leaf's token is "null".
_NUMBER = None
# A number's place in a layout's text while it is built: encoded keys and
# strings escape every control character, so none of them holds one.
_SLOT = "\x00"


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for plain data (str-keyed dicts, lists,
    str, int, float, bool, None; any other type raises TypeError), with
    ``indent`` the newline and indentation of ``value``'s own line: the
    layout of ``value``'s signature filled with its numbers."""
    signature, numbers = [indent], []
    _walk((value,), signature, numbers)
    pieces = _layout(tuple(signature))
    if not numbers:
        return pieces[0]
    text = repr(numbers)  # ValueError past the int-string digit limit, as in json.dumps
    texts = text[1:-1].split(", ")
    if "n" in text:  # only nan, inf and -inf spell an n
        texts = [_FLOAT_NAMES.get(t, t) for t in texts]
    parts = [None] * (len(pieces) + len(texts))
    parts[::2] = pieces
    parts[1::2] = texts
    return "".join(parts)


def _walk(values, signature: list, numbers: list) -> None:
    """Append the signature tokens of ``values`` to ``signature`` and their
    numbers to ``numbers``, depth first: a dict's keys (a tuple), a list's
    length, ``_NUMBER``, or a leaf's JSON text (True == 1, a length). Tokens
    of two kinds never compare equal, so equal signatures mean one layout."""
    for value in values:
        kind = type(value)
        if kind is float or kind is int:
            signature.append(_NUMBER)
            numbers.append(value)
        elif kind is dict:
            signature.append(tuple(value))
            _walk(value.values(), signature, numbers)
        elif kind is list:
            signature.append(len(value))
            _walk(value, signature, numbers)
        elif kind is str:
            signature.append(encode_basestring_ascii(value))
        elif kind is bool:
            signature.append("true" if value else "false")
        elif value is None:
            signature.append("null")
        else:
            raise TypeError(f"{kind.__name__} is not plain report data")


@functools.lru_cache
def _layout(signature: tuple) -> tuple[str, ...]:
    """The layout of a ``json_text`` signature (its indent, then ``_walk``'s
    tokens): the text of its value as the pieces between the numbers."""
    tokens = iter(signature)

    def text(indent: str) -> str:  # the next value's text, _SLOT for a number
        token = next(tokens)
        if token is _NUMBER:
            return _SLOT
        if type(token) is str:
            return token
        inner = indent + "  "
        if type(token) is int:
            start, end = "[]"
            items = [text(inner) for _ in range(token)]
        else:  # encode_basestring_ascii raises TypeError for non-str keys
            start, end = "{}"
            items = [f"{encode_basestring_ascii(key)}: {text(inner)}" for key in token]
        return f"{start}{inner}{f',{inner}'.join(items)}{indent}{end}" if items else start + end

    return tuple(text(next(tokens)).split(_SLOT))


@dataclass
class ShapeDocument:
    """Parsed shape file: dim, dim+1 vertices, optional triangle labels,
    optional hypotenuse facet index for right simplices. ``simplex`` is
    built from the vertices at construction, which raises on a degenerate
    shape or one whose dimension is not ``dim``, and ``vertices`` are
    stored as its rows, so the two must not change afterwards."""

    dim: int
    vertices: list[list[float]]
    labels: dict[str, int] | None = None
    hyp_index: int | None = None
    simplex: Simplex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.simplex = Simplex(self.vertices)
        _require(s.dim == self.dim, f"document has dim = {self.dim} but {s.dim}-D vertices")
        self.vertices = s.vertices.tolist()


def _require(condition: bool, message: str, parse: bool = False):
    if not condition:
        raise (ShapeParseError if parse else ShapeValidationError)(message)


def _read_shape(path: str) -> ShapeDocument:
    """``parse_shape`` of a file; text that is not UTF-8 is a ``ShapeParseError``."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise ShapeParseError(f"shape file is not UTF-8: {err}") from err
    return parse_shape(text)


def _load_json(text: str, name: str):
    """``json.loads(text)``, or ``ShapeParseError`` for JSON that is invalid,
    nested too deep, or holds an integer past Python's int-string digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
        raise ShapeParseError(f"invalid {name}: {err}") from err


def parse_shape(text: str) -> ShapeDocument:
    """Parse and validate a JSON shape document; the document builds its
    simplex, which checks the vertex count, finiteness and degeneracy."""
    raw = _load_json(text, "JSON")
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
    for v in vertices:
        if len(v) != dim:  # the message is formatted only for a bad vertex
            raise ShapeValidationError(f"every vertex needs {dim} coordinates, got {len(v)}")
    # json.loads gives exact types, so this excludes bool as well.
    _require({type(x) for v in vertices for x in v} <= {int, float},
             "vertex coordinates must be numbers", parse=True)
    coords = _float_array(vertices, "vertex coordinates")

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

    return ShapeDocument(dim=dim, vertices=coords, labels=labels, hyp_index=hyp_index)


@dataclass
class RunReport:
    """Machine-readable outcome of one CLI invocation."""

    version: str
    command: list[str]
    seeds: list[int] | None
    entries: list[dict]
    aggregate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields in declaration order

    def render(self, fmt: str, stream) -> None:
        """Write the report to ``stream`` as JSON (``json.dumps(indent=2)``
        plus a newline) or CSV, one entry at a time, never the whole text."""
        if fmt == "csv":
            stream.write("theorem,seed,residual,passed\n")
            stream.writelines(map(_csv_row, self.entries))
            return
        for i, (key, value) in enumerate(self.to_dict().items()):
            stream.write(f"{',' if i else '{'}\n  {encode_basestring_ascii(key)}: ")
            if key == "entries" and value:
                indent = "\n    "
                stream.writelines(("," if j else "[") + indent + json_text(entry, indent)
                                  for j, entry in enumerate(value))
                stream.write("\n  ]")
            else:
                stream.write(json_text(value, "\n  "))
        stream.write("\n}\n")


def _csv_row(entry: dict) -> str:
    seed = entry.get("seed")
    return (f"{entry['theorem']},{'' if seed is None else seed},"
            f"{entry['residual']!r},{str(entry['passed']).lower()}\n")


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


def run_verify(
    theorem: str,
    *,
    input_path: str | None = None,
    random_batch: bool = False,
    count: int | None = None,
    seed: int | None = None,
    dim: int | None = None,
    legs: str | None = None,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
    command: list[str] | None = None,
) -> tuple[RunReport, int]:
    """Run one verification command; returns (report, exit code 0/1).

    Unset, ``count`` and ``seed`` read 1 and 0 and the row's ``flags`` their
    defaults; an option set but not read (any, with a document) is an input
    error. Input errors raise (the caller maps them to exit code 2).
    """
    if theorem not in THEOREMS:
        raise ShapeValidationError(f"unknown theorem {theorem!r}")
    row = THEOREMS[theorem]
    started = time.perf_counter()
    if input_path is not None and random_batch:
        raise ShapeValidationError("verify takes --input PATH or --random, not both")
    source = " --input" if input_path is not None else ""
    options = {"count": count, "seed": seed, "dim": dim, "legs": legs}
    read = {} if source else {"count": 1, "seed": 0, **row.flags}
    for name, value in options.items():
        if value is not None and name not in read:
            raise ShapeValidationError(f"verify {theorem}{source} does not read --{name}")
    if input_path is not None:
        seeds, instances = None, [row.document(_read_shape(input_path))]
    elif random_batch:
        count, seed, *flags = (default if options[name] is None else options[name]
                               for name, default in read.items())
        if count < 1:
            raise ShapeValidationError(f"--count must be positive, got {count}")
        seeds = [seed + k for k in range(count)]
        instances = [row.generate(s, *flags) for s in seeds]
    else:
        raise ShapeValidationError("verify needs --input PATH or --random")
    entries = []
    for s, report in zip(seeds or [None], row.verify(instances, tol_abs, tol_rel)):
        entry = report.to_dict()
        entry["seed"] = s
        entries.append(entry)
    return _finish_report(command, seeds, entries, started)


def _parse_field_spec(spec: str, doc: ShapeDocument) -> AffineField:
    if spec.lstrip().startswith("{"):
        raw = _load_json(spec, "field JSON")
        _require(isinstance(raw, dict) and "matrix" in raw and "offset" in raw,
                 "field spec needs 'matrix' and 'offset'", parse=True)
        return AffineField(_float_array(raw["matrix"], "field 'matrix'"),
                           _float_array(raw["offset"], "field 'offset'"))
    if spec not in NAMED_FIELDS:
        raise ShapeValidationError(
            f"unknown field spec {spec!r}; use inline JSON or one of {FIELD_NAMES}"
        )
    row, key = NAMED_FIELDS[spec]
    return AffineField.constant(row.fields[key](row.field_document(doc)))


def _parse_density_spec(spec: str | None, dim: int) -> AffineDensity:
    if spec is None:
        return AffineDensity.one(dim)
    raw = _load_json(spec, "density JSON")
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


def base_seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0, as numpy's seeds are."""
    try:
        value = int(text)
    except ValueError:  # argparse's own message for a plain int type
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
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
    doc = _read_shape(input_path)
    xi = _parse_field_spec(field_spec, doc)
    f = _parse_density_spec(density_spec, doc.dim)
    report = hadamard_derivative(doc.simplex, f, xi)
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
    """The CLI's argument parser, built on the first call and then reused.
    Its ``subcommands`` attribute maps each subcommand name to that
    subcommand's parser, the ``choices`` of its subparsers action."""
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
    source = verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", dest="input_path", metavar="PATH",
                        help="shape document file")
    source.add_argument("--random", dest="random_batch", action="store_true",
                        help="generate seeded random instances instead")
    # Unset, these four are None, and run_verify reads the defaults named here.
    verify.add_argument("--count", type=int,
                        help="number of random instances (default 1)")
    verify.add_argument("--seed", type=base_seed,
                        help="base seed; instance k uses seed + k")
    verify.add_argument("--dim", type=int, help="simplex dimension for nd-pythagoras "
                        f"(default {THEOREMS['nd-pythagoras'].flags['dim']})")
    verify.add_argument("--legs", choices=["orthonormal", "scaled"],
                        help="leg mode for random right simplices")

    derive = sub.add_parser("derive", parents=[common],
                            help="full derivative report for one shape")
    derive.add_argument("--input", dest="input_path", metavar="PATH", required=True,
                        help="shape document file")
    derive.add_argument("--field", dest="field_spec", metavar="FIELD", required=True,
                        help=f"named proof field ({FIELD_NAMES}) or inline JSON "
                        '{"matrix": ..., "offset": ...}')
    derive.add_argument("--density", dest="density_spec", metavar="DENSITY",
                        help='inline JSON {"gradient": ..., "constant": ...}; '
                        "defaults to f == 1")
    parser.subcommands = sub.choices
    return parser


def parse_options(argv: list[str]) -> dict:
    """``vars(build_parser().parse_args(argv))``, parsed once: argv after a
    leading subcommand name goes straight to that subcommand's parser, as
    the top-level parser would hand it on. Any argv that this does not
    settle (no subcommand first, a ``--``, an unrecognized argument) is
    parsed again from the top, so help, usage errors and their text are
    argparse's own."""
    parser = build_parser()
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is not None and "--" not in argv:
        options, unrecognized = subparser.parse_known_args(argv[1:])
        if not unrecognized:
            return {"command": argv[0], **vars(options)}
    return vars(parser.parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    options = parse_options(argv)
    run = run_verify if options.pop("command") == "verify" else run_derive
    fmt, out = options.pop("format"), options.pop("out")
    try:
        report, code = run(**options, command=argv)
        # Opened only after a successful run: an input error leaves no file.
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                report.render(fmt, handle)
        else:
            report.render(fmt, sys.stdout)
    except INPUT_ERRORS as err:
        print(f"shapecalc: error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a bug, not bad input: one line, no traceback
        print(f"shapecalc: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
