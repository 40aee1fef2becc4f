"""A committed corpus of CLI calls and their outcomes.

``tests/data/cli_corpus.json`` holds 100 ``cli.main`` calls: the
triangle theorems and nd-pythagoras on random batches, ``verify --input``
on triangle and right-simplex documents, ``derive`` at dims 2 to 16 with
named fields, inline fields and densities, on the 3-4-5 triangle
with signed zeros, and the calls that exit 2, mismatched dimensions among them.
No call exits 1: on valid input, exit 1 needs a rounding residue above
a tolerance, a verdict on a rounding edge. Each call is stored as its
argv, with a shape document inline in place of its path, and its exit
code, stderr and report (JSON without ``wall_time_s``, or the CSV text).
The file also records the numpy version and the OpenBLAS core that wrote
it. ``support.run_cli`` runs the calls.

No call may raise a warning. Where numpy and the OpenBLAS core match the
record, each call must give the stored exit code and stderr and a stdout
equal byte for byte to the stored report, written back with its own
``wall_time_s``. Elsewhere, or
where the core name cannot be read, exit codes, stderr, report structure,
strings, integers and verdicts must match exactly and every float within
``FLOAT_BOUND`` (see ``floats_close``). The corpus holds no call whose
verdict sits on a rounding edge: every tolerance is the default, and the
exit-2 messages hold no float that a kernel rounds.

Rewriting the file is an explicit step, and its diff belongs in
CHANGES.md with its reason::

    PYTHONPATH=src python tests/test_corpus.py --write
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import support
from shapecalc.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

EPS = float(np.finfo(float).eps)
# Off the writing environment, a float of a report may move by at most
# FLOAT_BOUND times the largest magnitude among the floats of its report
# entry (of the whole report, for the rest of it): a stand-in for ROADMAP
# item 1's bound until it lands. Under OPENBLAS_CORETYPE=Haswell,
# =Sandybridge and =Prescott the largest such move over this corpus is
# 4.2 eps times that peak.
FLOAT_BOUND = 16 * EPS
# derive's fd route divides the rounding of its image integrals by a step
# of about EPS ** (1/3) times the shape's scale, so these two may move by
# FLOAT_BOUND / EPS ** (1/3) times the peak; the largest move measured is
# about 4 EPS ** (2/3) times it.
FD_KEYS = ("fd_estimate", "residual_bf")
# A CSV row holds only the residual, rounding noise of per-facet terms no
# larger than 16 in every CSV call here: it may move by FLOAT_BOUND * 16.
# The largest move measured is 2 eps.
CSV_RESIDUAL_BOUND = FLOAT_BOUND * 16


def openblas_core() -> str | None:
    """The core name of numpy's bundled OpenBLAS, or None where it cannot
    be read (another BLAS, or a platform without the bundled library)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "openblas_core": openblas_core()}


# --- the calls ----------------------------------------------------------

T345 = {"dim": 2, "vertices": [[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]}
GENERIC = {"dim": 2, "vertices": [[0.1, 0.7], [0.93, -0.31], [-0.55, 0.2]]}
IDENTITY = '{"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}'
DENSITY = '{"gradient": [1, 2], "constant": 3}'
# Three of a right tetrahedron's four rows: one short for dim 3.
RIGHT_TETRA_ROWS = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def _document(doc: dict) -> dict:
    """An argv item that stands for a file holding ``doc``."""
    return {"file": json.dumps(doc)}


def _scaled(doc: dict, scale: float) -> dict:
    return dict(doc, vertices=[[x * scale for x in v] for v in doc["vertices"]])


def _rotation(rng, n: int) -> list[list[float]]:
    """The rows of a random orthogonal matrix: the columns of a standard
    normal matrix, orthonormalized by modified Gram-Schmidt in Python
    floats, so that no BLAS or LAPACK kernel touches its bits. Sums are
    ``math.fsum``, correctly rounded, so no Python version changes them."""
    columns = []
    for g in rng.standard_normal((n, n)).T.tolist():
        for q in columns:
            d = math.fsum(a * b for a, b in zip(g, q))
            g = [a - d * b for a, b in zip(g, q)]
        norm = math.sqrt(math.fsum(a * a for a in g))
        columns.append([a / norm for a in g])
    return [list(row) for row in zip(*columns)]


def _general_simplex(rng, n: int) -> dict:
    """A jittered standard simplex, rotated, scaled and shifted, in Python
    floats from the draws on."""
    points = np.vstack([np.zeros(n), np.eye(n)]) + rng.uniform(-0.25, 0.25, (n + 1, n))
    centred = (points - points.mean(axis=0)).tolist()
    rotation, scale = _rotation(rng, n), rng.uniform(0.5, 2.0)
    shift = rng.uniform(-1.0, 1.0, n).tolist()
    return {"dim": n, "vertices": [
        [math.fsum(x * r for x, r in zip(p, row)) * scale + s for row, s in zip(rotation, shift)]
        for p in centred]}


def _right_simplex(rng, n: int, hyp_index: int) -> dict:
    """A right simplex with legs of lengths in [0.5, 2], its apex at row
    ``hyp_index``, so that the hypotenuse is facet ``hyp_index``."""
    rotation, lengths = _rotation(rng, n), rng.uniform(0.5, 2.0, n).tolist()
    apex = rng.uniform(-1.0, 1.0, n).tolist()
    others = [[a + x * length for a, x in zip(apex, row)]
              for row, length in zip(rotation, lengths)]
    rows = [*others[:hyp_index], apex, *others[hyp_index:]]
    return {"dim": n, "vertices": rows, "hyp_index": hyp_index}


def _inline_field(rng, n: int) -> str:
    return json.dumps({"matrix": (rng.uniform(-1.0, 1.0, (n, n)) / math.sqrt(n)).tolist(),
                       "offset": rng.uniform(-1.0, 1.0, n).tolist()})


def _inline_density(rng, n: int) -> str:
    return json.dumps({"gradient": rng.uniform(-1.0, 1.0, n).tolist(),
                       "constant": float(rng.uniform(0.5, 2.0))})


def corpus_calls() -> list[list]:
    """The argv of every corpus call, a document as ``{"file": text}``."""
    rng = np.random.default_rng(20231)
    calls = []
    # Random triangle batches, in both formats.
    for theorem in ("pythagoras", "sines", "cosines"):
        calls += [["verify", theorem, "--random", "--count", "3", "--seed", "11"],
                  ["verify", theorem, "--random", "--count", "2", "--seed", "90210"],
                  ["verify", theorem, "--random", "--count", "4", "--seed", "7",
                   "--format", "csv"]]
    # Random right simplices, both leg modes.
    for dim in (2, 3, 8, 16):
        for legs in ("orthonormal", "scaled"):
            calls.append(["verify", "nd-pythagoras", "--random", "--dim", str(dim),
                          "--legs", legs, "--count", "1" if dim == 16 else "2",
                          "--seed", str(dim * 100)])
    calls += [["verify", "nd-pythagoras", "--random", "--dim", "16", "--legs", "scaled",
               "--count", "5", "--seed", "31", "--format", "csv"],
              ["verify", "nd-pythagoras", "--random", "--count", "3", "--seed", "5",
               "--format", "csv"]]
    # Triangle documents, labelled and not. The right angle is at C.
    right_345 = dict(T345, labels={"A": 1, "B": 0, "C": 2})
    right_rows = {"dim": 2, "vertices": [[1.25, -0.25], [1.0, 1.0], [0.5, 0.25]]}
    labelled = dict(GENERIC, labels={"A": 2, "B": 0, "C": 1})
    for theorem, docs in [("pythagoras", [right_345, right_rows, _scaled(T345, 1e150)]),
                          ("sines", [labelled, GENERIC, _scaled(GENERIC, 1e-150)]),
                          ("cosines", [labelled, GENERIC, _scaled(T345, 1e100)])]:
        calls += [["verify", theorem, "--input", _document(doc)] for doc in docs]
    # Right-simplex documents, the hypotenuse at several positions.
    for dim, hyp in [(2, 0), (2, 2), (3, 1), (3, 3), (5, 0), (5, 4), (8, 3), (16, 16)]:
        calls.append(["verify", "nd-pythagoras", "--input",
                      _document(_right_simplex(rng, dim, hyp))])
    # derive: named fields.
    for field, doc, density in [("pythagoras", right_345, None),
                                ("pythagoras", right_rows, DENSITY),
                                ("cosines", GENERIC, None),
                                ("sines:a", labelled, None),
                                ("sines:b", labelled, DENSITY),
                                ("sines:c", T345, None)]:
        calls.append(["derive", "--input", _document(doc), "--field", field]
                     + ([] if density is None else ["--density", density]))
    for dim, hyp in [(3, 0), (5, 2), (8, 8), (16, 4)]:
        call = ["derive", "--input", _document(_right_simplex(rng, dim, hyp)),
                "--field", "nd-pythagoras"]
        calls.append(call + (["--density", _inline_density(rng, dim)] if dim == 5 else []))
    # derive: inline fields, with and without a density.
    for dim in (2, 3, 4, 5, 6, 8, 12, 16):
        for with_density in (False, True):
            call = ["derive", "--input", _document(_general_simplex(rng, dim)),
                    "--field", _inline_field(rng, dim)]
            calls.append(call + (["--density", _inline_density(rng, dim)]
                                 if with_density else []))
    calls += [["derive", "--input", _document(T345), "--field", IDENTITY, "--format", "csv"],
              ["derive", "--input", _document(_scaled(T345, 1e-150)), "--field", IDENTITY,
               "--density", DENSITY]]
    # The 3-4-5 triangle with -0.0 for each zero coordinate: the signs of
    # zero that the proof values and the named fields carry into a report.
    signed = {"dim": 2, "vertices": [[x or -0.0 for x in v] for v in T345["vertices"]]}
    calls += [["verify", theorem, "--input", _document(signed)]
              for theorem in ("sines", "cosines", "pythagoras")]
    calls += [["derive", "--input", _document(signed), "--field", field]
              for field in ("pythagoras", "sines:a", "sines:b", "sines:c", "cosines")]
    # Calls that exit 2. The last six are a non-orthogonal leg, a missing
    # hyp_index, dim 3 for a triangle row, a triangle not right at C, a
    # cosines proof that overflows where every side and c^2 fits, and one
    # whose law value would be NaN where its decomposition fits; integer
    # coordinates keep the floats of their messages exact.
    degenerate = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
    unit_tetra = {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    oversized = '{"dim": ' + "9" * 4300 + ', "vertices": [[0, 3], [4, 0], [0, 0]]}'
    nan_text = '{"dim": 2, "vertices": [[0, 3], [4, NaN], [0, 0]]}'
    calls += [
        ["verify", "sines", "--input", _document(degenerate)],
        ["derive", "--input", _document(degenerate), "--field", "cosines"],
        ["verify", "sines", "--input", _document(dict(T345, vertices=T345["vertices"][:2]))],
        ["derive", "--input", _document({"dim": 3, "vertices": RIGHT_TETRA_ROWS}),
         "--field", IDENTITY],
        ["verify", "cosines", "--input", {"file": nan_text}],
        ["derive", "--input", {"file": nan_text.replace("NaN", "-Infinity")},
         "--field", IDENTITY],
        ["derive", "--input", {"file": oversized}, "--field", "cosines"],
        ["verify", "sines", "--input", {"file": oversized}],
        ["verify", "sines", "--random", "--dim", "3"],
        ["verify", "nd-pythagoras", "--input", _document(_right_simplex(rng, 3, 0)),
         "--seed", "0"],
        ["verify", "pythagoras", "--random", "--count", "0"],
        ["derive", "--input", _document(T345), "--field", "bogus"],
        ["derive", "--input", _document(T345), "--field", "sines:d"],
        ["derive", "--input", _document(T345), "--field",
         '{"matrix": [[1, 0, 0], [0, 1, 0]], "offset": [0, 0]}'],
        ["derive", "--input", _document(T345), "--field",
         '{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "offset": [0, 0, 0]}'],
        ["derive", "--input", _document(T345), "--field", IDENTITY,
         "--density", '{"gradient": [1, 2, 3], "constant": 3}'],
        ["derive", "--input", _document(T345), "--field", "pythagoras",
         "--density", '{"gradient": [0, 0], "constant": "1"}'],
        ["verify", "pythagoras", "--input", _document(_scaled(T345, 1e-160))],
        ["verify", "pythagoras", "--input", _document(_scaled(T345, 1e-200))],
        ["derive", "--input", _document(_scaled(T345, 1e-160)), "--field", IDENTITY],
        ["derive", "--input", _document(_scaled(T345, 1e-200)), "--field", IDENTITY],
        ["verify", "pythagoras", "--input", _document(T345), "--tol-abs", "nan"],
        ["verify", "nd-pythagoras", "--input", _document(
            {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 1]],
             "hyp_index": 0})],
        ["verify", "nd-pythagoras", "--input", _document(unit_tetra)],
        ["verify", "sines", "--input", _document(unit_tetra)],
        ["verify", "pythagoras", "--input",
         _document({"dim": 2, "vertices": [[1, 0], [1, 1], [0, 0]]})],
        ["verify", "cosines", "--input", _document(_scaled(T345, 2e153))],
        ["verify", "cosines", "--input", _document({"dim": 2, "vertices": [
            [-4.885836024210497e+153, 1.4439758276114206e+151],
            [-4.202084727505753e+153, 1.286838195075491e+153],
            [4.1033311183986445e+153, -4.299727113573949e+153]]})],
    ]
    return calls


# --- running and comparing ----------------------------------------------

def stored_report(argv: list, stdout: str | None):
    """The report as the corpus stores it: JSON without ``wall_time_s``,
    the CSV text, or None where nothing was written."""
    if not stdout or "csv" in argv:
        return stdout or None
    report = json.loads(stdout)
    del report["aggregate"]["wall_time_s"]
    return report


def stored_call(argv: list, outcome: support.CliOutcome) -> dict:
    """The corpus entry of ``argv`` and its ``outcome``."""
    return {"argv": argv, "code": outcome.code, "stderr": outcome.stderr,
            "report": stored_report(argv, outcome.written)}


def floats_close(observed, stored, bound: float, path: str = "") -> list[str]:
    """Where ``observed`` and ``stored`` differ: in structure, in a string,
    integer, bool or None, or in a float by more than ``bound`` (divided
    by EPS ** (1/3) under an ``FD_KEYS`` key)."""
    if type(observed) is not type(stored):
        return [f"{path}: {type(observed).__name__} != {type(stored).__name__}"]
    if isinstance(stored, dict):
        if list(observed) != list(stored):
            return [f"{path}: keys {list(observed)} != {list(stored)}"]
        return [m for key in stored for m in floats_close(
            observed[key], stored[key], bound / EPS ** (1 / 3) if key in FD_KEYS else bound,
            f"{path}.{key}")]
    if isinstance(stored, list):
        if len(observed) != len(stored):
            return [f"{path}: length {len(observed)} != {len(stored)}"]
        return [m for i, (a, b) in enumerate(zip(observed, stored))
                for m in floats_close(a, b, bound, f"{path}[{i}]")]
    if observed == stored or type(stored) is float and abs(observed - stored) <= bound:
        return []
    return [f"{path}: {observed!r} != {stored!r}"]


def _peak(value) -> float:
    """The largest magnitude among the floats of ``value``."""
    if type(value) is float:
        return abs(value)
    if isinstance(value, (dict, list)):
        return max(map(_peak, value.values() if isinstance(value, dict) else value),
                   default=0.0)
    return 0.0


def report_mismatches(observed, stored) -> list[str]:
    """Where two reports, as ``stored_report`` gives them, differ beyond
    the float bounds. Each entry of a JSON report takes FLOAT_BOUND times
    its own peak, the rest of the report FLOAT_BOUND times the whole
    report's; a CSV report's residuals take CSV_RESIDUAL_BOUND."""
    if isinstance(stored, str) and isinstance(observed, str):
        rows, reference = observed.splitlines(), stored.splitlines()
        if rows[:1] != reference[:1] or len(rows) != len(reference):
            return ["CSV: header or row count"]
        mismatches = []
        for i, (row, ref) in enumerate(zip(rows[1:], reference[1:]), 1):
            a, b = row.split(","), ref.split(",")
            if (len(a) != 4 or a[:2] + a[3:] != b[:2] + b[3:]
                    or abs(float(a[2]) - float(b[2])) > CSV_RESIDUAL_BOUND):
                mismatches.append(f"CSV row {i}: {row!r} != {ref!r}")
        return mismatches
    if not isinstance(stored, dict):
        return [] if observed == stored else ["report"]
    entries = observed.get("entries"), stored.get("entries")
    mismatches = floats_close(dict(observed, entries=None), dict(stored, entries=None),
                              FLOAT_BOUND * _peak(stored))
    if len(entries[0]) != len(entries[1]):
        return mismatches + ["entries: length"]
    for i, (a, b) in enumerate(zip(*entries)):
        mismatches += floats_close(a, b, FLOAT_BOUND * _peak(b), f"entries[{i}]")
    return mismatches


def exact_stdout(stored, stdout: str) -> str:
    """The stdout that ``stored`` stands for: a JSON report written back
    with the observed ``wall_time_s``, as ``json.dumps(indent=2)`` does."""
    if not isinstance(stored, dict):
        return stored or ""
    report = json.loads(json.dumps(stored))
    report["aggregate"]["wall_time_s"] = json.loads(stdout)["aggregate"]["wall_time_s"]
    return json.dumps(report, indent=2) + "\n"


def outcome_mismatches(outcome: support.CliOutcome, call: dict, exact: bool) -> list[str]:
    """Where ``outcome`` does not give the stored outcome of ``call``, each
    as "where: what": ``warnings``, ``code``, ``stderr``, or ``report`` or
    a path in it. Its exit code and stderr must match exactly and it may
    raise no warning; its report must match byte for byte where ``exact``
    says so, and within the float bounds elsewhere."""
    if outcome.warnings:
        return [f"warnings: {list(outcome.warnings)}"]
    mismatches = [f"{key}: {observed!r}, stored {call[key]!r}"
                  for key, observed in (("code", outcome.code), ("stderr", outcome.stderr))
                  if observed != call[key]]
    report = stored_report(call["argv"], outcome.written)
    if type(report) is not type(call["report"]):
        return mismatches + [f"report: {type(report).__name__}, "
                             f"stored {type(call['report']).__name__}"]
    if exact:
        same = outcome.written == exact_stdout(call["report"], outcome.written)
        return mismatches + ([] if same else ["report: differs from the stored one"])
    return mismatches + report_mismatches(report, call["report"])


def _exact(corpus: dict) -> bool:
    """Whether this environment is the one that wrote ``corpus``."""
    written = corpus["environment"]
    return written["openblas_core"] is not None and written == environment()


def corpus_mismatches(exact: bool | None = None) -> list[str]:
    """Every corpus call that does not give its stored outcome: compared
    byte for byte where the environment matches the corpus's (or where
    ``exact`` says so), and within the float bounds elsewhere."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    if exact is None:
        exact = _exact(corpus)
    with tempfile.TemporaryDirectory() as workdir:
        return [f"call {k}: {m}" for k, call in enumerate(corpus["calls"])
                for m in outcome_mismatches(support.run_cli(main, call["argv"], workdir),
                                            call, exact)]


def outcome_changes(outcomes: list[tuple[list, support.CliOutcome]]) -> list[str]:
    """Each stored call whose outcome ``outcomes`` (argv and outcome, in
    corpus order) changes, as "call k: " and which of its ``argv``,
    ``code``, ``stderr`` and ``report`` change, by ``outcome_mismatches``."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    exact = _exact(corpus)
    changes = [] if len(outcomes) == len(corpus["calls"]) else [
        f"calls: {len(corpus['calls'])} stored, {len(outcomes)} now"]
    for k, (call, (argv, outcome)) in enumerate(zip(corpus["calls"], outcomes)):
        if call["argv"] != argv:
            changes.append(f"call {k}: argv")
            continue
        where = dict.fromkeys(key if key in ("code", "stderr") else "report" for key in (
            m.split(": ")[0] for m in outcome_mismatches(outcome, call, exact)))
        if where:
            changes.append(f"call {k}: {', '.join(where)}")
    return changes


def write_corpus() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        outcomes = [(argv, support.run_cli(main, argv, workdir)) for argv in corpus_calls()]
    warned = [argv for argv, outcome in outcomes if outcome.warnings]
    if warned:
        sys.exit(f"calls that warn: {warned}")
    if CORPUS.exists():
        print("\n".join(outcome_changes(outcomes)) or "no stored outcome changes")
    lines = [json.dumps(stored_call(argv, outcome)) for argv, outcome in outcomes]
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text('{"environment": ' + json.dumps(environment()) + ',\n "calls": [\n'
                      + ",\n".join(lines) + "\n]}\n", encoding="utf-8")


# --- tests ----------------------------------------------------------------

def test_calls_give_their_stored_outcome():
    assert corpus_mismatches() == []


def test_corpus_matches_its_calls():
    # The file holds exactly the calls that corpus_calls() lists.
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [call["argv"] for call in corpus["calls"]] == json.loads(
        json.dumps(corpus_calls()))
    assert len(corpus["calls"]) <= 100


def test_rewrite_names_each_changed_call():
    # What ``--write`` prints before it overwrites the file: nothing for
    # the stored outcomes, then only what each altered call changes.
    with tempfile.TemporaryDirectory() as workdir:
        outcomes = [(argv, support.run_cli(main, argv, workdir)) for argv in corpus_calls()]
    assert outcome_changes(outcomes) == []
    argv, first = outcomes[0]
    outcomes[0] = argv, first._replace(stdout=first.stdout.replace("true", "false", 1))
    outcomes[1] = ["verify", "sines", "--random"], outcomes[1][1]
    outcomes[97] = outcomes[97][0], outcomes[97][1]._replace(code=3)
    outcomes[98] = outcomes[98][0], outcomes[98][1]._replace(code=0, stderr="")
    assert outcome_changes(outcomes) == [
        "call 0: report", "call 1: argv", "call 97: code", "call 98: code, stderr"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_stored_reports_are_standard_json():
    # No stored report holds NaN or Infinity, which a strict JSON parser
    # rejects; nothing else in the file does either, so it is read whole.
    json.loads(CORPUS.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def test_bounded_comparison_holds_on_the_writing_kernel():
    # The comparison used off the writing environment accepts the calls
    # that match exactly, so its float bounds only ever add slack.
    assert corpus_mismatches(exact=False) == []


def test_calls_give_their_stored_outcome_on_a_second_kernel():
    # The whole corpus under OpenBLAS's Prescott kernels, compared exactly
    # where the environment matches and within the float bounds elsewhere.
    script = "import test_corpus; print(test_corpus.corpus_mismatches())"
    result = support.run_on_second_kernel(script, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    write_corpus()
    print(f"wrote {CORPUS}: {CORPUS.stat().st_size} bytes")
