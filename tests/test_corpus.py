"""A committed corpus of CLI calls and their outcomes.

``tests/data/cli_corpus.json`` holds 84 ``cli.main`` calls: the
triangle theorems and nd-pythagoras on random batches, ``verify --input``
on triangle and right-simplex documents, ``derive`` at dims 2 to 16 with
named fields, inline fields and densities, and the calls that exit 2.
Each call is stored as its argv, with a shape document inline in place
of its path, and its exit code, stderr and report (JSON without
``wall_time_s``, or the CSV text). The file also records the numpy
version and the OpenBLAS core that wrote it.

Where numpy and the OpenBLAS core match that record, each call must give
the stored exit code and stderr and a stdout equal byte for byte to the
stored report, written back with its own ``wall_time_s``. Elsewhere, or
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

import contextlib
import ctypes
import glob
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from shapecalc.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"
SHAPE = "shape.json"  # a document's file name, relative to the run's directory

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


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _general_simplex(rng, n: int) -> dict:
    """A jittered standard simplex, rotated, scaled and shifted."""
    points = np.vstack([np.zeros(n), np.eye(n)]) + rng.uniform(-0.25, 0.25, (n + 1, n))
    points = (points - points.mean(axis=0)) @ _rotation(rng, n).T * rng.uniform(0.5, 2.0)
    return {"dim": n, "vertices": (points + rng.uniform(-1.0, 1.0, n)).tolist()}


def _right_simplex(rng, n: int, hyp_index: int) -> dict:
    """A right simplex with legs of lengths in [0.5, 2], its apex at row
    ``hyp_index``, so that the hypotenuse is facet ``hyp_index``."""
    legs = _rotation(rng, n) * rng.uniform(0.5, 2.0, n)[:, None]
    apex = rng.uniform(-1.0, 1.0, n)
    others = list(apex + legs)
    rows = [*others[:hyp_index], apex, *others[hyp_index:]]
    return {"dim": n, "vertices": np.array(rows).tolist(), "hyp_index": hyp_index}


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
    # Calls that exit 2.
    degenerate = {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}
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
        ["derive", "--input", _document(T345), "--field", "pythagoras",
         "--density", '{"gradient": [0, 0], "constant": "1"}'],
        ["verify", "pythagoras", "--input", _document(_scaled(T345, 1e-160))],
        ["verify", "pythagoras", "--input", _document(_scaled(T345, 1e-200))],
        ["derive", "--input", _document(_scaled(T345, 1e-160)), "--field", IDENTITY],
        ["derive", "--input", _document(_scaled(T345, 1e-200)), "--field", IDENTITY],
        ["verify", "pythagoras", "--input", _document(T345), "--tol-abs", "nan"],
    ]
    return calls


# --- running and comparing ----------------------------------------------

def run_call(argv: list, workdir: str) -> tuple[int, str, str]:
    """``cli.main`` in-process on ``argv``, each ``{"file": text}`` written
    to ``SHAPE`` in ``workdir``, which is the working directory meanwhile;
    (exit code, stdout, stderr), argparse's ``SystemExit`` counted as its
    code."""
    args = []
    for item in argv:
        if isinstance(item, dict):
            Path(workdir, SHAPE).write_text(item["file"], encoding="utf-8")
            item = SHAPE
        args.append(item)
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(previous)
    return code, out.getvalue(), err.getvalue()


def stored_report(argv: list, stdout: str):
    """The report as the corpus stores it: JSON without ``wall_time_s``,
    the CSV text, or None where nothing was written."""
    if not stdout or "csv" in argv:
        return stdout or None
    report = json.loads(stdout)
    del report["aggregate"]["wall_time_s"]
    return report


def record(argv: list, workdir: str) -> dict:
    code, stdout, stderr = run_call(argv, workdir)
    return {"argv": argv, "code": code, "stderr": stderr,
            "report": stored_report(argv, stdout)}


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


def corpus_mismatches(exact: bool | None = None) -> list[str]:
    """Every corpus call that does not give its stored outcome: compared
    byte for byte where the environment matches the corpus's (or where
    ``exact`` says so), and within the float bounds elsewhere."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    if exact is None:
        written = corpus["environment"]
        exact = written["openblas_core"] is not None and written == environment()
    mismatches = []
    with tempfile.TemporaryDirectory() as workdir:
        for k, call in enumerate(corpus["calls"]):
            code, stdout, stderr = run_call(call["argv"], workdir)
            if (code, stderr) != (call["code"], call["stderr"]):
                mismatches.append(f"call {k}: exit {code} {stderr!r}, "
                                  f"stored {call['code']} {call['stderr']!r}")
            elif exact:
                if stdout != exact_stdout(call["report"], stdout):
                    mismatches.append(f"call {k}: stdout differs")
            else:
                found = report_mismatches(stored_report(call["argv"], stdout), call["report"])
                mismatches += [f"call {k}: {m}" for m in found]
    return mismatches


def write_corpus() -> None:
    calls = corpus_calls()
    with tempfile.TemporaryDirectory() as workdir:
        records = [record(argv, workdir) for argv in calls]
    lines = [json.dumps(r) for r in records]
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


def test_bounded_comparison_holds_on_the_writing_kernel():
    # The comparison used off the writing environment accepts the calls
    # that match exactly, so its float bounds only ever add slack.
    assert corpus_mismatches(exact=False) == []


def test_calls_give_their_stored_outcome_on_a_second_kernel():
    # The whole corpus under OpenBLAS's Prescott kernels, in a fresh
    # interpreter, compared exactly where the environment matches and
    # within the float bounds elsewhere. Builds without DYNAMIC_ARCH ignore
    # the variable and compare as above.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    script = "import test_corpus; print(test_corpus.corpus_mismatches())"
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    write_corpus()
    print(f"wrote {CORPUS}: {CORPUS.stat().st_size} bytes")
