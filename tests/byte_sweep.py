"""Compare the CLI outcomes of two ``shapecalc`` sources, call by call.

Loads the package under ``PARENT_SRC`` and this checkout's ``src`` package
in one process, each copied under its own name (the modules import each
other relatively), and runs every job of the benchmark workloads
(``bench/workloads.py``, read only) plus the triangles-json memory jobs on
both, at each workload seed, with ``verify <theorem> --input`` of each of
the four theorems on every derive-mixed shape document, then every call of
``tests/data/cli_corpus.json`` once, then each argv of ``PARSER_ARGV``, the
paths through argparse that neither the workloads nor the corpus take
(help, usage errors, abbreviations, ``--``, unknown flags, a missing
subcommand). Prints every call whose exit code,
stdout, stderr, report or warnings differ, ``wall_time_s`` masked in
stdout and report, and exits 1 if any does::

    python tests/byte_sweep.py PARENT_SRC --seeds 1 2 3

Each such line also says whether this checkout's outcome passes the
corpus's off-kernel rule against the parent's (``test_corpus.
outcome_mismatches``: exit code and stderr exact, no warning, floats within
``FLOAT_BOUND`` times their report entry's peak, CSV residuals within
``CSV_RESIDUAL_BOUND``): "within the corpus float bound", or "beyond the
corpus float bound at" the first paths that fail it.

``--jobs K`` keeps the first K jobs of each workload, and the verify calls
on the documents of those derive jobs only; every corpus call and every
parser-path argv runs.
Both sources run on one BLAS kernel, so the corpus calls compare exactly on
any kernel, where ``tests/test_corpus.py`` is exact only on the one that
wrote the corpus.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the runner and the rule import shapecalc

import support  # noqa: E402
from test_corpus import CORPUS, outcome_mismatches, stored_call  # noqa: E402

WALL_TIME = re.compile(r'"wall_time_s": [^,\n}]+')
THEOREMS = ("pythagoras", "sines", "cosines", "nd-pythagoras")
T345 = {"file": json.dumps({"dim": 2, "vertices": [[0, 3], [4, 0], [0, 0]],
                            "labels": {"A": 0, "B": 1, "C": 2}})}
# argv that reach argparse's help, its usage errors and its less common
# spellings; of the abbreviated calls, 13 and 15 print a JSON report and 14
# a CSV one.
PARSER_ARGV = [
    [], ["--help"], ["-h"], ["verify", "--help"], ["derive", "-h"],
    ["verify", "sines", "--he"],
    ["verify"], ["verif", "sines", "--random"], ["verify", "thales", "--random"],
    ["--random", "verify", "sines"], ["verify", "sines", "--random", "extra"],
    ["verify", "sines", "--random", "--bogus", "1"], ["derive", "-x"],
    ["verify", "sines", "--random", "--cou", "2", "--se", "3"],
    ["verify", "cosines", "--random", "--count=2", "--fo=csv"],
    ["derive", "--in", T345, "--fi", "sines:a", "--dens", '{"gradient": [1, 2], "constant": 3}'],
    ["derive", "--input", T345, "--f", "pythagoras"],  # ambiguous: --field, --format
    ["verify", "sines", "--random", "--", "--count", "2"],
    ["verify", "--", "sines", "--random"], ["--", "verify", "sines", "--random"],
    ["verify", "sines", "--random", "--count", "two"],
    ["verify", "sines", "--random", "--tol-abs=-1"],
    ["verify", "sines", "--random", "--input", "x.json"],
    ["derive", "--field", "pythagoras"],
]


def _workloads():
    spec = importlib.util.spec_from_file_location("_sweep_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_main(src: Path, name: str, packages: Path):
    """``cli.main`` of the ``shapecalc`` package under ``src``, copied to
    ``packages / name`` and imported as ``name``."""
    shutil.copytree(Path(src) / "shapecalc", packages / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    _forget(name)  # a copy that an earlier sweep imported
    sys.path.insert(0, str(packages))
    try:
        return importlib.import_module(f"{name}.cli").main
    finally:
        sys.path.remove(str(packages))


def _forget(name: str) -> None:
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]


def _masked(text: str | None) -> str | None:
    return None if text is None else WALL_TIME.sub('"wall_time_s": 0', text)


def judged(argv: list, parent: support.CliOutcome, tree: support.CliOutcome) -> str:
    """Whether ``tree`` passes the corpus's off-kernel rule against
    ``parent``, and if not, the first paths where it fails."""
    try:
        mismatches = outcome_mismatches(tree, stored_call(argv, parent), exact=False)
    except (ValueError, KeyError):  # a JSON report that does not parse, or has no aggregate
        mismatches = ["report: unreadable"]
    if not mismatches:
        return "within the corpus float bound"
    return "beyond the corpus float bound at " + ", ".join(
        m.split(": ")[0] for m in mismatches[:3]) + (" ..." if len(mismatches) > 3 else "")


def sweep(parent_src: Path, seeds: list[int], jobs: int | None = None) -> list[str]:
    """The argv of every call whose outcome differs between the package
    under ``parent_src`` and this checkout's, with what differs."""
    workloads = _workloads()
    differences = []

    def compare(label: str, argv: list, workdir: Path) -> None:
        parent, tree = (support.run_cli(main, argv, workdir) for main in mains)
        masked = (o._replace(stdout=_masked(o.stdout), report=_masked(o.report))
                  for o in (parent, tree))
        fields = [field for field, a, b in zip(
            ("exit code", "stdout", "stderr", "report", "warnings"), *masked) if a != b]
        if fields:
            shown = " ".join(a if isinstance(a, str) else "<document>" for a in argv)
            differences.append(f"{label}: {shown}: {', '.join(fields)} differ; "
                               + judged(argv, parent, tree))

    with tempfile.TemporaryDirectory() as scratch:
        packages = Path(scratch, "packages")
        mains = (load_main(parent_src, "shapecalc_parent", packages),
                 load_main(ROOT / "src", "shapecalc_tree", packages))
        for seed in seeds:
            for name in workloads.WORKLOADS:
                workdir = Path(scratch, f"{name}-{seed}")
                workdir.mkdir()
                built = workloads.build(name, seed, workdir)[:jobs]
                if name == "triangles-json":
                    built += workloads.memory_jobs(name, seed, workdir, built)
                for job in built:
                    compare(f"{name} seed {seed}", job.argv, workdir)
                    if job.kind == "derive":  # argv: derive --input PATH ...
                        for theorem in THEOREMS:
                            compare(f"{name} seed {seed}",
                                    ["verify", theorem, "--input", job.argv[2]], workdir)
        calls = json.loads(CORPUS.read_text(encoding="utf-8"))["calls"]
        for k, call in enumerate(calls):
            compare(f"corpus call {k}", call["argv"], Path(scratch))
        for k, argv in enumerate(PARSER_ARGV):
            compare(f"parser path {k}", argv, Path(scratch))
    for name in ("shapecalc_parent", "shapecalc_tree"):
        _forget(name)
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path,
                        help="the src directory that holds the parent's shapecalc")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="workload seeds (default 1 2 3)")
    parser.add_argument("--jobs", type=int, help="first jobs of each workload only")
    args = parser.parse_args(argv)
    differences = sweep(args.parent_src, args.seeds, args.jobs)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
