"""Compare the CLI outcomes of two ``shapecalc`` sources, call by call.

Loads the package under ``PARENT_SRC`` and this checkout's ``src`` package
in one process, each copied under its own name (the modules import each
other relatively), and runs every job of the benchmark workloads
(``bench/workloads.py``, read only) plus the triangles-json memory jobs on
both, at each workload seed, with ``verify <theorem> --input`` of each of
the four theorems on every derive-mixed shape document, then every call of
``tests/data/cli_corpus.json`` once. Prints every call whose exit code, stdout, stderr or report differs,
``wall_time_s`` masked in stdout and report, and exits 1 if any does::

    python tests/byte_sweep.py PARENT_SRC --seeds 1 2 3

``--jobs K`` keeps the first K jobs of each workload, and the verify calls
on the documents of those derive jobs only; every corpus call runs.
Both sources run on one BLAS kernel, so the corpus calls compare exactly on
any kernel, where ``tests/test_corpus.py`` is exact only on the one that
wrote the corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL_TIME = re.compile(r'"wall_time_s": [^,\n}]+')
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
THEOREMS = ("pythagoras", "sines", "cosines", "nd-pythagoras")


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


def corpus_argvs(workdir: Path) -> list[list[str]]:
    """The argv of every corpus call, each inline shape document written
    to a file of its own in ``workdir``."""
    calls = json.loads(CORPUS.read_text(encoding="utf-8"))["calls"]
    argvs = []
    for k, call in enumerate(calls):
        argv = []
        for item in call["argv"]:
            if isinstance(item, dict):
                path = workdir / f"shape-{k}.json"
                path.write_text(item["file"], encoding="utf-8")
                item = str(path)
            argv.append(item)
        argvs.append(argv)
    return argvs


def outcome(main, argv: list[str], out: str | None) -> tuple:
    """(exit code, stdout, stderr, report text) of ``main(argv)``, the
    report read from ``out`` (None without one), with ``wall_time_s``
    masked in stdout and report."""
    path = Path(out) if out else None
    if path:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    report = path.read_text(encoding="utf-8") if path and path.exists() else None
    return code, _masked(stdout.getvalue()), stderr.getvalue(), _masked(report)


def _masked(text: str | None) -> str | None:
    return None if text is None else WALL_TIME.sub('"wall_time_s": 0', text)


def sweep(parent_src: Path, seeds: list[int], jobs: int | None = None) -> list[str]:
    """The argv of every call whose outcome differs between the package
    under ``parent_src`` and this checkout's, with what differs."""
    workloads = _workloads()
    differences = []

    def compare(label: str, argv: list[str], out: str | None) -> None:
        parent, tree = (outcome(main, argv, out) for main in mains)
        fields = [field for field, a, b in zip(
            ("exit code", "stdout", "stderr", "report"), parent, tree) if a != b]
        if fields:
            differences.append(f"{label}: {' '.join(argv)}: {', '.join(fields)} differ")

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
                    compare(f"{name} seed {seed}", job.argv, job.out)
                    if job.kind == "derive":  # argv: derive --input PATH ...
                        for theorem in THEOREMS:
                            compare(f"{name} seed {seed}",
                                    ["verify", theorem, "--input", job.argv[2]], None)
        corpus = Path(scratch, "corpus")
        corpus.mkdir()
        for k, argv in enumerate(corpus_argvs(corpus)):
            compare(f"corpus call {k}", argv, None)
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
