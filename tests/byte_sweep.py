"""Compare the CLI outcomes of two ``shapecalc`` sources, call by call.

Loads the package under ``PARENT_SRC`` and this checkout's ``src`` package
in one process, each copied under its own name (the modules import each
other relatively), and runs every job of the benchmark workloads
(``bench/workloads.py``, read only) plus the triangles-json memory jobs on
both, at each workload seed. Prints every call whose exit code, stdout,
stderr or report differs, the report's ``wall_time_s`` masked, and exits 1
if any does::

    python tests/byte_sweep.py PARENT_SRC --seeds 1 2 3

``--jobs K`` keeps the first K jobs of each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WALL_TIME = re.compile(r'"wall_time_s": [^,\n}]+')


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


def outcome(main, argv: list[str], out: str) -> tuple:
    """(exit code, stdout, stderr, report text) of ``main(argv)``, the
    report read from ``out`` with ``wall_time_s`` masked."""
    path = Path(out)
    path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    report = path.read_text(encoding="utf-8") if path.exists() else None
    if report is not None:
        report = WALL_TIME.sub('"wall_time_s": 0', report)
    return code, stdout.getvalue(), stderr.getvalue(), report


def sweep(parent_src: Path, seeds: list[int], jobs: int | None = None) -> list[str]:
    """The argv of every job whose outcome differs between the package
    under ``parent_src`` and this checkout's, with what differs."""
    workloads = _workloads()
    differences = []
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
                    parent, tree = (outcome(main, job.argv, job.out) for main in mains)
                    fields = [field for field, a, b in zip(
                        ("exit code", "stdout", "stderr", "report"), parent, tree) if a != b]
                    if fields:
                        differences.append(f"{name} seed {seed}: {' '.join(job.argv)}: "
                                           f"{', '.join(fields)} differ")
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
