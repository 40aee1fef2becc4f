"""``tests/byte_sweep.py`` stays runnable, sees a changed report and labels
each difference by the corpus's float rule."""

import math
import shutil
from pathlib import Path

import byte_sweep

SRC = Path(__file__).resolve().parents[1] / "src"


def _changed_copy(tmp_path, module: str, old: str, new: str) -> str:
    """A copy of the package under ``tmp_path`` with ``old`` replaced by
    ``new`` in ``module``, once."""
    shutil.copytree(SRC / "shapecalc", tmp_path / "shapecalc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "shapecalc" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return str(tmp_path)


def test_tree_against_itself_has_no_differences(capsys):
    assert byte_sweep.main([str(SRC), "--seeds", "1", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == "0 differences\n"


def test_changed_version_differs_in_every_json_report(tmp_path, capsys):
    parent = _changed_copy(tmp_path, "__init__.py", '__version__ = "', '__version__ = "0+')
    assert byte_sweep.main([parent, "--seeds", "1", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # The first triangles-json and derive-mixed jobs and the three
    # triangles-json memory jobs, then verify sines and cosines on that
    # derive job's document (a general triangle: pythagoras and nd-pythagoras
    # exit 2), then the 66 corpus calls that print a JSON report; a CSV
    # report holds no version, and every other corpus call exits 2. Last,
    # the two parser-path calls that print a JSON report.
    assert lines[-1] == "75 differences"
    beyond = "differ; beyond the corpus float bound at .version"
    assert all(line.endswith(f": report {beyond}") for line in lines[:5])
    assert [line.split(" --input ")[0] for line in lines[5:7]] == [
        "derive-mixed seed 1: verify sines", "derive-mixed seed 1: verify cosines"]
    assert all(line.endswith(f": stdout {beyond}") for line in lines[5:7])
    assert all(line.startswith("corpus call ") and line.endswith(f": stdout {beyond}")
               for line in lines[7:-3])
    assert [line.split(":")[0] for line in lines[-3:-1]] == ["parser path 13",
                                                             "parser path 15"]
    assert all(line.endswith(f": stdout {beyond}") for line in lines[-3:-1])


def test_float_only_change_is_within_the_bound(tmp_path, capsys):
    # The default tol_abs moved by one ulp: every JSON verify report states
    # it, and no verdict or message moves with it.
    parent = _changed_copy(tmp_path, "theorems.py", "DEFAULT_TOL_ABS = 1e-12\n",
                           f"DEFAULT_TOL_ABS = {math.nextafter(1e-12, 1)!r}\n")
    assert byte_sweep.main([parent, "--seeds", "1", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # As above, less the derive job, the 32 corpus derive reports and the
    # derive parser-path call, plus the three help texts, which print the
    # default: text, beyond the float rule.
    assert lines[-1] == "44 differences"
    helps = [line for line in lines if line.startswith(("parser path 3:", "parser path 4:",
                                                        "parser path 5:"))]
    assert len(helps) == 3
    assert all(line.endswith(": stdout differ; beyond the corpus float bound at report")
               for line in helps)
    assert all(line.endswith(" differ; within the corpus float bound")
               for line in lines[:-1] if line not in helps)
