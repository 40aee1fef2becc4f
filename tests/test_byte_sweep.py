"""``tests/byte_sweep.py`` stays runnable and sees a changed report."""

import shutil
from pathlib import Path

import byte_sweep

SRC = Path(__file__).resolve().parents[1] / "src"


def test_tree_against_itself_has_no_differences(capsys):
    assert byte_sweep.main([str(SRC), "--seeds", "1", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == "0 differences\n"


def test_changed_version_differs_in_every_json_report(tmp_path, capsys):
    shutil.copytree(SRC / "shapecalc", tmp_path / "shapecalc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "shapecalc" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "0+'))
    assert byte_sweep.main([str(tmp_path), "--seeds", "1", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # The first triangles-json and derive-mixed jobs and the three
    # triangles-json memory jobs, then verify sines and cosines on that
    # derive job's document (a general triangle: pythagoras and nd-pythagoras
    # exit 2), then the 66 corpus calls that print a JSON report; a CSV
    # report holds no version.
    assert lines[-1] == "73 differences"
    assert all(line.endswith(": report differ") for line in lines[:5])
    assert [line.split(" --input ")[0] for line in lines[5:7]] == [
        "derive-mixed seed 1: verify sines", "derive-mixed seed 1: verify cosines"]
    assert all(line.endswith(": stdout differ") for line in lines[5:7])
    assert all(line.startswith("corpus call ") and line.endswith(": stdout differ")
               for line in lines[7:-1])
