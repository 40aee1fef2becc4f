"""Tests of the benchmark itself: every workload prints every declared
metric with its unit, a corrupted report counts as a failed call, and a
checkout without the sources is refused.

Run with: python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from shapecalc.cli import main  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that each workload must move off 0: a traced call that
# was renamed or moved would leave its layer at 0.
REACHED = {
    "triangles-json": ["theorems.generate.us", "theorems.verify.us", "theorems.to_dict.us",
                       "geometry.Triangle.us", "cli.render.us_per_instance", "cli.main.us"],
    "nd16-csv": ["theorems.generate.us", "theorems.verify.us", "geometry.Simplex.us",
                 "geometry.facets.us", "hadamard.boundary_integral.us",
                 "fields.proof_field.us", "cli.main.us"],
    "derive-mixed": ["cli.parse_shape.us", "geometry.Simplex.us", "geometry.facets.us",
                     "hadamard.boundary_integral.us", "hadamard.volume_integral.us",
                     "hadamard.fd_derivative.us", "hadamard.perturbed_integral.us",
                     "fields.proof_field.us", "fields.div_density_field.us", "cli.main.us"],
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_declared_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    assert any(line.startswith("failed_fraction 0 ") for line in lines)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in REACHED[workload])


def test_missing_trace_target_is_reported(monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.FUNCTIONS, "cli.parse_shape", [("cli", "no_such_call")])
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.missing == ["cli.no_such_call"]


def _report(tmp_path, argv, job_kwargs):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    job = workloads.Job(argv=argv, out=str(out), **job_kwargs)
    return job, json.loads(out.read_text())


def _tally(job, report) -> checks.Tally:
    tally = checks.Tally()
    tally.add(job, checks.check_call(job, 0, json.dumps(report)))
    return tally


def test_flipped_passed_counts_as_failure(tmp_path):
    job, report = _report(
        tmp_path, ["verify", "sines", "--random", "--count", "3", "--seed", "5"],
        dict(kind="verify", theorem="sines", count=3, seed=5),
    )
    assert _tally(job, report).failed_fraction == 0.0
    report["entries"][1]["passed"] = False
    assert _tally(job, report).failed_fraction == 1.0


def test_wrong_leg_measure_counts_as_failure(tmp_path):
    job, report = _report(
        tmp_path,
        ["verify", "nd-pythagoras", "--random", "--dim", "5", "--legs", "scaled",
         "--count", "2", "--seed", "9"],
        dict(kind="verify", theorem="nd-pythagoras", count=2, seed=9),
    )
    assert _tally(job, report).failed == 0
    report["entries"][1]["auxiliary"]["leg_face_measures"][2] *= 1.0 + 1e-6
    tally = _tally(job, report)
    assert tally.failed == 1 and tally.failed_fraction == 1.0
    assert "leg facet 3" in tally.problems[0]


def test_wrong_derive_total_counts_as_failure(tmp_path):
    job = workloads.build("derive-mixed", 4, tmp_path)[0]
    assert main(job.argv) == 0
    report = json.loads(Path(job.out).read_text())
    assert _tally(job, report).failed == 0
    entry = report["entries"][0]
    entry["per_facet"][0][1] += 1e-3
    entry["boundary_total"] += 1e-3
    assert _tally(job, report).failed == 1


def test_nonzero_exit_and_missing_report_count_as_failures():
    job = workloads.Job(argv=["verify"], out="unused", kind="verify")
    assert checks.check_call(job, 2, "{}") == ["exit code 2"]
    assert checks.check_call(job, 0, None) == ["no report written"]


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    jobs_a = workloads.build("derive-mixed", 11, a)
    jobs_b = workloads.build("derive-mixed", 11, b)
    assert [j.argv[3:-2] for j in jobs_a] == [j.argv[3:-2] for j in jobs_b]
    assert [p.read_text() for p in sorted(a.iterdir())] == \
        [p.read_text() for p in sorted(b.iterdir())]


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "nd16-csv", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
