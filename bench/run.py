"""shapecalc benchmark: one client drives ``shapecalc.cli.main(argv)`` in a
closed loop inside a fresh worker interpreter, checks every report outside
the timed region, and prints the metrics, the last line as JSON.

    python3 bench/run.py --workload {triangles-json|nd16-csv|derive-mixed}
                         --seed N --seconds S --trace {0|1}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every job
twice, untraced and traced in alternating order, and reports the per-layer
metrics from the traced calls plus the tracing overhead. The program comes
from ``src/`` of the checkout that holds this file; a checkout without it
is an error (exit 2), and so is a tracer that cannot find a traced call or
miscounts the instances (exit 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 40  # fresh interpreters timed for setup_s, after one warm-up
CALL_TIMEOUT_S = 60.0
LOOP_WALL_LIMIT_S = 120.0  # keeps a slowed-down run inside its 180 s budget
# One BLAS thread in the worker: it is the only busy process (nproc = 2),
# and shapecalc's matrices are at most 17 x 16.
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END = {
    "instances_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Self time per instance of each span (see tracer.py), in microseconds.
SPAN_US = (
    "theorems.generate", "theorems.verify", "theorems.to_dict",
    "geometry.Simplex", "geometry.Triangle", "geometry.facets",
    "fields.proof_field", "fields.div_density_field",
    "hadamard.boundary_integral", "hadamard.volume_integral",
    "hadamard.fd_derivative", "hadamard.perturbed_integral",
    "hadamard.derivative", "cli.main", "cli.parse_shape",
)
SPAN_COUNTS = ("geometry.Simplex", "geometry.Triangle", "geometry.facets")
MODULES = ("theorems", "geometry", "fields", "hadamard", "cli")
PER_LAYER = {
    **{f"{name}.us": "us" for name in SPAN_US},
    "cli.render.us_per_instance": "us",
    "cli.report.bytes_per_instance": "B",
    **{f"{name}.calls_per_instance": "count" for name in SPAN_COUNTS},
    **{f"{module}.share": "ratio" for module in MODULES},
    "trace.instance_us": "us",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class Worker:
    """A worker interpreter (worker.py) and its line protocol."""

    def __init__(self):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env={**os.environ, **BLAS_THREADS},
        )
        self.buffer = b""
        try:
            self.receive()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()

    def receive(self, timeout: float = CALL_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError(f"worker silent for {timeout} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError(f"worker exited with code {self.proc.wait()}")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def call(self, job, trace: bool) -> tuple[object, float, str | None]:
        """Run one job; returns (exit code, seconds in main, report text)."""
        out = Path(job.out)
        out.unlink(missing_ok=True)  # a stale report must not pass as this one's
        self.send({"op": "call", "argv": job.argv, "trace": trace})
        reply = self.receive()
        text = out.read_text(encoding="utf-8") if out.exists() else None
        return reply["code"], reply["s"], text

    def quit(self, spans: str | None = None) -> dict:
        self.send({"op": "quit", "spans": spans})
        reply = self.receive()
        self.proc.wait(timeout=CALL_TIMEOUT_S)
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter to shapecalc.cli imported."""
    with Worker() as worker:
        worker.quit()
        return worker.setup_s


def run_timed(worker: Worker, jobs, seconds: float, tally: checks.Tally):
    """Closed loop cycling over the jobs until the calls add up to ``seconds``.

    Returns every call's latency, per job its fastest call, and the
    SETUP_PROBES set-up times, taken between calls spread evenly over the
    run. On a shared virtual machine other tenants can slow a CPU by up to
    2x for seconds at a time, often one CPU more than the other, so the
    metrics take each job's best of its repeats, spread over the run, and
    each round over the jobs runs on the next usable CPU.
    """
    latencies, best, setup, first_text = [], {}, [], {}
    cpus = sorted(os.sched_getaffinity(0))
    setup_probe()  # warm-up: the first start after a while reads files from disk
    spent = 0.0
    wall_start = time.monotonic()
    while len(latencies) < 2 or (
        spent < seconds and time.monotonic() - wall_start < LOOP_WALL_LIMIT_S
    ):
        if len(setup) < SETUP_PROBES and spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe())
        rounds, k = divmod(len(latencies), len(jobs))
        if k == 0:
            os.sched_setaffinity(worker.proc.pid, {cpus[rounds % len(cpus)]})
        code, elapsed, text = worker.call(jobs[k], trace=False)
        tally.add(jobs[k], checks.check_call(jobs[k], code, text))
        first_text.setdefault(k, text)
        latencies.append(elapsed)
        spent += elapsed
        best[k] = min(elapsed, best.get(k, elapsed))
    while len(setup) < SETUP_PROBES:  # a run cut short by LOOP_WALL_LIMIT_S
        setup.append(setup_probe())
    audit_csv(worker, jobs, first_text, tally)
    return latencies, best, setup


def audit_csv(worker: Worker, jobs, csv_texts: dict, tally: checks.Tally) -> None:
    """Untimed JSON twin of the first CSV call of every job that ran: the
    closed-form oracles need the JSON report, and its residuals must equal
    the CSV's."""
    for k, csv_text in csv_texts.items():
        job = jobs[k]
        if job.fmt != "csv":
            continue
        out = str(Path(job.out).with_suffix(".json"))
        argv = [out if a == job.out else "json" if a == "csv" else a for a in job.argv]
        twin = dataclasses.replace(job, argv=argv, out=out, fmt="json")
        code, _, text = worker.call(twin, trace=False)
        problems = checks.check_call(twin, code, text)
        if not problems and csv_text is not None:
            csv_residuals = [float(row.split(",")[2]) for row in csv_text.splitlines()[1:]]
            if csv_residuals != [e["residual"] for e in json.loads(text)["entries"]]:
                problems = ["CSV residuals differ from the JSON report's"]
        tally.add(twin, problems)


def run_memory(jobs, tally: checks.Tally) -> float:
    """Peak RSS, in MB, of a fresh worker that ran ``jobs`` once, untimed."""
    with Worker() as worker:
        for job in jobs:
            code, _, text = worker.call(job, trace=False)
            tally.add(job, checks.check_call(job, code, text))
        return worker.quit()["maxrss_kb"] / 1024.0


def _same_report(a: str | None, b: str | None, fmt: str) -> bool:
    if a is None or b is None or fmt == "csv":
        return a == b
    x, y = json.loads(a), json.loads(b)
    x["aggregate"].pop("wall_time_s", None)
    y["aggregate"].pop("wall_time_s", None)
    return x == y


def run_traced(worker: Worker, jobs, seconds: float, tally: checks.Tally):
    """Each job untraced and traced, alternating which goes first, until all
    calls add up to ``seconds``. The traced report must equal the untraced."""
    spent = {False: 0.0, True: 0.0}
    instances = 0
    report_bytes = 0
    first_text = {}
    wall_start = time.monotonic()
    k = 0
    while sum(spent.values()) < seconds and time.monotonic() - wall_start < LOOP_WALL_LIMIT_S:
        job = jobs[k % len(jobs)]
        order = (False, True) if k % 2 == 0 else (True, False)
        results = {trace: worker.call(job, trace) for trace in order}
        for trace, (code, elapsed, text) in results.items():
            problems = checks.check_call(job, code, text)
            if trace and not problems and not _same_report(text, results[False][2], job.fmt):
                problems = ["traced report differs from the untraced one"]
            tally.add(job, problems)
            spent[trace] += elapsed
        first_text.setdefault(k % len(jobs), results[False][2])
        instances += job.count
        report_bytes += len(results[True][2] or "")
        k += 1
    audit_csv(worker, jobs, first_text, tally)
    return spent, instances, report_bytes


def layer_metrics(layers: dict, spent: dict, instances: int, report_bytes: int) -> dict:
    def self_s(name: str) -> float:
        return layers.get(name, [0.0, 0])[0]

    per_instance = spent[True] / instances
    metrics = {f"{name}.us": self_s(name) / instances * 1e6 for name in SPAN_US}
    metrics["cli.render.us_per_instance"] = self_s("cli.render") / instances * 1e6
    metrics["cli.report.bytes_per_instance"] = report_bytes / instances
    for name in SPAN_COUNTS:
        metrics[f"{name}.calls_per_instance"] = layers.get(name, [0.0, 0])[1] / instances
    for module in MODULES:
        total = sum(v[0] for k, v in layers.items() if k.split(".")[0] == module)
        metrics[f"{module}.share"] = total / spent[True]
    metrics["trace.instance_us"] = per_instance * 1e6
    metrics["trace.accounted_frac"] = sum(v[0] for v in layers.values()) / spent[True]
    metrics["trace.overhead_frac"] = spent[True] / spent[False] - 1.0
    return metrics


def ref_loop_ms() -> float:
    """A fixed NumPy/LAPACK loop that does not touch shapecalc: how fast the
    host ran next to the measurement."""
    import numpy as np

    m = np.random.default_rng(0).standard_normal((16, 16))
    started = time.perf_counter()
    for _ in range(1000):
        np.linalg.qr(m)
        np.linalg.det(m)
    return (time.perf_counter() - started) * 1e3


def host_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy without show_config(mode=...)
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "worker_blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shapecalc" / "cli.py").is_file():
        print(f"bench: no shapecalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = host_info()
    ref_ms = [ref_loop_ms()]
    tally = checks.Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        jobs = workloads.build(args.workload, args.seed, Path(workdir))
        if args.trace:
            with Worker() as worker:
                spent, instances, report_bytes = run_traced(worker, jobs, args.seconds, tally)
                reply = worker.quit(str(OUT_DIR / f"{name}.spans.npz"))
            if reply["missing"]:
                print(f"bench: absent from shapecalc, so not traced: {reply['missing']}",
                      file=sys.stderr)
                return 1
            if reply["instances"] != instances:
                print(f"bench: the tracer counted {reply['instances']} instances, "
                      f"the calls held {instances}", file=sys.stderr)
                return 1
            metrics = layer_metrics(reply["layers"], spent, instances, report_bytes)
            units = PER_LAYER
            notes = [f"{tally.attempted} calls, half traced, {instances} traced instances"]
        else:
            memory_jobs = workloads.memory_jobs(args.workload, args.seed, Path(workdir), jobs)
            with Worker() as worker:
                latencies, best, setup = run_timed(worker, jobs, args.seconds, tally)
                worker.quit()
            fastest = list(best.values())
            metrics = {
                "instances_per_s": sum(jobs[k].count for k in best) / sum(fastest),
                "call_ms_p50": statistics.median(fastest) * 1e3,
                "call_ms_p90": statistics.quantiles(fastest, n=10)[8] * 1e3,
                "peak_rss_mb": run_memory(memory_jobs, tally),
                "setup_s": min(setup),
            }
            units = END_TO_END
            all_instances = sum(jobs[k % len(jobs)].count for k in range(len(latencies)))
            notes = [
                f"{len(latencies)} timed calls of {len(best)} jobs; call_ms_p50/p90 "
                f"and instances_per_s use each job's fastest of "
                f"{len(latencies) // len(best)}+ calls",
                f"all calls, host noise included: instances_per_s "
                f"{all_instances / sum(latencies):.6g}, p50 "
                f"{statistics.median(latencies) * 1e3:.6g} ms, p90 "
                f"{statistics.quantiles(latencies, n=10)[8] * 1e3:.6g} ms (diagnostic)",
                f"peak_rss_mb from a fresh worker that ran {len(memory_jobs)} calls of "
                f"up to {max(j.count for j in memory_jobs)} instances",
                f"setup_s is the fastest of samples {', '.join(f'{x:.4f}' for x in setup)}",
            ]
    ref_ms.append(ref_loop_ms())

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    notes += [
        "host " + " ".join(f"{k}={v}" for k, v in host.items()),
        f"host.ref_loop_ms {ref_ms[0]:.2f} before, {ref_ms[1]:.2f} after (diagnostic)",
        f"failed_fraction {tally.failed_fraction:.6g} ({tally.failed}/{tally.attempted})",
    ]
    record = {"args": vars(args), "host": host, "host.ref_loop_ms": ref_ms,
              "notes": notes, "problems": tally.problems, **result}
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}, "
          "one closed-loop client")
    for line in notes:
        print(line)
    for key, entry in result["metrics"].items():
        print(f"{key} {entry['value']:.6g} {entry['unit']}")
    for problem in tally.problems:
        print(f"bench: failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
