"""Seeded workload generation: the argv of every CLI call and, for derive,
the shape documents it reads.

Everything is a pure function of the workload seed. The mix of each
workload (theorem round-robin, dimension strata, share of named fields) is
fixed by construction and the seed only shuffles it and draws the
geometry, so medians and p90 land in the same stratum for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("triangles-json", "nd16-csv", "derive-mixed")

TRIANGLE_THEOREMS = ("sines", "cosines", "pythagoras")
TRIANGLE_COUNT = 25
TRIANGLE_JOBS = 102  # a multiple of 3, so the round-robin is balanced
TRIANGLE_MEMORY_COUNT = 500  # batch size of the peak_rss_mb calls
ND_DIM = 16
ND_COUNT = 5
ND_JOBS = 100
DERIVE_DIMS = (2, 3, 5, 8, 16)
DERIVE_PER_DIM = 48  # multiple of 4: a quarter of each stratum uses named fields
NAMED_TRIANGLE_FIELDS = ("pythagoras", "cosines", "sines:a", "sines:b", "sines:c")
SEED_SPAN = 2**31 - 1


@dataclass
class Job:
    """One CLI call plus what the checker needs to judge its report."""

    argv: list[str]
    out: str
    kind: str  # "verify" or "derive"
    fmt: str = "json"
    theorem: str | None = None
    count: int = 1
    seed: int | None = None
    # derive only: the shape, the field and the density the call was given
    vertices: list[list[float]] | None = None
    named_field: str | None = None
    matrix: list[list[float]] | None = None
    offset: list[float] | None = None
    density: dict | None = None


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """All jobs of workload ``name`` for ``seed``; derive shape documents are
    written under ``workdir``. The run cycles through the list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "triangles-json":
        return _triangle_jobs(rng, workdir)
    if name == "nd16-csv":
        return _nd_jobs(rng, workdir)
    if name == "derive-mixed":
        return _derive_jobs(rng, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def memory_jobs(name: str, seed: int, workdir: Path, jobs: list[Job]) -> list[Job]:
    """The calls whose peak RSS is ``peak_rss_mb``, run once in a fresh
    worker; ``jobs`` is what ``build`` returned. The timed triangle batches
    are too small to move memory, so triangles-json runs each theorem once
    at TRIANGLE_MEMORY_COUNT. The other workloads run their own jobs: one
    batch of nd16-csv, every derive-mixed call."""
    if name == "triangles-json":
        rng = np.random.default_rng([seed, WORKLOADS.index(name), 1])
        return _triangle_jobs(rng, workdir, len(TRIANGLE_THEOREMS), TRIANGLE_MEMORY_COUNT)
    return jobs[:1] if name == "nd16-csv" else jobs


def _triangle_jobs(rng, workdir: Path, n_jobs: int = TRIANGLE_JOBS,
                   count: int = TRIANGLE_COUNT) -> list[Job]:
    out = str(workdir / "report.json")
    jobs = []
    for k in range(n_jobs):
        theorem = TRIANGLE_THEOREMS[k % len(TRIANGLE_THEOREMS)]
        s = int(rng.integers(0, SEED_SPAN - count))
        argv = ["verify", theorem, "--random", "--count", str(count),
                "--seed", str(s), "--out", out]
        jobs.append(Job(argv, out, "verify", "json", theorem, count, s))
    return jobs


def _nd_jobs(rng, workdir: Path) -> list[Job]:
    out = str(workdir / "report.csv")
    jobs = []
    for _ in range(ND_JOBS):
        s = int(rng.integers(0, SEED_SPAN - ND_COUNT))
        argv = ["verify", "nd-pythagoras", "--random", "--dim", str(ND_DIM),
                "--legs", "scaled", "--count", str(ND_COUNT), "--seed", str(s),
                "--format", "csv", "--out", out]
        jobs.append(Job(argv, out, "verify", "csv", "nd-pythagoras", ND_COUNT, s))
    return jobs


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _place(rng, points: np.ndarray) -> np.ndarray:
    n = points.shape[1]
    centered = points - points.mean(axis=0)
    moved = centered @ _rotation(rng, n).T * rng.uniform(0.5, 2.0)
    return moved + rng.uniform(-1.0, 1.0, size=n)


def _general_simplex(rng, n: int) -> np.ndarray:
    # A jittered standard simplex: well shaped, so no call is rejected as
    # degenerate, yet no two documents share their geometry.
    base = np.vstack([np.zeros(n), np.eye(n)])
    return _place(rng, base + rng.uniform(-0.25, 0.25, size=(n + 1, n)))


def _right_simplex(rng, n: int) -> tuple[np.ndarray, int]:
    legs = _rotation(rng, n) * rng.uniform(0.5, 2.0, size=n)[:, None]
    points = _place(rng, np.vstack([np.zeros(n), legs]))
    order = rng.permutation(n + 1)
    hyp_index = int(np.flatnonzero(order == 0)[0])  # facet opposite the apex
    return points[order], hyp_index


def _derive_jobs(rng, workdir: Path) -> list[Job]:
    out = str(workdir / "derive.json")
    specs = []
    for n in DERIVE_DIMS:
        named = DERIVE_PER_DIM // 4
        for k in range(DERIVE_PER_DIM):
            if k < named:
                name = ("nd-pythagoras" if n > 2 or k % 6 == 5
                        else NAMED_TRIANGLE_FIELDS[k % 6])
                specs.append((n, name, False))
            else:
                specs.append((n, None, k % 2 == 0))
    jobs = []
    for index in rng.permutation(len(specs)):
        n, named_field, with_density = specs[index]
        doc: dict = {"dim": n}
        if named_field == "nd-pythagoras":
            points, doc["hyp_index"] = _right_simplex(rng, n)
        else:
            points = _general_simplex(rng, n)
            if n == 2 and named_field is not None and rng.uniform() < 0.5:
                doc["labels"] = dict(zip("ABC", map(int, rng.permutation(3))))
        vertices = points.tolist()
        doc["vertices"] = vertices
        path = workdir / f"shape{len(jobs):04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["derive", "--input", str(path)]
        job = Job(argv, out, "derive", vertices=vertices, named_field=named_field)
        if named_field is not None:
            argv += ["--field", named_field]
        else:
            job.matrix = (rng.uniform(-1.0, 1.0, size=(n, n)) / math.sqrt(n)).tolist()
            job.offset = rng.uniform(-1.0, 1.0, size=n).tolist()
            argv += ["--field", json.dumps({"matrix": job.matrix, "offset": job.offset})]
            if with_density:
                job.density = {"gradient": rng.uniform(-1.0, 1.0, size=n).tolist(),
                               "constant": float(rng.uniform(0.5, 2.0))}
                argv += ["--density", json.dumps(job.density)]
        argv += ["--out", out]
        jobs.append(job)
    return jobs
