"""Correctness checks on every CLI report, run outside the timed region.

Each check returns a list of problems; an empty list means the call is
correct. Besides the report's own pass flags, the checks hold every
instance to closed-form oracles that do not go through shapecalc:

* triangles: the sides equal the vertex distances, the angles sum to pi,
  and the theorem's own law holds on the reported sides and angles;
* right simplices: each leg facet measure is prod_{j != i} L_j / (N-1)!
  and hyp_measure**2 = sum_i A_i**2, from the reported leg lengths;
* derive: the boundary total equals vol * div(f xi)(centroid), computed
  here from the shape, field and density the call was given.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

# The CLI's defaults, which no benchmark call overrides.
TOL_ABS = 1e-12
TOL_REL = 1e-12
FD_REL_TOL = 1e-6
ORACLE_REL = 1e-9  # closed-form oracles against reported values
EPS = float(np.finfo(float).eps)

REPORT_THEOREM = {"pythagoras": "pythagoras", "sines": "sines",
                  "cosines": "cosines", "nd-pythagoras": "nd_pythagoras"}
CSV_HEADER = ["theorem", "seed", "residual", "passed"]


@dataclass
class Tally:
    """Attempted and failed calls of one run, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, job, problems: list[str]) -> None:
        """Count one call; it failed if its checks found any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(job.argv[:2])}: {problems[0]}")

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_call(job, code, text: str | None) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if text is None:
        return ["no report written"]
    try:
        if job.fmt == "csv":
            return check_verify_csv(job, text)
        report = json.loads(text)
        if job.kind == "derive":
            return check_derive(job, report)
        return check_verify_json(job, report)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return [f"malformed report: {type(err).__name__}: {err}"]


def _close(value: float, reference: float, rel: float = ORACLE_REL) -> bool:
    return abs(value - reference) <= rel * abs(reference)


def _passes(residual: float, scale: float) -> bool:
    return math.isfinite(residual) and abs(residual) <= TOL_ABS + TOL_REL * scale**2


def check_verify_json(job, report: dict) -> list[str]:
    seeds = [job.seed + k for k in range(job.count)]
    if report["seeds"] != seeds:
        return ["seeds differ from the requested ones"]
    entries = report["entries"]
    if len(entries) != job.count:
        return [f"{len(entries)} entries, expected {job.count}"]
    if report["aggregate"]["pass_count"] != job.count:
        return ["aggregate pass_count below count"]
    check = _check_nd_entry if job.theorem == "nd-pythagoras" else _check_triangle_entry
    problems = []
    for seed, entry in zip(seeds, entries):
        if entry["theorem"] != REPORT_THEOREM[job.theorem]:
            problems.append(f"seed {seed}: theorem {entry['theorem']!r}")
        elif entry["seed"] != seed:
            problems.append(f"seed {seed}: entry seed {entry['seed']!r}")
        elif entry["passed"] is not True:
            problems.append(f"seed {seed}: passed is {entry['passed']!r}")
        elif not _passes(entry["residual"], entry["scale"]):
            problems.append(f"seed {seed}: residual {entry['residual']!r} fails the pass rule")
        else:
            problems += [f"seed {seed}: {p}" for p in check(job.theorem, entry)]
    return problems


def _check_triangle_entry(theorem: str, entry: dict) -> list[str]:
    s = entry["summary"]
    A, B, C = s["vertices"]
    a, b, c = s["a"], s["b"], s["c"]
    alpha, beta, gamma = s["alpha"], s["beta"], s["gamma"]
    if not (_close(a, math.dist(B, C), 1e-12) and _close(b, math.dist(A, C), 1e-12)
            and _close(c, math.dist(A, B), 1e-12)):
        return ["sides differ from the vertex distances"]
    if entry["scale"] != max(a, b, c):
        return ["scale is not the longest side"]
    if abs(alpha + beta + gamma - math.pi) > ORACLE_REL:
        return ["angles do not sum to pi"]
    scale2 = max(a, b, c) ** 2
    if theorem == "pythagoras" and abs(c * c - a * a - b * b) > ORACLE_REL * scale2:
        return ["c^2 != a^2 + b^2"]
    if theorem == "cosines" and abs(
        c * c - a * a - b * b + 2.0 * a * b * math.cos(gamma)
    ) > ORACLE_REL * scale2:
        return ["c^2 != a^2 + b^2 - 2ab cos(gamma)"]
    if theorem == "sines":
        ratios = (a / math.sin(alpha), b / math.sin(beta), c / math.sin(gamma))
        if max(ratios) - min(ratios) > ORACLE_REL * max(ratios):
            return ["a/sin(alpha), b/sin(beta), c/sin(gamma) differ"]
    return []


def _check_nd_entry(theorem: str, entry: dict) -> list[str]:
    s = entry["summary"]
    n = s["dim"]
    vertices = s["vertices"]
    lengths = s["leg_lengths"]
    if len(vertices) != n + 1 or len(lengths) != n:
        return ["summary has the wrong number of vertices or legs"]
    apex = vertices[0]
    if not all(_close(lengths[i], math.dist(vertices[i + 1], apex)) for i in range(n)):
        return ["leg_lengths differ from the apex-vertex distances"]
    measures = entry["auxiliary"]["leg_face_measures"]
    factorial = math.factorial(n - 1)
    for i in range(n):
        expected = math.prod(lengths[:i] + lengths[i + 1:]) / factorial
        if not _close(measures[i], expected):
            return [f"leg facet {i + 1} measure {measures[i]!r}, oracle {expected!r}"]
    hyp = s["hyp_measure"]
    if entry["scale"] != hyp:
        return ["scale is not the hypotenuse measure"]
    if not _close(hyp * hyp, math.fsum(m * m for m in measures)):
        return ["hyp_measure^2 != sum of squared leg facet measures"]
    return []


def check_verify_csv(job, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return ["CSV header differs"]
    rows = rows[1:]
    if len(rows) != job.count:
        return [f"{len(rows)} CSV rows, expected {job.count}"]
    name = REPORT_THEOREM[job.theorem]
    for k, (theorem, seed, residual, passed) in enumerate(rows):
        if theorem != name or int(seed) != job.seed + k:
            return [f"row {k}: theorem or seed differs from the request"]
        if passed != "true" or not math.isfinite(float(residual)):
            return [f"row {k}: seed {seed} did not pass"]
    return []


def derive_oracle(job) -> float:
    """vol * div(f xi)(centroid): the shape derivative in closed form. Named
    proof fields are constant and the density is 1, so it is 0 for them."""
    if job.named_field is not None:
        return 0.0
    v = np.array(job.vertices)
    n = v.shape[1]
    vol = abs(np.linalg.det(v[1:] - v[0])) / math.factorial(n)
    centroid = v.mean(axis=0)
    matrix = np.array(job.matrix)
    xi = matrix @ centroid + np.array(job.offset)
    trace = float(np.trace(matrix))
    if job.density is None:
        return float(vol * trace)
    g = np.array(job.density["gradient"])
    f = float(g @ centroid) + job.density["constant"]
    return float(vol * (g @ xi + f * trace))


def check_derive(job, report: dict) -> list[str]:
    if report["seeds"] is not None or len(report["entries"]) != 1:
        return ["derive report must hold one unseeded entry"]
    entry = report["entries"][0]
    if entry["theorem"] != "derive" or entry["passed"] is not True:
        return [f"derive entry not passed: {entry.get('passed')!r}"]
    n = len(job.vertices) - 1
    per_facet = entry["per_facet"]
    if [i for i, _ in per_facet] != list(range(n + 1)):
        return ["per_facet does not list facets 0..N in order"]
    values = [v for _, v in per_facet]
    magnitude = math.fsum(abs(v) for v in values)
    boundary = entry["boundary_total"]
    if abs(boundary - math.fsum(values)) > 4 * (n + 1) * EPS * magnitude:
        return ["boundary_total is not the sum of per_facet"]
    # The reported residuals, and the ones the reported totals imply, must
    # both meet the CLI's own pass rule.
    budget = 1.0 + abs(boundary)
    bv = max(entry["residual_bv"], abs(boundary - entry["volume_total"]))
    bf = max(entry["residual_bf"], abs(boundary - entry["fd_estimate"]))
    if not bv <= TOL_ABS + TOL_REL * budget:
        return [f"residual_bv {bv!r} outside the CLI pass rule"]
    if not bf <= max(TOL_ABS, FD_REL_TOL * budget):
        return [f"residual_bf {bf!r} outside the CLI pass rule"]
    expected = derive_oracle(job)
    if not abs(boundary - expected) <= ORACLE_REL * magnitude:
        return [f"boundary_total {boundary!r}, closed form {expected!r}"]
    return []
