"""The benchmark tracer's contract with the CLI, for every theorem and every
named field: no traced call is missing, a verify batch counts one instance
per generated shape and proves the batch as one stack in one verifier
span (one stacked ``Simplex``, one stack of fields and one boundary
integral per field of the row), the stacked ``Simplex`` is a triangle
batch's only one and computes the call's only facets (a ``Triangle`` that
the float screen clears builds no ``Simplex``, and none computes facets),
every named derive field is built through its public constructor, and a
derive evaluates its four finite-difference images in one
``perturbed_integral`` call, building no ``Simplex`` and computing no
facets beyond the input document's, also for a labelled triangle and one
that the float screen cannot settle.
The benchmark's own tests run only a few of these calls, so a table row
that stored a function object, and so bypassed the tracer, would slip
past them.

The tracer is loaded from ``bench/tracer.py``; nothing under ``bench/`` is
written.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

import shapecalc.cli as cli
from shapecalc.theorems import THEOREMS

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)

T345 = {"dim": 2, "vertices": [[0.0, 3.0], [4.0, 0.0], [0.0, 0.0]]}
# A right tetrahedron whose apex is vertex 2, so hyp_index is not 0.
RIGHT_TETRA = {
    "dim": 3,
    "vertices": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 3.0]],
    "hyp_index": 2,
}
NAMED_FIELDS = ("pythagoras", "sines:a", "sines:b", "sines:c", "cosines",
                "nd-pythagoras")


def traced_main(argv):
    """Run ``cli.main(argv)`` under a fresh tracer; (exit code, tracer)."""
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = tracer.root(cli.main, argv)
    finally:
        tracer.uninstall()
    return code, tracer


# Every theorem at --count 3, plus the exact job shapes of the benchmark's
# triangles-json and nd16-csv workloads.
VERIFY_CASES = [pytest.param(theorem, ["--count", "3"], id=theorem)
                for theorem in THEOREMS] + [
    pytest.param(theorem, ["--count", "25"], id=f"triangles-json-{theorem}")
    for theorem in ("sines", "cosines", "pythagoras")] + [
    pytest.param("nd-pythagoras", ["--dim", "16", "--legs", "scaled", "--count", "5",
                                   "--format", "csv"], id="nd16-csv"),
]


@pytest.mark.parametrize("theorem, options", VERIFY_CASES)
def test_verify_batch_is_traced(theorem, options, tmp_path):
    count = int(options[options.index("--count") + 1])
    code, tracer = traced_main(["verify", theorem, "--random", *options,
                                "--out", str(tmp_path / "report")])
    assert code == 0
    assert tracer.missing == []
    assert tracer.instances == count
    spans = tracer.summary()
    assert spans["theorems.generate"][1] == count
    # Every generator span sits directly under the root span, so each one
    # starts an instance.
    generate, root = tracer.name_ids["theorems.generate"], tracer.name_ids["cli.main"]
    parents = [p for n, p in zip(tracer.name, tracer.parent) if n == generate]
    assert [tracer.name[p] for p in parents] == [root] * count
    # One verifier span, directly under the root after the last instance is
    # generated: the tracer files the stacked proof under that instance.
    verify = tracer.name_ids["theorems.verify"]
    spans_of = lambda nid: [i for i, n in enumerate(tracer.name) if n == nid]
    assert [(tracer.parent[i], tracer.instance[i]) for i in spans_of(verify)] == \
        [(spans_of(root)[0], count - 1)]

    def in_proof(i):
        while i >= 0 and tracer.name[i] != verify:
            i = tracer.parent[i]
        return i >= 0

    # Inside it, one stacked Simplex and its facets, and one stack of fields
    # and one boundary integral per field of the row.
    proof = Counter(tracer.names[n] for n, p in zip(tracer.name, tracer.parent)
                    if in_proof(p))
    fields = len(THEOREMS[theorem].fields)
    assert proof == {"geometry.Simplex": 1, "geometry.facets": 1,
                     "fields.proof_field": fields, "hadamard.boundary_integral": fields}
    if theorem != "nd-pythagoras":
        # The proof stack's Simplex is the batch's only one: a generated
        # Triangle that the float screen clears builds none of its own.
        assert spans["geometry.Simplex"][1] == 1
        assert spans["geometry.Triangle"][1] >= count
    # The stack's facets are the call's only ones: no Triangle computes its own.
    assert spans["geometry.facets"][1] == 1
    # One report per instance, directly under the root, after the last
    # instance is generated: the tracer files the stacked proof under it.
    to_dict = tracer.name_ids["theorems.to_dict"]
    reports = [(tracer.name[p], i) for n, p, i in zip(tracer.name, tracer.parent,
                                                      tracer.instance) if n == to_dict]
    assert reports == [(root, count - 1)] * count


def test_verify_input_triangle_builds_two_simplices(tmp_path):
    # The document's Simplex, which gates the shape when the file is parsed
    # (a degenerate file is an input error before any theorem runs), and the
    # proof stack's, which gates the batch the proof runs on. The document's
    # Triangle reads the document's Simplex and builds none.
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps(T345))
    code, tracer = traced_main(["verify", "pythagoras", "--input", str(shape),
                                "--out", str(tmp_path / "report.json")])
    assert code == 0
    assert tracer.missing == []
    spans = tracer.summary()
    assert spans["geometry.Triangle"][1] == 1
    assert spans["geometry.Simplex"][1] == 2
    assert spans["geometry.facets"][1] == 1


def test_every_named_field_is_tested():
    assert sorted(cli.NAMED_FIELDS) == sorted(NAMED_FIELDS)


# The triangle documents of each named triangle field: the 3-4-5 triangle,
# the same with its vertices labelled out of order, and the same scaled by
# 1e150, where the Triangle's float screen cannot settle the gate.
TRIANGLE_DOCUMENTS = {
    "T345": T345,
    "labelled": dict(T345, labels={"A": 1, "B": 2, "C": 0}),
    "T345x1e150": dict(T345, vertices=[[x * 1e150 for x in v] for v in T345["vertices"]]),
}
NAMED_FIELD_CASES = [pytest.param(field, document, id=f"{field}-{name}")
                     for field in NAMED_FIELDS if field != "nd-pythagoras"
                     for name, document in TRIANGLE_DOCUMENTS.items()] + [
    pytest.param("nd-pythagoras", RIGHT_TETRA, id="nd-pythagoras")]


@pytest.mark.parametrize("field, document", NAMED_FIELD_CASES)
def test_named_field_is_traced(field, document, tmp_path):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps(document))
    code, tracer = traced_main(["derive", "--input", str(shape), "--field", field,
                                "--out", str(tmp_path / "report.json")])
    scaled = document is TRIANGLE_DOCUMENTS["T345x1e150"]
    # A verdict either way at 1e150: derive's pass rule is not scale-free.
    assert code in ((0, 1) if scaled else (0,))
    assert tracer.missing == []
    assert tracer.instances == 1
    spans = tracer.summary()
    assert spans["fields.proof_field"][1] == 1
    assert spans["hadamard.derivative"][1] == 1
    # The four fd images are one stack, gated without a Simplex each.
    assert spans["hadamard.perturbed_integral"][1] == 1
    # The document's Simplex is the call's only one, and its facets the
    # only facets: the document's Triangle reads both.
    assert spans["geometry.Simplex"][1] == 1
    assert spans["geometry.facets"][1] == 1


@pytest.mark.parametrize("density", [None, '{"gradient": [1, 2], "constant": 3}'])
def test_inline_field_builds_one_simplex(density, tmp_path):
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps(T345))
    argv = ["derive", "--input", str(shape), "--field",
            '{"matrix": [[1, 2], [0, 1]], "offset": [1, 0]}',
            "--out", str(tmp_path / "report.json")]
    if density is not None:
        argv += ["--density", density]
    code, tracer = traced_main(argv)
    assert code == 0
    assert tracer.missing == []
    spans = tracer.summary()
    assert spans["hadamard.fd_derivative"][1] == 1
    assert spans["hadamard.perturbed_integral"][1] == 1
    assert spans["geometry.Simplex"][1] == 1
