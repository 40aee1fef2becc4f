"""In-memory spans around the public calls of each shapecalc module.

The program is not edited: ``Tracer.install`` swaps each traced function,
method or cached property for a wrapper that opens and closes a span, and
``uninstall`` puts the originals back. A function is swapped in every
loaded ``shapecalc`` module that holds it, so calls through names that a
module imported from another are traced too.

Span names are ``<module>.<call>``; the module prefix is the layer. A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.main"
GENERATE = "theorems.generate"

# span name -> (module, attribute) of every function it wraps
FUNCTIONS = {
    GENERATE: [("theorems", "random_triangle"), ("theorems", "random_right_simplex")],
    "theorems.verify": [("theorems", "verify_pythagoras"),
                        ("theorems", "verify_law_of_sines"),
                        ("theorems", "verify_law_of_cosines"),
                        ("theorems", "verify_nd_pythagoras")],
    "fields.proof_field": [("fields", "pythagoras_field"), ("fields", "sines_field"),
                           ("fields", "cosines_field"), ("fields", "nd_pythagoras_field")],
    "fields.div_density_field": [("fields", "div_density_field")],
    "hadamard.boundary_integral": [("hadamard", "boundary_integral")],
    "hadamard.volume_integral": [("hadamard", "volume_integral")],
    "hadamard.fd_derivative": [("hadamard", "fd_derivative")],
    "hadamard.perturbed_integral": [("hadamard", "perturbed_integral")],
    "hadamard.derivative": [("hadamard", "hadamard_derivative")],
    "cli.parse_shape": [("cli", "parse_shape")],
}
# span name -> (module, class, method); construction is timed through the
# initializer, which the dataclass __init__ reaches through __post_init__.
METHODS = {
    "theorems.to_dict": [("theorems", "TheoremReport", "to_dict")],
    "geometry.Simplex": [("geometry", "Simplex", "__post_init__")],
    "geometry.Triangle": [("geometry", "Triangle", "__init__")],
    "cli.render": [("cli", "RunReport", "render")],
}
CACHED_PROPERTIES = {
    "geometry.facets": [("geometry", "Simplex", "facets")],
}


class Tracer:
    """Spans of one run, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # summed duration of direct children
        self.stack: list[int] = []
        self.calls = 0
        self.instances = 0
        self.current_instance = -1
        self.generated = False
        self.missing: list[str] = []
        self._swaps = None
        self._root = self.name_id(ROOT)
        self._generate = self.name_id(GENERATE)

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        stack = self.stack
        if not stack:
            # A root span is one CLI call and, until a generator runs, one
            # instance. Every generator call directly under the root after
            # the first starts the next instance of a batch.
            self.calls += 1
            self.current_instance = self.instances
            self.instances += 1
            self.generated = False
        elif nid == self._generate and len(stack) == 1:
            if self.generated:
                self.current_instance = self.instances
                self.instances += 1
            self.generated = True
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.instance.append(self.current_instance)
        self.call.append(self.calls - 1)
        self.child.append(0.0)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        now = perf_counter()
        self.end[index] = now
        self.stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _plan(self):
        """(owner, attribute, original, traced) for every swap; built once."""
        swaps = []
        loaded = [m for k, m in sys.modules.items()
                  if k == "shapecalc" or k.startswith("shapecalc.")]
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"shapecalc.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                traced = self.wrap(name, original)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            swaps.append((holder, key, original, traced))
        for table, make in ((METHODS, self.wrap), (CACHED_PROPERTIES, self._wrap_property)):
            for name, targets in table.items():
                for module_name, cls_name, attr in targets:
                    module = importlib.import_module(f"shapecalc.{module_name}")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(attr) if cls is not None else None
                    if original is None:
                        self.missing.append(f"{module_name}.{cls_name}.{attr}")
                        continue
                    swaps.append((cls, attr, original, make(name, original)))
        return swaps

    def _wrap_property(self, name: str, prop):
        traced = functools.cached_property(self.wrap(name, prop.func))
        traced.attrname = prop.attrname
        return traced

    def install(self) -> None:
        if self._swaps is None:
            self._swaps = self._plan()
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    def root(self, fn, *args):
        """Call ``fn`` inside a root span."""
        index = self.open(self._root)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def summary(self) -> dict:
        """Per span name: [self seconds, span count]."""
        totals = [[0.0, 0] for _ in self.names]
        for nid, start, end, child in zip(self.name, self.start, self.end, self.child):
            entry = totals[nid]
            entry[0] += end - start - child
            entry[1] += 1
        return {name: totals[i] for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write every span as one row of a compressed NumPy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.instance, dtype=np.int32),
            call=np.frombuffer(self.call, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
