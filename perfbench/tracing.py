"""Spans around the public functions of each flataff module.

The traced run patches the functions and methods listed in TARGETS with
wrappers that record one span per call: its name, start, end, parent
span and the id of the benchmark operation it belongs to. Spans stay in
memory (flat arrays) until the run ends. Nothing inside the package is
changed; the wrappers are installed for one traced pass and removed
afterwards, in every module that binds the same function object.

A layer is a module. A span's self time is its duration minus the time
covered by its direct children; calls are strictly nested in this
single-threaded benchmark, so the children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("exact", "liealg", "connections", "affine", "obstructions",
          "search", "cli")

# module -> names wrapped in it; "Class.method" patches the class.
# search._lm_minimize is private, but it is the only boundary around one
# Levenberg-Marquardt run, which search.lm_self_s and search.starts need.
TARGETS = {
    "exact": (
        "ExactMatrix.rref", "ExactMatrix.rank", "ExactMatrix.nullspace",
        "ExactMatrix.rank_nullspace", "ExactMatrix.solve",
        "ExactMatrix.inverse", "ExactMatrix.det", "ExactMatrix.det_cofactor",
        "ExactMatrix.__matmul__", "poly_det",
    ),
    "liealg": (
        "LieAlgebra.__init__", "LieAlgebra.bracket", "LieAlgebra.adjoint_rep",
        "LieAlgebra.killing_form", "LieAlgebra.killing_rank",
        "LieAlgebra.is_semisimple", "LieAlgebra.is_abelian",
        "LieAlgebra.is_solvable", "LieAlgebra.is_nilpotent",
        "LieAlgebra.is_unimodular", "LieAlgebra.derived_series_dims",
        "LieAlgebra.lower_central_dims", "LieAlgebra.structural_profile",
        "LieAlgebra.same_constants", "from_structure_constants", "builtin",
    ),
    "connections": (
        "zero_connection", "standard_connection", "torsion", "curvature",
        "ricci", "projective_change", "projective_weyl", "is_flat",
        "is_torsion_free", "is_projectively_flat",
    ),
    "affine": (
        "check_homomorphism", "is_etale", "canonical_embedding",
        "lsa_from_etale", "etale_from_lsa",
    ),
    "obstructions": (
        "LinearRep.__init__", "LinearRep.adjoint", "h1_dim",
        "fundamental_det_poly", "decide_existence",
    ),
    "search": (
        "FlatnessSystem.__init__", "FlatnessSystem.residual",
        "FlatnessSystem.jacobian", "assemble", "newton_multistart",
        "_lm_minimize", "rationalize_and_verify", "run_search",
    ),
    "cli": (
        "parse_algebra_data", "parse_algebra", "parse_connection",
        "parse_affmap", "analyze", "classify_dim3", "search_report", "emit",
        "main",
    ),
}

# Counts taken from return values at the boundary where the work happens.
RESULT_COUNTERS = {
    "search.newton_multistart": ("search.converged", len),
    "search.rationalize_and_verify": (
        "search.snapped", lambda conn: int(conn is not None)),
}


class Recorder:
    """In-memory span store. Index i of each array describes span i."""

    def __init__(self):
        self.names = []          # span name per name id
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = {}
        self.current = -1        # innermost open span, -1 at top level
        self.current_op = -1     # set by the benchmark before each operation

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int,
                 op: int = -1) -> int:
        """Append a finished span; used by tests to build span trees."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self.current
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.current = idx
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.current = parent
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return traced

    def self_times(self) -> list:
        """Duration of each span minus the durations of its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def dump(self, path: str, op_labels: list):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self)):
                op = self.op[i]
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": op_labels[op] if op >= 0 else None,
                }) + "\n")


def _resolve(module, dotted: str):
    """(owner, attribute, function) for "name" or "Class.method"."""
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, dotted, getattr(module, dotted)


@contextmanager
def patched(recorder: Recorder, callers=()):
    """Install span wrappers on every target for the duration of the
    block. A module-level function is replaced in every flataff module,
    and in each of the calling modules given, that binds the same object,
    so `from .x import f` call sites are traced too."""
    importlib.import_module("flataff")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "flataff"
                                     or name.startswith("flataff."))]
    modules += list(callers)
    undo = []
    try:
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"flataff.{layer}")
            for dotted in names:
                owner, attr, original = _resolve(module, dotted)
                span_name = f"{layer}.{dotted}"
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        recorder.wrap(span_name, original.__func__))
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, original))
                    continue
                wrapped = recorder.wrap(span_name, original)
                if owner is module:
                    for m in modules:
                        if getattr(m, attr, None) is original:
                            setattr(m, attr, wrapped)
                            undo.append((m, attr, original))
                else:
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ------------------------------------------------------------ aggregation

# inclusive groups: time from entering the outermost span of the group to
# leaving it, so a nested span of the same group is counted once
GROUPS = {
    "search.jacobian": ("search.FlatnessSystem.jacobian",),
    "search.residual": ("search.FlatnessSystem.residual",),
    "search.multistart": ("search.newton_multistart",),
    "search.rationalize": ("search.rationalize_and_verify",),
    "search.assemble": ("search.assemble", "search.FlatnessSystem.__init__"),
    "search.lm": ("search._lm_minimize",),
    "exact.rank": ("exact.ExactMatrix.rank", "exact.ExactMatrix.rref",
                   "exact.ExactMatrix.nullspace",
                   "exact.ExactMatrix.rank_nullspace"),
    "exact.solve": ("exact.ExactMatrix.solve", "exact.ExactMatrix.inverse"),
    "exact.det": ("exact.ExactMatrix.det", "exact.ExactMatrix.det_cofactor",
                  "exact.poly_det"),
    "liealg.build": ("liealg.LieAlgebra.__init__",
                     "liealg.from_structure_constants", "liealg.builtin"),
    "liealg.killing_rank": ("liealg.LieAlgebra.killing_rank",
                            "liealg.LieAlgebra.killing_form",
                            "liealg.LieAlgebra.is_semisimple"),
    "liealg.series": ("liealg.LieAlgebra.derived_series_dims",
                      "liealg.LieAlgebra.lower_central_dims",
                      "liealg.LieAlgebra.is_solvable",
                      "liealg.LieAlgebra.is_nilpotent"),
    "liealg.profile": ("liealg.LieAlgebra.structural_profile",),
    "connections.curvature": ("connections.curvature",),
    "connections.torsion": ("connections.torsion",),
    "connections.weyl": ("connections.projective_weyl",),
    "affine.check_homomorphism": ("affine.check_homomorphism",),
    "affine.etale": ("affine.is_etale", "affine.etale_from_lsa",
                     "affine.lsa_from_etale"),
    "obstructions.decide": ("obstructions.decide_existence",),
    "obstructions.h1": ("obstructions.h1_dim",),
    "obstructions.det_poly": ("obstructions.fundamental_det_poly",),
    "cli.parse": ("cli.parse_algebra_data", "cli.parse_algebra",
                  "cli.parse_connection", "cli.parse_affmap"),
    "cli.emit": ("cli.emit",),
}


def summarize(rec: Recorder) -> dict:
    """Per-group call counts, inclusive and self times, and per-layer
    self times, all summed over the recorded spans."""
    names = [rec.names[n] for n in rec.name_id]
    selfs = rec.self_times()
    group_of = {}
    for group, members in GROUPS.items():
        for m in members:
            group_of[m] = group
    calls, incl, self_s = {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(names):
        layer_self[name.split(".", 1)[0]] += selfs[i]
        group = group_of.get(name)
        if group is None:
            continue
        self_s[group] = self_s.get(group, 0.0) + selfs[i]
        # outermost span of its group: no ancestor in the same group
        p = rec.parent[i]
        while p >= 0 and group_of.get(names[p]) != group:
            p = rec.parent[p]
        if p < 0:
            calls[group] = calls.get(group, 0) + 1
            incl[group] = incl.get(group, 0.0) + rec.end[i] - rec.start[i]
    return {"calls": calls, "inclusive": incl, "self": self_s,
            "layer_self": layer_self}
