"""Outside-in per-layer tracing for the benchmark's traced run.

The tracer wraps public functions and methods of each orbitforge module from
here; nothing under ``src/`` changes. A function is patched in every
orbitforge module that holds it, so calls through names imported elsewhere
(``classify.exponent``, ``mixed_group.minimal_polynomial``) are seen too;
methods are patched on their class.

Each wrapped call adds to its metric's call count and self time (duration
minus the time covered by wrapped calls made inside it). Coarse calls are
also kept as spans, with the job that made them and their parent span, and
written out when the run ends. Hot kernels called hundreds of thousands of
times per pass (vector and matrix products, group multiplication) update
only the counters, which keeps the span list small.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass

MODULES = ("group_core", "auto_orbits", "classify", "exact_linear", "mixed_group",
           "cocycle_split", "cli")


@dataclass(frozen=True)
class Target:
    metric: str
    module: str
    attr: str  # "func" or "Class.method"
    span: bool = True


def _targets() -> list[Target]:
    t = []
    t.append(Target("group_core.table_build", "group_core", "GroupTable.__init__"))
    for name in ("cyclic", "dihedral", "elementary_abelian", "direct_product", "finite_semidirect",
                 "symmetric", "alternating", "quaternion"):
        t.append(Target("group_core.constructors", "group_core", name))
    for name in ("GroupTable.element_orders", "GroupTable.is_abelian", "GroupTable.conjugate",
                 "GroupTable.mul", "GroupTable.inv", "element_order", "order_profile", "exponent",
                 "subgroup_closure", "derived_subgroup", "is_elementary_abelian"):
        t.append(Target("group_core.queries", "group_core", name, span=False))
    t.append(Target("group_core.FiniteAction", "group_core", "FiniteAction.__post_init__"))
    t.append(Target("auto_orbits.automorphism_group", "auto_orbits", "automorphism_group"))
    t.append(Target("auto_orbits.orbit_partition", "auto_orbits", "orbit_partition"))
    t.append(Target("classify.classify_group", "classify", "classify_group"))
    for metric, attr, span in (("QMatrix.mul", "QMatrix.__mul__", False),
                               ("QVector.mul", "QVector.__mul__", False),
                               ("QVector.add", "QVector.__add__", False),
                               ("det", "QMatrix.det", True),
                               ("inverse", "QMatrix.inverse", True),
                               ("minimal_polynomial", "minimal_polynomial", True),
                               ("cyclic_decomposition", "cyclic_decomposition", True)):
        t.append(Target("exact_linear." + metric, "exact_linear", attr, span))
    for name, span in (("build", True), ("spec_checks", True), ("build_automorphism", True),
                       ("verify_automorphism", True), ("apply_automorphism", False),
                       ("multiply", False), ("power", False), ("omega_certificate", True)):
        t.append(Target("mixed_group." + name, "mixed_group", name, span))
    for name, span in (("Cocycle.from_json", True), ("verify_cocycle", True), ("trivialize", True),
                       ("complement", True), ("extension_multiply", False)):
        t.append(Target("cocycle_split." + name, "cocycle_split", name, span))
    t.append(Target("cli.main", "cli", "main"))
    return t


TARGETS = _targets()
METRICS = sorted({t.metric for t in TARGETS})
AUTOS = "auto_orbits.automorphisms_materialized"
ALLOC = "group_core.table_build.alloc_peak_mb"


class Tracer:
    def __init__(self) -> None:
        self.job = ""
        #: Measure the peak of tracemalloc inside each table build. It slows
        #: every allocation, so it is on only in a pass whose times are not kept.
        self.trace_alloc = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # per open call: [child seconds, enclosing span id]
        self._next_span = 0
        self._patched: list[tuple] = []  # (owner, name, original) for uninstall
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero every counter; spans are kept."""
        self.calls = dict.fromkeys(METRICS, 0)
        self.self_s = dict.fromkeys(METRICS, 0.0)
        self.materialized = 0
        self.alloc_peak = 0

    def wrap(self, target: Target, fn):
        metric, span = target.metric, target.span
        stack, perf = self._stack, time.perf_counter
        count_autos = metric == "auto_orbits.automorphism_group"
        alloc_target = metric == "group_core.table_build"

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span:
                self._next_span += 1
                sid = self._next_span
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            trace_alloc = alloc_target and self.trace_alloc
            if trace_alloc:
                tracemalloc.start()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if trace_alloc:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                dur = t1 - t0
                self.calls[metric] += 1
                self.self_s[metric] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    self.spans.append((self.job, sid, parent, metric, t0, t1))
            if count_autos:
                self.materialized += len(result)
            return result

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        loaded = [m for name, m in sys.modules.items()
                  if name == "orbitforge" or name.startswith("orbitforge.")]
        for target in TARGETS:
            mod = importlib.import_module("orbitforge." + target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, property):
                    self._patch(cls, meth, property(self.wrap(target, raw.fget)))
                elif isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self.wrap(target, raw.__func__)))
                else:
                    self._patch(cls, meth, self.wrap(target, raw))
            else:
                orig = getattr(mod, target.attr)
                wrapped = self.wrap(target, orig)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict[str, float]:
        """This pass's call counts and self times, without units."""
        out: dict[str, float] = {}
        for metric in METRICS:
            out[metric + ".calls"] = self.calls[metric]
            out[metric + ".self_s"] = self.self_s[metric]
        for module in MODULES:
            out[module + ".self_s"] = sum(v for k, v in self.self_s.items()
                                          if k.startswith(module + "."))
        out[AUTOS] = self.materialized
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "span_fields": ["job", "id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


def unit(metric: str) -> str:
    if metric.endswith(".calls") or metric in (AUTOS, "known_defects.open"):
        return "count"
    if metric == ALLOC:
        return "MB"
    if metric == "cli.output_bytes":
        return "bytes"
    return "s"
