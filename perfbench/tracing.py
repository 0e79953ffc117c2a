"""Per-layer tracing from outside the package.

The tracer wraps public functions at the names their callers resolve (for
example both ``causalspaces.cli.validate_causal_space`` and
``causalspaces.core.validate_causal_space``), wraps ``Kernel.__post_init__``
and ``GaussianKernel.__post_init__``, and swaps in a ``CausalMechanism``
subclass that counts kernel reads. The package files are not touched.

Spans are kept in memory as (name, start, end, parent, op id, peak bytes)
and written out once the run ends. The layer of a span is the part of its
name before the first dot. Allocation peaks come from ``tracemalloc``,
which only runs while an op is being traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import tracemalloc
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "documents", "compilers", "core", "effects", "measure", "gaussian")

# (module, attribute, span name). One attribute per name a caller resolves.
TARGETS = [
    ("causalspaces.documents", "read_document", "documents.read"),
    ("causalspaces.documents", "document_to_space", "documents.to_space"),
    ("causalspaces.documents", "space_to_document", "documents.from_space"),
    ("causalspaces.documents", "document_to_scm", "documents.to_scm"),
    ("causalspaces.documents", "write_document", "documents.write"),
    ("causalspaces.documents", "dump_json", "documents.dump"),
    ("causalspaces.documents", "parse_event", "documents.parse_event"),
    ("causalspaces.compilers", "compile_scm", "compilers.compile_scm"),
    ("causalspaces.compilers", "compile_po", "compilers.compile_po"),
    ("causalspaces.cli", "compile_scm", "compilers.compile_scm"),
    ("causalspaces.cli", "compile_po", "compilers.compile_po"),
    ("causalspaces.core", "validate_causal_space", "core.validate"),
    ("causalspaces.core", "intervene", "core.intervene"),
    ("causalspaces.core", "intervene_hard", "core.intervene_hard"),
    ("causalspaces.core", "trivial_internal", "core.trivial_internal"),
    ("causalspaces.cli", "validate_causal_space", "core.validate"),
    ("causalspaces.cli", "intervene", "core.intervene"),
    ("causalspaces.cli", "intervene_hard", "core.intervene_hard"),
    ("causalspaces.cli", "trivial_internal", "core.trivial_internal"),
    ("causalspaces.effects", "intervene_hard", "core.intervene_hard"),
    ("causalspaces.effects", "classify_effect", "effects.classify"),
    ("causalspaces.effects", "classify_effect_on_subset", "effects.on_subset"),
    ("causalspaces.effects", "has_no_effect_given", "effects.given"),
    ("causalspaces.effects", "adjustment_estimate", "effects.adjust"),
    ("causalspaces.effects", "activate_dormant", "effects.activate"),
    ("causalspaces.cli", "classify_effect", "effects.classify"),
    ("causalspaces.cli", "has_no_effect_given", "effects.given"),
    ("causalspaces.gaussian", "g_intervene", "gaussian.intervene"),
    ("causalspaces.gaussian", "g_condition", "gaussian.condition"),
    ("causalspaces.gaussian", "brownian_grid", "gaussian.brownian_grid"),
    ("causalspaces.cli", "g_intervene", "gaussian.intervene"),
    ("causalspaces.cli", "g_condition", "gaussian.condition"),
    ("causalspaces.cli", "brownian_grid", "gaussian.brownian_grid"),
]

# Modules that build mechanisms by the name CausalMechanism.
MECHANISM_USERS = ("causalspaces.core", "causalspaces.compilers", "causalspaces.documents")

# Effect scans: a full scan reads two kernels per subset.
SCANS = {"effects.classify", "effects.on_subset", "effects.given", "effects.adjust", "effects.activate"}

MB = 1e6


class Tracer:
    """Span recorder; inactive (a pass-through) outside traced ops."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.peaks: list[int] = []
        self.stack: list[list] = []  # [span index, running peak, memory at open]
        self.counts: Counter = Counter()
        self.scan_atoms = 0
        self.mechanism_bytes = 0
        self.cache_entries = 0
        self.cache_bytes = 0
        self._spaces: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._held: list = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        if self.stack:
            top = self.stack[-1]
            top[1] = max(top[1], peak)
        tracemalloc.reset_peak()
        self.stack.append([len(self.names), cur, cur])
        self.names.append(name)
        self.parents.append(self.stack[-2][0] if len(self.stack) > 1 else -1)
        self.ops.append(self.op_id)
        self.peaks.append(0)
        self.ends.append(0.0)
        self.starts.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        i, running, at_open = self.stack.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        self.ends[i] = end
        self.peaks[i] = peak - at_open
        if self.stack:
            top = self.stack[-1]
            top[1] = max(top[1], peak)
        tracemalloc.reset_peak()

    def layer(self) -> str:
        return self.names[self.stack[-1][0]].split(".", 1)[0] if self.stack else "bench"

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, out)
                return out
            finally:
                tracer.close()

        return traced

    # -------------------------------------------------------------- ops

    def begin_op(self) -> None:
        """Start tracing the next op; its spans share a fresh op id."""
        self.op_id += 1
        tracemalloc.start()
        self.active = True

    def end_op(self) -> None:
        """Stop tracing, fold this op's live projection caches into the peak."""
        self.active = False
        tracemalloc.stop()
        self.stack.clear()
        entries = 0
        nbytes = 0
        for space in list(self._spaces.values()):
            entries += len(space._cache)
            nbytes += sum(v.nbytes for v in space._cache.values())
        self.cache_entries = max(self.cache_entries, entries)
        self.cache_bytes = max(self.cache_bytes, nbytes)
        self._held.clear()

    def track(self, space, hold: bool = False) -> None:
        """Count a space's projection cache while it lives.

        hold=True keeps the space alive until the op ends, so a space built
        and dropped inside one op still counts.
        """
        self._spaces[id(space)] = space
        if hold:
            self._held.append(space)

    # ---------------------------------------------------------- metrics

    def metrics(self, passes: int, wall_s: float, base_wall_s: float, traced_walls: list[float],
                oracle_err: float) -> dict:
        """Per-layer metrics, per traced pass."""
        names = self.names
        n = len(names)
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=np.intp)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        layer = [s.split(".", 1)[0] for s in names]

        # busy time counts a span only when no ancestor carries the same name
        busy = Counter()
        outer = [""] * n  # nearest ancestor outside the measure layer
        for i in range(n):
            p = parent[i]
            a = p
            nested = False
            while a >= 0:
                if names[a] == names[i]:
                    nested = True
                    break
                a = parent[a]
            if not nested:
                busy[names[i]] += dur[i]
            a = p
            while a >= 0 and layer[a] == "measure":
                a = parent[a]
            outer[i] = layer[a] if a >= 0 else "bench"

        self_by_layer = Counter()
        peak_by_layer = Counter()
        for i in range(n):
            self_by_layer[layer[i]] += self_t[i]
            peak_by_layer[layer[i]] = max(peak_by_layer[layer[i]], self.peaks[i])
        built = Counter(outer[i] for i in range(n) if names[i] == "measure.kernel_init")
        n_spans = Counter(names)

        per = 1.0 / passes
        m = {
            "cli.compile_s": busy["cli.compile"] * per,
            "cli.validate_s": busy["cli.validate"] * per,
            "cli.do_s": busy["cli.do"] * per,
            "cli.classify_s": busy["cli.classify"] * per,
            "documents.dump_s": busy["documents.dump"] * per,
            "documents.bytes_written": self.counts["bytes_written"] * per,
            "documents.read_s": busy["documents.read"] * per,
            "documents.bytes_read": self.counts["bytes_read"] * per,
            "documents.to_space_s": busy["documents.to_space"] * per,
            "documents.peak_alloc_mb": peak_by_layer["documents"] / MB,
            "compilers.compile_scm_s": busy["compilers.compile_scm"] * per,
            "compilers.compile_po_s": busy["compilers.compile_po"] * per,
            "compilers.kernels_built": built["compilers"] * per,
            "compilers.mechanism_mb": self.mechanism_bytes / MB,
            "compilers.peak_alloc_mb": peak_by_layer["compilers"] / MB,
            "core.validate_s": busy["core.validate"] * per,
            "core.intervene_hard_s": busy["core.intervene_hard"] * per,
            "core.intervene_s": busy["core.intervene"] * per,
            "core.trivial_internal_s": busy["core.trivial_internal"] * per,
            "core.kernels_out": built["core"] * per,
            "core.kernel_reads": self.counts[("core", "kernel_reads")] * per,
            "core.peak_alloc_mb": peak_by_layer["core"] / MB,
            "effects.classify_s": busy["effects.classify"] * per,
            "effects.on_subset_s": busy["effects.on_subset"] * per,
            "effects.given_s": busy["effects.given"] * per,
            "effects.adjust_s": busy["effects.adjust"] * per,
            "effects.activate_s": busy["effects.activate"] * per,
            "effects.kernel_reads": self.counts[("effects", "kernel_reads")] * per,
            "effects.scan_fraction": (
                self.counts[("effects", "kernel_reads")] / self.scan_atoms if self.scan_atoms else 0.0
            ),
            "measure.kernel_init_s": busy["measure.kernel_init"] * per,
            "measure.kernel_inits": n_spans["measure.kernel_init"] * per,
            "measure.cache_entries": float(self.cache_entries),
            "measure.cache_mb": self.cache_bytes / MB,
            "gaussian.intervene_s": busy["gaussian.intervene"] * per,
            "gaussian.condition_s": busy["gaussian.condition"] * per,
            "gaussian.kernel_builds": n_spans["gaussian.kernel_build"] * per,
        }
        for name in LAYERS:
            m[f"{name}.self_s"] = self_by_layer[name] * per
        attributed = sum(self_by_layer.values())
        m["trace.wall_s"] = wall_s * per
        m["trace.unattributed_s"] = (wall_s - attributed) * per
        m["trace.overhead_s"] = float(np.median(traced_walls)) - base_wall_s
        m["trace.spans"] = n * per
        m["check.oracle_max_abs_err"] = oracle_err
        return m

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i], "peak_bytes": self.peaks[i],
                }) + "\n")


def _count_read_bytes(tracer, args, out):
    tracer.counts["bytes_read"] += os.path.getsize(args[0])


def _count_written_bytes(tracer, args, out):
    tracer.counts["bytes_written"] += os.path.getsize(args[0])


def _count_mechanism(tracer, args, out):
    cs = out[0] if isinstance(out, tuple) else out
    space = cs.space
    rows = sum(space.n_atoms_of(mask) for mask in range(1 << space.n))
    tracer.mechanism_bytes = max(tracer.mechanism_bytes, 8 * rows * space.n_atoms)


def _count_scan(tracer, args, out):
    # outermost effects call only: nested classify calls belong to their caller's scan
    if not any(tracer.names[f[0]] in SCANS for f in tracer.stack[:-1]):
        tracer.scan_atoms += 2 << args[0].space.n


AFTER = {
    "documents.read": _count_read_bytes,
    "documents.write": _count_written_bytes,
    "compilers.compile_scm": _count_mechanism,
    "compilers.compile_po": _count_mechanism,
    **{name: _count_scan for name in SCANS},
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public names and swap in the counting mechanism."""
    from causalspaces import core, gaussian, measure

    wrapped = {}
    for modname, attr, span in TARGETS:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr)
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(fn, span, AFTER.get(span))
        setattr(mod, attr, wrapped[fn])

    measure.Kernel.__post_init__ = tracer.wrap(measure.Kernel.__post_init__, "measure.kernel_init")
    gaussian.GaussianKernel.__post_init__ = tracer.wrap(
        gaussian.GaussianKernel.__post_init__, "gaussian.kernel_build"
    )

    space_init = measure.FiniteProductSpace.__post_init__

    def register_space(space):
        space_init(space)
        if tracer.active:
            tracer.track(space, hold=True)

    measure.FiniteProductSpace.__post_init__ = register_space

    class CountingMechanism(core.CausalMechanism):
        """Mechanism that charges each kernel read to the innermost span's layer."""

        def __getitem__(self, mask):
            if tracer.active:
                tracer.counts[(tracer.layer(), "kernel_reads")] += 1
            return self.kernels[mask]

    for modname in MECHANISM_USERS:
        setattr(importlib.import_module(modname), "CausalMechanism", CountingMechanism)
