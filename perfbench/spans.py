"""Span recording around the package's public functions, and the per-layer
metrics computed from the spans.

The recorder wraps functions from outside the package: every public
function and method of each layer module is replaced, in every module
namespace and class that binds it, by a wrapper that records a span
(name, start, end, parent, thread) in memory.  Spans are written out
once, when the run ends.  Nothing inside the package changes.

A span's self time is its duration minus its child spans on the same
thread; children that ran on worker threads overlap the parent's wait
and are not subtracted.  A layer's busy time sums its spans' busy
times, which leave that wait out too, so pool work is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("padic", "complex_map", "solenoid", "analysis", "render", "cli")
SUBCOMMANDS = ("render2d", "render3d", "dimension", "moments", "verify", "certify", "orbit")

# Leaf helpers called once per digit or per series level.  Wrapping them
# would multiply the tracing cost; their time counts to their caller.
UNWRAPPED = {"PAdic.digit", "PAdic.is_zero", "PAdic.valuation", "PAdic.norm",
             "PlaneMap.character"}
RENAMED = {"PointCloud2D.__post_init__": "PointCloud2D.validate",
           "PointCloud3D.__post_init__": "PointCloud3D.validate"}
DUNDERS = {"__add__", "__neg__", "__sub__", "__post_init__"}


def _series_evals(args, result) -> int:
    mat, start, params = args  # levels min(start, 0) .. depth
    return mat.shape[0] * (params.depth + 1 - min(start, 0))


def _table_evals(args, result) -> int:
    mat, start, params = args  # levels start .. depth
    return mat.shape[0] * (params.depth + 1 - start)


# Work counts recorded per call, from the arguments or the result.
COUNTERS = {
    "series_values": _series_evals,
    "character_table": _table_evals,
    "PlaneMap.values_on_residues": lambda args, result: len(result),
    "TorusMap.cloud": lambda args, result: len(result),
    "box_counts": lambda args, result: len(args[0]),
    "to_svg": lambda args, result: len(result),
    "export_ply": lambda args, result: len(result),
    "export_csv": lambda args, result: len(result),
}

# Reported per-layer metrics: (span name, fields) per layer.  "count" is
# the counter above, under the field's name.
METRICS = {
    "complex_map": [
        ("series_values", ("self_s", "char_evals", "threads")),
        ("character_table", ("self_s", "char_evals")),
        ("PlaneMap.values_on_residues", ("self_s", "points")),
        ("PlaneMap.cluster", ("self_s",)),
        ("PointCloud2D.validate", ("self_s",)),
        ("PlaneMap.value", ("self_s", "calls")),
        ("delta_certificate", ("self_s",)),
        ("sandwich_check", ("self_s",)),
        ("scaling_residuals", ("self_s",)),
    ],
    "solenoid": [
        ("TorusMap.cloud", ("self_s", "points")),
        ("TorusMap.fiber_values", ("self_s", "calls")),
        ("PointCloud3D.validate", ("self_s",)),
        ("TorusMap.fiber_value", ("self_s", "calls")),
        ("add", ("self_s", "calls")),
        ("neg", ("self_s", "calls")),
        ("distance", ("self_s", "calls")),
        ("delta_tilde_certificate", ("self_s",)),
        ("gamma_estimate", ("self_s",)),
    ],
    "padic": [(name, ("self_s", "calls")) for name in
              ("expand", "PAdic.__add__", "PAdic.__neg__", "from_int")],
    "analysis": [
        ("box_dimension", ("self_s",)),
        ("box_counts", ("self_s", "calls", "points")),
        ("moment", ("self_s",)),
        ("moment_series", ("self_s",)),
        ("tuple_coefficient", ("calls",)),
        ("metric_divergence", ("self_s",)),
        ("character_order_gap", ("self_s",)),
    ],
    "render": [
        ("build_cloud", ("self_s",)),
        ("rasterize", ("self_s",)),
        ("to_svg", ("self_s", "bytes")),
        ("export_ply", ("self_s", "bytes")),
        ("export_csv", ("self_s", "bytes")),
    ],
    "cli": [(f"cli.{sub}", ("self_s",)) for sub in SUBCOMMANDS],
}
UNITS = {"self_s": "s", "busy_s": "s", "overhead_s": "s", "calls": "count",
         "char_evals": "count", "threads": "count", "points": "count", "bytes": "bytes"}


class Tracer:
    """In-memory span recorder; safe to call from several threads.

    Spans are kept as columns: name id, start, end, parent index (-1 for
    a root), the recording thread's number, and a work count (0 when the
    function has no counter).
    """

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # (span name, layer)
        self.columns = {"name": array("i"), "start": array("d"), "end": array("d"),
                        "parent": array("q"), "thread": array("i"), "count": array("q")}
        self.enabled = True
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_numbers = itertools.count()

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            with self._lock:
                local.number = next(self._thread_numbers)
        return local.stack

    def name_id(self, name: str, layer: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append((name, layer))
            return self._ids[name]

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        c = self.columns
        with self._lock:
            index = len(c["start"])
            c["name"].append(name_id)
            c["start"].append(time.perf_counter())
            c["end"].append(0.0)
            c["parent"].append(parent)
            c["thread"].append(self._local.number)
            c["count"].append(0)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.columns["end"][index] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        index = self._open(self.name_id(name, layer))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, layer: str):
        name_id = self.name_id(name, layer)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                tracer.columns["count"][index] = counter(args, result)
            return result

        return traced

    def adopt(self, fn):
        """Run fn on another thread as a child of the current span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1

        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def save(self, path) -> None:
        """Write the spans out as a numpy archive."""
        np.savez(path, span_name=np.array([n for n, _ in self.names]),
                 span_layer=np.array([layer for _, layer in self.names]),
                 **{key: np.frombuffer(col, dtype=col.typecode) for key, col in self.columns.items()})


def _public_callables(module):
    """(span name, function) for each public function and method of a layer module."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                qual = f"{name}.{attr}"
                public = not attr.startswith("_") or attr in DUNDERS
                if (inspect.isfunction(val) and public and qual not in UNWRAPPED
                        and (attr != "__post_init__" or qual in RENAMED)):
                    yield RENAMED.get(qual, qual), val


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules wherever it is bound,
    and let the kernel's thread pool pass the current span to its workers."""
    package = importlib.import_module("padic_fractal")
    modules = [package] + [importlib.import_module(f"padic_fractal.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules[1:]):
        for name, fn in _public_callables(module):
            wrappers[id(fn)] = tracer.wrap(fn, name, layer)

    from concurrent.futures import ThreadPoolExecutor

    class AdoptingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt(fn), *args, **kwargs)

    wrappers[id(ThreadPoolExecutor)] = AdoptingExecutor
    owners = list(modules)
    owners += [obj for m in modules for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.startswith("padic_fractal")]
    for owner in owners:
        for attr, val in list(vars(owner).items()):
            if id(val) in wrappers:
                setattr(owner, attr, wrappers[id(val)])


# ---------------------------------------------------------------------------
# analysis of recorded spans


def self_times(start, end, parent, thread) -> np.ndarray:
    """Self time of each span: its duration minus its child spans on the
    same thread.  Spans on one thread nest as a stack, so those children
    are disjoint and their union is their sum; children on other threads
    overlap the parent's wait and are not subtracted.  parent is -1 for
    a root."""
    start, end = np.asarray(start, dtype=np.float64), np.asarray(end, dtype=np.float64)
    parent, thread = np.asarray(parent, dtype=np.int64), np.asarray(thread)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    child = child[thread[parent[child]] == thread[child]]
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))


def busy_times(start, end, parent, thread) -> np.ndarray:
    """Busy time of each span: its duration minus the union of all its
    children's intervals, whatever thread they ran on.  It equals the
    self time unless a child ran on another thread; then the time the
    span spent waiting on that child is work of the child, not of the
    span, and counted once."""
    start, end = np.asarray(start, dtype=np.float64), np.asarray(end, dtype=np.float64)
    parent, thread = np.asarray(parent, dtype=np.int64), np.asarray(thread)
    busy = self_times(start, end, parent, thread)
    child = np.flatnonzero(parent >= 0)
    waiting = np.unique(parent[child[thread[parent[child]] != thread[child]]])
    for p in waiting:
        kids = child[parent[child] == p]
        lo = np.clip(start[kids], start[p], end[p])
        hi = np.clip(end[kids], start[p], end[p])
        covered, reach = 0.0, start[p]
        for a, b in sorted(zip(lo, hi)):
            covered += max(b - max(a, reach), 0.0)
            reach = max(reach, b)
        busy[p] = end[p] - start[p] - covered
    return busy


def layer_metrics(dump, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Median over the pass windows of each pass's per-layer metrics.

    dump holds the columns Tracer.save writes; a span belongs to the
    window its start falls in.
    """
    names = [str(n) for n in dump["span_name"]]
    layers = [str(n) for n in dump["span_layer"]]
    ids = {name: i for i, name in enumerate(names)}
    name, start, parent, thread, count = (dump[k] for k in ("name", "start", "parent", "thread", "count"))
    selfs = self_times(start, dump["end"], parent, thread)
    busys = busy_times(start, dump["end"], parent, thread)
    layer_of = np.array([LAYERS.index(layer) for layer in layers], dtype=np.int64)
    per_pass = []
    for lo, hi in windows:
        keep = (start >= lo) & (start <= hi)
        nm = name[keep]
        self_s = np.bincount(nm, weights=selfs[keep], minlength=len(names))
        calls = np.bincount(nm, minlength=len(names))
        work = np.bincount(nm, weights=count[keep], minlength=len(names))
        busy = np.bincount(layer_of[nm], weights=busys[keep], minlength=len(LAYERS))
        out = {}
        for specs in METRICS.values():
            for span_name, fields in specs:
                i = ids.get(span_name)
                for field in fields:
                    if i is None:
                        value = 0
                    elif field == "self_s":
                        value = float(self_s[i])
                    elif field == "calls":
                        value = int(calls[i])
                    elif field == "threads":
                        mine = keep & (name == i)
                        pairs = np.unique(np.stack([parent[mine], thread[mine]]), axis=1)
                        value = int(np.unique(pairs[0], return_counts=True)[1].max(initial=0))
                    else:
                        value = int(work[i])
                    out[f"{span_name}.{field}"] = value
        for j, layer in enumerate(LAYERS):
            out[f"{layer}.busy_s"] = float(busy[j])
        per_pass.append(out)
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]
