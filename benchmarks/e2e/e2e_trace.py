"""Outside-in span tracer for the end-to-end benchmark.

The package ships no tracing of its own (ROADMAP item 1 adds it), so
the benchmark records spans from *its* side of each layer boundary: it
replaces the layers' public callables -- class attributes and module
functions -- with a timing shim for the duration of a traced repetition
and restores every one afterwards.  A span is ``(name, start, end,
parent, request)``: ``parent`` is the index of the span that was open
when this one started (``-1`` for a root), ``request`` the
``(repetition, client, query)`` of the enclosing ``step_query`` call.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so self times telescope: summed over every span they equal
the duration of the root spans, and what the roots do not cover is the
``trace.residual_share`` of the wall clock.

End-to-end numbers never come from a traced repetition; the shim costs
about a microsecond per span, which lands in the *caller's* self time
(``trace.overhead_ratio`` says how much that is in total).
"""

from __future__ import annotations

import importlib
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["SPAN_POINTS", "Tracer", "layer_of", "summarize"]

#: ``(module, class or None, attribute, span name)``; the span's layer is
#: its name up to the last dot.  A class entry patches the class that
#: *defines* the attribute (subclasses inherit the shim); a ``None``
#: class patches a module function in every ``repro`` module that
#: imported it by name.
SPAN_POINTS = [
    ("repro.index.base", "SpatialIndex", "query", "index.query"),
    ("repro.index.base", "SpatialIndex", "query_many", "index.query_many"),
    ("repro.index.rtree", "STRTree", "pages_for_regions", "index.region_probe"),
    ("repro.index.rtree", "STRTree", "pages_for_region", "index.region_probe"),
    ("repro.core.scout", "ScoutPrefetcher", "observe", "core.observe"),
    ("repro.core.scout", "ScoutPrefetcher", "plan", "core.plan"),
    ("repro.graph.builder", None, "build_graph", "graph.build"),
    ("repro.graph.traversal", None, "region_crossings", "graph.crossings"),
    ("repro.graph.traversal", None, "region_crossings_grouped", "graph.crossings"),
    ("repro.baselines.base", "PositionOnlyPrefetcher", "observe", "baselines.observe"),
    ("repro.baselines.extrapolation", "EWMAPrefetcher", "plan", "baselines.plan"),
    ("repro.baselines.extrapolation", "StraightLinePrefetcher", "plan", "baselines.plan"),
    ("repro.baselines.extrapolation", "PolynomialPrefetcher", "plan", "baselines.plan"),
    ("repro.baselines.extrapolation", "VelocityPrefetcher", "plan", "baselines.plan"),
    ("repro.storage.disk", "DiskModel", "read_pages", "storage.disk.read"),
    ("repro.storage.disk", "DiskModel", "cost_if_cold", "storage.disk.estimate"),
    ("repro.storage.disk", "DiskModel", "trim_to_budget", "storage.disk.estimate"),
    ("repro.storage.faults", "FaultyDiskModel", "read_pages", "storage.faults.read"),
    ("repro.storage.faults", "FaultyDiskModel", "verify_delivery", "storage.faults.verify"),
    ("repro.storage.faults", "FaultyDiskModel", "recover_read", "storage.faults.recover"),
    ("repro.storage.faults", "FaultyDiskModel", "cost_if_cold", "storage.faults.estimate"),
    ("repro.storage.faults", "FaultyDiskModel", "trim_to_budget", "storage.faults.estimate"),
    ("repro.storage.tiered", "TieredStore", "read_pages", "storage.tiered.read"),
    ("repro.storage.tiered", "TieredStore", "verify_delivery", "storage.tiered.verify"),
    ("repro.storage.tiered", "TieredStore", "recover_read", "storage.tiered.recover"),
    ("repro.storage.tiered", "TieredStore", "cost_if_cold", "storage.tiered.estimate"),
    ("repro.storage.tiered", "TieredStore", "trim_to_budget", "storage.tiered.estimate"),
    ("repro.sim.engine", "QuerySession", "__init__", "sim.engine.session"),
    ("repro.sim.engine", "QuerySession", "step_query", "sim.engine.step"),
    # Capture and replay both run step_query inside, so "sim.engine.step"
    # spans count queries exactly; these two only add their own glue.
    ("repro.sim.engine", "QuerySession", "step_query_capture", "sim.engine.step_capture"),
    ("repro.sim.engine", "QuerySession", "step_query_replay", "sim.engine.step_replay"),
    ("repro.sim.serve", "ServingSimulator", "run", "sim.serve.run"),
    ("repro.serve.protocol", None, "encode_frame", "serve.protocol.encode"),
    ("repro.serve.protocol", None, "decode_frame", "serve.protocol.decode"),
]
for _cache in ("ArrayCache", "PrefetchCache"):
    for _attr, _kind in [
        ("touch_many", "touch"),
        ("touch", "touch"),
        ("owners_many", "lookup"),
        ("evicted_many", "lookup"),
        ("contains_many", "lookup"),
        ("missing_many", "lookup"),
        ("insert_many", "insert"),
        ("insert", "insert"),
    ]:
        SPAN_POINTS.append(("repro.storage.cache", _cache, _attr, f"storage.cache.{_kind}"))
for _attr in (
    "touch_many",
    "touch",
    "owners_many",
    "evicted_many",
    "contains_many",
    "missing_many",
    "insert_many",
    "insert",
):
    SPAN_POINTS.append(("repro.storage.sharded", "ShardedCache", _attr, "storage.sharded.op"))
for _attr in ("route_many", "route"):
    SPAN_POINTS.append(("repro.storage.sharded", "ShardedCache", _attr, "storage.sharded.route"))

#: Classes whose instances a traced repetition collects, so that the
#: harness can read their public counters afterwards (``disk.stats``,
#: ``store.tier_stats``, ``cache.hops`` ...).
CAPTURED_CLASSES = [
    ("repro.storage.disk", "DiskModel"),
    ("repro.storage.faults", "FaultyDiskModel"),
    ("repro.storage.tiered", "TieredStore"),
    ("repro.storage.sharded", "ShardedCache"),
    ("repro.storage.cache", "ArrayCache"),
    ("repro.storage.cache", "PrefetchCache"),
    ("repro.core.scout", "ScoutPrefetcher"),
]

#: Span names that carry a request id of their own.
_REQUEST_SPANS = {"sim.engine.step", "sim.engine.step_capture", "sim.engine.step_replay"}


def layer_of(span_name: str) -> str:
    """``storage.cache.touch`` -> ``storage.cache``; ``core.plan`` -> ``core``."""
    return span_name.rsplit(".", 1)[0]


class _Patches:
    """Attribute replacements that are undone together, newest first."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _undo(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class Tracer(_Patches):
    """Installs the shims, collects one repetition's spans, restores."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list = []
        self.instances: dict[str, list] = defaultdict(list)
        self.repetition = 0
        self._stack: list[int] = []
        self._request = None

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every span point and capture class; undo on exit."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, class_name, attr, span_name in SPAN_POINTS:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._patch_function(module, attr, span_name)
                else:
                    self._patch(getattr(module, class_name), attr, span_name)
            for module_name, class_name in CAPTURED_CLASSES:
                cls = getattr(importlib.import_module(module_name), class_name)
                self._patch_init(cls)
            yield self
        finally:
            self._undo()

    def _patch(self, owner, attr: str, span_name: str) -> None:
        self._replace(owner, attr, self._shim(owner.__dict__[attr], span_name))

    def _patch_function(self, module, attr: str, span_name: str) -> None:
        original = getattr(module, attr)
        shim = self._shim(original, span_name)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if candidate.__dict__.get(attr) is original:
                self._replace(candidate, attr, shim)

    def _patch_init(self, cls) -> None:
        original = cls.__dict__["__init__"]
        bucket = self.instances[cls.__name__]

        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            if type(instance) is cls:
                bucket.append(instance)

        self._replace(cls, "__init__", init)

    def _shim(self, original, span_name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if span_name in _REQUEST_SPANS:

            def shim(session, *args, **kwargs):
                outer = self._request
                self._request = (self.repetition, session.client_id, session.query_index)
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    return original(session, *args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (span_name, start, end, parent, self._request)
                    self._request = outer

        else:

            def shim(*args, **kwargs):
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (span_name, start, end, parent, self._request)

        shim.__wrapped__ = original
        return shim

    # -- harness-side spans -----------------------------------------------------

    @contextmanager
    def span(self, span_name: str):
        """A span the harness opens itself (e.g. around one daemon burst)."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (span_name, start, end, parent, self._request)

    def take(self) -> tuple[list, dict[str, list]]:
        """Hand over (and forget) the spans and instances collected so far."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans = list(self.spans)
        instances = {name: list(found) for name, found in self.instances.items()}
        self.spans.clear()
        for found in self.instances.values():
            found.clear()
        return spans, instances


def summarize(spans: list, wall_seconds: float) -> dict:
    """Per-span-name and per-layer totals of one traced repetition.

    Returns ``{"names": {name: {calls, seconds, self_seconds}},
    "layers": {layer: self_seconds}, "residual_share": float}`` where
    the residual is the share of ``wall_seconds`` no root span covers.
    """
    child_seconds = [0.0] * len(spans)
    root_seconds = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
        else:
            root_seconds += end - start
    names: dict[str, dict] = {}
    layers: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), covered in zip(spans, child_seconds):
        entry = names.setdefault(name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
        own = (end - start) - covered
        entry["calls"] += 1
        entry["seconds"] += end - start
        entry["self_seconds"] += own
        layers[layer_of(name)] += own
    residual = (wall_seconds - root_seconds) / wall_seconds if wall_seconds > 0 else 0.0
    return {"names": names, "layers": dict(layers), "residual_share": residual}


class PrefetchUse(_Patches):
    """Counts prefetched pages that were hit before they left the cache.

    ``storage.cache.used_prefetch_share`` = insertions later hit /
    insertions: the share of prefetch work that was useful.  The cache's
    counters cannot tell, so an (untimed) accounting repetition wraps
    the caches' public ``insert*`` / ``touch*`` and follows every page:
    an insertion of an absent page is *fresh*; the first hit on a fresh
    page makes it *used*.  A page migrated between shards is a new
    insertion at its destination, as the cache itself counts it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.inserted = 0
        self.used = 0
        self._fresh = weakref.WeakKeyDictionary()  # cache -> {page: still unused}
        self._depth = 0

    @property
    def share(self) -> float:
        return self.used / self.inserted if self.inserted else 0.0

    @contextmanager
    def installed(self):
        from repro.storage.cache import ArrayCache, PrefetchCache

        try:
            for cls in (ArrayCache, PrefetchCache):
                for attr in ("insert_many", "insert"):
                    self._replace(cls, attr, self._insert_shim(cls.__dict__[attr], attr))
                for attr in ("touch_many", "touch"):
                    self._replace(cls, attr, self._touch_shim(cls.__dict__[attr], attr))
            yield self
        finally:
            self._undo()

    def _insert_shim(self, original, attr: str):
        def shim(cache, page_ids, owner=None):
            if self._depth:  # insert_many falling back to insert: already counted
                return original(cache, page_ids, owner)
            pages = [int(page_ids)] if attr == "insert" else [int(p) for p in page_ids]
            absent = [p for p, there in zip(pages, cache.contains_many(pages)) if not there]
            self._depth += 1
            try:
                original(cache, page_ids, owner)
            finally:
                self._depth -= 1
            fresh = self._fresh.setdefault(cache, {})
            for page in set(absent):
                fresh[page] = True
                self.inserted += 1

        return shim

    def _touch_shim(self, original, attr: str):
        def shim(cache, page_ids):
            hit = original(cache, page_ids)
            fresh = self._fresh.get(cache)
            if fresh:
                if attr == "touch":
                    hits = [int(page_ids)] if hit else []
                else:
                    hits = [int(p) for p, h in zip(page_ids, hit) if h]
                for page in hits:
                    if fresh.get(page):
                        fresh[page] = False
                        self.used += 1
            return hit

        return shim
