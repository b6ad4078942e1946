"""Per-layer timing for the traced run, measured from outside the program.

:class:`LayerTracer` replaces, on the running objects only, the public
entry points of each layer with wrappers that record a span — layer,
method, parent span, start, end and the keys it carried — into an
in-memory list that is summarized when the phase ends:

* ``facade`` — ``ShardedAlexIndex.get_many`` / ``insert`` /
  ``insert_many`` / ``range_query_many`` (``serve/sharded.py``);
* ``backend`` — the execution backend's ``call`` / ``scatter`` /
  ``scatter_batch`` (``serve/backend.py``, ``serve/worker.py``);
* ``durability`` — ``ShardedDurability.log`` / ``checkpoint``;
* ``core`` — each in-process shard's ``AlexIndex`` batch and insert
  methods (thread backend).  Process-backend shards run in workers, so
  their core time comes from the workers' ``shard.op.<method>``
  histograms, diffed across the phase.

A span's parent is the innermost span open on the same thread.  Core
calls that the thread backend fans out to its scatter pool get the
backend span as parent through ``repro.obs.trace.bound``, the hook the
pool already uses to carry context into its threads.  A layer's self
time is its span minus the union of the child spans it encloses.
Backend calls made inside a checkpoint (the shard snapshot) belong to
the checkpoint and get no span of their own.

Ingress time needs no wrapper inside the program: the driver times the
ingress coroutine of each request, and each facade call is matched to
the requests it carried by their keys.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.obs import trace as obs_trace

FACADE_METHODS = ("get_many", "insert", "insert_many", "range_query_many")
BACKEND_METHODS = ("call", "scatter", "scatter_batch")
DURABILITY_METHODS = ("log", "checkpoint")
#: Shard methods the facade's get_many, insert, insert_many (validate,
#: then apply) and range_query_many run.
CORE_METHODS = ("get_many", "insert", "contains_many",
                "insert_sorted_unchecked", "range_query_many")
INSERT_METHODS = ("insert", "insert_sorted_unchecked")

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "ingress.queue_p50_ms": "ms",
    "ingress.queue_p99_ms": "ms",
    "ingress.reply_p50_ms": "ms",
    "ingress.keys_per_call": "keys",
    "ingress.requests_per_call": "requests",
    "facade.self_p50_ms": "ms",
    "facade.self_p99_ms": "ms",
    "facade.shards_per_call": "shards",
    "backend.self_p50_ms": "ms",
    "backend.self_p99_ms": "ms",
    "backend.calls_per_request": "calls",
    "core.self_p50_ms": "ms",
    "core.self_p99_ms": "ms",
    "core.get_many.us_per_key": "us/key",
    "core.range_query_many.us_per_key": "us/key",
    "core.insert.us_per_call": "us/call",
    "core.probes_per_key": "count/key",
    "core.model_inferences_per_key": "count/key",
    "core.pointer_follows_per_key": "count/key",
    "core.shifts_per_insert": "count/key",
    "core.build_moves_per_insert": "count/key",
    "core.smo_count": "count",
    "durability.log_p50_ms": "ms",
    "durability.log_p99_ms": "ms",
    "durability.checkpoints": "count",
    "durability.checkpoint_ms": "ms",
    "durability.bytes_per_key": "B/key",
    "coverage": "ratio",
    "unattributed_p50_ms": "ms",
    "obs.span_overhead": "ratio",
}


class Span:
    __slots__ = ("layer", "method", "parent", "t0", "t1", "keys",
                 "shards", "ref")

    def __init__(self, layer: str, method: str, parent: "Optional[Span]"):
        self.layer = layer
        self.method = method
        self.parent = parent
        self.keys = 0
        self.shards = 0
        self.ref = None

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


def _returned_keys(result) -> int:
    return sum(len(chunk) for chunk in result)


def _describe_facade(span: Span, args: tuple, result) -> None:
    if span.method == "range_query_many":
        span.keys = _returned_keys(result)
    elif span.method == "insert":
        span.keys, span.ref = 1, float(args[0])
    else:
        span.keys, span.ref = len(args[0]), args[0]


def _describe_backend(span: Span, args: tuple, result) -> None:
    if span.method == "scatter_batch":
        jobs = args[1]
        span.shards = len(jobs)
        span.keys = sum(hi - lo for _, _, lo, hi, _ in jobs)
        span.method = jobs[0][1] if jobs else "none"
    elif span.method == "scatter":
        calls = args[0]
        span.shards = len(calls)
        span.method = calls[0][1] if calls else "none"
        if span.method == "range_query_many":
            span.keys = sum(_returned_keys(sub) for sub in result)
        else:
            span.keys = sum(len(a[0]) for _, _, a in calls)
    else:
        span.shards, span.method, span.keys = 1, args[1], 1


def _describe_core(span: Span, args: tuple, result) -> None:
    if span.method == "range_query_many":
        span.keys = _returned_keys(result)
    elif span.method == "insert":
        span.keys = 1
    else:
        span.keys = len(args[0])


def _describe_durability(span: Span, args: tuple, result) -> None:
    if span.method == "log":
        span.keys = len(args[2])


def self_times(spans: List[Span]) -> Dict[int, int]:
    """``id(span) -> self time (ns)``: each span's duration minus the
    union of the intervals its children cover inside it."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s.t0
        for c in sorted(children.get(id(s), ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, reach), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.dur - covered
    return out


def _pct_ms(values_ns, q: float) -> float:
    if not len(values_ns):
        return 0.0
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64),
                               q)) / 1e6


def _dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:            # a segment deleted mid-walk
                pass
    return total


def _hist_diff(after: dict, before: dict) -> dict:
    counts = {int(k): v for k, v in after.get("counts", {}).items()}
    for k, v in before.get("counts", {}).items():
        counts[int(k)] = counts.get(int(k), 0) - v
    return {"count": after.get("count", 0) - before.get("count", 0),
            "sum": after.get("sum", 0.0) - before.get("sum", 0.0),
            "counts": {k: v for k, v in counts.items() if v},
            "max": None}


class LayerTracer:
    """Wraps one service's layers for the length of a traced phase."""

    def __init__(self, service):
        self.service = service
        self.in_process = service.backend.name == "thread"
        self.spans: List[Span] = []
        self._tls = threading.local()
        self._undo: list = []
        self._bound = None

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap(self, obj, name: str, layer: str, describe) -> None:
        fn = getattr(obj, name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if (layer == "backend" and parent is not None
                    and parent.layer == "durability"):
                return fn(*args, **kwargs)
            span = Span(layer, name, parent)
            stack.append(span)
            span.t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter_ns()
                stack.pop()
            describe(span, args, result)
            tracer.spans.append(span)
            return result

        setattr(obj, name, wrapper)
        self._undo.append((obj, name))

    def _bound_with_parent(self, fn):
        """``trace.bound`` plus this tracer's span stack, so a core call
        on a scatter-pool thread knows the backend call it serves."""
        inner = self._bound(fn)
        stack = self._stack()
        parent = stack[-1] if stack else None
        tracer = self

        def run(*args, **kwargs):
            mine = tracer._stack()
            mine.append(parent)
            try:
                return inner(*args, **kwargs)
            finally:
                mine.pop()
        return run

    # -- the phase ----------------------------------------------------------

    def begin(self) -> None:
        """Take the before-phase readings, then install the wrappers."""
        svc = self.service
        self._counters0 = svc.counters
        self._hist0 = svc.metrics_snapshot()["merged"]["histograms"]
        self._durability = svc.durability
        self._dbytes0 = (_dir_bytes(self._durability.root)
                         if self._durability is not None else 0)
        for name in FACADE_METHODS:
            self._wrap(svc, name, "facade", _describe_facade)
        for name in BACKEND_METHODS:
            self._wrap(svc.backend, name, "backend", _describe_backend)
        if self._durability is not None:
            for name in DURABILITY_METHODS:
                self._wrap(self._durability, name, "durability",
                           _describe_durability)
        for index in (svc.shards if self.in_process else ()):
            for name in CORE_METHODS:
                self._wrap(index, name, "core", _describe_core)
        self._bound = obs_trace.bound
        obs_trace.bound = self._bound_with_parent

    def end(self) -> None:
        """Remove the wrappers, then take the after-phase readings."""
        obs_trace.bound = self._bound
        for obj, name in reversed(self._undo):
            delattr(obj, name)
        self._undo.clear()
        svc = self.service
        self._counters1 = svc.counters
        self._hist1 = svc.metrics_snapshot()["merged"]["histograms"]
        self._dbytes1 = (_dir_bytes(self._durability.root)
                         if self._durability is not None else 0)

    def last_facade_span(self) -> Optional[Span]:
        for span in reversed(self.spans):
            if span.layer == "facade":
                return span
        return None

    def match(self, requests: list, read_keys: int) -> None:
        """Attach to each ingress request the facade call that carried
        it: an append by its key, a read by its keys, which the ingress
        passes on contiguously inside the coalesced batch.  A batch
        mixes ``read_keys``-key and single-key reads, so it is walked in
        order, trying the longer request first."""
        many = {r.keys.tobytes(): r for r in requests
                if r.op == "get_many"}
        single = defaultdict(list)
        for r in requests:
            if r.op == "get":
                single[float(r.keys[0])].append(r)
        appends = {r.keys: r for r in requests if r.op == "append"}
        for span in self.spans:
            if span.layer != "facade" or span.ref is None:
                continue
            if span.method == "insert":
                req = appends.get(span.ref)
                if req is not None:
                    req.span = span
                continue
            keys = np.asarray(span.ref, dtype=np.float64)
            i = 0
            while i < len(keys):
                req = many.get(keys[i:i + read_keys].tobytes())
                if req is not None:
                    i += read_keys
                else:
                    waiting = single.get(float(keys[i]))
                    req = waiting.pop(0) if waiting else None
                    i += 1
                if req is not None:
                    req.span = span

    # -- the summary --------------------------------------------------------

    def _worker_core(self, method: str) -> dict:
        name = "shard.op." + method
        return _hist_diff(self._hist1.get(name, {}),
                          self._hist0.get(name, {}))

    def summarize(self, requests: list) -> dict:
        """The per-layer metrics for ``requests``: the driver's request
        records, each with ``sent``/``enter``/``exit``/``done`` times (ns)
        and, once matched, the facade span that served it."""
        spans = self.spans
        own = self_times(spans)
        by_layer: Dict[str, List[Span]] = defaultdict(list)
        for s in spans:
            by_layer[s.layer].append(s)
        facade = by_layer["facade"]
        backend = [s for s in by_layer["backend"]
                   if s.parent is not None and s.parent.layer == "facade"]
        out = dict.fromkeys(LAYER_METRICS, 0.0)

        matched = [r for r in requests if r.span is not None]
        via_ingress = [r for r in matched if r.enter is not None]
        if via_ingress:
            calls = {id(r.span): r.span for r in via_ingress}
            queue = [r.span.t0 - r.enter for r in via_ingress]
            out["ingress.queue_p50_ms"] = _pct_ms(queue, 50)
            out["ingress.queue_p99_ms"] = _pct_ms(queue, 99)
            out["ingress.reply_p50_ms"] = _pct_ms(
                [r.exit - r.span.t1 for r in via_ingress], 50)
            out["ingress.keys_per_call"] = float(np.mean(
                [s.keys for s in calls.values()]))
            out["ingress.requests_per_call"] = len(via_ingress) / len(calls)
            unattributed = [(r.enter - r.sent) + (r.done - r.exit)
                            for r in via_ingress]
        else:
            unattributed = [(r.done - r.sent) - r.span.dur for r in matched]
        total = sum(r.done - r.sent for r in matched)
        if total:
            out["coverage"] = 1.0 - sum(unattributed) / total
        out["unattributed_p50_ms"] = _pct_ms(unattributed, 50)

        out["facade.self_p50_ms"] = _pct_ms([own[id(s)] for s in facade], 50)
        out["facade.self_p99_ms"] = _pct_ms([own[id(s)] for s in facade], 99)
        if facade:
            out["facade.shards_per_call"] = (
                sum(s.shards for s in backend) / len(facade))
        if requests:
            out["backend.calls_per_request"] = len(backend) / len(requests)

        # Core time per shard method: wrapped calls in process, worker
        # histograms otherwise.
        core_ns: Dict[str, float] = defaultdict(float)
        if self.in_process:
            core = by_layer["core"]
            for s in core:
                core_ns[s.method] += s.dur
            backend_self = [own[id(s)] for s in backend]
            out["core.self_p50_ms"] = _pct_ms([s.dur for s in core], 50)
            out["core.self_p99_ms"] = _pct_ms([s.dur for s in core], 99)
        else:
            merged = {"count": 0, "sum": 0.0, "counts": {}, "max": None}
            mean_ns = {}
            for method in {s.method for s in backend}:
                hist = self._worker_core(method)
                core_ns[method] = hist["sum"]
                mean_ns[method] = hist["sum"] / max(1, hist["count"])
                merged["count"] += hist["count"]
                for k, v in hist["counts"].items():
                    merged["counts"][k] = merged["counts"].get(k, 0) + v
            # Shards of one scatter run in parallel, so the core time a
            # call encloses is estimated by one shard op's mean.
            backend_self = [max(0.0, s.dur - mean_ns.get(s.method, 0.0))
                            for s in backend]
            for q in (50, 99):
                value = obs.percentile_from_snapshot(merged, q)
                out[f"core.self_p{q}_ms"] = (value or 0.0) / 1e6
        out["backend.self_p50_ms"] = _pct_ms(backend_self, 50)
        out["backend.self_p99_ms"] = _pct_ms(backend_self, 99)

        keys = defaultdict(int)
        calls_per = defaultdict(int)
        for s in backend:
            keys[s.method] += s.keys
            calls_per[s.method] += s.shards
        for method in ("get_many", "range_query_many"):
            if keys[method]:
                out[f"core.{method}.us_per_key"] = (
                    core_ns[method] / keys[method] / 1e3)
        insert_calls = sum(calls_per[m] for m in INSERT_METHODS)
        if insert_calls:
            out["core.insert.us_per_call"] = sum(
                core_ns[m] for m in INSERT_METHODS) / insert_calls / 1e3

        delta = self._counters1.diff(self._counters0)
        point_keys = sum(keys[m] for m in ("get_many", "contains_many")
                         + INSERT_METHODS)
        if point_keys:
            out["core.probes_per_key"] = delta.probes / point_keys
            out["core.model_inferences_per_key"] = (
                delta.model_inferences / point_keys)
            out["core.pointer_follows_per_key"] = (
                delta.pointer_follows / point_keys)
        if delta.inserts:
            out["core.shifts_per_insert"] = delta.shifts / delta.inserts
            out["core.build_moves_per_insert"] = (
                delta.build_moves / delta.inserts)
        out["core.smo_count"] = float(delta.expansions + delta.contractions
                                      + delta.splits + delta.merges)

        logs = [s.dur for s in by_layer["durability"] if s.method == "log"]
        checkpoints = [s.dur for s in by_layer["durability"]
                       if s.method == "checkpoint"]
        out["durability.log_p50_ms"] = _pct_ms(logs, 50)
        out["durability.log_p99_ms"] = _pct_ms(logs, 99)
        out["durability.checkpoints"] = float(len(checkpoints))
        if checkpoints:
            out["durability.checkpoint_ms"] = float(np.mean(checkpoints)) / 1e6
        logged = sum(s.keys for s in by_layer["durability"]
                     if s.method == "log")
        if logged:
            out["durability.bytes_per_key"] = (
                (self._dbytes1 - self._dbytes0) / logged)
        return out
