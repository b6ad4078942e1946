"""Load generators: the open loop through the ingress and the closed loop
straight into the facade.  Both run on the caller's one thread and keep
one :class:`Request` record per client call; replies are checked against
the oracle off the clock."""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from typing import List, Optional

import numpy as np

from oracle import payload_of
from workloads import (DENSE_BATCH, RANGE_BATCH, RANGE_SPAN, READ_KEYS,
                       SECOND_SHARE)

#: How long a phase waits for its last replies before counting them
#: failed.
DRAIN_TIMEOUT_S = 60.0


class Request:
    """One client call of type ``op`` (``get_many``, ``get``, ``append``
    or ``range``); ``second`` marks the workload's second request type.
    Times are ``perf_counter_ns`` readings: ``due`` (scheduled send),
    ``sent``, ``enter``/``exit`` of the ingress coroutine (traced phases
    only) and ``done`` (reply received)."""

    __slots__ = ("op", "second", "keys", "ops", "due", "sent", "enter",
                 "exit", "done", "future", "result", "error", "span")

    def __init__(self, op: str, second: bool, keys, ops: int):
        self.op = op
        self.second = second
        self.keys = keys
        self.ops = ops
        self.enter = self.exit = self.done = None
        self.future = self.result = self.error = self.span = None

    @property
    def ok(self) -> bool:
        return self.done is not None and self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) / 1e6


class Phase:
    """The requests of one timed phase and its window ``[start, end)``
    (ns), with the backlog left when an open-loop schedule ended."""

    def __init__(self, reqs: List[Request], start: int, end: int,
                 backlog: int = 0):
        self.reqs = reqs
        self.start = start
        self.end = end
        self.backlog = backlog

    def windows(self, k: int, stat, when: str = "due"):
        """``stat(requests, window_seconds)`` over ``k`` equal
        sub-windows, a request falling in the window that holds its
        ``when`` time; windows where ``stat`` is None are skipped.
        Returns the values and each window's request count.  The
        metrics take the median, which a host stall that spoils one
        window moves little."""
        edges = np.linspace(self.start, self.end, k + 1)
        values, counts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = [r for r in self.reqs if getattr(r, when) is not None
                   and lo <= getattr(r, when) < hi]
            value = stat(sel, (hi - lo) / 1e9)
            if value is not None:
                values.append(value)
                counts.append(len(sel))
        return values, counts


class OpenLoop:
    """Sends requests through an :class:`~repro.serve.IngressRunner`
    without waiting for replies: on a Poisson schedule (fixed-rate
    phase) or whenever one of a fixed number of in-flight slots frees
    (saturation phase)."""

    def __init__(self, runner, inputs, oracle, workload):
        self.runner = runner
        self.ingress = runner.ingress
        self.inputs = inputs
        self.oracle = oracle
        self.second_op = workload.second
        self.writes_issued = 0
        #: Time each request's ingress coroutine (the traced phase).
        self.timed = False

    @staticmethod
    async def _timed(req: Request, coro):
        req.enter = time.perf_counter_ns()
        try:
            return await coro
        finally:
            req.exit = time.perf_counter_ns()

    def _issue(self, second: bool, u: np.ndarray, due: int,
               slots: Optional[threading.Semaphore] = None) -> Request:
        op = self.second_op if second else "get_many"
        if op == "append":
            key = self.inputs.write_key(self.writes_issued)
            self.writes_issued += 1
            self.oracle.sent(key)
            req = Request(op, second, key, 1)
            coro = self.ingress.insert(key, float(payload_of(key)))
        elif op == "get":
            keys = self.inputs.read_keys(u[:1], self.writes_issued)
            req = Request(op, second, keys, 1)
            coro = self.ingress.get(keys[0])
        else:
            keys = self.inputs.read_keys(u, self.writes_issued)
            req = Request(op, second, keys, len(keys))
            coro = self.ingress.get_many(keys)
        if self.timed:
            coro = self._timed(req, coro)

        def finished(_future, req=req):
            req.done = time.perf_counter_ns()
            if slots is not None:
                slots.release()

        req.due = due
        req.sent = time.perf_counter_ns()
        req.future = self.runner.asubmit(coro)
        req.future.add_done_callback(finished)
        return req

    def fixed_rate(self, rng: np.random.Generator, rate: float,
                   seconds: float) -> Phase:
        """Poisson arrivals at ``rate`` for ``seconds``."""
        n = int(rate * seconds * 1.5) + 32
        offsets = np.cumsum(rng.exponential(1.0 / rate, n))
        second = rng.random(n) < SECOND_SHARE
        draws = rng.random((n, READ_KEYS))
        start = time.perf_counter_ns() + 2_000_000
        end = start + int(seconds * 1e9)
        reqs: List[Request] = []
        for offset, is_second, u in zip(offsets.tolist(), second.tolist(),
                                        draws):
            due = start + int(offset * 1e9)
            if due >= end:
                break
            delay = due - time.perf_counter_ns()
            if delay > 0:
                time.sleep(delay / 1e9)
            reqs.append(self._issue(is_second, u, due))
        delay = end - time.perf_counter_ns()
        if delay > 0:
            time.sleep(delay / 1e9)
        backlog = sum(1 for r in reqs if r.done is None)
        drain(reqs)
        return Phase(reqs, start, end, backlog)

    def saturate(self, rng: np.random.Generator, seconds: float,
                 depth: int, ramp_s: float) -> Phase:
        """Keep ``depth`` requests in flight for ``seconds``; the phase
        window leaves out the first ``ramp_s``, while the pipeline
        fills."""
        slots = threading.Semaphore(depth)
        start = time.perf_counter_ns()
        end = start + int(seconds * 1e9)
        reqs: List[Request] = []
        while True:
            remaining = (end - time.perf_counter_ns()) / 1e9
            if remaining <= 0 or not slots.acquire(timeout=remaining):
                break
            now = time.perf_counter_ns()
            if now >= end:
                break
            draw = rng.random(READ_KEYS + 1)
            reqs.append(self._issue(bool(draw[0] < SECOND_SHARE),
                                    draw[1:], now, slots))
        drain(reqs)
        return Phase(reqs, start + int(min(ramp_s, seconds / 2) * 1e9), end)


def drain(reqs: List[Request]) -> None:
    """Wait for every reply (and its completion callback) and collect
    results; a reply still missing after the timeout stays failed."""
    wait([r.future for r in reqs], timeout=DRAIN_TIMEOUT_S)
    deadline = time.monotonic() + 5.0
    for r in reqs:
        if not r.future.done():
            r.error = TimeoutError("no reply")
            continue
        while r.done is None and time.monotonic() < deadline:
            time.sleep(0.0005)
        r.error = r.future.exception()
        if r.error is None:
            r.result = r.future.result()


def check_open(phase: Phase, oracle) -> int:
    """Register the acknowledged appends with the oracle, then check
    every read.  Returns the number of wrong replies."""
    reqs = phase.reqs
    acked = [r for r in reqs if r.op == "append" and r.ok]
    if acked:
        oracle.acked([r.keys for r in acked], [r.done for r in acked])
    wrong = 0
    for r in reqs:
        if r.ok and r.op != "append":
            values = [r.result] if r.op == "get" else r.result
            wrong += bool(oracle.check_read(r.keys, values, r.sent))
        r.result = None
    return wrong


class ClosedLoop:
    """One client calling the facade directly and waiting for each reply,
    alternating a dense ``get_many`` batch with a ``range_query_many``
    batch of short ranges.  Replies are checked between calls, off the
    clock, and then dropped: kept, every 64k-entry reply would lengthen
    the service's garbage-collector passes."""

    def __init__(self, service, inputs, oracle):
        self.service = service
        self.inputs = inputs
        self.oracle = oracle
        self.tracer = None
        self.wrong = 0

    def run(self, rng: np.random.Generator, seconds: float) -> Phase:
        start = time.perf_counter_ns()
        end = start + int(seconds * 1e9)
        reqs: List[Request] = []
        while time.perf_counter_ns() < end:
            reqs.append(self._call(len(reqs) % 2 == 1, rng))
        return Phase(reqs, start, end)

    def _call(self, second: bool, rng: np.random.Generator) -> Request:
        svc, loaded = self.service, self.inputs.keys
        if second:
            first = rng.integers(0, len(loaded) - RANGE_SPAN, RANGE_BATCH)
            los, his = loaded[first], loaded[first + RANGE_SPAN - 1]
            req = Request("range", True, (los, his), 0)
        else:
            keys = self.inputs.read_keys(rng.random(DENSE_BATCH), 0)
            req = Request("get_many", False, keys, len(keys))
        req.due = req.sent = time.perf_counter_ns()
        try:
            result = (svc.range_query_many(los, his) if second
                      else svc.get_many(keys))
        except Exception as exc:  # a failed request, counted not raised
            req.error = exc
        req.done = time.perf_counter_ns()
        if self.tracer is not None:
            req.span = self.tracer.last_facade_span()
        if req.error is None:
            if second:
                req.ops = sum(len(chunk) for chunk in result)
                self.wrong += bool(self.oracle.check_ranges(los, his,
                                                            result))
            else:
                self.wrong += bool(self.oracle.check_read(keys, result,
                                                          req.sent))
        return req
