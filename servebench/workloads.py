"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload loads ``NUM_KEYS`` lognormal keys into a ``SHARDS``-shard
service with payload ``payload_of(key)``.  An *operation* is one key: a
looked-up key, an inserted key, or a key returned by a range.  A
*request* is one client call.  Each workload mixes two request types,
its *read* and its *second* type, and latency is reported per type,
because a mix puts its median in the gap between the two.

* ``read_sparse`` — open-loop Poisson reads through the ingress onto
  the process backend: 16-key ``get_many`` requests (the read) and
  single-key ``get`` requests (the second type), half each.  This path
  does the most work in the ingress window, the pool handoff, the
  pipe/shared-memory transport and the core's sparse small-batch path.
  The rate, 100 req/s, is about a ninth of the capacity measured at 64
  requests in flight (~880 req/s on a 2-core host): at a quarter of it
  the median already doubled against light load as the ingress, pool
  and reply threads contend for the interpreter lock, and a host
  running 1.5x slower must still leave the service far from its knee.
* ``write_hot`` — open loop, half 16-key reads and half single-key
  appends just past the current maximum key (time-ordered keys: the
  paper's fully-packed region case), through the ingress onto the
  thread backend with the WAL on (``fsync="batch"``).  Writes exercise
  the WAL, checkpoints and the exclusive shard lock that reads queue
  behind.  ``checkpoint_every`` is set so several checkpoints complete
  inside every timed phase; their stall is then in every run's tail.
  The rate, 40 req/s, is about an eighth of the ~320 req/s the mix
  completes with ``IN_FLIGHT`` requests in flight.  The process runs on
  one CPU (``Workload.cpus``).
* ``batch_dense`` — one closed-loop client calling the facade directly
  on the thread backend, alternating 64k-key ``get_many`` batches (many
  keys per leaf; the read) and ``range_query_many`` batches of short
  ranges (the second type).  The batch engine, kernels, scan path and
  scatter pool do the work; the ingress and transport do none, so a
  change to those must leave this workload unchanged.

``BENCHMARK.json`` gates only ``write_hot`` and ``batch_dense``.
``read_sparse`` runs the same way but is left out of it: on a 2-vCPU
host its parent process and two workers compete for the cores, so its
latencies follow the host's speed (which drifts for minutes at a time)
more than the other two do, and ten runs of it spread beyond the 25%
bound (interquartile range 0.2-0.6 of the median in three sets).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

NUM_KEYS = 200_000
SHARDS = 2
READ_KEYS = 16
#: Ingress settings shared by the open-loop workloads.
WINDOW_S = 0.001
SUBMIT_WORKERS = 4
MAX_QUEUE = 1 << 17
#: Requests kept in flight by the saturation phase.
IN_FLIGHT = 64
#: Share of open-loop requests of the workload's second type.
SECOND_SHARE = 0.5
#: A read may target an appended key only once this many later appends
#: were issued, so reads mostly see acknowledged writes.
READ_LAG_WRITES = 64
#: batch_dense request shapes.
DENSE_BATCH = 65_536
RANGE_BATCH = 2_048
RANGE_SPAN = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str                 # "open" (Poisson schedule) or "closed"
    backend: str              # "thread" or "process"
    second: str               # "get" (1 key), "append" or "range"
    #: Peak throughput is the median over sub-windows of this length of
    #: the saturation phase, so a host stall that spoils a few seconds
    #: moves it little.  (Latency percentiles pool the whole phase.)
    window_s: float = 1.0
    #: The latency tail printed in the diagnostics: p99 where a run
    #: holds enough requests of each type for it, else the highest
    #: percentile that leaves about ten samples beyond it.
    tail_pct: float = 99.0
    rate: float = 0.0         # requests/s in the fixed-rate phase
    fsync: str = ""           # WAL fsync policy ("" = no durability)
    checkpoint_every: int = 0
    #: CPUs the benchmark process (generator and service) runs on;
    #: 0 = every CPU it may use.
    cpus: int = 0

    def metadata(self, num_keys: int, seconds: float) -> dict:
        from repro.core.kernels import default_backend_name
        meta = asdict(self)
        meta.update(
            keys=num_keys, distribution="lognormal(0, 2) * 1e9, floored",
            shards=SHARDS, kernel_backend=default_backend_name(),
            nproc=os.cpu_count(), run_seconds=seconds)
        if self.loop == "open":
            meta.update(read_keys=READ_KEYS, second_share=SECOND_SHARE,
                        ingress_window_ms=WINDOW_S * 1e3,
                        submit_workers=SUBMIT_WORKERS, in_flight=IN_FLIGHT)
        else:
            meta.update(dense_batch=DENSE_BATCH, range_batch=RANGE_BATCH,
                        range_span=RANGE_SPAN)
        return meta


WORKLOADS = {w.name: w for w in (
    Workload(
        "read_sparse",
        "16-key get_many + single-key get reads, open loop at 100 req/s "
        "via the ingress onto the process backend: ingress window, pool "
        "handoff, pipe/shm transport, small-batch core",
        # ~1,900 requests of each type: p99 leaves ~19 beyond it.
        loop="open", backend="process", second="get", rate=100.0),
    Workload(
        "write_hot",
        "16-key reads + time-ordered single-key appends, open loop at 40 "
        "req/s via the ingress onto the thread backend, WAL on (fsync=batch, "
        "checkpoint every 64 writes): WAL, checkpoints, write lock",
        # Capacity at IN_FLIGHT requests measured ~290-350 req/s in four
        # runs on one CPU of a 2-core host (~2,500-2,900 keys/s at 8.5
        # keys per request); 40 req/s is about an eighth of it.
        # Checkpoints come every ~3.2 s (64 appends at 20/s) and stall
        # their shard for ~0.2 s (CPU-bound), which sets the read tail.
        # Under saturation one comes every ~0.4 s, about six per 2.5 s
        # window.
        # One CPU: the generator, ingress loop, submit workers and
        # scatter pool are threads of one interpreter that take turns
        # on its lock, so a second CPU adds little parallelism and many
        # hand-offs between vCPUs.  On a shared 2-vCPU VM those
        # hand-offs wait on the host: unpinned, four runs in ten ran at
        # half speed from start to end (median read latency 16-23 ms
        # against about 9) while a single-threaded reference loop
        # timed normally.
        loop="open", backend="thread", second="append", window_s=2.5,
        rate=40.0, fsync="batch", checkpoint_every=64, cpus=1),
    Workload(
        "batch_dense",
        "one closed-loop client on the facade, thread backend, alternating "
        "64k-key get_many and 2k short-range range_query_many batches: "
        "batch engine, kernels, scans, scatter pool; no ingress",
        # A request takes 0.15-0.2 s, so a peak window needs several
        # seconds; a 55 s run pools ~140 of each request type, so the
        # tail is p90.
        loop="closed", backend="thread", second="range", window_s=6.0,
        tail_pct=90.0),
)}


class Inputs:
    """Everything a run feeds the service, generated from one seed."""

    def __init__(self, workload: Workload, seed: int, num_keys: int):
        rng = np.random.default_rng([seed, 0])
        self.keys = np.unique(
            np.floor(rng.lognormal(0.0, 2.0, num_keys) * 1e9))
        gaps = rng.integers(1, 1 << 10, 1 << 16).astype(np.float64)
        #: Appended keys, in issue order: time-ordered, past every key.
        self.write_keys = self.keys[-1] + np.cumsum(gaps)
        self._seed = seed

    def stream(self, name: str) -> np.random.Generator:
        """A named random stream, so each phase draws the same requests
        for a seed however many requests earlier phases issued."""
        index = {"setup": 1, "fixed": 2, "saturate": 3, "closed": 4,
                 "traced": 5}[name]
        return np.random.default_rng([self._seed, index])

    def write_key(self, seq: int) -> float:
        if seq >= len(self.write_keys):
            raise RuntimeError("benchmark write-key pool exhausted")
        return float(self.write_keys[seq])

    def read_keys(self, u: np.ndarray, writes_issued: int) -> np.ndarray:
        """Map uniform draws ``u`` onto the loaded keys plus the keys
        appended at least ``READ_LAG_WRITES`` appends ago."""
        n0 = len(self.keys)
        visible = max(0, writes_issued - READ_LAG_WRITES)
        idx = (u * (n0 + visible)).astype(np.int64)
        out = np.empty(len(idx), dtype=np.float64)
        loaded = idx < n0
        out[loaded] = self.keys[idx[loaded]]
        out[~loaded] = self.write_keys[idx[~loaded] - n0]
        return out
