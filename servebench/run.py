"""Service benchmark: one workload, end to end or traced per layer.

Run from the repository root::

    python3 servebench/run.py --workload write_hot --seed 1 \\
        --seconds 55 --trace 0

Workloads (see ``workloads.py``): ``read_sparse``, ``write_hot``,
``batch_dense``; ``BENCHMARK.json`` gates the last two.  ``--trace 0``
measures the end-to-end metrics:

* the fixed-rate phase (open loop: Poisson arrivals at the workload's
  rate, latency timed from each request's scheduled send; closed loop:
  the client's own pace) gives the median latency, pooled over the
  phase, of the workload's read (``read_p50_ms``) and of its second
  request type (``second_p50_ms``) and, at its end, ``bytes_per_key``;
* the saturation phase (open loop: ``IN_FLIGHT`` requests kept in
  flight from the same generator thread; closed loop: the same loop)
  gives ``peak_ops_s``, operations (keys) completed per second, the
  median over sub-windows of ``Workload.window_s``;
* ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups: bulk load,
  service start, worker spawn and warm-up.

The latency tail (the percentile ``Workload.tail_pct``), the
per-window peak values and how late the generator ran go to the
diagnostics line.  The tails are not gated: ten runs of the same code
spread them past the largest allowed bound on a shared 2-core host.
A workload with ``Workload.cpus`` set runs the whole process on that
many CPUs (see ``workloads.py``).

``--trace 1`` runs the fixed-rate phase twice, plain and then with the
layer wrappers of ``layers.py`` installed, and reports the per-layer
metrics of the second plus ``obs.span_overhead``, the traced read p50
over the plain one.

Every reply is checked against a sorted-array oracle; the service is
validated and its full contents compared after the run.  The last line
printed is the result object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it holds the run's metadata and validity
diagnostics.  The exit code is 0 when every reply was right, 1 when one
was wrong, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for durability directories, inside the checkout.
TMP_ROOT = os.path.join(ROOT, ".servebench-tmp")

SETUP_REPEATS = 3
#: Share of ``--seconds`` the end-to-end run spends at the fixed rate;
#: the rest is the saturation phase.
FIXED_SHARE = 0.5
#: The saturation phase's first second, while its pipeline fills, is
#: not counted.
SATURATION_RAMP_S = 1.0

END_TO_END = {
    "read_p50_ms": "ms",
    "second_p50_ms": "ms",
    "peak_ops_s": "ops/s",
    "setup_s": "s",
    "bytes_per_key": "B/key",
}


def host_ref_ms() -> float:
    """Median time of a fixed pure-Python loop that touches nothing of
    the program: a slow host shows here, a slow change does not."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _pct(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def _window_median(phase, window_s, stat, diag, name,
                   when="due") -> float:
    """The median of ``stat`` over sub-windows of about ``window_s`` of
    the phase (the per-window values and request counts go to the
    diagnostics)."""
    k = max(1, round((phase.end - phase.start) / 1e9 / window_s))
    values, counts = phase.windows(k, stat, when)
    diag.setdefault("windows", {})[name] = values
    diag.setdefault("window_requests", {})[name] = counts
    return statistics.median(values) if values else 0.0


def _latency_metrics(phase, tail_pct, diag) -> dict:
    """The median latency of each request type, pooled over the whole
    phase.  The diagnostics get the ``tail_pct`` percentile, the sample
    count and how many samples lie beyond the tail."""
    metrics = {}
    for kind in ("read", "second"):
        lat = [r.latency_ms for r in phase.reqs
               if r.second == (kind == "second") and r.ok]
        diag[f"{kind}_samples"] = len(lat)
        diag[f"{kind}_beyond_tail"] = len(lat) * (100 - tail_pct) / 100
        diag[f"{kind}_tail_ms"] = _pct(lat, tail_pct)
        metrics[f"{kind}_p50_ms"] = _pct(lat, 50)
    return metrics


def _bytes_per_key(facade) -> float:
    return ((facade.index_size_bytes() + facade.data_size_bytes())
            / len(facade))


def _span_overhead(plain, traced) -> float:
    """Traced read p50 over the untraced one (whole phases)."""
    p50 = [_pct([r.latency_ms for r in ph.reqs if not r.second and r.ok],
                50)
           for ph in (plain, traced)]
    return p50[1] / p50[0] if p50[0] else 0.0


class Service:
    """One set-up of a workload's service: the facade, the ingress runner
    for open-loop workloads, and the durability directory.  ``close``
    stops workers and removes the directory, also after a failure."""

    def __init__(self, workload, inputs, wrap_service=None):
        from oracle import payload_of
        from repro.serve import IngressRunner, ShardedAlexIndex
        import workloads as wl
        self.runner = self.facade = self.tmp = None
        try:
            kwargs = {}
            if workload.fsync:
                os.makedirs(TMP_ROOT, exist_ok=True)
                self.tmp = tempfile.mkdtemp(dir=TMP_ROOT)
                kwargs.update(durability_dir=os.path.join(self.tmp, "d"),
                              fsync=workload.fsync,
                              checkpoint_every=workload.checkpoint_every)
            self.facade = ShardedAlexIndex.bulk_load(
                inputs.keys, payload_of(inputs.keys).tolist(),
                num_shards=wl.SHARDS, backend=workload.backend, **kwargs)
            self.client = (self.facade if wrap_service is None
                           else wrap_service(self.facade))
            rng = inputs.stream("setup")
            if workload.loop == "open":
                self.runner = IngressRunner(
                    self.client, window_s=wl.WINDOW_S,
                    submit_workers=wl.SUBMIT_WORKERS,
                    max_queue=wl.MAX_QUEUE, overload="shed")
                for _ in range(32):
                    self.runner.get_many(
                        inputs.read_keys(rng.random(wl.READ_KEYS), 0))
            else:
                self.client.get_many(
                    inputs.read_keys(rng.random(wl.DENSE_BATCH), 0))
                first = rng.integers(0, len(inputs.keys) - wl.RANGE_SPAN,
                                     wl.RANGE_BATCH)
                self.client.range_query_many(
                    inputs.keys[first],
                    inputs.keys[first + wl.RANGE_SPAN - 1])
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        try:
            if self.runner is not None:
                self.runner.close()
        finally:
            try:
                if self.facade is not None:
                    self.facade.close()
            finally:
                if self.tmp is not None:
                    shutil.rmtree(self.tmp, ignore_errors=True)
        self.runner = self.facade = self.tmp = None


def run_open(service, workload, inputs, oracle, seconds, trace, diag):
    from driver import OpenLoop, check_open
    from layers import LayerTracer
    import workloads as wl
    loop = OpenLoop(service.runner, inputs, oracle, workload)
    fixed_s = seconds / 2 if trace else seconds * FIXED_SHARE
    fixed = loop.fixed_rate(inputs.stream("fixed"), workload.rate, fixed_s)
    wrong = check_open(fixed, oracle)
    gen_late = [(r.sent - r.due) / 1e6 for r in fixed.reqs]
    diag.update(gen_late_p50_ms=_pct(gen_late, 50),
                gen_late_p99_ms=_pct(gen_late, 99),
                gen_late_max_ms=max(gen_late, default=0.0),
                backlog_at_end=fixed.backlog,
                fixed_phase_requests=len(fixed.reqs))
    if not trace:
        metrics = _latency_metrics(fixed, workload.tail_pct, diag)
        metrics["bytes_per_key"] = _bytes_per_key(service.facade)
        sat = loop.saturate(inputs.stream("saturate"), seconds - fixed_s,
                            wl.IN_FLIGHT, SATURATION_RAMP_S)
        wrong += check_open(sat, oracle)
        metrics["peak_ops_s"] = _window_median(
            sat, workload.window_s,
            lambda reqs, secs: sum(r.ops for r in reqs if r.ok) / secs,
            diag, "peak_ops_s", when="done")
        done = [r for r in sat.reqs if r.ok and sat.start <= r.done < sat.end]
        diag.update(saturation_requests=len(sat.reqs),
                    peak_req_s=len(done) / ((sat.end - sat.start) / 1e9))
        return metrics, fixed.reqs + sat.reqs, wrong
    tracer = LayerTracer(service.facade)
    loop.timed = True
    tracer.begin()
    try:
        traced = loop.fixed_rate(inputs.stream("traced"), workload.rate,
                                 fixed_s)
    finally:
        tracer.end()
    wrong += check_open(traced, oracle)
    tracer.match(traced.reqs, wl.READ_KEYS)
    metrics = tracer.summarize(traced.reqs)
    metrics["obs.span_overhead"] = _span_overhead(fixed, traced)
    diag.update(traced_backlog_at_end=traced.backlog,
                traced_requests=len(traced.reqs),
                traced_unmatched=sum(1 for r in traced.reqs
                                     if r.span is None))
    return metrics, fixed.reqs + traced.reqs, wrong


def _closed_peak(reqs, _seconds):
    ok = [r for r in reqs if r.ok]
    busy = sum(r.done - r.sent for r in ok) / 1e9
    return sum(r.ops for r in ok) / busy if busy else None


def run_closed(service, workload, inputs, oracle, seconds, trace, diag):
    from driver import ClosedLoop
    from layers import LayerTracer
    loop = ClosedLoop(service.client, inputs, oracle)
    plain = loop.run(inputs.stream("closed"),
                     seconds / 2 if trace else seconds)
    if not trace:
        metrics = _latency_metrics(plain, workload.tail_pct, diag)
        metrics.update(
            peak_ops_s=_window_median(plain, workload.window_s,
                                      _closed_peak, diag, "peak_ops_s",
                                      when="sent"),
            bytes_per_key=_bytes_per_key(service.facade))
        return metrics, plain.reqs, loop.wrong
    tracer = LayerTracer(service.facade)
    loop.tracer = tracer
    tracer.begin()
    try:
        traced = loop.run(inputs.stream("traced"), seconds / 2)
    finally:
        tracer.end()
    metrics = tracer.summarize(traced.reqs)
    metrics["obs.span_overhead"] = _span_overhead(plain, traced)
    diag.update(traced_requests=len(traced.reqs),
                traced_unmatched=sum(1 for r in traced.reqs
                                     if r.span is None))
    return metrics, plain.reqs + traced.reqs, loop.wrong


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        num_keys: int, wrap_service=None):
    """One benchmark run.  Returns ``(result, diagnostics)``."""
    from layers import LAYER_METRICS
    from oracle import Oracle
    from workloads import WORKLOADS, Inputs
    workload = WORKLOADS[workload_name]
    inputs = Inputs(workload, seed, num_keys)
    oracle = Oracle(inputs.keys)
    diag = {"workload": workload.metadata(len(inputs.keys), seconds),
            "seed": seed, "trace": int(trace)}
    setups, service = [], None
    all_cpus = os.sched_getaffinity(0)
    if workload.cpus:
        # Before the service starts a thread: its threads inherit this.
        os.sched_setaffinity(0, sorted(all_cpus)[:workload.cpus])
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            start = time.perf_counter()
            service = Service(workload, inputs, wrap_service)
            setups.append(time.perf_counter() - start)
        # The closed set-ups' garbage is the benchmark's own: collect it
        # now rather than in a pause inside the first timed window.
        gc.collect()
        diag["host_ref_ms_before"] = host_ref_ms()
        if workload.loop == "open":
            metrics, reqs, wrong = run_open(service, workload, inputs,
                                            oracle, seconds, trace, diag)
        else:
            metrics, reqs, wrong = run_closed(service, workload, inputs,
                                              oracle, seconds, trace, diag)
        diag["host_ref_ms_after"] = host_ref_ms()
        contents_wrong = oracle.check_contents(service.facade)
        try:
            service.facade.validate()
            invalid = 0
        except AssertionError as exc:
            invalid = 1
            diag["validate_error"] = str(exc)
    finally:
        if service is not None:
            service.close()
        os.sched_setaffinity(0, all_cpus)
    metrics["setup_s"] = statistics.median(setups)
    failed = sum(1 for r in reqs if not r.ok)
    shed = sum(1 for r in reqs
               if type(r.error).__name__ == "ServiceOverloadedError")
    attempted = len(reqs)
    diag.update(setup_s_samples=setups, attempted=attempted,
                failed=failed, shed=shed, wrong=wrong,
                contents_wrong=contents_wrong, invalid=invalid,
                fail_frac=(failed + wrong) / max(1, attempted))
    names = LAYER_METRICS if trace else END_TO_END
    result = {
        "correct": wrong == 0 and contents_wrong == 0 and invalid == 0,
        "attempted": attempted,
        "failed": failed + wrong,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names.items()},
    }
    return result, diag


def main(argv=None, wrap_service=None) -> int:
    from workloads import NUM_KEYS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("read_sparse", "write_hot", "batch_dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keys", type=int, default=NUM_KEYS,
                        help="keys to load (reduced only by the smoke "
                             "test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"servebench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    result, diag = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.keys, wrap_service)
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
