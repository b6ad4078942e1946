"""Smoke test of the service benchmark, at reduced size.

Run from the repository root (under a minute)::

    python3 servebench/smoke.py

It checks that ``BENCHMARK.json`` matches the benchmark, runs every
workload end to end and traced with few keys and short phases, and
asserts that the result line names every metric with its unit and
reports no failure.  It then injects wrong replies through fake
services (a corrupted payload; an acknowledged append reported
missing) and asserts that the oracle catches them and the command
exits non-zero, and that the command fails cleanly without the package
sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run as bench  # noqa: E402

KEYS = 20_000
SECONDS = 2
WORKLOADS = ("read_sparse", "write_hot", "batch_dense")


def _args(workload: str, trace: int, keys: int = KEYS) -> list:
    return ["--workload", workload, "--seed", "7", "--seconds",
            str(SECONDS), "--trace", str(trace), "--keys", str(keys)]


def check_run(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")]
        + _args(workload, trace),
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2])["diagnostics"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    if trace:
        from layers import LAYER_METRICS as expected
    else:
        expected = bench.END_TO_END
    assert set(result["metrics"]) == set(expected), result["metrics"]
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert math.isfinite(metric["value"]), (name, metric)
    for name in ("host_ref_ms_before", "host_ref_ms_after", "fail_frac"):
        assert name in diag, name
    if workload != "batch_dense":
        assert "gen_late_p99_ms" in diag and "backlog_at_end" in diag
    print(f"ok  {workload} trace={trace}")


class CorruptReplies:
    """A fake service: the real facade, except that the first payload of
    every ``get_many`` reply is wrong (real payloads are never
    negative)."""

    def __init__(self, facade):
        self._facade = facade

    def __getattr__(self, name):
        return getattr(self._facade, name)

    def get_many(self, keys, *args, **kwargs):
        values = self._facade.get_many(keys, *args, **kwargs)
        values[0] = -1.0
        return values


class DropAckedKeys:
    """A fake service: the real facade, except that ``get_many`` reports
    every key it has acknowledged an insert of as missing."""

    def __init__(self, facade):
        self._facade = facade
        self._acked = set()

    def __getattr__(self, name):
        return getattr(self._facade, name)

    def insert(self, key, *args, **kwargs):
        token = self._facade.insert(key, *args, **kwargs)
        self._acked.add(float(key))
        return token

    def get_many(self, keys, *args, **kwargs):
        values = self._facade.get_many(keys, *args, **kwargs)
        missing = kwargs.get("default")
        return [missing if float(key) in self._acked else value
                for key, value in zip(keys, values)]


def check_oracle_catches(workload: str, fake=CorruptReplies,
                         keys: int = KEYS) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(_args(workload, 0, keys), wrap_service=fake)
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1, code
    assert result["correct"] is False and result["failed"] >= 1, result
    if fake is DropAckedKeys:
        # Reads reach an appended key only READ_LAG_WRITES appends
        # after it was issued, which the saturation phase passes; few
        # loaded keys make its reads land on appended ones often.
        diag = json.loads(lines[-2])["diagnostics"]
        assert diag["wrong"] >= 1 and diag["contents_wrong"] == 0, diag
    print(f"ok  oracle catches {fake.__name__} ({workload})")


def check_without_sources() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result."""
    os.makedirs(bench.TMP_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=bench.TMP_ROOT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "servebench/run.py"] + _args("write_hot", 0),
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails cleanly without package sources")


def check_benchmark_json() -> None:
    """BENCHMARK.json names the workloads, reasons, metrics and units the
    benchmark actually runs and prints."""
    from layers import LAYER_METRICS
    from workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert whys and all(WORKLOADS[name].why == why
                        for name, why in whys.items()), whys
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == bench.END_TO_END)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == LAYER_METRICS)
    print("ok  BENCHMARK.json matches the benchmark")


def main() -> int:
    if bench.SRC not in sys.path:
        sys.path.insert(0, bench.SRC)
    check_benchmark_json()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_oracle_catches("read_sparse")
    check_oracle_catches("write_hot")
    check_oracle_catches("write_hot", DropAckedKeys, keys=2_000)
    check_oracle_catches("batch_dense")
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
