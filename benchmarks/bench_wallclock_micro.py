"""Wall-clock microbenchmarks of the core operations.

Everything else in ``benchmarks/`` uses the counter-based simulated-time
metric (README, "Simulated time") because Python interpreter overhead swamps
algorithmic differences.  This file is the complement: honest wall-clock
timings of single operations via pytest-benchmark's calibrated timing
loops, so the repository also documents what the pure-Python
implementation actually costs on the host machine.

Interpret with care: these numbers rank implementations by *interpreter*
work, which correlates only loosely with the paper's hardware-level
comparisons (e.g. the B+Tree's python-list bisection is cheap to
interpret while ALEX's numpy slot arithmetic has per-call overhead).

The exception to "wall clock lies in Python" is the batch engine: its
vectorized routing and lock-step searches do the per-key work in NumPy, so
``lookup_many`` measures an honest order-of-magnitude wall-clock win over a
scalar lookup loop.  Running this file as a script measures exactly that
(100k uniform-random hits over a 1M-key bulk-loaded gapped-array index by
default) and records the result to ``BENCH_batch.json``, together with the
small-batch sweep: ``get_many`` against a scalar ``get`` loop from 1 to 64k
keys, and per kernel backend the lane-vs-lock-step timings behind the
sparse-lane crossovers (``KernelBackend.route_crossover`` /
``search_crossover``).

Run: ``pytest benchmarks/bench_wallclock_micro.py --benchmark-only``
or:  ``python benchmarks/bench_wallclock_micro.py [--keys N] [--probes M]``
"""

import argparse
import statistics
import time

import numpy as np
import pytest

import _common
from repro.baselines.bptree import BPlusTree
from repro.baselines.learned_index import LearnedIndex
from repro.core.alex import AlexIndex
from repro.core.config import ga_armi, ga_srmi
from repro.core.kernels import available_backends, get_kernels

N = 20_000
SEED = 7


@pytest.fixture(scope="module")
def keys():
    return np.unique(np.random.default_rng(SEED).uniform(0, 1e9, N))


@pytest.fixture(scope="module")
def probe_cycle(keys):
    rng = np.random.default_rng(SEED + 1)
    probes = [float(k) for k in rng.choice(keys, 512)]

    def make(index):
        state = {"i": 0}

        def one_lookup():
            index.lookup(probes[state["i"] & 511])
            state["i"] += 1

        return one_lookup

    return make


class TestLookupWallClock:
    def test_alex_lookup(self, benchmark, keys, probe_cycle):
        index = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=N // 256))
        benchmark(probe_cycle(index))

    def test_bptree_lookup(self, benchmark, keys, probe_cycle):
        index = BPlusTree.bulk_load(keys, page_size=256)
        benchmark(probe_cycle(index))

    def test_learned_index_lookup(self, benchmark, keys, probe_cycle):
        index = LearnedIndex.bulk_load(keys, num_models=N // 2000)
        benchmark(probe_cycle(index))


class TestInsertWallClock:
    def _insert_stream(self, index):
        state = {"next": 2e9}

        def one_insert():
            index.insert(state["next"])
            state["next"] += 1.0

        return one_insert

    def test_alex_insert(self, benchmark, keys):
        index = AlexIndex.bulk_load(
            keys, config=ga_armi(max_keys_per_node=1024,
                                 split_on_inserts=True))
        benchmark(self._insert_stream(index))

    def test_bptree_insert(self, benchmark, keys):
        index = BPlusTree.bulk_load(keys, page_size=256)
        benchmark(self._insert_stream(index))


class TestScanWallClock:
    def test_alex_scan100(self, benchmark, keys):
        index = AlexIndex.bulk_load(keys, config=ga_srmi(num_models=N // 256))
        start = float(np.sort(keys)[N // 2])
        benchmark(lambda: index.range_scan(start, 100))

    def test_bptree_scan100(self, benchmark, keys):
        index = BPlusTree.bulk_load(keys, page_size=256)
        start = float(np.sort(keys)[N // 2])
        benchmark(lambda: index.range_scan(start, 100))


class TestBuildWallClock:
    def test_alex_bulk_load(self, benchmark, keys):
        benchmark.pedantic(
            lambda: AlexIndex.bulk_load(keys, config=ga_armi()),
            rounds=3, iterations=1)

    def test_bptree_bulk_load(self, benchmark, keys):
        benchmark.pedantic(lambda: BPlusTree.bulk_load(keys),
                           rounds=3, iterations=1)


class TestBatchLookupWallClock:
    """The batch engine's wall-clock lever: lookup_many vs a scalar loop."""

    BATCH = 4096

    @pytest.fixture(scope="class")
    def index(self, keys):
        return AlexIndex.bulk_load(keys, config=ga_armi())

    @pytest.fixture(scope="class")
    def probes(self, keys):
        rng = np.random.default_rng(SEED + 2)
        return rng.choice(keys, self.BATCH, replace=True)

    def test_alex_lookup_many(self, benchmark, index, probes):
        benchmark(lambda: index.lookup_many(probes))

    def test_alex_scalar_lookup_loop(self, benchmark, index, probes):
        probe_list = [float(k) for k in probes[:256]]
        benchmark(lambda: [index.lookup(k) for k in probe_list])


def measure_batch_speedup(num_keys: int = 1_000_000,
                          num_probes: int = 100_000,
                          scalar_sample: int = 10_000,
                          seed: int = SEED) -> dict:
    """The acceptance measurement: ``lookup_many`` on ``num_probes``
    uniform-random hits over a ``num_keys``-key bulk-loaded gapped-array
    index, against a scalar ``lookup`` loop (timed on a sample and scaled,
    to keep the script fast), verifying identical results on the sample.
    """
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.uniform(0, 1e12, int(num_keys * 1.1)))[:num_keys]
    # Distinct payloads so the identity check below can catch a wrong or
    # permuted batch-to-input result mapping, not just presence.
    payloads = list(range(len(keys)))
    build_start = time.perf_counter()
    index = AlexIndex.bulk_load(keys, payloads, config=ga_armi())
    build_seconds = time.perf_counter() - build_start
    probes = rng.choice(keys, num_probes, replace=True)

    batch_start = time.perf_counter()
    batch_results = index.lookup_many(probes)
    batch_seconds = time.perf_counter() - batch_start

    sample = [float(k) for k in probes[:scalar_sample]]
    scalar_start = time.perf_counter()
    scalar_results = [index.lookup(k) for k in sample]
    scalar_sample_seconds = time.perf_counter() - scalar_start
    scalar_seconds = scalar_sample_seconds * (num_probes / len(sample))

    assert batch_results[:len(sample)] == scalar_results, \
        "batch and scalar lookups disagree"
    return {
        "bench": "lookup_many vs scalar lookup loop",
        "variant": index.variant_name,
        "num_keys": int(len(keys)),
        "num_probes": int(num_probes),
        "scalar_sample": int(len(sample)),
        "build_seconds": round(build_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "scalar_seconds_extrapolated": round(scalar_seconds, 4),
        "batch_ops_per_second": round(num_probes / batch_seconds, 1),
        "scalar_ops_per_second": round(num_probes / scalar_seconds, 1),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "results_identical_on_sample": True,
    }


#: Batch sizes of the small-batch sweep (keys per ``get_many`` call).
SWEEP_SIZES = (1, 4, 16, 64, 256, 4096, 65536)
#: Group sizes of the lane-vs-lock-step crossover sweep.
LANE_SIZES = (1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 96, 128)


def _median_seconds(fn, reps: int, rounds: int = 5) -> float:
    """Median over ``rounds`` of the mean wall time of ``reps`` calls."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def measure_small_batch(index: AlexIndex, keys: np.ndarray,
                        rng: np.random.Generator) -> dict:
    """Core ``get_many`` against a scalar ``get`` loop over the same
    uniform-random hits at every :data:`SWEEP_SIZES` size (µs per key;
    the scalar loop times at most 4096 of the probes).  The headline is
    ``small_batch_ratio``: a 16-key ``get_many`` over 16 scalar ``get``
    calls — near 1 when sparse groups take the scalar lane, ~20 when
    every touched leaf pays a lock-step dispatch."""
    sizes = {}
    for size in SWEEP_SIZES:
        probes = rng.choice(keys, size, replace=True)
        probe_list = probes.tolist()
        assert index.get_many(probes) == [index.get(k) for k in probe_list], \
            "batch and scalar gets disagree"
        sample = probe_list[:4096]
        reps = max(1, 4096 // size)
        batch = _median_seconds(lambda: index.get_many(probes), reps) / size
        scalar = _median_seconds(lambda: [index.get(k) for k in sample],
                                 max(1, 4096 // len(sample))) / len(sample)
        sizes[str(size)] = {
            "get_many_us_per_key": round(batch * 1e6, 3),
            "scalar_get_us_per_key": round(scalar * 1e6, 3),
            "batch_over_scalar": round(batch / scalar, 3),
        }
    return {"sizes": sizes,
            "small_batch_ratio": sizes["16"]["batch_over_scalar"]}


def measure_crossovers(keys: np.ndarray,
                       rng: np.random.Generator) -> dict:
    """Per available kernel backend: its crossover constants and, at
    every :data:`LANE_SIZES` group size, the wall time of one routing
    group (the root's ``child_groups`` with the backend's route
    crossover forced either way) and of one leaf's search group (a loop
    over the scalar ``find_key`` kernel against one lock-step
    ``find_keys_many`` call, on four of the index's leaves)."""
    out = {}
    for name in available_backends():
        kernels = get_kernels(name)
        index = AlexIndex.bulk_load(keys, config=ga_armi(kernel_backend=name))
        root = next(index.nodes())
        leaves = [leaf for leaf in index.leaves()
                  if leaf.num_keys >= max(LANE_SIZES)][:4]
        sweep = {}
        kernels.route_crossover = kernels.search_crossover = 0
        try:
            for n in LANE_SIZES:
                route = np.sort(rng.choice(keys, n))
                row = {}
                for mode, width in (("lane", 1 << 62), ("lockstep", 0)):
                    kernels.route_crossover = width
                    row[f"route_{mode}_us"] = round(_median_seconds(
                        lambda: list(root.child_groups(route, 0, n)),
                        200) * 1e6, 2)
                lane, lockstep = [], []
                for leaf in leaves:
                    args = (leaf.keys, leaf.occupied)
                    model = (True, leaf.model.slope, leaf.model.intercept)
                    group = np.sort(rng.choice(leaf.keys[leaf.occupied], n))
                    targets = group.tolist()
                    lane.append(_median_seconds(
                        lambda: [kernels.find_key(*args, t, *model)
                                 for t in targets], 100))
                    lockstep.append(_median_seconds(
                        lambda: kernels.find_keys_many(*args, group, *model),
                        100))
                row["search_lane_us"] = round(statistics.mean(lane) * 1e6, 2)
                row["search_lockstep_us"] = round(
                    statistics.mean(lockstep) * 1e6, 2)
                sweep[str(n)] = row
        finally:  # back to the class constants
            del kernels.route_crossover, kernels.search_crossover
        out[name] = {"route_crossover": kernels.route_crossover,
                     "search_crossover": kernels.search_crossover,
                     "sweep": sweep}
    return out

def main() -> None:
    parser = argparse.ArgumentParser(
        description="Measure batched vs scalar lookup throughput and "
                    "record it to BENCH_batch.json")
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--probes", type=int, default=100_000)
    parser.add_argument("--scalar-sample", type=int, default=10_000)
    _common.add_output_arguments(parser, "BENCH_batch.json")
    args = parser.parse_args()
    result = measure_batch_speedup(args.keys, args.probes,
                                   args.scalar_sample)
    rng = np.random.default_rng(SEED + 3)
    keys = np.unique(rng.uniform(0, 1e12, int(args.keys * 1.1)))[:args.keys]
    index = AlexIndex.bulk_load(keys, config=ga_armi())
    result["small_batch"] = measure_small_batch(index, keys, rng)
    result["small_batch_ratio"] = result["small_batch"].pop(
        "small_batch_ratio")
    result["crossovers"] = measure_crossovers(keys, rng)
    _common.emit(result, args,
                 f"speedup {result['speedup']}x, small_batch_ratio "
                 f"{result['small_batch_ratio']}")


if __name__ == "__main__":
    main()
