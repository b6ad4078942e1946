"""repro: a pure-Python reproduction of ALEX, the updatable adaptive
learned index (Ding et al., SIGMOD 2020).

Quickstart::

    import numpy as np
    from repro import AlexIndex, ga_armi

    keys = np.random.default_rng(0).uniform(0, 1e6, 10_000)
    index = AlexIndex.bulk_load(keys, config=ga_armi())
    index.insert(123.456, "payload")
    assert index.lookup(123.456) == "payload"
    neighbours = index.range_scan(123.0, limit=10)

See README.md for the CLI, the source layout and the map from each
benchmark script to its committed ``BENCH_*.json`` artifact.
"""

from .core import (
    ADAPTIVE_RMI,
    ALL_VARIANTS,
    AdaptationPolicy,
    AlexConfig,
    AlexIndex,
    CostModelPolicy,
    Counters,
    DuplicateKeyError,
    GAPPED_ARRAY,
    HeuristicPolicy,
    KeyNotFoundError,
    LinearModel,
    PACKED_MEMORY_ARRAY,
    STATIC_RMI,
    ga_armi,
    ga_srmi,
    pma_armi,
    pma_srmi,
)
from .baselines import BPlusTree, LearnedIndex
from .analysis import CostModel, DEFAULT_COST_MODEL
from .serve import ShardRouter, ShardedAlexIndex

__version__ = "1.1.0"

__all__ = [
    "ADAPTIVE_RMI",
    "ALL_VARIANTS",
    "AdaptationPolicy",
    "AlexConfig",
    "AlexIndex",
    "BPlusTree",
    "CostModel",
    "CostModelPolicy",
    "Counters",
    "DEFAULT_COST_MODEL",
    "DuplicateKeyError",
    "GAPPED_ARRAY",
    "HeuristicPolicy",
    "KeyNotFoundError",
    "LearnedIndex",
    "LinearModel",
    "PACKED_MEMORY_ARRAY",
    "STATIC_RMI",
    "ShardRouter",
    "ShardedAlexIndex",
    "ga_armi",
    "ga_srmi",
    "pma_armi",
    "pma_srmi",
]
