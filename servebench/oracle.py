"""Sorted-array correctness oracle for the service benchmark.

Every payload the benchmark writes is a pure function of its key
(:func:`payload_of`), so a reply can be checked without remembering
payloads.  What the oracle does remember is *which keys exist*: the
bulk-loaded keys plus every write the service acknowledged, with the
time of its acknowledgement.  A read is judged against the writes
acknowledged before the read was sent: such a key must come back with
its payload, a key whose write was still in flight may come back either
way, and a key never written must come back missing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


def payload_of(keys):
    """The payload stored under each key (exact in float64 for keys
    below 2**51, which the generated key space never reaches)."""
    return np.asarray(keys, dtype=np.float64) * 0.5 + 0.25


class Oracle:
    """The keys the service must hold, as one sorted array, plus the
    acknowledgement time of every benchmark write."""

    def __init__(self, loaded: np.ndarray):
        self.keys = np.asarray(loaded, dtype=np.float64)
        #: Benchmark write key -> ack time (ns), None while unacked.
        self._ack_ns: Dict[float, Optional[int]] = {}
        self._written = np.empty(0)

    def sent(self, key: float) -> None:
        """Record that a write of ``key`` was issued (not yet acked)."""
        self._ack_ns[key] = None

    def acked(self, keys, t_ns) -> None:
        """Record that writes of ``keys`` were acknowledged at ``t_ns``
        (one time, or one per key) and merge them into the key array."""
        keys = np.asarray(keys, dtype=np.float64)
        times = np.broadcast_to(np.asarray(t_ns, dtype=np.int64),
                                keys.shape)
        self._ack_ns.update(zip(keys.tolist(), times.tolist()))
        self.keys = np.union1d(self.keys, keys)

    @staticmethod
    def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
        if not len(sorted_keys):
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(sorted_keys, keys),
                         len(sorted_keys) - 1)
        return sorted_keys[pos] == keys

    def check_read(self, keys, values, sent_ns: int) -> int:
        """The number of wrong values in one read reply.

        ``values`` holds the payload per key, ``None`` for a miss.
        """
        keys = np.asarray(keys, dtype=np.float64)
        try:
            got = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            return max(1, len(keys))
        if got.shape != keys.shape:
            return max(1, len(keys))
        if len(self._written) != len(self._ack_ns):
            self._written = np.sort(np.fromiter(self._ack_ns, np.float64))
        must = self._member(self.keys, keys)
        may = must.copy()
        for i in np.flatnonzero(self._member(self._written, keys)).tolist():
            ack = self._ack_ns[float(keys[i])]
            must[i] = ack is not None and ack < sent_ns
            may[i] = True
        hit = got == payload_of(keys)
        miss = np.isnan(got)
        return int(np.count_nonzero((hit & ~may) | (miss & must)
                                    | ~(hit | miss)))

    def check_ranges(self, los, his, result) -> int:
        """The number of wrong per-range results of one
        ``range_query_many`` reply, against every acknowledged key."""
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if result is None or len(result) != len(los):
            return max(1, len(los))
        start = np.searchsorted(self.keys, los, side="left")
        stop = np.searchsorted(self.keys, his, side="right")
        wrong = 0
        for q, chunk in enumerate(result):
            want = self.keys[start[q]:stop[q]]
            if len(chunk) != len(want):
                wrong += 1
                continue
            if not len(want):
                continue
            got = np.array(chunk, dtype=np.float64).reshape(-1, 2)
            wrong += int(not (np.array_equal(got[:, 0], want)
                              and np.array_equal(got[:, 1],
                                                 payload_of(want))))
        return wrong

    def check_contents(self, service) -> int:
        """Compare the service's full contents with the oracle: 0 when
        every key and payload matches, else 1."""
        items = list(service.items())
        if len(items) != len(self.keys):
            return 1
        got = np.array(items, dtype=np.float64).reshape(-1, 2)
        return int(not (np.array_equal(got[:, 0], self.keys)
                        and np.array_equal(got[:, 1],
                                           payload_of(self.keys))))
