"""Reference kernel backend: the existing pure-NumPy/pure-Python hot loops.

This is the code the compiled backends are property-tested against —
every routine here is the pre-kernel implementation from
:mod:`repro.core.search`, :mod:`repro.core.linear_model` and
:mod:`repro.core.data_node`, extracted behind the
:class:`~repro.core.kernels.KernelBackend` interface with counter
charges returned instead of applied.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import KernelBackend
from ..search import (exponential_search_counted,
                      exponential_search_many_counted, lower_bound_counted,
                      lower_bound_many_counted)


def _predict_pos_scalar(slope: float, intercept: float, key: float,
                        size: int) -> int:
    """``LinearModel.predict_pos``: floor + clamp to ``[0, size - 1]``
    with non-finite predictions pinned to the nearest edge."""
    pos = slope * key + intercept
    if not (pos > 0):  # catches NaN and -inf too
        return 0
    if pos >= size:
        return size - 1
    return int(pos)


class NumpyKernels(KernelBackend):
    """Always-available interpreter-loop backend (the extracted originals)."""

    name = "numpy"
    compiled = False
    # A lock-step call pays ~30 us of NumPy dispatch per routed group and
    # ~150-250 us per searched one, the scalar lane ~0.6 us per routed
    # key and ~3 us per searched target: they cross near 80 and 88 keys.
    route_crossover = 80
    search_crossover = 88

    # -- kernel 1: linear-model predict + clamp -----------------------

    def predict_clamp(self, slope: float, intercept: float,
                      keys: np.ndarray, size: int) -> np.ndarray:
        pos = slope * keys + intercept
        pos = np.clip(pos, 0, size - 1)       # clamp before the int cast so
        pos = np.nan_to_num(pos, nan=0.0)     # non-finite values stay legal
        return pos.astype(np.int64)

    # -- kernel 2: lock-step exponential/binary search ----------------

    def find_insert_pos(self, keys: np.ndarray, target: float,
                        has_model: bool, slope: float,
                        intercept: float) -> Tuple[int, int]:
        capacity = len(keys)
        if not has_model:
            return lower_bound_counted(keys, target, 0, capacity)
        hint = _predict_pos_scalar(slope, intercept, target, capacity)
        return exponential_search_counted(keys, target, hint, 0, capacity)

    def find_key(self, keys: np.ndarray, occupied: np.ndarray,
                 target: float, has_model: bool, slope: float,
                 intercept: float) -> Tuple[int, int, int]:
        capacity = len(keys)
        pos, charge = self.find_insert_pos(keys, target, has_model,
                                           slope, intercept)
        probes = 0
        while pos < capacity and keys[pos] == target:
            probes += 1
            if occupied[pos]:
                return pos, charge, probes
            pos += 1
        return -1, charge, probes

    def find_insert_pos_many(self, keys: np.ndarray, targets: np.ndarray,
                             has_model: bool, slope: float,
                             intercept: float) -> Tuple[np.ndarray, int]:
        capacity = len(keys)
        n = len(targets)
        if n < self.search_crossover:
            return self._lane_find_insert_pos(keys, targets, has_model,
                                              slope, intercept)
        if not has_model:
            los = np.zeros(n, dtype=np.int64)
            his = np.full(n, capacity, dtype=np.int64)
            return lower_bound_many_counted(keys, targets, los, his)
        hints = self.predict_clamp(slope, intercept, targets, capacity)
        return exponential_search_many_counted(keys, targets, hints, 0,
                                               capacity)

    def find_keys_many(self, keys: np.ndarray, occupied: np.ndarray,
                       targets: np.ndarray, has_model: bool, slope: float,
                       intercept: float) -> Tuple[np.ndarray, int, int]:
        capacity = len(keys)
        n = len(targets)
        if n == 0 or capacity == 0:
            return np.full(n, -1, dtype=np.int64), 0, 0
        if n < self.search_crossover:
            return self._lane_find_keys(keys, occupied, targets, has_model,
                                        slope, intercept)
        pos, charge = self.find_insert_pos_many(keys, targets, has_model,
                                                slope, intercept)
        safe = np.minimum(pos, capacity - 1)
        matched = (pos < capacity) & (keys[safe] == targets)
        probes = int(matched.sum())
        result = np.where(matched, pos, np.int64(-1))
        # The rare case of the lower bound landing on a gap slot that
        # mirrors the target's value falls back to the scalar rightward
        # walk; every other lane resolves in the vectorized pass.
        gap_hits = matched & ~occupied[safe]
        for lane in np.flatnonzero(gap_hits):
            p = int(pos[lane]) + 1
            target = targets[lane]
            found = -1
            while p < capacity and keys[p] == target:
                probes += 1
                if occupied[p]:
                    found = p
                    break
                p += 1
            result[lane] = found
        return result, charge, probes

    def _lane_find_insert_pos(self, keys: np.ndarray, targets: np.ndarray,
                              has_model: bool, slope: float,
                              intercept: float) -> Tuple[np.ndarray, int]:
        """:meth:`find_insert_pos_many` as a loop over the scalar
        routine (the sparse lane); the charge is the per-lane sum."""
        positions, total = [], 0
        for target in targets.tolist():
            pos, charge = self.find_insert_pos(keys, target, has_model,
                                               slope, intercept)
            positions.append(pos)
            total += charge
        return np.array(positions, dtype=np.int64), total

    def _lane_find_keys(self, keys: np.ndarray, occupied: np.ndarray,
                        targets: np.ndarray, has_model: bool, slope: float,
                        intercept: float) -> Tuple[np.ndarray, int, int]:
        """:meth:`find_keys_many` as a loop over the scalar routine (the
        sparse lane); the charges are the per-lane sums."""
        positions, total, resolved = [], 0, 0
        for target in targets.tolist():
            pos, charge, probes = self.find_key(keys, occupied, target,
                                                has_model, slope, intercept)
            positions.append(pos)
            total += charge
            resolved += probes
        return np.array(positions, dtype=np.int64), total, resolved

    # -- kernel 3: gapped-array / PMA shift-and-insert ----------------

    def closest_gaps(self, occupied: np.ndarray, pos: int, lo: int,
                     hi: int) -> Tuple[int, int]:
        window = occupied[pos:hi]
        rel = np.argmax(~window) if window.size else 0
        if window.size and not window[rel]:
            right = pos + int(rel)
        else:
            right = hi
        window = occupied[lo:pos]
        if window.size and not window.all():
            left = lo + int(pos - lo - 1 - np.argmax(~window[::-1]))
        else:
            left = -1
        return left, right

    def shift_right(self, keys: np.ndarray, occupied: np.ndarray,
                    ip: int, gap: int) -> None:
        keys[ip + 1:gap + 1] = keys[ip:gap]
        occupied[gap] = True
        occupied[ip] = False

    def shift_left(self, keys: np.ndarray, occupied: np.ndarray,
                   gap: int, ip: int) -> None:
        keys[gap:ip - 1] = keys[gap + 1:ip]
        occupied[gap] = True
        occupied[ip - 1] = False

    def place_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, key: float) -> int:
        keys[pos] = key
        occupied[pos] = True
        fills = 0
        i = pos - 1
        while i >= 0 and not occupied[i]:
            keys[i] = key
            fills += 1
            i -= 1
        return fills

    def erase_fill(self, keys: np.ndarray, occupied: np.ndarray,
                   pos: int, right_key: float) -> int:
        occupied[pos] = False
        fills = 0
        i = pos
        while i >= 0 and not occupied[i]:
            keys[i] = right_key
            fills += 1
            i -= 1
        return fills
