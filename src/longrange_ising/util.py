"""Shared numeric helpers: spin enumeration blocks, fits, and a
byte-bounded LRU cache for array-valued functions."""

from __future__ import annotations

import collections
import functools
import json
import math
import threading
from typing import Iterator

import numpy as np

#: Hard cap on exhaustively enumerable volumes (2**24 configurations).
ENUMERATION_SITE_CAP = 24

#: Block size for vectorized enumeration sweeps.
ENUMERATION_BLOCK = 1 << 16


class CapacityError(RuntimeError):
    """Raised when a request exceeds an enumeration or memory capacity cap."""


CacheInfo = collections.namedtuple("CacheInfo", "hits misses max_bytes nbytes")


def byte_lru_cache(max_bytes: int):
    """Memoize a function of hashable arguments that returns arrays, keeping
    the most recently used results while their total ``nbytes`` stays within
    ``max_bytes``.  A result larger than the whole budget is returned but not
    kept.  The wrapper carries ``cache_info()``, ``cache_clear()`` and a
    settable ``max_bytes``."""

    def decorate(fn):
        entries = collections.OrderedDict()
        lock = threading.Lock()
        stats = {"hits": 0, "misses": 0, "nbytes": 0}

        @functools.wraps(fn)
        def cached(*args):
            with lock:
                if args in entries:
                    entries.move_to_end(args)
                    stats["hits"] += 1
                    return entries[args]
                stats["misses"] += 1
            value = fn(*args)
            size = value.nbytes
            with lock:
                if size <= cached.max_bytes and args not in entries:
                    entries[args] = value
                    stats["nbytes"] += size
                while stats["nbytes"] > cached.max_bytes:
                    stats["nbytes"] -= entries.popitem(last=False)[1].nbytes
            return value

        def cache_info() -> CacheInfo:
            return CacheInfo(stats["hits"], stats["misses"], cached.max_bytes, stats["nbytes"])

        def cache_clear() -> None:
            with lock:
                entries.clear()
                stats.update(hits=0, misses=0, nbytes=0)

        cached.max_bytes = max_bytes
        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached

    return decorate


def spin_rows(n_sites: int, start: int, stop: int) -> np.ndarray:
    """Configurations start..stop - 1 as rows (stop - start, n_sites) of
    {-1, +1} spins; bit b of the configuration index addresses site b, bit 0
    meaning spin +1."""
    idx = np.arange(start, stop, dtype=np.uint32)
    bits = np.arange(n_sites, dtype=np.uint32)
    return 1 - 2 * ((idx[:, None] >> bits[None, :]) & 1).astype(np.int8)


def iter_spin_blocks(n_sites: int, block: int = ENUMERATION_BLOCK) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, S) blocks covering all 2**n_sites configurations,
    S = spin_rows(n_sites, start_index, start_index + m)."""
    if n_sites > ENUMERATION_SITE_CAP:
        raise CapacityError(
            f"{n_sites} sites exceed the {ENUMERATION_SITE_CAP}-site enumeration cap"
        )
    total = 1 << n_sites
    for start in range(0, total, block):
        yield start, spin_rows(n_sites, start, min(start + block, total))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def format_float(x: float) -> str:
    """Fixed scientific formatting used in every persisted record."""
    return "%.12e" % float(x)


def _canonicalize(obj):     # json.dumps sorts the keys
    if isinstance(obj, (float, np.floating)):
        return float(format_float(obj)) if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats rounded through %.12e."""
    return json.dumps(_canonicalize(obj), sort_keys=True, separators=(",", ":"))
