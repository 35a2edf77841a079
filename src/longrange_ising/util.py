"""Shared numeric helpers: log-domain sums, spin enumeration blocks, fits."""

from __future__ import annotations

import json
import math
from typing import Iterator

import numpy as np

#: Hard cap on exhaustively enumerable volumes (2**24 configurations).
ENUMERATION_SITE_CAP = 24

#: Block size for vectorized enumeration sweeps.
ENUMERATION_BLOCK = 1 << 16


class CapacityError(RuntimeError):
    """Raised when a request exceeds an enumeration or memory capacity cap."""


def logsumexp(a: np.ndarray) -> float:
    """Numerically stable log(sum(exp(a)))."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(a - m))))


def iter_spin_blocks(n_sites: int, block: int = ENUMERATION_BLOCK) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, S) blocks covering all 2**n_sites configurations.

    S has shape (m, n_sites) with entries in {-1, +1}; bit b of the
    configuration index addresses site b, bit 0 meaning spin +1.
    """
    if n_sites > ENUMERATION_SITE_CAP:
        raise CapacityError(
            f"{n_sites} sites exceed the {ENUMERATION_SITE_CAP}-site enumeration cap"
        )
    total = 1 << n_sites
    bits = np.arange(n_sites, dtype=np.uint32)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint32)
        S = 1 - 2 * ((idx[:, None] >> bits[None, :]) & 1).astype(np.int8)
        yield start, S


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def format_float(x: float) -> str:
    """Fixed scientific formatting used in every persisted record."""
    return "%.12e" % float(x)


def _canonicalize(obj):
    if isinstance(obj, dict):
        return {str(k): _canonicalize(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj) or math.isinf(obj):
            return str(obj)
        return float(format_float(float(obj)))
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats rounded through %.12e."""
    return json.dumps(_canonicalize(obj), sort_keys=True, separators=(",", ":"))
