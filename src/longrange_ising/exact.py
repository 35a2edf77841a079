"""Brute-force enumeration over all configurations of small volumes.

Ground truth for everything else: partition functions, expectations,
conditional laws, the interface-point distribution, consistency checks of
the finite-volume kernels, and correlation-inequality oracles.

Every entry point reads the free sites' quadratic form (model._reduce, as
log Z and the sampler do), and enumeration splits those sites into three
blocks (model.SplitSums): the weights factor into three block-pair
matrices, so log Z and the site and pair moments come from matrix products,
each computed when a caller first reads it, and other observables fold over
tiles of configuration probabilities, products of the same matrices, in
enumeration order.  The interface law folds each tile with one bincount
through a cached per-L table of interface grid indices
(_interface_index_table), since the interface point of a configuration does
not depend on the couplings or beta; other observables rebuild their rows
from the tile's first index (util.spin_rows).  Peak memory does not grow
with 2**n; the cap stays at 24 free sites, which puts the interface law in
reach up to L = 11.  The DLR check streams blocks of outer configurations
against every subvolume configuration and compares them with the
brute-force quadratic form (model._ReducedSystem.log_weights) block by
block, so it keeps no array over all 2**n configurations either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import contours, model
from .util import byte_lru_cache, iter_spin_blocks, spin_rows

#: Byte budget of the cached interface index tables (one int8 entry per
#: configuration: 8 MiB at L = 11).
INTERFACE_TABLE_BYTES = 16 << 20


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """Named function of a configuration, with a vectorized block form.

    A linear observable (`weights`, w.s over the volume) or a spin pair
    (`pair`, volume indices i, j) is read from the site or pair moments of
    the split enumeration; any other is evaluated on configuration tiles.
    """

    name: str
    fn: Callable
    block_fn: Callable = None
    weights: tuple = None
    pair: tuple = None

    def evaluate_block(self, S: np.ndarray) -> np.ndarray:
        if self.block_fn is not None:
            return self.block_fn(S)
        return np.array([self.fn(row) for row in S], dtype=np.float64)


def spin_observable(vol: model.Volume, site) -> Observable:
    i = vol.index(site)
    return Observable(f"spin[{site}]", lambda c: float(c[i]),
                      lambda S: S[:, i].astype(np.float64),
                      weights=tuple(float(k == i) for k in range(vol.n_sites)))


def pair_observable(vol: model.Volume, x, y) -> Observable:
    i, j = vol.index(x), vol.index(y)
    return Observable(f"pair[{x},{y}]", lambda c: float(c[i] * c[j]),
                      lambda S: (S[:, i] * S[:, j]).astype(np.float64), pair=(i, j))


def magnetization_observable(vol: model.Volume) -> Observable:
    n = vol.n_sites
    return Observable("magnetization", lambda c: float(np.sum(c)) / n,
                      lambda S: S.sum(axis=1).astype(np.float64) / n,
                      weights=(1.0 / n,) * n)


def increasing_observable(vol: model.Volume, weights, threshold: float = None) -> Observable:
    """Coordinatewise-increasing observable: w.s or an indicator of w.s >= t."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("increasing observables need nonnegative weights")
    if threshold is None:
        return Observable("linear-increasing", lambda c: float(w @ c),
                          lambda S: S.astype(np.float64) @ w, weights=tuple(w))
    return Observable("threshold-increasing",
                      lambda c: float(w @ c >= threshold),
                      lambda S: (S.astype(np.float64) @ w >= threshold).astype(np.float64))


# ---------------------------------------------------------------------------
# expectations


def expectation(vol: model.Volume, params: model.ModelParams,
                bc: model.BoundaryCondition, obs: Observable) -> float:
    return conditional_expectation(vol, params, bc, {}, obs)


def conditional_expectation(vol: model.Volume, params: model.ModelParams,
                            bc: model.BoundaryCondition, frozen: Mapping,
                            obs: Observable) -> float:
    """Gibbs expectation restricted to configurations matching `frozen`."""
    sys = model._reduce(vol, params, bc, frozen)
    free_idx, template = sys.free_idx, sys.template

    if obs.weights is None and obs.pair is None:
        def fold(start, p):
            full = np.repeat(template[None, :], p.size, axis=0)
            full[:, free_idx] = spin_rows(free_idx.size, start, start + p.size)
            # numpy fixes this sum's order; a BLAS dot's may follow the thread count
            return np.add.reduce(obs.evaluate_block(full) * p)
        return float(sys.sums().fold(fold))

    sums = sys.sums()
    mean = template.astype(np.float64)
    mean[free_idx] = sums.mean
    if obs.weights is not None:
        return float(np.dot(obs.weights, mean))
    i, j = obs.pair
    if template[i] or template[j]:     # a frozen site: the pair moment factors
        return float(mean[i] * mean[j])
    return float(sums.second[np.searchsorted(free_idx, i), np.searchsorted(free_idx, j)])


def conditional_site_means(vol: model.Volume, params: model.ModelParams,
                           bc: model.BoundaryCondition, frozen: Mapping = None) -> dict:
    """Exact <sigma_x> for every free site, one enumeration pass."""
    sys = model._reduce(vol, params, bc, frozen)
    means = sys.sums().mean
    return {site: float(means[i]) for i, site in enumerate(sys.free_sites)}


# ---------------------------------------------------------------------------
# interface-point law


@dataclass(frozen=True)
class InterfaceLaw:
    """Distribution of the rescaled interface position over the theta grid."""

    grid: tuple
    masses: tuple

    def as_dict(self) -> dict:
        return dict(zip(self.grid, self.masses))


def theta_grid(L: int) -> list:
    """2L+2 admissible rescaled interface positions (k + 1/2)/L."""
    if L < 1:
        raise ValueError("interface grid needs half_width >= 1")
    return [(k + 0.5) / L for k in range(-L - 1, L + 1)]


def interface_distribution(vol: model.Volume, params: model.ModelParams,
                           bc: model.BoundaryCondition = None) -> InterfaceLaw:
    """Exact law of the interface point under minus/plus split boundaries.

    Each probability tile of the enumeration is one bincount over the
    matching slice of the cached index table of L (_interface_index_table).
    """
    bc = bc or model.dobrushin1d_bc()
    if vol.dimension != 1 or vol.half_width < 1:
        raise ValueError("interface law needs a 1d volume with L >= 1")
    contours._check_split(vol, bc)
    sys = model._reduce(vol, params, bc)     # raises CapacityError past the enumeration cap
    L, n = vol.half_width, vol.n_sites
    table = _interface_index_table(L)

    def fold(start, p):
        return np.bincount(table[start:start + p.size], weights=p, minlength=n + 1)

    masses = sys.sums().fold(fold)
    return InterfaceLaw(tuple(theta_grid(L)), tuple(float(v) for v in masses))


@byte_lru_cache(INTERFACE_TABLE_BYTES)
def _interface_index_table(L: int) -> np.ndarray:
    """Read-only int8 grid index (into theta_grid(L)) of the interface point
    of every configuration of sites -L..L, in enumeration order (bit b is
    the spin at site b - L, as in iter_spin_blocks).  Built once per L from
    contours.interface_points in row blocks of about model.TILE_BYTES."""
    vol = model.Volume(1, L)
    n = vol.n_sites
    table = np.empty(1 << n, dtype=np.int8)
    # interface_points holds about a dozen int16 and bool rows of n + 1
    for start, S in iter_spin_blocks(n, max(1, model.TILE_BYTES // (24 * (n + 1)))):
        # point j - L - 1/2 is grid entry j
        table[start:start + S.shape[0]] = contours.interface_points(vol, S) + (L + 0.5)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# consistency and inequality oracles


def dlr_consistency_check(vol: model.Volume, subvol: model.Volume,
                          params: model.ModelParams, bc: model.BoundaryCondition) -> float:
    """Max deviation of kernel(vol) from kernel(vol) composed with kernel(subvol).

    Streams blocks of outer configurations (the sites of vol outside
    subvol).  Each block is one log-weight tile, rows x 2**|subvol|: each
    side's own weights from its block table (model._half_table), the cross
    term from one GEMM.  Its normalized rows are the inner
    kernel given the outer spins.  The full kernel of the same rows is the
    brute-force quadratic form (_ReducedSystem.log_weights) over log Z from
    model.log_partition, and its row sums are the outer marginal.  Both are
    filled in sub-tiles of bounded size, so memory is one tile plus a fixed
    working set, never an array over all 2**|vol| configurations unless
    subvol is vol.

    What it tests is the two-block tile algebra against log_weights, no
    more.  Both sides and log Z read one reduced system (model._reduce),
    and the residual T * rowsum(p) - p scales with exp(-log Z) on
    both terms, so a wrong log Z, field or enumeration kernel moves both
    sides alike: each such fault leaves the residual far below 1e-10.
    """
    if subvol.dimension != vol.dimension or subvol.half_width > vol.half_width:
        raise ValueError("subvolume must sit inside the volume")
    sys = model._reduce(vol, params, bc)     # raises CapacityError past the enumeration cap
    n = vol.n_sites
    inside = np.array([subvol.contains(s) for s in vol.sites()], dtype=bool)
    inner, outer = np.flatnonzero(inside), np.flatnonzero(~inside)
    log_z = model.log_partition(vol, params, bc)
    J_DD = sys.J_ff[np.ix_(inner, inner)]
    J_OO = sys.J_ff[np.ix_(outer, outer)]
    J_OD = sys.beta * sys.J_ff[np.ix_(outer, inner)]

    # configurations per sub-tile: their int8 spins, two float copies in
    # log_weights and a few float rows stay within TILE_BYTES
    chunk = max(1, model.TILE_BYTES // (24 * (n + 1)))
    cols = 1 << inner.size
    rows = min(max(1, chunk // cols), 1 << outer.size)
    worst = 0.0
    for _, SO8 in iter_spin_blocks(outer.size, rows):
        SO, lwO = model._half_table(J_OO, sys.c_f[outer], sys.beta, SO8)
        T = np.empty((SO8.shape[0], cols))         # block-table log weights
        lw = np.empty_like(T)                      # brute-force log weights
        for start, SD8 in iter_spin_blocks(inner.size, min(cols, chunk)):
            SD, lwD = model._half_table(J_DD, sys.c_f[inner], sys.beta, SD8)
            block = slice(start, start + SD8.shape[0])
            T[:, block] = SO @ J_OD @ SD.T + lwD + lwO[:, None]
            S = np.empty((SO8.shape[0], SD8.shape[0], n), dtype=np.int8)
            S[:, :, inner] = SD8
            S[:, :, outer] = SO8[:, None, :]
            lw[:, block] = sys.log_weights(S.reshape(-1, n)).reshape(SO8.shape[0], -1)
        T -= T.max(axis=1, keepdims=True)
        np.exp(T, out=T)
        T /= T.sum(axis=1, keepdims=True)          # inner kernel given the outer spins
        p = np.exp(lw - log_z, out=lw)
        T *= p.sum(axis=1, keepdims=True)
        T -= p
        worst = max(worst, float(np.abs(T).max()))
    return worst


def _assert_nonnegative_environment(params, bc):
    if any(spin < 0 for _, spin in bc.pattern) or not all(
            isinstance(rule.fill, model.ConstFill) and rule.fill.value >= 0 for rule in bc.rules):
        raise ValueError("nonnegative boundary required")
    f = params.field
    if isinstance(f, (int, float)) and f < 0:
        raise ValueError("nonnegative field required")
    if isinstance(f, tuple) and any(v < 0 for v in f):
        raise ValueError("nonnegative field required")


def gks_check(vol: model.Volume, params: model.ModelParams,
              bc: model.BoundaryCondition, pairs: Sequence) -> float:
    """Min slack of the Griffiths inequalities <ss> - <s><s> >= 0, <s> >= 0."""
    _assert_nonnegative_environment(params, bc)
    sums = model._reduce(vol, params, bc).sums()
    mean = sums.mean
    slack = min(mean)
    for x, y in pairs:
        i, j = vol.index(x), vol.index(y)
        slack = min(slack, sums.second[i, j] - mean[i] * mean[j])
    return float(slack)


def fkg_sandwich_check(vol: model.Volume, params: model.ModelParams,
                       obs: Observable, bc: model.BoundaryCondition,
                       tol: float = 1e-12) -> bool:
    """<obs>^- <= <obs>^bc <= <obs>^+ for an increasing observable."""
    lo = expectation(vol, params, model.minus_bc(), obs)
    hi = expectation(vol, params, model.plus_bc(), obs)
    mid = expectation(vol, params, bc, obs)
    return bool(lo - tol <= mid <= hi + tol)
