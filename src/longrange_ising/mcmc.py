"""Single-spin Metropolis and heat-bath samplers for long-range couplings.

The sampler reads the shared coupling table (`model.coupling_matrix`) and
the boundary fields once and caches every site's local field h.  A sweep
visits the free sites in index order, as a sequential single-site sweep
does.  `run(state, n_sweeps, rule, record)` is the one loop that advances
a chain: it draws the uniforms of many sweeps with one call and maps each
to a threshold t, so that the site with spin s changes iff s*h < t.  On
Philox, drawing a + b uniforms at once gives the same numbers as drawing
a and then b, so batching leaves every stream as it is.  Uniforms, and the
configurations that `record` returns after each sweep, are taken in chunks
of at most `_CHUNK_BYTES`.  Two inner scans apply the thresholds, chosen by
the site count alone:

- below `_LIST_SCAN_SITES` sites, a scan over Python lists tests s*h < t
  site by site, free of numpy's fixed cost per call;
- at and above it, an event-driven numpy scan: one vectorized pass over
  the rest of the sweep finds the next site that changes, its flip updates
  the energy and every cached field (one coupling row), and the pass
  resumes after it, so a sweep costs (flips + 1) passes.

Both flip in the same operation order and give the same floats.  `sweep`
is run(state, 1, rule).  The RNG is counter-based (Philox) and seeded
through SeedSequence, so replica streams are reproducible and adding
replicas never perturbs existing ones.

`estimate` (one observable) and `estimate_site_means` (many spins from one
chain) record a chain through `run`, one chunk or resync segment at a
time, and summarize each series with blocking error bars and an
integrated autocorrelation time.  `replicas` is the one replica driver:
it seeds chain r from `replica_seeds`, starts it plus, minus or random by
r mod 3 and runs a caller's estimator on it; `combine_estimates` merges
the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import model

_SMALLEST = np.nextafter(0.0, 1.0)

#: Chains of fewer sites scan Python lists; larger ones the numpy kernel.
_LIST_SCAN_SITES = 64

#: Bytes of uniforms, or of recorded rows, that one chunk of sweeps holds.
_CHUNK_BYTES = 1 << 20

#: Initial states of replica chains, cycled by replica index.
_REPLICA_INITIALS = ("plus", "minus", "random")


@dataclass
class SamplerState:
    """Mutable sampler: current spins, cached local fields, seeded RNG.

    `flips` counts accepted moves and `max_drift` is the largest gap between
    the cached and the recomputed energy seen at a `resync`; both are
    telemetry and stay out of every deterministic payload.
    """

    vol: model.Volume
    params: model.ModelParams
    bc: model.BoundaryCondition
    config: np.ndarray
    couplings: np.ndarray          # shared read-only table, zero diagonal
    static_fields: np.ndarray      # boundary + external field per site
    fields: np.ndarray             # static + sum_y J_xy sigma_y
    energy: float
    rng: np.random.Generator
    free_index: np.ndarray
    sweeps: int = 0
    flips: int = 0
    max_drift: float = 0.0

    def total_energy(self) -> float:
        """Recomputed Hamiltonian (oracle for the cached value)."""
        s = self.config.astype(np.float64)
        return float(-0.5 * s @ (self.couplings @ s) - s @ self.static_fields)

    def resync(self) -> None:
        s = self.config.astype(np.float64)
        self.fields = self.couplings @ s + self.static_fields
        energy = self.total_energy()
        self.max_drift = max(self.max_drift, abs(self.energy - energy))
        self.energy = energy


def sampler_new(vol: model.Volume, params: model.ModelParams,
                bc: model.BoundaryCondition, seed: int, initial: str = "plus",
                frozen: Mapping = None) -> SamplerState:
    """Build a sampler over the shared coupling table and boundary fields
    (the table's `model.MATRIX_SITE_CAP` bounds the volume)."""
    n = vol.n_sites
    J = model.coupling_matrix(vol, params.coupling)
    static = model.boundary_field_vector(vol, params.coupling, bc) \
        + model.external_field_vector(vol, params)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if initial == "plus":
        cfg = model.all_plus(vol)
    elif initial == "minus":
        cfg = model.all_minus(vol)
    elif initial == "random":
        cfg = model.random_configuration(vol, rng)
    else:
        raise ValueError("initial must be plus, minus, or random")

    frozen = dict(frozen or {})
    for site, v in frozen.items():
        cfg[vol.index(site)] = v
    frozen_idx = {vol.index(s) for s in frozen}
    free_index = np.array([i for i in range(n) if i not in frozen_idx], dtype=np.int64)

    state = SamplerState(vol, params, bc, cfg, J, static,
                         np.zeros(n), 0.0, rng, free_index)
    state.resync()
    state.max_drift = 0.0          # the first sync fills an empty cache
    return state


def _thresholds(u: np.ndarray, beta: float, rule: str) -> np.ndarray:
    """Map uniforms u in [0, 1) to thresholds t: a site with spin s and
    local field h changes iff s*h < t, which happens with probability
    min(1, exp(-2 beta s h)) (Metropolis) or 1/(1 + exp(2 beta s h))
    (heat bath).  At beta = 0 Metropolis flips every site and heat bath
    changes a site iff u < 1/2."""
    if beta == 0.0:
        if rule == "metropolis":
            return np.full(u.shape, np.inf)
        return np.where(u < 0.5, np.inf, -np.inf)
    # a uniform of exactly 0 (probability 2^-53) reads as the smallest
    # positive double, so the log stays finite without a warning filter
    log_u = np.log(np.maximum(u, _SMALLEST))
    if rule == "metropolis":
        return log_u * (-0.5 / beta)
    return (np.log1p(-u) - log_u) * (0.5 / beta)


def run(state: SamplerState, n_sweeps: int, rule: str = "metropolis",
        record: bool = False):
    """Advance the chain by n_sweeps sweeps of single-site updates over the
    free sites, in index order.  With `record`, return the (n_sweeps, n)
    int8 configurations after each sweep; otherwise return None."""
    if rule not in ("metropolis", "heat_bath"):
        raise ValueError("rule must be metropolis or heat_bath")
    m, n = state.free_index.size, state.config.size
    scan = _list_scan if n < _LIST_SCAN_SITES else _numpy_scan
    rows = np.empty((n_sweeps, n), dtype=np.int8) if record else None
    step = _chunk_sweeps(n)
    for start in range(0, n_sweeps, step):
        k = min(step, n_sweeps - start)
        t = _thresholds(state.rng.random(k * m), state.params.beta, rule)
        scan(state, t.reshape(k, m), None if rows is None else rows[start:start + k])
    state.sweeps += n_sweeps
    return rows


def sweep(state: SamplerState, rule: str = "metropolis") -> SamplerState:
    """One sweep: run(state, 1, rule)."""
    run(state, 1, rule)
    return state


def _chunk_sweeps(n_sites: int) -> int:
    """Sweeps whose uniforms (or recorded rows) fit the chunk budget."""
    return max(1, _CHUNK_BYTES // (8 * n_sites))


def _list_scan(state: SamplerState, t: np.ndarray, rows) -> None:
    """Sweep once per row of thresholds t on Python lists.  A flip does the
    numpy kernel's float operations in its order (h - 2s J, with 2J exact),
    so every float comes out the same."""
    free = state.free_index.tolist()
    cfg = state.config.tolist()
    h = state.fields.tolist()
    J2 = (2.0 * state.couplings).tolist()
    energy, flips = state.energy, 0
    seen = []
    for tr in t.tolist():
        for i, ti in zip(free, tr):
            s = cfg[i]
            if s * h[i] < ti:
                energy += 2.0 * s * h[i]
                if s > 0:
                    h = [a - b for a, b in zip(h, J2[i])]
                else:
                    h = [a + b for a, b in zip(h, J2[i])]
                cfg[i] = -s
                flips += 1
        if rows is not None:
            seen.append(cfg[:])
    if rows is not None:
        rows[:] = seen
    state.config[:] = cfg
    state.fields[:] = h
    state.energy = energy
    state.flips += flips


def _numpy_scan(state: SamplerState, t: np.ndarray, rows) -> None:
    """Sweep once per row of thresholds t, event-driven: one vectorized
    pass finds the next site that changes, its flip updates the cached
    fields, and the pass resumes after it."""
    free = state.free_index
    cfg = state.config
    fields = state.fields
    J = state.couplings
    for r, tr in enumerate(t):
        k = 0
        while k < free.size:
            rest = free[k:]
            changes = cfg[rest] * fields[rest] < tr[k:]
            j = int(changes.argmax())
            if not changes[j]:
                break
            i = rest[j]
            s = cfg[i]
            state.energy += 2.0 * s * fields[i]
            fields -= (2.0 * s) * J[i]
            cfg[i] = -s
            state.flips += 1
            k += j + 1
        if rows is not None:
            rows[r] = cfg


def flip_probability(state: SamplerState, site, rule: str = "metropolis") -> float:
    """Single-move transition probability out of the current configuration."""
    i = state.vol.index(site)
    h = float(state.couplings[i] @ state.config.astype(np.float64)
              + state.static_fields[i])
    x = 2.0 * state.params.beta * state.config[i] * h
    if rule == "metropolis":
        return 1.0 if x <= 0.0 else math.exp(-x)
    if x > 0.0:                    # exp(x) would overflow past x = 709
        return math.exp(-x) / (1.0 + math.exp(-x))
    return 1.0 / (1.0 + math.exp(x))


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    tau: float                     # integrated autocorrelation time (>= 0.5)
    n_samples: int


def _integrated_tau(samples: np.ndarray) -> float:
    """Integrated autocorrelation via autocovariance with Sokal windowing."""
    n = samples.size
    x = samples - samples.mean()
    var = float(x @ x) / n
    if var == 0.0 or n < 8:
        return 0.5
    tau = 0.5
    for t in range(1, n // 4):
        rho = float(x[:-t] @ x[t:]) / ((n - t) * var)
        tau += rho
        if t >= 6.0 * tau:
            break
    return max(tau, 0.5)


def _blocking_stderr(samples: np.ndarray, n_blocks: int = 32) -> float:
    n = samples.size
    if n < n_blocks:
        return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    usable = (n // n_blocks) * n_blocks
    blocks = samples[:usable].reshape(n_blocks, -1).mean(axis=1)
    if np.allclose(blocks, blocks[0]):
        return 0.0
    return float(blocks.std(ddof=1) / math.sqrt(n_blocks))


def _chain(state: SamplerState, read, shape: tuple, n_sweeps: int,
           burn_in: int, rule: str, resync_every: int) -> np.ndarray:
    """Run n_sweeps sweeps; row t - burn_in holds the sample of the
    configuration after sweep t for every t >= burn_in.  read maps a block
    of recorded configurations to its block of samples."""
    if n_sweeps <= burn_in:
        raise ValueError("n_sweeps must exceed burn_in")
    samples = np.empty((n_sweeps - burn_in,) + shape)
    step = _chunk_sweeps(state.config.size)
    t = 0
    while t < n_sweeps:
        k = min(step, n_sweeps - t, resync_every - t % resync_every)
        rows = run(state, k, rule, record=True)
        if t + k > burn_in:
            lo = max(t, burn_in)
            samples[lo - burn_in:t + k - burn_in] = read(rows[lo - t:])
        t += k
        if t % resync_every == 0:
            state.resync()
    return samples


def _summary(samples: np.ndarray) -> Estimate:
    return Estimate(float(samples.mean()), _blocking_stderr(samples),
                    _integrated_tau(samples), samples.size)


def estimate(state: SamplerState, obs, n_sweeps: int, burn_in: int = None,
             rule: str = "metropolis", resync_every: int = 1000) -> Estimate:
    """Run the chain and estimate <obs> with blocking error bars.

    With burn_in None, the default is ten measured autocorrelation times,
    re-estimated once on the series that survives the first cut.
    """
    samples = _chain(state, lambda rows: [obs.fn(row) for row in rows], (), n_sweeps,
                     burn_in or 0, rule, resync_every)
    if burn_in is None:
        first = min(int(math.ceil(10.0 * _integrated_tau(samples))), samples.size // 2)
        tau2 = _integrated_tau(samples[first:])
        cut = min(max(first, int(math.ceil(10.0 * tau2))), samples.size // 2)
        samples = samples[cut:]
    return _summary(samples)


def estimate_site_means(state: SamplerState, sites: Sequence, n_sweeps: int,
                        burn_in: int, rule: str = "metropolis",
                        resync_every: int = 1000) -> dict:
    """Per-site spin estimates from one chain (shared samples)."""
    idx = np.array([state.vol.index(s) for s in sites], dtype=np.int64)
    samples = _chain(state, lambda rows: rows[:, idx], idx.shape, n_sweeps,
                     burn_in, rule, resync_every)
    return {site: _summary(samples[:, j]) for j, site in enumerate(sites)}


def replica_seeds(master_seed: int, n_replicas: int, key: tuple = ()) -> list:
    """Stable per-replica seeds: extending the replica count never changes
    the streams already assigned.  `key` is a SeedSequence spawn key that
    names one family of streams under the master seed (key () is the
    master's own family).  Parts of one run take distinct keys, not shifted
    master seeds such as seed + 1, which are other runs' streams."""
    children = np.random.SeedSequence(master_seed, spawn_key=key).spawn(n_replicas)
    return [int(c.generate_state(1)[0]) for c in children]


def replicas(vol: model.Volume, params: model.ModelParams,
             bc: model.BoundaryCondition, seed: int, n_replicas: int, run,
             frozen: Mapping = None, key: tuple = ()) -> list:
    """run(state) for each of n_replicas chains, in replica order.  Chain r
    is seeded with replica_seeds(seed, n_replicas, key)[r] and starts plus,
    minus or random as r mod 3 is 0, 1 or 2, with the `frozen` sites held."""
    seeds = replica_seeds(seed, n_replicas, key)
    return [run(sampler_new(vol, params, bc, s, initial=_REPLICA_INITIALS[r % 3],
                            frozen=frozen))
            for r, s in enumerate(seeds)]


def combine_estimates(estimates: Sequence[Estimate]) -> Estimate:
    """Merge independent replicas: mean of means, scatter-based error."""
    means = np.array([e.mean for e in estimates])
    n = sum(e.n_samples for e in estimates)
    if len(means) > 1:
        err = float(means.std(ddof=1) / math.sqrt(len(means)))
    else:
        err = estimates[0].stderr
    tau = float(np.mean([e.tau for e in estimates]))
    return Estimate(float(means.mean()), err, tau, n)
