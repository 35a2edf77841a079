"""Single-spin Metropolis and heat-bath samplers for long-range couplings.

A chain runs over the free sites of one reduced system (`model._reduce`,
shared by the chains of a replica set): the frozen spins sit in the free
sites' field c_f, and only the free-free couplings J_ff remain.  The
sampler caches every free site's local field h; a flip changes it by one
row of the system's read-only table 2 J_ff (`doubled`), built when a chain
first reads it.  A sweep visits the free sites in index order, as a
sequential single-site sweep does.  `run(state, n_sweeps, rule, record)`
is the one loop that advances a chain: it draws the uniforms of many
sweeps with one call and maps each, in place, to a threshold t, so that
the site with spin s changes iff s*h < t.  On Philox, drawing a + b
uniforms at once gives the same numbers as drawing a and then b, so
batching leaves every stream as it is.  Uniforms (a large chain's a block
at a time, see below), and the whole-volume configurations that `record`
returns after each sweep, are taken in chunks of at most `_CHUNK_BYTES`.
Two inner scans apply the thresholds:

- the list scan tests s*h < t site by site on Python lists, free of
  numpy's fixed cost per call, and logs its flips, from which its
  recorded rows are built by one cumulative parity per block;
- the event scan crosses sweep boundaries.  Between two flips s*h does not
  change, so one comparison of it against a window of whole threshold rows,
  from the sweep of the current visit on, and one argmax find the next
  flip's (sweep, site), however many sweeps ahead; the sweeps before it are
  recorded by broadcast, and the flip updates the energy and every cached
  field (one doubled coupling row).  A flip costs one search and one field
  update, and a cold chain crosses many sweeps in one search.

A third, the budget scan, draws no uniforms: each free site holds an Exp(1)
budget, each visit spends -log(1 - p) of it (p the flip probability), and
the visit that overspends it flips the site, as in the n-fold way's waiting
times (Bortz, Kalos and Lebowitz 1975); only a flip draws a number.

A chain of fewer than `_LIST_SCAN_SITES` free sites walks each `run` call
in blocks of `_BLOCK_SWEEPS` sweeps.  A block runs the list scan if the
previous block (for the first block of a call, the chain so far) flipped
more than `_DENSE_FLIPS` of its site visits.  Otherwise it starts on the
event scan, which finishes the current sweep and hands the rest of the
block to the list scan once the block's flips exceed `_DENSE_FLIPS` of its
visits plus m.  Both scans give the same floats.  A larger chain walks
blocks of half as many of its own sweeps, however `run` is called; the
first, and each after one that flipped `_BUDGET_FLIPS` of its visits or
more, runs the event scan, and the others the budget scan.
`sweep` is run(state, 1, rule).  The RNG is counter-based (Philox) and
seeded through SeedSequence, so replica streams are reproducible and
adding replicas never perturbs existing ones.

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
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import model

_SMALLEST = float(np.nextafter(0.0, 1.0))
_LARGEST = float(np.finfo(np.float64).max)

#: Chains of fewer free sites choose between the list and the event scan;
#: larger ones between the event and the budget scan.
_LIST_SCAN_SITES = 64

#: Sweeps per block, and the share of site visits past which a block hands
#: over to the list scan and the next block runs it (measured: the event
#: scan wins below about 3 % at 7-63 sites).
_BLOCK_SWEEPS = 128
_DENSE_FLIPS = 0.03

#: Large chains walk blocks of half as many sweeps, each on the budget scan if
#: the one before flipped fewer than this share of its visits (fit: 0.6e-3-1.3e-3).
_BUDGET_FLIPS = 1e-3

#: Thresholds that one window of the event scan compares at once.
_EVENT_WINDOW = 1024

#: Bytes of uniforms, or of recorded rows, that one chunk of sweeps holds.
_CHUNK_BYTES = 1 << 20

#: Initial states of replica chains, cycled by replica index.
_REPLICA_INITIALS = ("plus", "minus", "random")


@dataclass
class SamplerState:
    """Mutable sampler over the free sites of one reduced system: spins of
    the whole volume, cached local fields of the free sites, seeded RNG.

    `energy` is the free-site form -s.J_ff.s / 2 - c_f.s (`total_energy`),
    the Hamiltonian less a constant of the frozen spins alone.  `flips`
    counts accepted moves and `max_drift` is the largest gap between the
    cached and the recomputed energy seen at a `resync`; both are telemetry
    and stay out of every deterministic payload.
    """

    vol: model.Volume
    system: model._ReducedSystem   # shared by a replica set's chains
    free_index: np.ndarray         # system.free_idx: volume indices of the free sites
    config: np.ndarray
    fields: np.ndarray             # c_f + J_ff s over the free sites
    energy: float
    rng: np.random.Generator
    sweeps: int = 0
    flips: int = 0
    max_drift: float = 0.0
    block_flips: int = 0           # flips before the current block (large chains)
    budgets: np.ndarray = None     # budget scan: each free site's Exp(1) budget, and
    unspent: np.ndarray = None     # the sweep of its first visit not spent from it

    def total_energy(self) -> float:
        """Recomputed free-site form (oracle for the cached value)."""
        s = self.config[self.free_index].astype(np.float64)
        return float(-0.5 * s @ (self.system.J_ff.T @ s) - s @ self.system.c_f)

    def resync(self) -> None:
        s = self.config[self.free_index].astype(np.float64)
        # J_ff.T is J_ff's row-major view: with nothing frozen, the product
        # of the whole coupling matrix, bit for bit
        self.fields = self.system.J_ff.T @ s + self.system.c_f
        energy = self.total_energy()
        self.max_drift = max(self.max_drift, abs(self.energy - energy))
        self.energy = energy


#: The last reduction sampler_new built, keyed by volume, model, boundary and
#: frozen pattern in its order: the one a replica set's chains share.
_last_reduction = (None, None)


def sampler_new(vol: model.Volume, params: model.ModelParams,
                bc: model.BoundaryCondition, seed: int, initial: str = "plus",
                frozen: Mapping = None) -> SamplerState:
    """Build a sampler over the free sites of the reduced system, at most
    `model.MATRIX_SITE_CAP` of them; the frozen sites hold their spins."""
    global _last_reduction
    key = (vol, params, bc, tuple(frozen.items()) if frozen else ())
    if _last_reduction[0] != key:
        _last_reduction = key, model._reduce(vol, params, bc, frozen, cap=model.MATRIX_SITE_CAP)
    system = _last_reduction[1]
    if initial not in _REPLICA_INITIALS:
        raise ValueError("initial must be plus, minus, or random")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cfg = model.random_configuration(vol, rng) if initial == "random" else \
        np.full(vol.n_sites, 1 if initial == "plus" else -1, dtype=np.int8)
    np.copyto(cfg, system.template, where=system.template != 0)

    state = SamplerState(vol, system, system.free_idx, cfg, np.zeros(system.free_idx.size), 0.0, rng)
    state.resync()
    state.max_drift = 0.0          # the first sync fills an empty cache
    return state


def _thresholds(u: np.ndarray, beta: float, rule: str) -> np.ndarray:
    """Map uniforms u in [0, 1) to thresholds t, in place if beta > 0: a
    site with spin s and local field h changes iff s*h < t, which happens
    with probability min(1, exp(-2 beta s h)) (Metropolis) or 1/(1 +
    exp(2 beta s h)) (heat bath).  At beta = 0 Metropolis flips every site
    and heat bath changes a site iff u < 1/2."""
    if beta == 0.0:
        if rule == "metropolis":
            return np.full(u.shape, np.inf)
        return np.where(u < 0.5, np.inf, -np.inf)
    # a uniform of exactly 0 (probability 2^-53) reads as the smallest
    # positive double, so the log stays finite without a warning filter
    if rule == "metropolis":
        np.log(np.maximum(u, _SMALLEST, out=u), out=u)
    else:
        log_u = np.maximum(u, _SMALLEST)
        np.log(log_u, out=log_u)
        np.subtract(np.log1p(np.negative(u, out=u), out=u), log_u, out=u)
    u *= (-0.5 if rule == "metropolis" else 0.5) / beta
    return u


def run(state: SamplerState, n_sweeps: int, rule: str = "metropolis",
        record: bool = False):
    """Advance the chain by n_sweeps sweeps of single-site updates over the
    free sites, in index order.  With `record`, return the (n_sweeps, n)
    int8 configurations after each sweep; otherwise return None."""
    if rule not in ("metropolis", "heat_bath"):
        raise ValueError("rule must be metropolis or heat_bath")
    m, n = state.free_index.size, state.config.size
    rows = np.empty((n_sweeps, n), dtype=np.int8) if record else None
    doubled = state.system.doubled.tolist() if m < _LIST_SCAN_SITES else None
    dense = doubled is not None and state.flips > _DENSE_FLIPS * state.sweeps * m
    step, start = _chunk_sweeps(n), 0
    while start < n_sweeps:
        k = min(step, n_sweeps - start)
        at = state.sweeps % (_BLOCK_SWEEPS // 2)   # in a large chain's own block
        if doubled is None and at == 0:
            if not state.sweeps or state.flips - state.block_flips >= \
                    _BUDGET_FLIPS * m * (_BLOCK_SWEEPS // 2):
                state.budgets = None
            elif state.budgets is None:
                state.budgets = state.rng.standard_exponential(m)
                state.unspent = np.full(m, float(state.sweeps))
            state.block_flips = state.flips
        k = min(k, _BLOCK_SWEEPS // 2 - at) if doubled is None else k
        if state.budgets is not None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                _event_scan(state, k, None if rows is None else rows[start:start + k], rule)
        else:
            t = _thresholds(state.rng.random(k * m), state.system.beta, rule).reshape(k, m)
            for b in range(start, start + k, _BLOCK_SWEEPS):
                tb = t[b - start:b - start + _BLOCK_SWEEPS]
                out = None if rows is None else rows[b:b + len(tb)]
                flips = state.flips
                r = 0 if dense else _event_scan(state, tb, out)
                if r < len(tb):
                    _list_scan(state, tb[r:], None if out is None else out[r:], doubled)
                dense = doubled is not None and state.flips - flips > _DENSE_FLIPS * tb.size
        state.sweeps += k
        start += k
    return rows


def sweep(state: SamplerState, rule: str = "metropolis") -> SamplerState:
    """One sweep: run(state, 1, rule)."""
    run(state, 1, rule)
    return state


def _chunk_sweeps(n_sites: int) -> int:
    """Sweeps whose uniforms (or recorded rows) fit the chunk budget."""
    return max(1, _CHUNK_BYTES // (8 * n_sites))


def _list_scan(state: SamplerState, t: np.ndarray, rows, doubled: list) -> None:
    """Sweep once per row of thresholds t on Python lists, testing s*h < t
    site by site; `doubled` is state.system.doubled as lists.  A flip does the
    event scan's float operations in its order, so every float comes out
    the same."""
    free, m = state.free_index, t.shape[1]
    start = state.config[free]
    spins, h, energy = start.tolist(), state.fields.tolist(), state.energy
    flipped = []                   # visit r*m + c of each flip
    for r, tr in enumerate(t.tolist()):
        for c, tc in enumerate(tr):
            s = spins[c]
            if s * h[c] < tc:
                energy += 2.0 * s * h[c]
                h = list(map(operator.sub if s > 0 else operator.add, h, doubled[c]))
                spins[c] = -s
                flipped.append(r * m + c)
    if rows is not None:           # the frozen columns, then the free ones
        odd = np.zeros(t.shape, dtype=np.uint8)
        odd.flat[flipped] = 1      # then the parity of each site's flips so far
        np.bitwise_xor.accumulate(odd, axis=0, out=odd)
        rows[:] = state.config
        rows[:, free] = np.where(odd, -start, start)
    state.config[free] = spins
    state.fields[:] = h
    state.energy = energy
    state.flips += len(flipped)


def _event_scan(state: SamplerState, t, rows, rule: str = None) -> int:
    """Sweep once per row of thresholds t, from flip to flip, and return the
    number of rows swept.  Between two flips s*h does not change, so one
    comparison of it against a window of about `_EVENT_WINDOW` thresholds,
    from the row of the current visit on, finds the next flip however many
    sweeps ahead.  The sweeps before it are recorded by broadcast; the flip
    updates the energy and every cached field (one doubled coupling row).
    A chain of fewer than `_LIST_SCAN_SITES` free sites whose flips exceed
    `_DENSE_FLIPS` of its visits plus m stops at the end of that sweep.
    With a `rule`, t is a number of sweeps, and on the budget scan a site
    flips at the first visit v since the last flip with v > budget / spend;
    a flip charges each site its visits and draws the flipped one anew."""
    free, cfg, fields, doubled = state.free_index, state.config, state.fields, state.system.doubled
    m, n_rows = free.size, len(t) if rule is None else t
    spins = cfg[free].astype(np.float64)
    sh = spins * fields              # s*h, remade in place after each flip
    w = _EVENT_WINDOW // max(m, 1) + 1           # rows a window spans
    grace = m if m < _LIST_SCAN_SITES else math.inf
    energy, flips = state.energy, 0
    r = c = done = 0                 # next visit: sweep r, free position c
    if rule is not None:
        budgets, unspent, first = state.budgets, state.unspent, state.sweeps
        spend, flip, visits = np.empty(m), np.empty(m), np.empty(m)
    while m and r < n_rows:          # m = 0: every site is frozen
        if rule is None:
            hit = (sh < t[r:r + w]).reshape(-1)
            f = int(hit[c:].argmax()) + c
            if not hit[f]:
                r, c = r + len(hit) // m, 0
                continue
            skip, c = divmod(f, m)
            r += skip
        else:
            # -log(1 - p) of y = -2 beta s h, the largest double for a sure flip
            y = np.exp(np.multiply(sh, -2.0 * state.system.beta, out=spend), out=spend)
            if rule == "metropolis":
                np.negative(np.log1p(np.negative(y, out=y), out=y), out=y)
            else:
                np.log1p(y, out=y)
            np.maximum(np.fmin(spend, _LARGEST, out=spend), _SMALLEST, out=spend)
            np.floor(np.divide(budgets, spend, out=flip), out=flip)   # visits survived
            flip += unspent          # the sweep of each site's flip, not before
            np.maximum(flip, first, out=flip)            # this scan's first
            c = int(flip.argmin())   # the earliest: on ties, the first site
            if flip[c] >= first + n_rows:
                break
            np.subtract(flip[c], unspent, out=visits)    # each site's, up to
            visits[:c] += 1          # the flip
            unspent += visits
            unspent[c] += 1
            budgets -= np.multiply(visits, spend, out=visits)
            np.maximum(budgets, 0.0, out=budgets)
            budgets[c] = state.rng.standard_exponential()
            r = int(flip[c]) - first
        if rows is not None:
            rows[done:r] = cfg
            done = r
        i = free.item(c)
        s = cfg.item(i)
        energy += 2.0 * s * fields.item(c)
        if s > 0:
            fields -= doubled[c]
        else:
            fields += doubled[c]
        cfg[i] = spins[c] = -s
        np.multiply(spins, fields, out=sh)
        flips += 1
        if flips > _DENSE_FLIPS * (r * m + c + 1) + grace:
            t, n_rows = t[:r + 1], r + 1     # dense: finish this sweep, hand over
        r, c = divmod(r * m + c + 1, m)
    if rows is not None:
        rows[done:n_rows] = cfg
    state.energy = energy
    state.flips += flips
    return n_rows


def flip_probability(state: SamplerState, site, rule: str = "metropolis") -> float:
    """Probability that the next visit to `site` changes it, from the cached
    local field (after a `resync`, that of the current configuration): 0 at
    a frozen site, which no sweep visits."""
    i = state.vol.index(site)
    if state.system.template[i]:
        return 0.0
    h = state.fields[np.searchsorted(state.free_index, i)]
    x = 2.0 * state.system.beta * state.config[i] * h
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
    x = samples - np.add.reduce(samples) / n
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
    """Std error of n_blocks block means (below n_blocks samples, each sample
    is a block), by the reductions numpy runs inside mean and std."""
    n = samples.size
    if n < n_blocks:
        if n < 2:
            return 0.0
        blocks, n_blocks = samples, n
    else:
        blocks = np.add.reduce(samples[:n - n % n_blocks].reshape(n_blocks, -1), axis=1)
        blocks /= n // n_blocks
        # np.allclose(blocks, blocks[0]) as one reduction
        if np.abs(blocks - blocks[0]).max() <= 1e-8 + 1e-5 * abs(blocks[0]):
            return 0.0
    d = blocks - np.add.reduce(blocks) / n_blocks
    d *= d
    return math.sqrt(np.add.reduce(d) / (n_blocks - 1)) / math.sqrt(n_blocks)


def _chain(state: SamplerState, read, shape: tuple, n_sweeps: int,
           burn_in: int, rule: str, resync_every: int) -> np.ndarray:
    """Run n_sweeps sweeps; row t - burn_in holds the sample of the
    configuration after sweep t for every t >= burn_in.  read maps a block
    of recorded configurations to its block of samples."""
    if not 0 <= burn_in < n_sweeps:
        raise ValueError("burn_in must be >= 0 and below n_sweeps")
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
    return Estimate(float(np.add.reduce(samples) / samples.size), _blocking_stderr(samples),
                    _integrated_tau(samples), samples.size)


def estimate(state: SamplerState, obs, n_sweeps: int, burn_in: int = None,
             rule: str = "metropolis", resync_every: int = 1000) -> Estimate:
    """Run the chain and estimate <obs> with blocking error bars.

    With burn_in None, the default is ten measured autocorrelation times,
    re-estimated once on the series that survives the first cut.
    """
    samples = _chain(state, obs.evaluate_block, (), n_sweeps, burn_in or 0, rule,
                     resync_every)
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
