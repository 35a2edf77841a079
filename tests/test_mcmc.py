"""Sampler correctness: determinism, balance, caches, oracle agreement."""

import copy
import math
import re

import numpy as np
import pytest

from longrange_ising import exact as ex
from longrange_ising import mcmc
from longrange_ising import model as m
from longrange_ising.util import CapacityError


def test_same_seed_bit_identical():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.7))
    runs = []
    for _ in range(2):
        st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=99, initial="random")
        traj = []
        for _ in range(30):
            mcmc.sweep(st)
            traj.append(st.config.copy())
        runs.append((np.stack(traj), st.energy))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_initial_energy_matches_hamiltonian():
    vol = m.Volume(1, 4)
    params = m.ModelParams(0.8, m.IsotropicMixed(3.0, 1.6))
    st = mcmc.sampler_new(vol, params, m.dobrushin1d_bc(), seed=0, initial="plus")
    assert st.energy == pytest.approx(
        m.hamiltonian(vol, params, m.dobrushin1d_bc(), m.all_plus(vol)), abs=1e-10)


def _wetting_frozen(N: int, vol: m.Volume) -> dict:
    """The wetting probe's pattern at L = 4: [-N, -1] minus, and plus right
    of site 13, which leaves 18 free sites."""
    return {s: -1 if s < 0 else 1 for s in vol.sites() if -N <= s <= -1 or s > 13}


def test_capacity_errors():
    params = m.ModelParams(1.0, m.PowerLaw(1.0, 1.5))
    with pytest.raises(CapacityError):
        mcmc.sampler_new(m.Volume(1, 40_000), params, m.plus_bc(), seed=0)
    # 4097 free sites, one over the reduced system's cap
    with pytest.raises(CapacityError):
        mcmc.sampler_new(m.Volume(1, 2048), params, m.plus_bc(), seed=0)
    # 4105 sites, 18 of them free: the cap counts free sites
    vol = m.Volume(1, 2052)
    frozen = _wetting_frozen(2048, vol)
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=0, initial="random", frozen=frozen)
    assert st.free_index.size == 18 and st.fields.size == 18
    rows = mcmc.run(st, 50, record=True)
    assert rows.shape == (50, 4105) and st.flips > 0
    idx = [vol.index(s) for s in frozen]
    assert (rows[:, idx] == list(frozen.values())).all()


def test_sampler_peak_memory_scales_with_the_free_sites(monkeypatch):
    # the wetting geometry at N = 2040: 4089 sites, 18 free
    import tracemalloc
    vol = m.Volume(1, 2044)
    params = m.ModelParams(4.0, m.PowerLaw(1.0, 1.6))
    frozen = _wetting_frozen(2040, vol)
    monkeypatch.setattr(mcmc, "_last_reduction", (None, None))
    m.boundary_field_vector.cache_clear()
    tracemalloc.start()
    try:
        st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=0, frozen=frozen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.free_index.size == 18
    assert peak <= 4 << 20, peak


def test_beta_zero_metropolis_always_accepts():
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.0, m.PowerLaw(1.0, 1.5))
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=5)
    for s in vol.sites():
        assert mcmc.flip_probability(st, s) == 1.0


def test_detailed_balance_identity():
    vol = m.Volume(1, 2)
    params = m.ModelParams(0.9, m.PowerLaw(1.0, 1.5))
    bc = m.alternating_bc()
    rng = np.random.default_rng(11)
    st = mcmc.sampler_new(vol, params, bc, seed=1)
    for rule in ("metropolis", "heat_bath"):
        for _ in range(60):
            cfg = m.random_configuration(vol, rng)
            site = int(rng.integers(-2, 3))
            st.config = cfg.copy()
            st.resync()
            pi = m.specification_kernel(vol, params, bc, cfg)
            fwd = mcmc.flip_probability(st, site, rule)
            cfg2 = cfg.copy()
            cfg2[vol.index(site)] *= -1
            st.config = cfg2
            st.resync()
            pi2 = m.specification_kernel(vol, params, bc, cfg2)
            bwd = mcmc.flip_probability(st, site, rule)
            assert abs(pi * fwd - pi2 * bwd) < 1e-12


def test_energy_drift_after_sweeps():
    vol = m.Volume(1, 4)
    params = m.ModelParams(0.6, m.PowerLaw(1.0, 1.5))
    bc = m.alternating_bc()
    for frozen in (None, {2: 1, -4: -1}):
        st = mcmc.sampler_new(vol, params, bc, seed=3, initial="random", frozen=frozen)
        gap = m.hamiltonian(vol, params, bc, st.config) - st.energy
        for _ in range(1000):
            mcmc.sweep(st)
        assert abs(st.energy - st.total_energy()) < 1e-6
        # the free-site form is H less a constant of the frozen spins alone
        assert m.hamiltonian(vol, params, bc, st.config) - st.energy == \
            pytest.approx(gap, abs=1e-9)
        assert (abs(gap) < 1e-12) == (frozen is None)
        # the reduced field cache holds the whole volume's local fields
        s = st.config.astype(np.float64)
        want = m.coupling_matrix(vol, params.coupling) @ s + m.site_fields(vol, params, bc)
        assert np.max(np.abs(st.fields - want[st.free_index])) < 1e-8


def test_negative_burn_in_is_refused():
    vol = m.Volume(1, 2)
    st = mcmc.sampler_new(vol, m.ModelParams(0.5, m.PowerLaw(1.0, 1.5)), m.plus_bc(), seed=1)
    with pytest.raises(ValueError, match="burn_in"):
        mcmc.estimate(st, ex.spin_observable(vol, 0), 100, -5)
    with pytest.raises(ValueError, match="burn_in"):
        mcmc.estimate_site_means(st, [0], 100, -5)
    assert st.sweeps == 0


def test_constant_observable_estimate():
    vol = m.Volume(1, 2)
    params = m.ModelParams(0.5, m.PowerLaw(1.0, 1.5))
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=8)
    const = ex.Observable("one", lambda c: 1.0)
    est = mcmc.estimate(st, const, 600, 100)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.tau == 0.5


def test_blocking_stderr_zero_exactly_when_blocks_allclose():
    # 32 samples make 32 one-sample blocks, so the blocks are the samples
    rng = np.random.default_rng(3)
    cases = [np.full(32, v) for v in (0.0, 1.0, -0.37, 1e6)]
    for b0 in (0.0, 1.0, -2.5, 1e6):
        for factor in (0.999, 1.001):
            blocks = np.full(32, b0)
            step = factor * (1e-8 + 1e-5 * abs(b0))       # np.allclose's tolerance
            blocks[int(rng.integers(1, 32))] += step * rng.choice([-1, 1])
            cases.append(blocks)
    for scale in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
        cases += [b0 + scale * rng.normal(size=32) for b0 in (0.0, 0.5, -1.0)]
    for blocks in cases:
        assert (mcmc._blocking_stderr(blocks) == 0.0) == np.allclose(blocks, blocks[0])
    assert {np.allclose(b, b[0]) for b in cases} == {True, False}


def _numpy_blocking_stderr(samples, n_blocks=32):
    """The blocking error as numpy's mean and std methods give it."""
    n = samples.size
    if n < n_blocks:
        return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    blocks = samples[:n - n % n_blocks].reshape(n_blocks, -1).mean(axis=1)
    if np.allclose(blocks, blocks[0]):
        return 0.0
    return float(blocks.std(ddof=1) / math.sqrt(n_blocks))


def test_summaries_equal_numpy_mean_and_std_bit_for_bit():
    # the summaries run numpy's own reductions without its method wrappers;
    # the column of a wider array is how estimate_site_means reads a site
    rng = np.random.default_rng(32)
    cases = [np.full(n, v) for n in (1, 2, 31, 32, 500) for v in (0.0, 1.0, -0.37)]
    for n in list(range(1, 70)) + [95, 127, 128, 1000, 1601, 4000]:
        cases += [rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3) + rng.uniform(-5, 5),
                  np.cumsum(rng.normal(size=n)), rng.choice([-1.0, 1.0], size=n),
                  rng.normal(size=(n, 3))[:, 1]]
    for x in cases:
        est = mcmc._summary(x)
        assert est.mean == float(x.mean())
        assert est.stderr == _numpy_blocking_stderr(x)
        assert est.n_samples == x.size
    assert {mcmc._blocking_stderr(x) == 0.0 for x in cases} == {True, False}


def test_thresholds_equal_the_out_of_place_expression():
    rng = np.random.default_rng(32)
    for beta in [0.0, 1e-3, 0.5, 3.0, 1e3] + list(rng.uniform(0.01, 5.0, 5)):
        for rule in ("metropolis", "heat_bath"):
            u = rng.random(1000)
            u[[0, 7]] = 0.0            # probability 2^-53 each, mapped finite
            u[3] = np.nextafter(1.0, 0.0)
            if beta == 0.0:
                want = np.full(u.shape, np.inf) if rule == "metropolis" \
                    else np.where(u < 0.5, np.inf, -np.inf)
            else:
                log_u = np.log(np.maximum(u, mcmc._SMALLEST))
                want = log_u * (-0.5 / beta) if rule == "metropolis" \
                    else (np.log1p(-u) - log_u) * (0.5 / beta)
            t = mcmc._thresholds(u, beta, rule)
            assert t.tobytes() == want.tobytes()
            assert (t is u) == (beta > 0.0)     # mapped in place
            assert np.isfinite(t).all() == (beta > 0.0)


def test_beta_zero_mean_near_zero():
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.0, m.PowerLaw(1.0, 1.5))
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=12, initial="random")
    est = mcmc.estimate(st, ex.spin_observable(vol, 0), 8000, 500)
    assert abs(est.mean) < 4.0 * est.stderr + 1e-12


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
def test_oracle_agreement(rule):
    # moderate beta keeps the chain fluctuating so the error bar is honest
    vol = m.Volume(1, 4)
    params = m.ModelParams(0.7, m.PowerLaw(1.0, 1.8))
    obs = ex.spin_observable(vol, 0)
    truth = ex.expectation(vol, params, m.plus_bc(), obs)
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=77, initial="random")
    est = mcmc.estimate(st, obs, 30_000, 2_000, rule=rule)
    assert 1e-4 < est.stderr < 0.01
    assert abs(est.mean - truth) <= 4.0 * est.stderr


def test_frozen_sites_respected():
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.7, m.PowerLaw(1.0, 1.5))
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=4, initial="random",
                          frozen={0: -1, 2: 1})
    for _ in range(200):
        mcmc.sweep(st)
        assert st.config[vol.index(0)] == -1
        assert st.config[vol.index(2)] == 1


@pytest.mark.parametrize("frozen, message", [
    ({0: 3}, "frozen spins must be"), ({0: 0}, "frozen spins must be"),
    ({1: -1.5}, "frozen spins must be"), ({4: 1}, "outside the volume"),
    ({1.0: 1}, "frozen site 1.0 outside"), ({0: 1, 2.0: -1}, "frozen site 2.0 outside"),
    ({(0, 1): 1}, r"frozen site \(0, 1\) outside"), ({np.int64(-4): 1}, "frozen site -4 outside"),
    ({1 << 70: 1}, "outside the volume"),
    # the first bad entry decides: a bad spin before an outside site and back
    ({0: 3, 9: 1}, "frozen spins must be"), ({9: 1, 0: 3}, "frozen site 9 outside"),
    ({1: 1, 2: 2, 1.5: 1}, "frozen spins must be"), ({1: 1, 1.5: 1, 2: 2}, "frozen site 1.5")])
def test_sampler_rejects_invalid_frozen_spins_like_the_oracle(frozen, message):
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.7, m.PowerLaw(1.0, 1.5))
    with pytest.raises(ValueError, match=message):
        mcmc.sampler_new(vol, params, m.plus_bc(), seed=4, frozen=frozen)
    with pytest.raises(ValueError, match=message):
        ex.conditional_site_means(vol, params, m.plus_bc(), frozen)


def test_frozen_sites_off_the_2d_lattice_rejected():
    vol = m.Volume(2, 1)
    params = m.ModelParams(0.7, m.PowerLaw(1.0, 2.5))
    for frozen in ({(0.5, 1): 1}, {(0, 0): 1, (1, 1.0): -1}, {(0, 2): 1}):
        site = list(frozen)[-1]
        with pytest.raises(ValueError, match=f"frozen site {re.escape(str(site))} outside"):
            mcmc.sampler_new(vol, params, m.plus_bc(), seed=4, frozen=frozen)
        with pytest.raises(ValueError, match=f"frozen site {re.escape(str(site))} outside"):
            ex.conditional_site_means(vol, params, m.plus_bc(), frozen)


def test_frozen_sites_of_integer_types_read_as_their_values():
    for vol, plain, typed in [
            (m.Volume(1, 3), {1: -1, -2: 1}, {True: -1, np.int64(-2): 1}),
            (m.Volume(1, 3), {1: -1, -2: 1}, {np.int8(1): -1.0, -2: True}),
            (m.Volume(2, 1), {(0, 1): -1, (1, -1): 1}, {(0, True): -1, (np.int64(1), -1): 1})]:
        coupling = m.PowerLaw(1.0, 1.5 if vol.dimension == 1 else 2.5)
        params = m.ModelParams(0.7, coupling)
        idx, spins = m.check_frozen(vol, typed)
        assert idx.tolist() == [vol.index(s) for s in plain]
        assert spins.tolist() == list(plain.values())
        assert ex.conditional_site_means(vol, params, m.plus_bc(), typed) \
            == ex.conditional_site_means(vol, params, m.plus_bc(), plain)
        a = mcmc.sampler_new(vol, params, m.plus_bc(), seed=4, initial="random", frozen=typed)
        b = mcmc.sampler_new(vol, params, m.plus_bc(), seed=4, initial="random", frozen=plain)
        assert a.config.tolist() == b.config.tolist()
        assert a.free_index.tolist() == b.free_index.tolist()


def test_frozen_sampler_matches_conditional_oracle():
    vol = m.Volume(1, 3)
    params = m.ModelParams(1.2, m.PowerLaw(1.0, 1.6))
    frozen = {-1: -1}
    obs = ex.spin_observable(vol, 0)
    truth = ex.conditional_expectation(vol, params, m.plus_bc(), frozen, obs)
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=21, initial="random",
                          frozen=frozen)
    est = mcmc.estimate(st, obs, 30_000, 2_000)
    assert abs(est.mean - truth) <= 4.0 * max(est.stderr, 1e-12)


def test_monotone_in_beta():
    vol = m.Volume(1, 3)
    obs = ex.spin_observable(vol, 0)
    results = []
    for beta in (0.5, 1.0, 2.0, 4.0):
        params = m.ModelParams(beta, m.PowerLaw(1.0, 1.8))
        st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=31, initial="random")
        results.append(mcmc.estimate(st, obs, 20_000, 2_000))
    for a, b in zip(results, results[1:]):
        band = 4.0 * math.hypot(a.stderr, b.stderr)
        assert b.mean >= a.mean - band


def test_replica_seeds_stable_under_extension():
    assert mcmc.replica_seeds(123, 4) == mcmc.replica_seeds(123, 8)[:4]


@pytest.mark.parametrize("frozen", [None, {-2: 1, 3: -1}])
def test_replicas_follow_seed_layout_and_initial_cycle(frozen):
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.9, m.PowerLaw(1.0, 1.6))
    obs = ex.spin_observable(vol, 0)
    key = (4, 1)

    def run(st):
        return tuple(st.config), mcmc.estimate(st, obs, 300, 10)

    def by_hand(shift):
        cycle = ("plus", "minus", "random")
        return [run(mcmc.sampler_new(vol, params, m.alternating_bc(), s,
                                     initial=cycle[(r + shift) % 3], frozen=frozen))
                for r, s in enumerate(mcmc.replica_seeds(41, 5, key))]

    got = mcmc.replicas(vol, params, m.alternating_bc(), 41, 5, run, frozen, key)
    assert got == by_hand(0)
    assert got != by_hand(1)            # the comparison sees the initial states


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
def test_estimate_equals_site_means_column(rule):
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.7, m.PowerLaw(1.0, 1.5))

    def fresh():
        return mcmc.sampler_new(vol, params, m.dobrushin1d_bc(), seed=9, initial="random")

    one = mcmc.estimate(fresh(), ex.spin_observable(vol, 1), 2500, 300, rule=rule,
                        resync_every=400)
    many = mcmc.estimate_site_means(fresh(), [1], 2500, 300, rule=rule,
                                    resync_every=400)
    assert one == many[1]


def test_auto_burn_in_agrees_with_oracle():
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.8, m.PowerLaw(1.0, 1.7))
    obs = ex.spin_observable(vol, 0)
    truth = ex.expectation(vol, params, m.plus_bc(), obs)
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=55, initial="minus")
    est = mcmc.estimate(st, obs, 20_000)        # burn-in chosen from tau
    assert est.n_samples < 20_000
    assert abs(est.mean - truth) <= 4.0 * max(est.stderr, 1e-4)


def test_combine_estimates():
    parts = [mcmc.Estimate(1.0, 0.1, 1.0, 100), mcmc.Estimate(3.0, 0.1, 2.0, 100)]
    merged = mcmc.combine_estimates(parts)
    assert merged.mean == pytest.approx(2.0)
    assert merged.n_samples == 200
    assert merged.stderr == pytest.approx(np.std([1.0, 3.0], ddof=1) / math.sqrt(2))


def test_estimate_site_means_consistent():
    vol = m.Volume(1, 2)
    params = m.ModelParams(0.6, m.PowerLaw(1.0, 1.6))
    st = mcmc.sampler_new(vol, params, m.dobrushin1d_bc(), seed=6, initial="random")
    out = mcmc.estimate_site_means(st, vol.sites(), 24_000, 1_000)
    for s in vol.sites():
        truth = ex.expectation(vol, params, m.dobrushin1d_bc(),
                               ex.spin_observable(vol, s))
        est = out[s]
        assert est.stderr > 1e-4
        assert abs(est.mean - truth) <= 4.0 * est.stderr


def _sequential_sweep(state, u, rule):
    """Reference sweep: visit the free sites one at a time in index order
    and change site i iff u < P(s h), read from the same uniforms."""
    beta = state.system.beta
    for k, i in enumerate(state.free_index):
        s = state.config[i]
        h = state.fields[k]
        x = 2.0 * beta * s * h
        if rule == "metropolis":
            change = x <= 0.0 or u[k] < math.exp(-x)
        elif beta == 0.0:
            change = u[k] < 0.5
        else:
            change = x < 700.0 and u[k] < 1.0 / (1.0 + math.exp(x))
        if change:
            state.energy += 2.0 * s * h
            state.fields -= (2.0 * s) * state.system.J_ff[k]
            state.config[i] = -s
            state.flips += 1


KERNEL_SETTINGS = {
    "frozen": (m.Volume(1, 6), m.ModelParams(1.2, m.PowerLaw(1.0, 1.5)), m.plus_bc(),
               {-6: -1, 0: 1, 4: -1}),
    "beta0": (m.Volume(1, 4), m.ModelParams(0.0, m.PowerLaw(1.0, 1.5)), m.plus_bc(), None),
    "hot": (m.Volume(1, 5), m.ModelParams(0.05, m.PowerLaw(1.0, 1.6)),
            m.alternating_bc(), None),
    "ordered2d": (m.Volume(2, 2), m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn")),
                  m.dobrushin2d_bc(0), None),
    # 81 sites each: above the list-scan crossover
    "ordered2d_frozen": (m.Volume(2, 4), m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn")),
                         m.dobrushin2d_bc(0), {(0, 0): -1, (2, -3): 1, (-4, 4): -1}),
    "hot_wide": (m.Volume(1, 40), m.ModelParams(0.05, m.PowerLaw(1.0, 1.6)),
                 m.alternating_bc(), None),
}


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
@pytest.mark.parametrize("setting", sorted(KERNEL_SETTINGS))
def test_sweep_matches_sequential_loop(setting, rule, monkeypatch):
    monkeypatch.setattr(mcmc, "_BUDGET_FLIPS", 0.0)    # the uniforms' scans only
    vol, params, bc, frozen = KERNEL_SETTINGS[setting]
    fast, ref = (mcmc.sampler_new(vol, params, bc, seed=17, initial="random",
                                  frozen=frozen) for _ in range(2))
    for _ in range(250):
        mcmc.sweep(fast, rule)
        _sequential_sweep(ref, ref.rng.random(ref.free_index.size), rule)
        assert np.array_equal(fast.config, ref.config)
        assert fast.energy == ref.energy
        assert np.array_equal(fast.fields, ref.fields)
    assert fast.flips == ref.flips > 0
    if setting in ("beta0", "hot", "hot_wide"):
        assert fast.flips > 0.3 * 250 * fast.free_index.size


#: KERNEL_SETTINGS and a chain that never flips: 7 sites under plus at
#: beta 3, started plus (each site's flip probability is below e^-30)
RECORD_SETTINGS = dict(KERNEL_SETTINGS, still=(
    m.Volume(1, 3), m.ModelParams(3.0, m.PowerLaw(1.0, 1.5)), m.plus_bc(), None))


@pytest.mark.parametrize("scan", ["chosen", "list"])
@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
@pytest.mark.parametrize("setting", sorted(RECORD_SETTINGS))
def test_recorded_rows_equal_single_sweeps(setting, rule, scan, monkeypatch):
    # 300 sweeps: blocks of 128, 128 and 44.  "list" makes every block after
    # the first run the list scan, which builds its rows from its flip log
    vol, params, bc, frozen = RECORD_SETTINGS[setting]
    if scan == "list":
        monkeypatch.setattr(mcmc, "_LIST_SCAN_SITES", 1 << 30)
        monkeypatch.setattr(mcmc, "_DENSE_FLIPS", -1.0)
    st = mcmc.sampler_new(vol, params, bc, seed=32, frozen=frozen,
                          initial="plus" if setting == "still" else "random")
    twin = copy.deepcopy(st)
    used = _record_scans(monkeypatch)
    rows = mcmc.run(st, 300, rule, record=True)
    if scan == "list":
        assert used[-2:] == ["l128", "l44"], used
    for row in rows:
        mcmc.sweep(twin, rule)
        assert np.array_equal(row, twin.config)
    assert st.energy == twin.energy and np.array_equal(st.fields, twin.fields)
    assert st.flips == twin.flips
    m_free = st.free_index.size
    if setting == "still":
        assert st.flips == 0
    elif setting == "beta0" and rule == "metropolis":
        assert st.flips == 300 * m_free          # every site, every sweep
    elif setting in ("beta0", "hot", "hot_wide"):
        assert st.flips > 0.3 * 300 * m_free


def test_cold_chunk_peak_holds_the_uniforms_once(monkeypatch):
    # one 453-sweep chunk of the 17x17 chain at beta 3 (289 sites) on the
    # uniforms: its recorded rows take 128 KiB, and its uniforms come a
    # block of 64 sweeps at a time, 145 KiB (a whole chunk's took 1023 KiB).
    # The thresholds are mapped into the uniforms' own buffer, so Metropolis
    # peaks near 0.4 MiB (1.1 MiB with chunk-wide uniforms); out-of-place
    # mapping held three more chunk-sized arrays (about 3.1 MiB).  Heat bath
    # keeps one more buffer, for log u (about 0.55 MiB).
    import tracemalloc
    vol = m.Volume(2, 8)
    params = m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn"))
    k = mcmc._chunk_sweeps(vol.n_sites)
    assert k == 453
    monkeypatch.setattr(mcmc, "_BUDGET_FLIPS", 0.0)    # the event scan throughout
    for rule, bound in (("metropolis", 1.5), ("heat_bath", 2.6)):
        st = mcmc.sampler_new(vol, params, m.dobrushin2d_bc(0), seed=1)
        mcmc.run(st, k, rule, record=True)        # warm: the flip table is built
        tracemalloc.start()
        try:
            mcmc.run(st, k, rule, record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * (1 << 20), (rule, peak)


def _record_scans(monkeypatch) -> list:
    """Wrap the scans so that each call appends "e" (event), "l" (list) or
    "b" (budget: the event scan on a number of sweeps) and the number of
    sweeps it was given, e.g. "e128"."""
    used = []
    for name in ("_list_scan", "_event_scan"):
        scan = getattr(mcmc, name)
        monkeypatch.setattr(mcmc, name, lambda st, t, *rest, scan=scan, name=name: (
            used.append(f"b{t}" if isinstance(t, int) else f"{name[1]}{len(t)}"),
            scan(st, t, *rest))[1])
    return used


def test_scan_is_picked_by_site_count_and_flip_density(monkeypatch):
    used = _record_scans(monkeypatch)

    def scans(st, n_blocks):
        used.clear()
        mcmc.run(st, n_blocks * mcmc._BLOCK_SWEEPS, "metropolis")
        return " ".join(used)

    def state(setting):
        vol, params, bc, frozen = KERNEL_SETTINGS[setting]
        return mcmc.sampler_new(vol, params, bc, seed=1, initial="random", frozen=frozen)

    # 81 sites: blocks of 64 sweeps and never a hand-over to the list scan;
    # hot, the event scan throughout, and cold, the budget scan once a block
    # flips fewer than _BUDGET_FLIPS of its visits
    assert scans(state("hot_wide"), 3) == "e64 e64 e64 e64 e64 e64"
    assert scans(state("ordered2d_frozen"), 3) == "e64 e64 b64 b64 b64 b64"
    # a cold small chain runs the event scan from its first block on
    assert scans(state("ordered2d"), 4) == "e128 e128 e128 e128"
    # a hot one hands its first block over after two sweeps, mid-block, and
    # the next blocks run the list scan, as does the first block of the
    # next run call, read from the chain so far
    hot = state("hot")
    assert scans(hot, 4) == "e128 l126 l128 l128 l128"
    assert scans(hot, 1) == "l128"


#: The scans of one 30-sweep run in test_run_matches_repeated_sweeps, in
#: chunks of 4 sweeps.  "list": the first block hands over after one sweep
#: and every block after it counts as dense.
RUN_SCANS = {
    "list": "e4 l3 l4 l4 l4 l4 l4 l4 l2",
    "numpy": "e4 e4 e4 e4 e4 e4 e4 e2",
    ("switch", "beta0"): "e3 l1 l1 l3 l1 l3 l1 l3 l1 l3 l1 l3 l1 l3 l1 l2",
    ("switch", "frozen", "metropolis"): "e3 l1 l1 e3 l1 e3 l1 l1 l3 l1 l3 l1 l3 e1 e3 l1 l2",
    ("switch", "frozen", "heat_bath"): "e3 l1 l1 e3 l1 l3 l1 e3 l1 l3 l1 e3 e1 e3 l1 l2",
}


RUN_SETTINGS = {
    "beta0": (m.ModelParams(0.0, m.PowerLaw(1.0, 1.5)), m.plus_bc(), None),
    "frozen": (m.ModelParams(0.6, m.PowerLaw(1.0, 1.6)), m.alternating_bc(), {1: -1}),
}


@pytest.mark.parametrize("scan", ["list", "numpy", "switch"])
@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
@pytest.mark.parametrize("setting", sorted(RUN_SETTINGS))
def test_run_matches_repeated_sweeps(setting, rule, scan, monkeypatch):
    vol = m.Volume(1, 3)
    params, bc, frozen = RUN_SETTINGS[setting]
    if scan == "list":               # a hand-over at once, then dense blocks
        monkeypatch.setattr(mcmc, "_DENSE_FLIPS", -1.0)
    elif scan == "numpy":            # the event scan throughout, in windows
        monkeypatch.setattr(mcmc, "_LIST_SCAN_SITES", 0)   # of two sweeps
        monkeypatch.setattr(mcmc, "_EVENT_WINDOW", 12)
    else:                            # blocks of 3 sweeps, two to a chunk
        monkeypatch.setattr(mcmc, "_BLOCK_SWEEPS", 3)
    monkeypatch.setattr(mcmc, "_CHUNK_BYTES", 4 * 8 * vol.n_sites)   # 4 sweeps a chunk
    K = 30                           # spans seven chunk boundaries
    batched, single = (mcmc.sampler_new(vol, params, bc, seed=23, initial="random",
                                        frozen=frozen) for _ in range(2))
    used = _record_scans(monkeypatch)
    rows = mcmc.run(batched, K, rule, record=True)
    assert rows.dtype == np.int8 and rows.shape == (K, vol.n_sites)
    want = RUN_SCANS.get(scan) or RUN_SCANS.get((scan, setting)) \
        or RUN_SCANS[scan, setting, rule]
    assert " ".join(used) == want
    for row in rows:
        assert mcmc.run(single, 1, rule) is None
        assert np.array_equal(row, single.config)
    assert np.array_equal(batched.config, single.config)
    assert batched.energy == single.energy
    assert np.array_equal(batched.fields, single.fields)
    assert batched.flips == single.flips > 0
    assert batched.sweeps == single.sweeps == K
    assert batched.rng.random() == single.rng.random()


def _run_matches_sequential(state, n_sweeps: int, rule: str = "metropolis"):
    """run(state, n_sweeps, rule, record=True) against as many sequential
    sweeps of a twin chain: rows, energy, fields and flips, bit for bit."""
    ref = copy.deepcopy(state)
    rows = mcmc.run(state, n_sweeps, rule, record=True)
    for row in rows:
        _sequential_sweep(ref, ref.rng.random(ref.free_index.size), rule)
        assert np.array_equal(row, ref.config)
    assert state.energy == ref.energy
    assert np.array_equal(state.fields, ref.fields)
    assert state.flips == ref.flips > 0


def test_cold_chain_matches_sequential_sweeps_across_windows(monkeypatch):
    # criterion-5 setting 0: about 0.09 flips a sweep, so most searches
    # cross many sweeps, and every block stays on the event scan
    st = mcmc.sampler_new(m.Volume(1, 3), m.ModelParams(0.5, m.PowerLaw(1.0, 1.5)),
                          m.plus_bc(), seed=5, initial="plus")
    used = _record_scans(monkeypatch)
    _run_matches_sequential(st, 3000)
    assert set(used) == {"e128", "e56"} and st.flips > 100


def test_wide_chain_matches_sequential_sweeps_when_windows_miss(monkeypatch):
    # 81 free sites: windows of a few sweeps, fewer flips than windows, so
    # some windows find no flip; cold as it is, it stays on the event scan
    monkeypatch.setattr(mcmc, "_BUDGET_FLIPS", 0.0)
    st = mcmc.sampler_new(m.Volume(1, 40), m.ModelParams(1.0, m.PowerLaw(1.0, 1.5)),
                          m.plus_bc(), seed=5, initial="plus")
    n_sweeps = 600
    _run_matches_sequential(st, n_sweeps)
    m_free = st.free_index.size
    assert m_free >= mcmc._LIST_SCAN_SITES
    assert st.flips * (mcmc._EVENT_WINDOW // m_free + 1) < n_sweeps


def test_chain_switching_scans_matches_sequential_sweeps(monkeypatch):
    # 17 free sites near the 3 % switch: the event scan hands a block over
    # mid-block, and the next block is back on the event scan
    st = mcmc.sampler_new(m.Volume(1, 8), m.ModelParams(0.7, m.PowerLaw(1.0, 1.5)),
                          m.free_bc(), seed=0, initial="random")
    used = _record_scans(monkeypatch)
    _run_matches_sequential(st, 512)
    assert " ".join(used) == "e128 l110 e128 l108 l128 l128"


def test_chain_is_chunked_without_changing_samples(monkeypatch):
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.6, m.PowerLaw(1.0, 1.5))

    def means():
        st = mcmc.sampler_new(vol, params, m.dobrushin1d_bc(), seed=2, initial="random")
        return mcmc.estimate_site_means(st, vol.sites(), 700, 50, resync_every=10 ** 9)

    whole = means()
    lengths = []
    run = mcmc.run
    monkeypatch.setattr(mcmc, "_CHUNK_BYTES", 64 * 8 * vol.n_sites)
    monkeypatch.setattr(mcmc, "run", lambda st, k, *a, **kw: (lengths.append(k),
                                                               run(st, k, *a, **kw))[1])
    assert means() == whole
    assert max(lengths) == 64 and sum(lengths) == 700


class _BudgetTwin:
    """Per-visit twin of `run` on a chain of `_LIST_SCAN_SITES` free sites or
    more.  Blocks of _BLOCK_SWEEPS // 2 sweeps, counted from the chain's first,
    run on uniforms (`_sequential_sweep`) or, after a block that flipped
    fewer than _BUDGET_FLIPS of its visits, on Exp(1) budgets B: a visit adds
    one to its site's count v and flips the site iff v > B / spend, where
    spend = -log(1 - p) for the flip probability p.  A flip charges every
    site v * spend (leaving at least 0), draws the flipped site a new budget
    and restarts every count."""

    def __init__(self, state):
        self.state, self.counts, self.budget_flips = state, None, 0

    def spends(self, rule):
        st = self.state
        y = st.config[st.free_index] * (-2.0 * st.system.beta) * st.fields
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_stay = np.log1p(-np.exp(y)) if rule == "metropolis" else -np.log1p(np.exp(y))
            spend = np.maximum(np.fmin(-log_stay, np.finfo(np.float64).max), np.nextafter(0.0, 1.0))
            return spend, st.budgets / spend

    def run(self, n_sweeps, rule):
        st, block = self.state, mcmc._BLOCK_SWEEPS // 2
        m = st.free_index.size
        rows = []
        for _ in range(n_sweeps):
            if st.sweeps % block == 0:
                if st.sweeps and st.flips - st.block_flips < mcmc._BUDGET_FLIPS * m * block:
                    if st.budgets is None:
                        st.budgets = st.rng.standard_exponential(m)
                        self.counts = np.zeros(m, dtype=np.int64)
                else:
                    st.budgets = None
                st.block_flips = st.flips
            if st.budgets is None:
                _sequential_sweep(st, st.rng.random(m), rule)
            else:
                spend, survive = self.spends(rule)
                for k, i in enumerate(st.free_index):
                    self.counts[k] += 1
                    if self.counts[k] > survive[k]:
                        st.budgets -= self.counts * spend
                        np.maximum(st.budgets, 0.0, out=st.budgets)
                        st.budgets[k] = st.rng.standard_exponential()
                        self.counts[:] = 0
                        s, h = st.config[i], st.fields[k]
                        st.energy += 2.0 * s * h
                        st.fields -= (2.0 * s) * st.system.J_ff[k]
                        st.config[i] = -s
                        st.flips += 1
                        self.budget_flips += 1
                        spend, survive = self.spends(rule)
            st.sweeps += 1
            rows.append(st.config.copy())
        return np.array(rows)


#: Chains of 81 and 289 free sites for the budget scan: cold ones that
#: freeze after relaxing, one whose blocks switch scans both ways, and one
#: forced onto the budget scan while hot (inf: every block after the first)
BUDGET_SETTINGS = {
    "ordered2d_frozen": KERNEL_SETTINGS["ordered2d_frozen"] + (None,),
    "rigidity17": (m.Volume(2, 8), m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn")),
                   m.dobrushin2d_bc(0), None, None),
    "switching": (m.Volume(1, 40), m.ModelParams(0.75, m.PowerLaw(1.0, 1.5)), m.plus_bc(),
                  None, None),
    "forced": (m.Volume(1, 40), m.ModelParams(0.4, m.PowerLaw(1.0, 1.5)), m.free_bc(),
               None, math.inf),
}


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
@pytest.mark.parametrize("setting", sorted(BUDGET_SETTINGS))
def test_budget_scan_matches_per_visit_budgets(setting, rule, monkeypatch):
    # run calls that split blocks, a one-sweep call and a resync mid-block,
    # after which one budget reads as spent on visits before the next call
    vol, params, bc, frozen, share = BUDGET_SETTINGS[setting]
    if share is not None:
        monkeypatch.setattr(mcmc, "_BUDGET_FLIPS", share)
    st = mcmc.sampler_new(vol, params, bc, seed=7, initial="random", frozen=frozen)
    twin = _BudgetTwin(copy.deepcopy(st))
    used = _record_scans(monkeypatch)
    for k, n_sweeps in enumerate((100, 157, 1, 230, 152)):
        rows = mcmc.run(st, n_sweeps, rule, record=True)
        assert np.array_equal(rows, twin.run(n_sweeps, rule))
        assert st.energy == twin.state.energy
        assert np.array_equal(st.fields, twin.state.fields)
        assert st.flips == twin.state.flips
        assert (st.budgets is None) == (twin.state.budgets is None)
        if st.budgets is not None:
            assert np.array_equal(st.budgets, twin.state.budgets)
        if k == 1:
            st.resync()
            twin.state.resync()
            if st.budgets is not None:   # overspent since the last flip: it
                st.budgets[3] = twin.state.budgets[3] = 0.0      # flips next visit
    scans = "".join(u[0] for u in used)
    assert "b" in scans
    if setting in ("switching", "forced"):
        assert twin.budget_flips > 10
    if setting == "switching":       # back to the event scan after a budget block
        assert "be" in scans.replace("bb", "b")


def test_budget_scan_is_picked_per_block_of_the_chain(monkeypatch):
    used = _record_scans(monkeypatch)
    half = mcmc._BLOCK_SWEEPS // 2   # the blocks of chains of 64 free sites or more
    # 17x17 at beta 3 from random: two blocks on the event scan (133 flips,
    # then none), then the budget scan, which draws no number between flips
    st = mcmc.sampler_new(m.Volume(2, 8), m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn")),
                          m.dobrushin2d_bc(0), seed=1, initial="random")

    def next_draws():
        return copy.deepcopy(st.rng).random(4).tolist()

    mcmc.run(st, 2 * half)
    draws = next_draws()
    mcmc.run(st, 4 * half)
    assert " ".join(used) == "e64 e64 b64 b64 b64 b64"
    assert next_draws() != draws     # the budgets, drawn once
    draws = next_draws()
    mcmc.run(st, 1000)
    assert next_draws() == draws and st.flips == 133
    # 81 sites near the switch (5.2 flips a block): both ways, block by
    # block, and the blocks are the chain's own, however run splits them
    st = mcmc.sampler_new(m.Volume(1, 40), m.ModelParams(0.75, m.PowerLaw(1.0, 1.5)),
                          m.plus_bc(), seed=1, initial="plus")
    used.clear()
    mcmc.run(st, 12 * half)
    assert " ".join(used) == "e64 b64 e64 e64 b64 b64 b64 b64 b64 e64 b64 b64"
    used.clear()
    mcmc.run(st, 50)
    mcmc.run(st, 100)
    assert " ".join(used) == "e50 e14 e64 e22"


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
def test_run_splits_leave_cold_large_chains_as_they_are(rule, monkeypatch):
    # run(a + b) equals run(a); run(b), budgets and generator included, and
    # smaller chunks in estimate_site_means move no sample
    vol, params = m.Volume(2, 8), m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn"))
    whole, split = (mcmc.sampler_new(vol, params, m.dobrushin2d_bc(0), seed=3, initial="random")
                    for _ in range(2))
    rows = mcmc.run(whole, 1000, rule, record=True)
    parts = [mcmc.run(split, k, rule, record=True) for k in (1, 255, 130, 2, 612)]
    assert np.array_equal(rows, np.concatenate(parts))
    for name in ("config", "fields", "budgets"):
        assert np.array_equal(getattr(whole, name), getattr(split, name))
    assert np.array_equal(whole.unspent, split.unspent)
    assert (whole.energy, whole.flips, whole.sweeps, whole.block_flips) == \
        (split.energy, split.flips, split.sweeps, split.block_flips)
    assert whole.rng.random() == split.rng.random()

    def means():
        st = mcmc.sampler_new(vol, params, m.dobrushin2d_bc(0), seed=4)
        return mcmc.estimate_site_means(st, [(0, 8), (0, -8), (3, 1)], 2000, 200, rule)

    whole = means()
    monkeypatch.setattr(mcmc, "_CHUNK_BYTES", 100 * 8 * vol.n_sites)   # 100 sweeps a chunk
    assert means() == whole


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
def test_budget_scan_agrees_with_the_oracle_on_criterion_5_settings(rule, monkeypatch):
    # every chain on the budget scan from its second block of 64 sweeps on
    from test_acceptance import MCMC_SETTINGS
    monkeypatch.setattr(mcmc, "_LIST_SCAN_SITES", 0)
    monkeypatch.setattr(mcmc, "_BUDGET_FLIPS", math.inf)
    used = _record_scans(monkeypatch)
    couplings = {"axes": m.AnisotropicAxes(1.5, "nn"), "mixed": m.IsotropicMixed(1.0, 3.2)}
    for k, (dim, L, tag, beta, bc_name) in enumerate(MCMC_SETTINGS):
        vol = m.Volume(dim, L)
        params = m.ModelParams(beta, couplings.get(tag) or m.PowerLaw(1.0, tag))
        bc = getattr(m, f"{bc_name}_bc")()
        obs = ex.pair_observable(vol, *((0, 1) if dim == 1 else ((0, 0), (0, 1))))
        truth = ex.expectation(vol, params, bc, obs)
        st = mcmc.sampler_new(vol, params, bc, seed=2001 + 2 * k, initial="random")
        used.clear()
        est = mcmc.estimate(st, obs, 12_000, 1_000, rule=rule)
        assert used[0] == "e64" and {u[0] for u in used[1:]} == {"b"}
        assert abs(est.mean - truth) <= 4.0 * max(est.stderr, 2.5e-4), (k, est, truth)


def test_cold_budget_chunk_holds_no_uniforms():
    # the chunk of test_cold_chunk_peak_holds_the_uniforms_once on the budget
    # scan: its 128 KiB of recorded rows and a few vectors of 289 doubles;
    # the uniform path holds the chunk's 1023 KiB of uniforms besides
    import tracemalloc
    vol = m.Volume(2, 8)
    params = m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn"))
    k = mcmc._chunk_sweeps(vol.n_sites)
    for rule in ("metropolis", "heat_bath"):
        st = mcmc.sampler_new(vol, params, m.dobrushin2d_bc(0), seed=1)
        mcmc.run(st, 3 * mcmc._BLOCK_SWEEPS, rule)     # relaxed, on the budget scan
        assert st.budgets is not None
        tracemalloc.start()
        try:
            mcmc.run(st, k, rule, record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.budgets is not None
        assert peak < 0.5 * (1 << 20), (rule, peak)


def _config_rows(state, width):
    text = "".join("+" if s > 0 else "-" for s in state.config.tolist())
    return tuple(text[i:i + width] for i in range(0, len(text), width))


def test_streams_pinned():
    # flip counts, minus spins summed over every recorded sweep and final
    # configurations: exact integers (no float digest to drift with libm);
    # a change to the sampled streams moves them
    st = mcmc.sampler_new(m.Volume(1, 3), m.ModelParams(0.5, m.PowerLaw(1.0, 1.5)),
                          m.plus_bc(), seed=5, initial="random")
    rows = mcmc.run(st, 2000, "metropolis", record=True)
    assert (st.flips, int((rows < 0).sum())) == (189, 92)
    assert _config_rows(st, 7) == ("+++++++",)
    st = mcmc.sampler_new(m.Volume(2, 8), m.ModelParams(3.0, m.AnisotropicAxes(1.5, "nn")),
                          m.dobrushin2d_bc(0), seed=5, initial="random")
    rows = mcmc.run(st, 50, "heat_bath", record=True)
    assert (st.flips, int((rows < 0).sum())) == (135, 6801)
    assert _config_rows(st, 17) == ("--------+++++++++",) * 17
    # flip density near the scan switch: blocks run both scans
    st = mcmc.sampler_new(m.Volume(1, 16), m.ModelParams(0.6, m.PowerLaw(1.0, 1.5)),
                          m.free_bc(), seed=5, initial="random")
    rows = mcmc.run(st, 2000, "metropolis", record=True)
    assert (st.flips, int((rows < 0).sum())) == (2341, 23283)
    assert _config_rows(st, 33) == ("---------+-------+-----+---------",)


@pytest.mark.parametrize("rule, initial, want", [("metropolis", "minus", 1.0),
                                                 ("heat_bath", "plus", 0.0)])
def test_flip_probability_beyond_exp_range(rule, initial, want):
    # 2 beta |h| = 960 is past exp's overflow at 709
    params = m.ModelParams(4.0, m.PowerLaw(1.0, 1.5), field=120.0)
    st = mcmc.sampler_new(m.Volume(1, 0), params, m.free_bc(), seed=0, initial=initial)
    assert mcmc.flip_probability(st, 0, rule) == want
    mcmc.sweep(st, rule)             # the kernel agrees: a sure flip, or none
    assert st.flips == int(want)


class _FixedUniforms:
    """Stands in for the sampler's generator: hands out given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
def test_sweep_decision_flips_at_flip_probability(rule):
    vol = m.Volume(1, 0)             # one site under a free boundary: h = field
    checked = 0
    for beta in (0.0, 0.4, 1.3):
        for f in np.linspace(-1.5, 1.5, 13):
            params = m.ModelParams(beta, m.PowerLaw(1.0, 1.5), field=float(f))
            for initial in ("plus", "minus"):
                st = mcmc.sampler_new(vol, params, m.free_bc(), seed=0, initial=initial)
                p = mcmc.flip_probability(st, 0, rule)
                for u, want in ((p - 1e-9, True), (p + 1e-9, False)):
                    if not 0.0 <= u < 1.0:
                        continue
                    st = mcmc.sampler_new(vol, params, m.free_bc(), seed=0,
                                          initial=initial)
                    s = st.config[0]
                    st.rng = _FixedUniforms([u])
                    mcmc.sweep(st, rule)
                    assert (st.config[0] != s) == want, (beta, f, initial, u, p)
                    checked += 1
    assert checked > 100


def test_flip_counter_and_resync_drift():
    vol = m.Volume(1, 5)
    params = m.ModelParams(0.4, m.PowerLaw(1.0, 1.5))
    st = mcmc.sampler_new(vol, params, m.alternating_bc(), seed=9, initial="random",
                          frozen={2: 1})
    assert st.flips == 0 and st.max_drift == 0.0
    changed = 0
    for _ in range(300):
        before = st.config.copy()
        mcmc.sweep(st)
        changed += int((before != st.config).sum())
    assert st.flips == changed > 0
    st.resync()
    assert 0.0 <= st.max_drift < 1e-9
    st.energy += 0.25
    st.resync()
    assert st.max_drift == pytest.approx(0.25, abs=1e-9)
    assert st.energy == st.total_energy()


def test_replica_set_shares_one_flip_table(monkeypatch):
    # the doubled couplings 2 J_ff (8 MiB at 1023 free sites) belong to the
    # shared reduction: a second chain allocates far less than the table
    import tracemalloc
    vol, params = m.Volume(1, 511), m.ModelParams(0.5, m.PowerLaw(1.0, 1.5))
    monkeypatch.setattr(mcmc, "_last_reduction", (None, None))
    first = mcmc.sampler_new(vol, params, m.plus_bc(), seed=1)
    mcmc.run(first, 1)
    tracemalloc.start()
    try:
        second = mcmc.sampler_new(vol, params, m.plus_bc(), seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    mcmc.run(second, 1)
    assert second.system.doubled is first.system.doubled
    assert not first.system.doubled.flags.writeable


def test_replica_set_builds_one_reduction(monkeypatch):
    vol = m.Volume(2, 2)
    params = m.ModelParams(1.0, m.AnisotropicAxes(1.5, "nn"))
    built = []
    reduce = m._reduce
    monkeypatch.setattr(m, "_reduce", lambda *a, **kw: (built.append(a), reduce(*a, **kw))[1])
    monkeypatch.setattr(mcmc, "_last_reduction", (None, None))
    frozen = {(0, 0): -1, (2, 1): 1}
    states = mcmc.replicas(vol, params, m.plus_bc(), 4, 8, lambda st: st, frozen)
    assert len(built) == 1
    assert all(st.system is states[0].system for st in states)
    assert states[0].free_index.size == vol.n_sites - 2
    # the rows are the coupling matrix's rows at the free sites
    J = m.coupling_matrix(vol, params.coupling)
    free = states[0].free_index
    assert np.array_equal(states[0].system.J_ff, J[np.ix_(free, free)])
    # one reduction is kept: after another pattern the first is built anew;
    # an exact call builds its own and leaves the sampler's in place
    mcmc.replicas(vol, params, m.plus_bc(), 4, 8, lambda st: st, {(0, 0): 1})
    assert len(built) == 2
    mcmc.replicas(vol, params, m.plus_bc(), 4, 8, lambda st: st, frozen)
    assert len(built) == 3
    ex.conditional_site_means(vol, params, m.plus_bc(), frozen)
    assert len(built) == 4
    mcmc.replicas(vol, params, m.plus_bc(), 4, 8, lambda st: st, frozen)
    assert len(built) == 4


@pytest.mark.parametrize("rule", ["metropolis", "heat_bath"])
def test_flip_probability_is_zero_at_a_frozen_site(rule):
    vol = m.Volume(1, 3)
    params = m.ModelParams(0.0, m.PowerLaw(1.0, 1.5))
    st = mcmc.sampler_new(vol, params, m.plus_bc(), seed=5, frozen={0: -1})
    assert mcmc.flip_probability(st, 0, rule) == 0.0
    assert mcmc.flip_probability(st, 1, rule) == (1.0 if rule == "metropolis" else 0.5)
    rows = mcmc.run(st, 200, rule, record=True)
    assert (rows[:, vol.index(0)] == -1).all() and st.flips > 0
