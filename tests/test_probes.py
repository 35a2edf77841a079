"""Headline probes: decimation, one-sided conditioning, wetting, 2d shift
energetics, duplicate-variable rigidity."""

import json
import math

import numpy as np
import pytest

from longrange_ising import exact as ex
from longrange_ising import mcmc
from longrange_ising import model as m
from longrange_ising import probes


# ---------------------------------------------------------------------------
# screening radius


def test_annulus_size_values():
    assert probes.annulus_size(1.5, 16) == 256
    assert probes.annulus_size(1.5, 4) == 16


def test_annulus_defining_inequality():
    for alpha, L in ((1.5, 16), (1.5, 4), (1.3, 8), (1.7, 12)):
        N = probes.annulus_size(alpha, L)
        assert L * N ** (1.0 - alpha) <= 1.0 + 1e-9


def test_annulus_multiplier_pushes_product_down():
    a = probes.annulus_size(1.5, 8, multiplier=1.0)
    b = probes.annulus_size(1.5, 8, multiplier=4.0)
    assert 8 * b ** -0.5 < 8 * a ** -0.5


def test_annulus_rejects_alpha_two():
    with pytest.raises(ValueError):
        probes.annulus_size(2.0, 8)


# ---------------------------------------------------------------------------
# decimation


def test_decimation_beta_zero_gap_zero():
    r = probes.decimation_probe(1.5, 0.0, 2)
    assert r.value("gap") == pytest.approx(0.0, abs=1e-13)


def test_decimation_gap_regression_and_growth():
    r2 = probes.decimation_probe(1.5, 2.0, 2)
    r4 = probes.decimation_probe(1.5, 4.0, 2)
    assert r2.params["N"] == 16
    assert r2.value("gap") == pytest.approx(1.99999946413394, abs=1e-11)
    assert r4.value("gap") == pytest.approx(1.99999999999986, abs=1e-11)
    assert r4.value("gap") > r2.value("gap") > 0.0


def test_decimation_symmetrized_antisymmetry():
    r = probes.decimation_probe(1.5, 3.0, 2)
    assert r.value("m_minus") == -r.value("m_plus")
    assert r.value("gap") == pytest.approx(
        r.value("m_plus_raw") - r.value("m_minus_raw"), abs=1e-13)


def test_decimation_mcmc_agrees_with_exact():
    exact_r = probes.decimation_probe(1.5, 1.0, 1)
    mc = probes.decimation_probe(1.5, 1.0, 1, method="mcmc", seed=5,
                                 n_sweeps=6_000, burn_in=600)
    se = mc.scalars["gap"].stderr
    assert abs(mc.value("gap") - exact_r.value("gap")) <= 4.0 * se
    assert "resolved" in mc.verdicts


def test_decimation_streams_do_not_overlap_across_seeds(monkeypatch):
    """Seed 0's minus run used to draw seed 1's plus streams (seed + 1)."""
    drawn = {}
    real = mcmc.sampler_new

    def recording(vol, params, bc, seed, *args, **kwargs):
        drawn.setdefault(bc.name, set()).add(seed)
        return real(vol, params, bc, seed, *args, **kwargs)

    monkeypatch.setattr(mcmc, "sampler_new", recording)
    seeds = {}
    for master in (0, 1):
        drawn = {}
        probes.decimation_probe(1.5, 1.0, 1, method="mcmc", seed=master,
                                n_sweeps=20, burn_in=5)
        seeds[master] = drawn
    assert len(seeds[0]["minus"]) == len(seeds[1]["plus"]) == probes.MCMC_REPLICAS
    assert not seeds[0]["minus"] & seeds[1]["plus"]
    assert not seeds[0]["plus"] & seeds[0]["minus"]


# ---------------------------------------------------------------------------
# past fields and the one-sided probe


def test_past_field_window_arithmetic():
    got = sum((-1.0) ** k / (k + 0.0) ** 2.0 for k in (1, 2))
    assert got == pytest.approx(-0.75)
    # fields at sign +1 dominate sign -1 by exactly twice the annulus block
    for x in (0, 3, 10):
        hp = probes.past_field(1, 1.5, 4, 16, 64, x)
        hm = probes.past_field(-1, 1.5, 4, 16, 64, x)
        want = 2.0 * sum((k + x) ** -1.5 for k in range(5, 17))
        assert hp - hm == pytest.approx(want, abs=1e-12)
        assert hp >= hm


def test_past_field_sign_change():
    values = [probes.past_field(-1, 1.5, 4, 16, 64, x) for x in range(0, 64)]
    assert values[0] < 0.0
    assert values[-1] > 0.0
    crossings = sum(1 for a, b in zip(values, values[1:]) if a < 0 <= b)
    assert crossings == 1


@pytest.mark.parametrize("alpha, L, N, n", [(1.5, 2, 16, 20), (1.6, 2, 16, 20),
                                         (1.5, 1, 8, 10), (1.5, 2, 16, 64)])
def test_g_field_matches_direct_sum_mpmath(alpha, L, N, n):
    # the g probe's field at every chain site x in [0, n], both ends included:
    # the window and the annulus summed directly, the plus past beyond N and
    # the plus sites right of the chain as mpmath Hurwitz zetas
    mpmath = pytest.importorskip("mpmath")
    vol = m.Volume(1, n // 2)
    with mpmath.workdps(30):
        for sign in (1, -1):
            h = m.boundary_field_vector(vol, m.PowerLaw(1.0, alpha),
                                        m.left_neighborhood_bc(sign, N, L, -(n // 2)))
            for x in range(n + 1):
                window = mpmath.fsum((-1) ** k * mpmath.mpf(k + x) ** -alpha
                                     for k in range(1, L + 1))
                annulus = mpmath.fsum(mpmath.mpf(k + x) ** -alpha for k in range(L + 1, N + 1))
                far = mpmath.zeta(alpha, N + 1 + x) + mpmath.zeta(alpha, n + 1 - x)
                want = float(window + sign * annulus + far)
                assert probes.past_field(sign, alpha, L, N, n, x) == h[x]
                assert abs(h[x] - want) <= 1e-13, (sign, x)


def test_g_probe_beta_zero():
    r = probes.g_probe(1.5, 0.0, 2, N=16, n=20)
    assert r.value("gap") == pytest.approx(0.0, abs=1e-13)


def test_g_probe_gap_regression():
    # pinned from the direct-sum field of the test above, fed to
    # exact.expectation as a per-site external field under a free exterior
    r = probes.g_probe(1.5, 4.0, 2, N=16, n=20)
    assert r.params["n"] == 20
    assert r.value("gap") == pytest.approx(2.6508155771542974e-06, rel=1e-6)
    assert r.value("gap") > 0.0
    assert r.verdicts["gap_positive"]


def test_g_probe_gap_positive_across_betas():
    for beta in (1.0, 2.0, 4.0):
        r = probes.g_probe(1.5, beta, 2, N=16, n=20)
        assert r.value("gap") > 0.0


# ---------------------------------------------------------------------------
# wetting


def test_wetting_beta_zero_profile_flat():
    r = probes.wetting_probe(1.6, 0.0, 4, 64)
    assert r.value("min_window") == pytest.approx(0.0, abs=1e-13)
    assert r.verdicts["profile_zero"]


def test_wetting_locked_geometry_negative_windows():
    r = probes.wetting_probe(1.6, 4.0, 4, 2048)
    assert r.verdicts["window_negative"]
    assert r.verdicts["window_below_far"]
    assert r.value("min_window") == pytest.approx(-0.51190934568977, abs=1e-9)
    assert r.value("profile[-2049]") == pytest.approx(-0.356843117029602, abs=1e-9)
    assert r.value("m_plus_phase") > 0.99


def test_wetting_window_ordering_small_geometry():
    # windows sit below the far field whatever the sign outcome
    r = probes.wetting_probe(1.6, 2.0, 4, 32)
    assert r.value("min_window") <= r.value("far_value") + 1e-12


def test_wetting_mcmc_agrees_with_exact():
    kwargs = dict(right_extent=6, left_margin=1)
    exact_r = probes.wetting_probe(1.6, 1.0, 4, 16, **kwargs)
    mc = probes.wetting_probe(1.6, 1.0, 4, 16, method="mcmc", seed=9,
                              n_sweeps=4_000, burn_in=400, **kwargs)
    se = mc.scalars["profile[0]"].stderr
    assert abs(mc.value("profile[0]") - exact_r.value("profile[0]")) <= \
        4.0 * max(se, 1e-3)
    assert mc.scalars["m_plus_phase"].method == "mcmc"


def test_wetting_mcmc_at_n_2048_agrees_with_exact():
    # the paper's geometry: 18 free sites next to a 2048-site frozen interval,
    # 4105 sites in all; the chains run over the free sites alone
    exact_r = probes.wetting_probe(1.6, 4.0, 4, 2048)
    mc = probes.wetting_probe(1.6, 4.0, 4, 2048, method="mcmc", n_sweeps=2_000, burn_in=400)
    assert mc.verdicts == exact_r.verdicts
    for key, s in mc.scalars.items():
        assert abs(s.value - exact_r.value(key)) <= 4.0 * max(s.stderr, 1e-3), key


# ---------------------------------------------------------------------------
# 2d shift energetics


def test_shift_bound_exponents():
    for alpha, want in ((2.5, 0.5), (3.5, -0.5)):
        _, slope = probes.dobrushin_shift_energy(alpha, 2048)
        assert abs(slope - want) <= 0.1


def test_shift_bound_bounded_above_three():
    values = [probes.shift_energy_bound(3.5, L) for L in (64, 256, 1024, 2048)]
    assert values[-1] <= values[0] * 1.2
    diverging = [probes.shift_energy_bound(2.5, L) for L in (64, 256, 1024)]
    assert diverging[-1] > 2.0 * diverging[0]


def test_shift_bound_monotone_in_alpha():
    at = [probes.shift_energy_bound(a, 128) for a in (2.5, 3.0, 3.5, 4.0)]
    assert all(x > y for x, y in zip(at, at[1:]))


def test_shift_bound_matches_scalar_tail_loop():
    for alpha in (2.1, 2.5, 3.0, 3.5, 4.0):
        for L in (0, 1, 8, 64, 2048):
            want = 0.0
            for x1 in range(0, L + 1):
                want += m.hurwitz_tail(alpha - 1.0, 0.0, L - x1)
                want += m.hurwitz_tail(alpha - 1.0, 0.0, L + x1)
            assert abs(probes.shift_energy_bound(alpha, L) / want - 1.0) <= 1e-13


def test_shift_bound_brute():
    alpha, L, M = 3.0, 8, 3_000_000
    got = probes.shift_energy_bound(alpha, L)
    brute = 0.0
    for x1 in range(0, L + 1):
        y1 = np.arange(L + 1, M, dtype=np.float64)
        brute += float(np.sum((y1 - x1) ** (1 - alpha)) + np.sum((y1 + x1) ** (1 - alpha)))
    trunc = 2 * (L + 1) * (M - L - 1.0) ** (2 - alpha) / (alpha - 2)
    assert brute < got < brute + 1.01 * trunc


def test_gs_step_converges_under_doubling():
    v128, t128 = probes.gs_step_energy(2.5, 128)
    v256, _ = probes.gs_step_energy(2.5, 256)
    assert abs(v256 - v128) <= t128
    # infinite-cutoff limit is twice the distance-weighted coupling sum
    limit = 2.0 * m.hurwitz_tail(1.5, 0.0, 0)
    assert v256 < limit < v256 + t128 * 2


def test_gs_step_alpha_ordering():
    va, _ = probes.gs_step_energy(2.1, 512)
    vb, _ = probes.gs_step_energy(3.0, 512)
    assert vb < va


def test_gs_reflection_cancellation_exact():
    assert probes.gs_reflection_cancellation(2.5, 24) < 1e-10


def test_gs_step_rejects_nonsummable():
    with pytest.raises(ValueError):
        probes.gs_step_energy(2.0, 64)


# ---------------------------------------------------------------------------
# duplicate transform and rigidity


def test_identity_table_exhaustive():
    assert probes.duplicate_identity_table()


def test_percus_transform_3x3_joint_equality():
    out = probes.percus_transform(m.AnisotropicAxes(1.5, "nn"), m.Volume(2, 1))
    assert out["identity_table_ok"]
    assert out["couplings_nonnegative"]
    assert out["hamiltonian_deviation"] <= 1e-9


def test_percus_transform_5x5_nonnegative_table():
    out = probes.percus_transform(m.AnisotropicAxes(1.5, "nn"), m.Volume(2, 2))
    assert out["min_coefficient"] >= -1e-12
    assert out["couplings_nonnegative"]


def test_percus_transform_power_law_vertical():
    out = probes.percus_transform(m.AnisotropicAxes(1.5, 2.2), m.Volume(2, 1))
    assert out["couplings_nonnegative"]
    assert out["hamiltonian_deviation"] <= 1e-9


@pytest.mark.parametrize("vertical", ["nn", 2.2])
def test_percus_energies_match_hamiltonian(vertical):
    coupling = m.AnisotropicAxes(1.5, vertical)
    vol, chain_vol = m.Volume(2, 1), m.Volume(1, 1)
    out = probes.percus_transform(coupling, vol)
    H_st, H = probes._duplicate_energies(coupling, vol, out)
    assert H.shape == (1 << vol.n_sites, 1 << chain_vol.n_sites)
    rng = np.random.default_rng(3)
    for _ in range(20):
        i, j = int(rng.integers(H.shape[0])), int(rng.integers(H.shape[1]))
        sigma = 1 - 2 * ((i >> np.arange(vol.n_sites)) & 1)
        sigma1 = 1 - 2 * ((j >> np.arange(chain_vol.n_sites)) & 1)
        want = (m.hamiltonian(vol, m.ModelParams(1.0, coupling), m.dobrushin2d_bc(0), sigma)
                + m.hamiltonian(chain_vol, m.ModelParams(1.0, m.PowerLaw(1.0, 1.5)),
                                m.plus_bc(), sigma1))
        assert H[i, j] == pytest.approx(want, abs=1e-12)
        assert H_st[i, j] == pytest.approx(want, abs=1e-12)
    assert out["hamiltonian_deviation"] == float(np.max(np.abs(H_st - H)))


@pytest.mark.parametrize("vertical", ["nn", 2.2])
def test_percus_tables_match_pair_loop(vertical):
    # reference: one coupling_value per pair, sigma = s/2 + c t on the site's
    # label, c = -1/2 below the axis and for the chain (difference slot)
    coupling = m.AnisotropicAxes(1.5, vertical)
    vol, chain_vol = m.Volume(2, 2), m.Volume(1, 2)
    out = probes.percus_transform(coupling, vol)
    pos = {s: i for i, s in enumerate(out["labels"])}
    ss, tt, st = (np.zeros((len(pos), len(pos))) for _ in range(3))
    lin_s, lin_t = np.zeros(len(pos)), np.zeros(len(pos))
    systems = [(coupling, m.dobrushin2d_bc(0), vol,
                [(pos[(x1, abs(x2))], 0.5 if x2 >= 0 else -0.5) for x1, x2 in vol.sites()]),
               (m.PowerLaw(1.0, 1.5), m.plus_bc(), chain_vol,
                [(pos[(x, 0)], -0.5) for x in chain_vol.sites()])]
    for spec, bc, v, labels in systems:
        sites = v.sites()
        for k, a in enumerate(sites):
            for q in range(k + 1, len(sites)):
                J = m.coupling_value(spec, a, sites[q])
                for (i, _), (j, cj) in ((labels[k], labels[q]), (labels[q], labels[k])):
                    ss[i, j] += J / 4
                    tt[i, j] += J * labels[k][1] * labels[q][1]
                    st[i, j] += J * cj / 2
        h = m.boundary_field_vector(v, spec, bc)
        for k, (i, c) in enumerate(labels):
            lin_s[i] += h[k] / 2
            lin_t[i] += h[k] * c
    self_terms = np.diag(tt).copy()
    ss[np.diag_indices_from(ss)] -= self_terms
    np.fill_diagonal(tt, 0.0)
    np.fill_diagonal(st, 0.0)
    for name, ref in (("ss", ss), ("tt", tt), ("st", st), ("lin_s", lin_s), ("lin_t", lin_t)):
        assert np.max(np.abs(out[name] - ref)) <= 1e-14, name
    assert out["constant"] == pytest.approx(-2.0 * self_terms.sum(), abs=1e-12)


def test_percus_transform_rejects_other_families():
    with pytest.raises(ValueError):
        probes.percus_transform(m.PowerLaw(1.0, 2.5), m.Volume(2, 1))


def test_rigidity_beta_zero():
    r = probes.rigidity_check(1.5, "nn", 0.0, 1)
    assert r.verdicts["inequality"]
    assert r.value("line0[0]") == pytest.approx(0.0, abs=1e-13)


def test_rigidity_exact_3x3():
    r = probes.rigidity_check(1.5, "nn", 3.0, 1)
    assert r.verdicts["inequality"]
    assert r.verdicts["line0_positive"]
    assert r.verdicts["sign_asymmetry"]
    assert r.value("above") > 0.0 > r.value("below")
    assert r.value("above") == pytest.approx(-r.value("below"), abs=1e-12)


def test_rigidity_vertical_mode_hypothesis():
    # split boundaries act through the columns; the verdicts should not
    # depend on the vertical decay family
    for vertical in ("nn", 2.5):
        r = probes.rigidity_check(1.5, vertical, 3.0, 1)
        assert r.verdicts["inequality"] and r.verdicts["line0_positive"]


def test_rigidity_mcmc_small():
    r = probes.rigidity_check(1.5, "nn", 1.0, 1, method="mcmc", seed=7,
                              n_sweeps=4_000, burn_in=400)
    assert r.verdicts["inequality"]
    assert r.verdicts["line0_positive"]
    assert r.verdicts["sign_asymmetry"]
    assert r.verdicts["replicas_agree"]


# ---------------------------------------------------------------------------
# one measurement path: every probe scalar is the estimator it stands for,
# bit for bit (exact primitives, or replicas of mcmc.estimate under the
# probe's stream key and frozen pattern)

_MC = dict(n_sweeps=120, burn_in=20)


def _sampled(vol, params, bc, site, seed, frozen=None, key=()):
    obs = ex.spin_observable(vol, site)
    return mcmc.combine_estimates(mcmc.replicas(
        vol, params, bc, seed, probes.MCMC_REPLICAS,
        lambda st: mcmc.estimate(st, obs, _MC["n_sweeps"], _MC["burn_in"]), frozen, key))


def _assert_sampled(scalar, est):
    assert (scalar.method, scalar.value, scalar.stderr) == ("mcmc", est.mean, est.stderr)


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_decimation_scalars_are_the_primitives(beta):
    vol, params = m.Volume(1, 4), m.ModelParams(beta, m.PowerLaw(1.0, 1.5))
    exact_r = probes.decimation_probe(1.5, beta, 1)
    mc = probes.decimation_probe(1.5, beta, 1, method="mcmc", seed=3, **_MC)
    for sign, tag in ((1, "plus"), (-1, "minus")):
        bc = m.plus_bc() if sign > 0 else m.minus_bc()
        frozen = {2: -1, -2: -1, 4: sign, -4: sign}
        assert exact_r.value(f"m_{tag}_raw") == ex.conditional_expectation(
            vol, params, bc, frozen, ex.spin_observable(vol, 0))
        _assert_sampled(mc.scalars[f"m_{tag}_raw"],
                        _sampled(vol, params, bc, 0, 3, frozen, (1, 0 if sign > 0 else 1)))


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_g_scalars_are_the_primitives(beta):
    vol = m.Volume(1, 4)
    exact_r = probes.g_probe(1.5, beta, 1, N=4, n=8)
    mc = probes.g_probe(1.5, beta, 1, N=4, n=8, method="mcmc", seed=4, **_MC)
    for sign, tag in ((1, "plus"), (-1, "minus")):
        fields = tuple(probes.past_field(sign, 1.5, 1, 4, 8, s + 4) for s in vol.sites())
        params = m.ModelParams(beta, m.PowerLaw(1.0, 1.5), field=fields)
        assert exact_r.value(f"m_{tag}") == ex.expectation(
            vol, params, m.free_bc(), ex.spin_observable(vol, -4))
        _assert_sampled(mc.scalars[f"m_{tag}"],
                        _sampled(vol, params, m.free_bc(), -4, 4, key=(2, 0 if sign > 0 else 1)))


def _wetting_frozen(vol, N, lo, hi, inner):
    """Interval [-N, -1] at `inner`, plus outside the free segments [lo, -N)
    and [0, hi]."""
    return {s: inner if -N <= s <= -1 else 1 for s in vol.sites()
            if -N <= s <= -1 or s < lo or s > hi}


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_wetting_scalars_are_the_primitives(beta):
    # N = 8, L = 4: window 1, free segments [-10, -9] and [0, 6]
    kwargs = dict(right_extent=6, left_margin=1)
    vol, params = m.Volume(1, 10), m.ModelParams(beta, m.PowerLaw(1.0, 1.6))
    exact_r = probes.wetting_probe(1.6, beta, 4, 8, **kwargs)
    mc = probes.wetting_probe(1.6, beta, 4, 8, method="mcmc", seed=5, **kwargs, **_MC)
    minus = _wetting_frozen(vol, 8, -10, 6, -1)
    plus = _wetting_frozen(vol, 8, -10, 6, 1)
    profile = ex.conditional_site_means(vol, params, m.plus_bc(), minus)
    keys = {"profile[-9]": -9, "profile[0]": 0, "far_value": 6}
    for key, site in keys.items():
        assert exact_r.value(key) == profile[site]
        _assert_sampled(mc.scalars[key], _sampled(vol, params, m.plus_bc(), site, 5, minus, (3, 1)))
    assert exact_r.value("m_plus_phase") == \
        ex.conditional_site_means(vol, params, m.plus_bc(), plus)[0]
    _assert_sampled(mc.scalars["m_plus_phase"],
                    _sampled(vol, params, m.plus_bc(), 0, 5, plus, (3, 0)))
    for r in (exact_r, mc):
        assert r.scalars["min_window"] == min((r.scalars["profile[-9]"], r.scalars["profile[0]"]),
                                              key=lambda s: s.value)


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_rigidity_scalars_are_the_primitives(beta):
    vol, params = m.Volume(2, 1), m.ModelParams(beta, m.AnisotropicAxes(1.5, "nn"))
    bc = m.dobrushin2d_bc(0)
    exact_r = probes.rigidity_check(1.5, "nn", beta, 1)
    mc = probes.rigidity_check(1.5, "nn", beta, 1, method="mcmc", seed=6, **_MC)
    chain = ex.conditional_site_means(m.Volume(1, 1), m.ModelParams(beta, m.PowerLaw(1.0, 1.5)),
                                      m.plus_bc())
    means = ex.conditional_site_means(vol, params, bc)
    keys = {f"line0[{x}]": (x, 0) for x in (-1, 0, 1)}
    keys.update(above=(0, 1), below=(0, -1))
    for x in (-1, 0, 1):
        assert exact_r.scalars[f"chain[{x}]"] == mc.scalars[f"chain[{x}]"] == \
            probes.Scalar(chain[x], "exact")
    for key, site in keys.items():
        assert exact_r.value(key) == means[site]
        _assert_sampled(mc.scalars[key], _sampled(vol, params, bc, site, 6))
    assert exact_r.value("inequality_margin") == min(means[(x, 0)] - chain[x] for x in (-1, 0, 1))


def test_wetting_mcmc_chain_sets_in_benchmark_order(monkeypatch):
    """One set of 8 chains per window site, then the far site, then the plus
    reference: the benchmark's wetting job slices its chains in this order."""
    chains, read = [], []
    real_new, real_read = mcmc.sampler_new, mcmc.estimate_site_means

    def new(vol, params, bc, seed, *args, frozen=None, **kwargs):
        chains.append((seed, frozen[-1]))
        return real_new(vol, params, bc, seed, *args, frozen=frozen, **kwargs)

    def site_means(state, sites, *args, **kwargs):
        read.append(tuple(sites))
        return real_read(state, sites, *args, **kwargs)

    monkeypatch.setattr(mcmc, "sampler_new", new)
    monkeypatch.setattr(mcmc, "estimate_site_means", site_means)
    r = probes.wetting_probe(1.6, 0.7, 8, 8, method="mcmc", seed=5, right_extent=6,
                             left_margin=1, n_sweeps=20, burn_in=5)
    assert r.params["window"] == 2
    sets = [(-10,), (-9,), (0,), (1,), (6,), (0,)]      # window sites, far site, reference
    reps = probes.MCMC_REPLICAS
    assert read == [sites for sites in sets for _ in range(reps)]
    minus = [(seed, -1) for seed in mcmc.replica_seeds(5, reps, (3, 1))]
    plus = [(seed, 1) for seed in mcmc.replica_seeds(5, reps, (3, 0))]
    assert chains == minus * 5 + plus


# ---------------------------------------------------------------------------
# reports


def test_report_json_is_canonical_and_tagged():
    r = probes.decimation_probe(1.5, 1.0, 1)
    blob = r.to_json()
    assert blob == probes.decimation_probe(1.5, 1.0, 1).to_json()
    doc = json.loads(blob)
    for key, scalar in doc["scalars"].items():
        assert scalar["method"] in ("exact", "mcmc")
        if scalar["method"] == "mcmc":
            assert "stderr" in scalar
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == blob


def test_report_mcmc_reproducible_bitwise():
    a = probes.g_probe(1.5, 0.8, 1, N=4, n=8, method="mcmc",
                       seed=42, n_sweeps=800, burn_in=80)
    b = probes.g_probe(1.5, 0.8, 1, N=4, n=8, method="mcmc",
                       seed=42, n_sweeps=800, burn_in=80)
    assert a.to_json() == b.to_json()
