"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its wall-clock time and running at the stated tolerance."""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from longrange_ising import contours as ct
from longrange_ising import exact as ex
from longrange_ising import mcmc
from longrange_ising import model as m
from longrange_ising import probes
from longrange_ising import verify
from longrange_ising.util import iter_spin_blocks


def _report(number, label, ok, started, limit_s):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"[criterion {number:>2}] {status}  {label}  ({elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert ok, f"criterion {number}: {label}"
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"


FOUR_BCS = {
    "plus": m.plus_bc, "minus": m.minus_bc,
    "free": m.free_bc, "alternating": m.alternating_bc,
}


def test_criterion_1_normalization_and_dlr():
    started = time.time()
    worst_norm, worst_dlr = 0.0, 0.0
    for L in range(0, 6):
        vol = m.Volume(1, L)
        sub = m.Volume(1, L // 2)
        for alpha in (1.5, 1.8):
            for beta in (0.0, 1.0, 2.0):
                params = m.ModelParams(beta, m.PowerLaw(1.0, alpha))
                for make_bc in FOUR_BCS.values():
                    bc = make_bc()
                    # brute-force weights over the split kernel's log Z
                    sys_ = m._reduce(vol, params, bc, {})
                    logZ = m.log_partition(vol, params, bc)
                    total = sum(float(np.sum(np.exp(sys_.log_weights(S) - logZ)))
                                for _, S in iter_spin_blocks(vol.n_sites))
                    worst_norm = max(worst_norm, abs(total - 1.0))
                    worst_dlr = max(worst_dlr, ex.dlr_consistency_check(
                        vol, sub, params, bc))
    ok = worst_norm <= 1e-12 and worst_dlr <= 1e-10
    _report(1, f"kernel sums (dev {worst_norm:.1e}) and consistency "
               f"(dev {worst_dlr:.1e})", ok, started, 60)


def test_criterion_2_droplet_scaling():
    started = time.time()
    ladder = [8, 16, 32, 64, 128]
    ok = True
    details = []
    for alpha in (1.2, 1.5, 1.8):
        fit = ct.landau_exponent_fit(alpha, ladder)
        details.append(f"{alpha}:{fit:.3f}")
        ok = ok and abs(fit - (2.0 - alpha)) <= 0.05
    _report(2, "droplet-cost exponents " + " ".join(details), ok, started, 10)


def test_criterion_3_triangle_machinery():
    started = time.time()
    ok = True
    # exhaustive bijection on volumes up to 11 sites
    for L in range(0, 6):
        vol = m.Volume(1, L)
        for bc_name in ("plus", "dobrushin"):
            if bc_name == "dobrushin" and L == 0:
                continue
            bc = m.plus_bc() if bc_name == "plus" else m.dobrushin1d_bc()
            seen = set()
            for bits in itertools.product((-1, 1), repeat=vol.n_sites):
                cfg = np.array(bits, dtype=np.int8)
                fam = ct.triangles(vol, cfg, bc)
                iface = ct.interface_point(vol, cfg, bc) if bc_name == "dobrushin" else None
                ok = ok and np.array_equal(ct.reconstruct(vol, fam, bc, interface=iface), cfg)
                key = (iface, tuple((t.left, t.right, t.sign, t.children) for t in fam))
                ok = ok and key not in seen
                seen.add(key)
    # removal-cost bound, boosted short-range bond J(1) = 10
    for alpha in (1.5, 1.8):
        spec = m.IsotropicMixed(9.0, alpha)
        vol = m.Volume(1, 5)
        kap = ct.kappa(alpha)
        for bits in itertools.product((-1, 1), repeat=vol.n_sites):
            fam = ct.triangles(vol, np.array(bits, dtype=np.int8), m.plus_bc())
            for k, t in enumerate(fam.triangles):
                ok = ok and ct.removal_cost(vol, spec, fam, k) >= \
                    kap * t.length ** (2.0 - alpha)
    # grouping invariant on 100 random families
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        spans, cursor = [], 0
        for _ in range(int(rng.integers(1, 6))):
            length = int(rng.integers(1, 5))
            gap = int(rng.integers(length + 1, 60))
            start = cursor + gap
            spans.append((start, start + length - 1))
            cursor = start + length
        try:
            fam = ct.ordered_family(
                [ct.Triangle(a - 0.5, b + 0.5, -1) for a, b in spans])
        except ValueError:
            continue
        ok = ok and ct.contour_separation_ok(ct.group_contours(fam, C=1.0), C=1.0)
        count += 1
    _report(3, "bijection, removal bound, grouping separation", ok, started, 120)


def test_criterion_4_counting_bound():
    started = time.time()
    ok = True
    for beta in (1.5, 2.0, 3.0):
        x = 3.0 * math.exp(-2.0 * beta)
        ls = np.arange(1, 20_001, dtype=np.float64)
        series = float(np.sum(ls * x ** ls))
        ok = ok and abs(series - ct.peierls_entropy_bound(beta)) <= 1e-10
    ok = ok and abs(ct.peierls_entropy_bound(2.0) - 0.061522) <= 1e-6
    _report(4, "closed form matches series; value at beta=2", ok, started, 1)


MCMC_SETTINGS = [
    # (dimension, L, alpha or spec tag, beta, bc name)
    (1, 3, 1.5, 0.5, "plus"),
    (1, 4, 1.8, 0.7, "plus"),
    (1, 3, 1.4, 0.6, "alternating"),
    (1, 4, 2.2, 0.8, "dobrushin1d"),
    (1, 2, 1.6, 0.9, "minus"),
    (1, 4, 1.3, 0.25, "free"),
    (1, 3, 2.0, 0.8, "plus"),
    (1, 2, 1.9, 0.3, "alternating"),
    (2, 1, "axes", 0.5, "dobrushin2d"),
    (2, 1, "mixed", 0.45, "plus"),
]


def test_criterion_5_sampler_oracle():
    started = time.time()
    ok = True
    details = []
    for setting_idx, (dim, L, tag, beta, bc_name) in enumerate(MCMC_SETTINGS):
        vol = m.Volume(dim, L)
        if tag == "axes":
            coupling = m.AnisotropicAxes(1.5, "nn")
        elif tag == "mixed":
            coupling = m.IsotropicMixed(1.0, 3.2)
        else:
            coupling = m.PowerLaw(1.0, tag)
        bc = {"plus": m.plus_bc, "minus": m.minus_bc, "free": m.free_bc,
              "alternating": m.alternating_bc, "dobrushin1d": m.dobrushin1d_bc,
              "dobrushin2d": m.dobrushin2d_bc}[bc_name]()
        params = m.ModelParams(beta, coupling)
        site0 = 0 if dim == 1 else (0, 0)
        site1 = 1 if dim == 1 else (0, 1)
        for obs_idx, obs in enumerate((ex.spin_observable(vol, site0),
                                       ex.pair_observable(vol, site0, site1))):
            truth = ex.expectation(vol, params, bc, obs)
            state = mcmc.sampler_new(vol, params, bc,
                                     seed=2000 + 2 * setting_idx + obs_idx,
                                     initial="random")
            est = mcmc.estimate(state, obs, 36_000, 2_000)
            miss = abs(est.mean - truth)
            ok = ok and est.stderr < 0.01 and miss <= 4.0 * max(est.stderr, 2.5e-4)
            details.append(miss / max(est.stderr, 2.5e-4))
    # detailed-balance spot check, as registered for `verify`
    checks = {name: fn for name, _, fn in verify.CHECKS}
    balance_ok, balance = checks["detailed-balance"]()
    ok = ok and balance_ok
    _report(5, f"10 settings within 4se (worst {max(details):.1f}se), balance exact "
               f"({balance})",
            ok, started, 300)


def test_criterion_6_decimation_probe():
    started = time.time()
    r0 = probes.decimation_probe(1.5, 0.0, 2)
    r2 = probes.decimation_probe(1.5, 2.0, 2)
    r4 = probes.decimation_probe(1.5, 4.0, 2)
    ok = (r2.params["N"] == 16
          and abs(r0.value("gap")) <= 1e-13
          and r2.value("gap") > 0.0
          and r4.value("gap") > r2.value("gap")
          and abs(r2.value("gap") - 1.99999946413394) <= 1e-11
          and abs(r4.value("gap") - 1.99999999999986) <= 1e-11)
    _report(6, f"gaps 0 / {r2.value('gap'):.9f} / {r4.value('gap'):.12f}",
            ok, started, 120)


def test_criterion_7_one_sided_and_wetting():
    started = time.time()
    g0 = probes.g_probe(1.5, 0.0, 2, N=16, n=20)
    g4 = probes.g_probe(1.5, 4.0, 2, N=16, n=20)
    w0 = probes.wetting_probe(1.6, 0.0, 4, 2048)
    w4 = probes.wetting_probe(1.6, 4.0, 4, 2048)
    d3 = probes.decimation_probe(1.5, 3.0, 2)
    ok = (abs(g0.value("gap")) <= 1e-13
          and g4.value("gap") > 0.0
          and abs(w0.value("min_window")) <= 1e-13
          and w4.value("min_window") < 0.0
          and w4.verdicts["window_negative"]
          and d3.value("m_minus") == -d3.value("m_plus"))
    _report(7, f"one-sided gap {g4.value('gap'):.3e} > 0; "
               f"window {w4.value('min_window'):.4f} < 0", ok, started, 300)


def test_criterion_8_interface_law():
    started = time.time()
    vol = m.Volume(1, 6)
    alpha = 1.5
    law = ex.interface_distribution(vol, m.ModelParams(3.0, m.PowerLaw(1.0, alpha)))
    d = law.as_dict()
    sym = max(abs(d[t] - d[-t]) for t in law.grid)
    ok = sym <= 1e-12 and abs(sum(law.masses) - 1.0) <= 1e-12
    # infinite-temperature law equals direct counting
    law0 = ex.interface_distribution(vol, m.ModelParams(0.0, m.PowerLaw(1.0, alpha)))
    counts = {t: 0 for t in law0.grid}
    for bits in itertools.product((-1, 1), repeat=vol.n_sites):
        counts[ct.interface_point(vol, np.array(bits, dtype=np.int8)) / 6] += 1
    ok = ok and all(abs(law0.as_dict()[t] - counts[t] / 2 ** vol.n_sites) <= 1e-12
                    for t in law0.grid)
    # shape against the droplet-volume profile at theta in {0, +-1/2}
    f = lambda t: (1 + t) ** (2 - alpha) + (1 - t) ** (2 - alpha)
    near0 = 0.5 * (d[0.5 / 6] + d[-0.5 / 6])
    nearhalf = 0.5 * (d[2.5 / 6] + d[-2.5 / 6])
    ok = ok and (near0 - nearhalf) * (f(0.0) - f(0.5)) > 0.0
    _report(8, f"symmetry {sym:.1e}; counting match; central shape", ok, started, 120)


def test_criterion_9_shift_energetics():
    started = time.time()
    ok = True
    details = []
    for alpha, want in ((2.5, 0.5), (3.5, -0.5)):
        _, slope = probes.dobrushin_shift_energy(alpha, 2048)
        details.append(f"{alpha}:{slope:+.3f}")
        ok = ok and abs(slope - want) <= 0.1
    v128, t128 = probes.gs_step_energy(2.5, 128)
    v256, _ = probes.gs_step_energy(2.5, 256)
    ok = ok and abs(v256 - v128) <= t128
    _report(9, "shift exponents " + " ".join(details) + "; step converges",
            ok, started, 60)


def test_criterion_10_duplicate_rigidity():
    started = time.time()
    out = probes.percus_transform(m.AnisotropicAxes(1.5, "nn"), m.Volume(2, 1))
    out5 = probes.percus_transform(m.AnisotropicAxes(1.5, "nn"), m.Volume(2, 2))
    ok = (out["identity_table_ok"] and out["hamiltonian_deviation"] <= 1e-9
          and out5["couplings_nonnegative"])
    r = probes.rigidity_check(1.5, "nn", 3.0, 1)
    ok = ok and all(r.verdicts[k] for k in
                    ("inequality", "line0_positive", "sign_asymmetry"))
    big = probes.rigidity_check(1.5, "nn", 3.0, 8, method="mcmc", seed=123,
                                n_sweeps=3_000, burn_in=500)
    ok = ok and all(big.verdicts[k] for k in
                    ("inequality", "line0_positive", "sign_asymmetry",
                     "replicas_agree"))
    _report(10, "identities, tables, 3x3 exact and 17x17 sampled verdicts",
            ok, started, 600)


def test_criterion_11_reproducibility(tmp_path):
    started = time.time()
    proc = subprocess.run([sys.executable, "-m", "longrange_ising.cli",
                           "verify", "--quick"], capture_output=True, text=True)
    ok = proc.returncode == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "subcommand": "sample",
        "model": {"dimension": 1, "L": 2, "beta": 0.8,
                  "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.7}},
        "bc": {"name": "plus"},
        "sampler": {"n_sweeps": 400, "burn_in": 40},
        "seed": 77,
    }))
    payloads = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        run = subprocess.run([sys.executable, "-m", "longrange_ising.cli", "run",
                              "--config", str(cfg), "--out", str(out)],
                             capture_output=True, text=True)
        ok = ok and run.returncode == 0
        rec = json.loads(out.read_text())
        rec.pop("wall_clock_s")
        payloads.append(json.dumps(rec, sort_keys=True).encode())
    ok = ok and payloads[0] == payloads[1]
    _report(11, "verify --quick green; byte-identical records", ok, started, 300)
