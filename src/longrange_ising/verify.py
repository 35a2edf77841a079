"""Named invariant checks behind the `verify` subcommand.

Each check returns (ok, detail).  The quick set takes about 35 ms of CPU
time in a warm process (0.3-0.4 s for the whole command, start-up
included) on a 2-vCPU x86-64 VM; the full set adds the slower enumeration
sweeps.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import contours, exact, mcmc, model, probes


def _check_kernel_normalization():
    worst = 0.0
    for L in (1, 2):
        vol = model.Volume(1, L)
        for beta in (0.0, 1.5):
            params = model.ModelParams(beta, model.PowerLaw(1.0, 1.6))
            for bc in (model.plus_bc(), model.alternating_bc(), model.dobrushin1d_bc()):
                total = sum(
                    model.specification_kernel(vol, params, bc, np.array(bits, dtype=np.int8))
                    for bits in itertools.product((-1, 1), repeat=vol.n_sites))
                worst = max(worst, abs(total - 1.0))
    return worst < 1e-12, f"max |sum - 1| = {worst:.3e}"


def _check_dlr():
    worst = 0.0
    for alpha, beta in ((1.5, 2.0), (1.8, 1.0)):
        params = model.ModelParams(beta, model.PowerLaw(1.0, alpha))
        for bc in (model.plus_bc(), model.alternating_bc()):
            dev = exact.dlr_consistency_check(model.Volume(1, 3), model.Volume(1, 1),
                                              params, bc)
            worst = max(worst, dev)
    return worst < 1e-10, f"max deviation = {worst:.3e}"


def _check_flip_symmetry():
    vol = model.Volume(1, 2)
    params = model.ModelParams(1.0, model.PowerLaw(1.0, 1.5))
    worst = 0.0
    for bc in (model.plus_bc(), model.dobrushin1d_bc(), model.alternating_bc()):
        flipped = bc.flipped()
        for bits in itertools.product((-1, 1), repeat=vol.n_sites):
            cfg = np.array(bits, dtype=np.int8)
            worst = max(worst, abs(model.hamiltonian(vol, params, bc, cfg)
                                   - model.hamiltonian(vol, params, flipped, -cfg)))
    return worst < 1e-10, f"max |H(s|w) - H(-s|-w)| = {worst:.3e}"


def _check_tail_doubling():
    line, square, C = model.Volume(1, 3), model.Volume(2, 2), model.EM_CROSSOVER
    cases = [(line, model.PowerLaw(1.0, a), bc) for a in (1.5, 2.5)
             for bc in (model.plus_bc(), model.alternating_bc())]
    cases += [(square, model.PowerLaw(1.0, 2.5), model.plus_bc()),
              (square, model.IsotropicMixed(1.0, 3.0), model.dobrushin2d_bc(1))]
    worst = max(abs(model.boundary_field(vol, spec, bc, x, em_crossover=C)
                    - model.boundary_field(vol, spec, bc, x, em_crossover=2 * C))
                for vol, spec, bc in cases for x in vol.sites())
    return worst < 1e-10, f"max doubled-crossover shift = {worst:.3e}"


def _check_triangle_bijection():
    for L in (2, 3):
        vol = model.Volume(1, L)
        for bc in (model.plus_bc(), model.dobrushin1d_bc()):
            dob = bc.name.startswith("dobrushin")
            seen = set()
            for bits in itertools.product((-1, 1), repeat=vol.n_sites):
                cfg = np.array(bits, dtype=np.int8)
                fam = contours.triangles(vol, cfg, bc)
                iface = contours.interface_point(vol, cfg, bc) if dob else None
                rec = contours.reconstruct(vol, fam, bc, interface=iface)
                if not np.array_equal(rec, cfg):
                    return False, f"round-trip failed at L={L} {bits}"
                key = (iface, tuple((t.left, t.right, t.sign, t.children) for t in fam))
                if key in seen:
                    return False, f"collision at L={L} {bits}"
                seen.add(key)
    return True, "round-trip and injectivity hold (exhaustive, L <= 3)"


def _check_removal_bound():
    alpha = 1.6
    spec = model.IsotropicMixed(9.0, alpha)
    vol = model.Volume(1, 4)
    kap = contours.kappa(alpha)
    worst = math.inf
    for bits in itertools.product((-1, 1), repeat=vol.n_sites):
        cfg = np.array(bits, dtype=np.int8)
        fam = contours.triangles(vol, cfg, model.plus_bc())
        for k, t in enumerate(fam.triangles):
            slack = contours.removal_cost(vol, spec, fam, k) - kap * t.length ** (2 - alpha)
            worst = min(worst, slack)
    return worst >= 0.0, f"min slack over exhaustive L=4 = {worst:.4f}"


def _check_contour_grouping():
    rng = np.random.default_rng(5)
    for _ in range(25):
        fam = _random_family(rng)
        grouped = contours.group_contours(fam, C=1.0)
        if not contours.contour_separation_ok(grouped, C=1.0):
            return False, "separation violated after grouping"
        perm = contours.TriangleFamily(fam.triangles)
        again = contours.group_contours(perm, C=1.0)
        if _partition(grouped) != _partition(again):
            return False, "merge order dependence detected"
    return True, "separation and order independence on 25 random families"


def _random_family(rng, n_max: int = 5):
    n = int(rng.integers(1, n_max + 1))
    triangles = []
    cursor = -400
    for _ in range(n):
        length = int(rng.integers(1, 5))
        gap = int(rng.integers(length + 1, 40))
        left = cursor + gap
        triangles.append(contours.Triangle(left - 0.5, left + length - 0.5, -1))
        cursor = left + length
    try:
        return contours.ordered_family(triangles)
    except ValueError:
        return _random_family(rng, n_max)


def _partition(fam: contours.ContourFamily):
    return {tuple(sorted((t.left, t.right) for t in c.triangles)) for c in fam.contours}


def _check_peierls_series():
    worst = 0.0
    for beta in (1.5, 2.0, 3.0):
        x = 3.0 * math.exp(-2.0 * beta)
        ls = np.arange(1, 10_001, dtype=np.float64)
        series = float(np.sum(ls * x ** ls))
        worst = max(worst, abs(series - contours.peierls_entropy_bound(beta)))
    return worst < 1e-10, f"closed form vs series: {worst:.3e}"


def _check_landau_fit():
    for alpha in (1.2, 1.5, 1.8):
        fit = contours.landau_exponent_fit(alpha, [8, 16, 32, 64, 128])
        if abs(fit - (2.0 - alpha)) > 0.05:
            return False, f"alpha={alpha}: fit {fit:.3f}"
    return True, "droplet-cost exponents within 0.05 of 2 - alpha"


def _check_mcmc_oracle():
    vol = model.Volume(1, 3)
    params = model.ModelParams(0.8, model.PowerLaw(1.0, 1.7))
    obs = exact.spin_observable(vol, 0)
    truth = exact.expectation(vol, params, model.plus_bc(), obs)
    state = mcmc.sampler_new(vol, params, model.plus_bc(), seed=2024, initial="random")
    est = mcmc.estimate(state, obs, 20_000, 1_000)
    ok = abs(est.mean - truth) < 4.0 * max(est.stderr, 1e-12)
    return ok, f"exact {truth:.5f} vs mcmc {est.mean:.5f} +- {est.stderr:.5f}"


def _check_detailed_balance():
    vol = model.Volume(1, 2)
    params = model.ModelParams(0.9, model.PowerLaw(1.0, 1.5))
    bc = model.alternating_bc()
    rng = np.random.default_rng(11)
    worst = 0.0
    state = mcmc.sampler_new(vol, params, bc, seed=1)
    for _ in range(50):
        cfg = model.random_configuration(vol, rng)
        site = int(rng.integers(-2, 3))
        state.config = cfg.copy()
        state.resync()
        fwd = mcmc.flip_probability(state, site)
        pi1 = model.specification_kernel(vol, params, bc, cfg)
        cfg2 = cfg.copy()
        cfg2[vol.index(site)] *= -1
        state.config = cfg2
        state.resync()
        bwd = mcmc.flip_probability(state, site)
        pi2 = model.specification_kernel(vol, params, bc, cfg2)
        worst = max(worst, abs(pi1 * fwd - pi2 * bwd))
    return worst < 1e-12, f"max |pi P - pi' P'| = {worst:.3e}"


def _check_interface_symmetry():
    vol = model.Volume(1, 4)
    law = exact.interface_distribution(vol, model.ModelParams(2.0, model.PowerLaw(1.0, 1.5)))
    d = law.as_dict()
    worst = max(abs(d[t] - d[-t]) for t in law.grid)
    total = abs(sum(law.masses) - 1.0)
    ok = worst < 1e-12 and total < 1e-12 and all(v > 0 for v in law.masses)
    return ok, f"asymmetry {worst:.2e}, mass defect {total:.2e}"


def _check_percus_identities():
    out = probes.percus_transform(model.AnisotropicAxes(1.5, "nn"), model.Volume(2, 1))
    ok = out["identity_table_ok"] and out["couplings_nonnegative"] \
        and out["hamiltonian_deviation"] < 1e-9
    return ok, (f"identity {out['identity_table_ok']}, min coeff "
                f"{out['min_coefficient']:.2e}, H dev {out['hamiltonian_deviation']:.2e}")


def _check_gs_reflection():
    res = probes.gs_reflection_cancellation(2.5, 32)
    return res < 1e-10, f"off-axis residual = {res:.3e}"


def _check_annulus_bound():
    for alpha, L in ((1.5, 16), (1.5, 4), (1.3, 8)):
        N = probes.annulus_size(alpha, L)
        if L * N ** (1.0 - alpha) > 1.0 + 1e-9:
            return False, f"bound violated at alpha={alpha}, L={L}"
    return True, "L * N^(1-alpha) <= 1 at the returned radius"


def _check_fkg_sandwich():
    vol = model.Volume(1, 3)
    params = model.ModelParams(1.2, model.PowerLaw(1.0, 1.6))
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = rng.random(vol.n_sites)
        obs = exact.increasing_observable(vol, w)
        pattern = {s: int(1 - 2 * rng.integers(0, 2)) for s in vol.sites() if rng.random() < 0.3}
        bc = model.pattern_bc(pattern, model.alternating_bc())
        if not exact.fkg_sandwich_check(vol, params, obs, bc):
            return False, "sandwich violated"
    return True, "20 randomized increasing observables sandwiched"


CHECKS = [
    ("kernel-normalization", True, _check_kernel_normalization),
    ("dlr-consistency", True, _check_dlr),
    ("spin-flip-symmetry", True, _check_flip_symmetry),
    ("tail-crossover-doubling", True, _check_tail_doubling),
    ("triangle-bijection", True, _check_triangle_bijection),
    ("removal-cost-bound", False, _check_removal_bound),
    ("contour-grouping", True, _check_contour_grouping),
    ("peierls-series", True, _check_peierls_series),
    ("droplet-exponents", True, _check_landau_fit),
    ("mcmc-oracle", False, _check_mcmc_oracle),
    ("detailed-balance", True, _check_detailed_balance),
    ("interface-symmetry", True, _check_interface_symmetry),
    ("duplicate-transform", True, _check_percus_identities),
    ("gs-reflection", True, _check_gs_reflection),
    ("annulus-bound", True, _check_annulus_bound),
    ("fkg-sandwich", False, _check_fkg_sandwich),
]


def run_checks(quick: bool = False) -> list:
    """Run the invariant suite; returns [(name, ok, detail), ...]."""
    results = []
    for name, in_quick, fn in CHECKS:
        if quick and not in_quick:
            continue
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {err!r}"
        results.append((name, bool(ok), detail))
    return results
