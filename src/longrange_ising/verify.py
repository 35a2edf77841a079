"""Named invariant checks behind the `verify` subcommand.

Each check returns (ok, detail) and takes at most one argument, its case
list (or size), whose default is the set that `verify` runs; the acceptance
criteria and unit tests call a row by name through `CHECKS` at their own
cases.  The quick set takes about 40 ms in a warm process and about 60 ms
of CPU time, check by check, in a cold one (0.35-0.45 s for the whole
command, start-up included) on a 2-vCPU x86-64 VM; the full set adds the
slower enumeration sweeps and the sampler.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import contours, exact, mcmc, model, probes


def _check_kernel_normalization(cases=None):
    if cases is None:
        cases = [(model.Volume(1, L), model.ModelParams(beta, model.PowerLaw(1.0, 1.6)), bc)
                 for L in (1, 2) for beta in (0.0, 1.5)
                 for bc in (model.plus_bc(), model.alternating_bc(), model.dobrushin1d_bc())]
    worst, positive = 0.0, True
    for vol, params, bc in cases:
        kernel = [model.specification_kernel(vol, params, bc, np.array(bits, dtype=np.int8))
                  for bits in itertools.product((-1, 1), repeat=vol.n_sites)]
        positive = positive and min(kernel) > 0.0
        worst = max(worst, abs(sum(kernel) - 1.0))
    return worst < 1e-12 and positive, f"max |sum - 1| = {worst:.3e}"


def _check_dlr(cases=None):
    if cases is None:
        cases = [(model.Volume(1, 3), model.Volume(1, 1),
                  model.ModelParams(beta, model.PowerLaw(1.0, alpha)), bc)
                 for alpha, beta in ((1.5, 2.0), (1.8, 1.0))
                 for bc in (model.plus_bc(), model.alternating_bc())]
    worst = max(exact.dlr_consistency_check(vol, sub, params, bc)
                for vol, sub, params, bc in cases)
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


def _check_tail_doubling(cases=None):
    if cases is None:
        line, square = model.Volume(1, 3), model.Volume(2, 2)
        cases = [(line, model.PowerLaw(1.0, a), bc) for a in (1.5, 2.5)
                 for bc in (model.plus_bc(), model.alternating_bc())]
        cases += [(square, model.PowerLaw(1.0, 2.5), model.plus_bc()),
                  (square, model.IsotropicMixed(1.0, 3.0), model.dobrushin2d_bc(1))]
    C = model.EM_CROSSOVER
    worst = max(abs(model.boundary_field(vol, spec, bc, x, em_crossover=C)
                    - model.boundary_field(vol, spec, bc, x, em_crossover=2 * C))
                for vol, spec, bc in cases for x in vol.sites())
    return worst < 1e-10, f"max doubled-crossover shift = {worst:.3e}"


def _check_triangle_bijection(cases=None):
    if cases is None:
        cases = [(L, bc) for L in (2, 3) for bc in (model.plus_bc(), model.dobrushin1d_bc())]
    for L, bc in cases:
        vol = model.Volume(1, L)
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
    return True, ("round-trip and injectivity hold "
                  f"(exhaustive, L <= {max(L for L, _ in cases)})")


def _check_removal_bound(cases=((1.6, 4),)):
    """Every configuration under plus, nearest-neighbour bond boosted to 10."""
    worst = math.inf
    for alpha, L in cases:
        spec, vol = model.IsotropicMixed(9.0, alpha), model.Volume(1, L)
        kap = contours.kappa(alpha)
        for bits in itertools.product((-1, 1), repeat=vol.n_sites):
            fam = contours.triangles(vol, np.array(bits, dtype=np.int8), model.plus_bc())
            for k, t in enumerate(fam.triangles):
                slack = contours.removal_cost(vol, spec, fam, k) - kap * t.length ** (2 - alpha)
                worst = min(worst, slack)
    return worst >= 0.0, (f"min slack over exhaustive L={max(L for _, L in cases)} "
                          f"= {worst:.4f}")


def _check_contour_grouping(families=None):
    """Each grouping is separated and equals a merge in a random order."""
    if families is None:
        rng = np.random.default_rng(5)
        families = [_random_family(rng) for _ in range(25)]
    order = np.random.default_rng(7)
    for fam in families:
        grouped = contours.group_contours(fam, C=1.0)
        if not contours.contour_separation_ok(grouped, C=1.0):
            return False, "separation violated after grouping"
        if _partition(grouped) != _partition(_random_order_grouping(fam, order)):
            return False, "merge order dependence detected"
    return True, f"separation and order independence on {len(families)} random families"


def _random_family(rng, max_gap: int = 40, start: int = -400):
    """One to five minus triangles of lengths 1-4, left to right, each gap
    drawn below max_gap; redrawn until the family is separated."""
    while True:
        triangles, cursor = [], start
        for _ in range(int(rng.integers(1, 6))):
            length = int(rng.integers(1, 5))
            left = cursor + int(rng.integers(length + 1, max_gap))
            triangles.append(contours.Triangle(left - 0.5, left + length - 0.5, -1))
            cursor = left + length
        try:
            return contours.ordered_family(triangles)
        except ValueError:
            pass


def _random_order_grouping(fam: contours.TriangleFamily, rng) -> list:
    """Merge a random close pair of clusters until none is left
    (`group_contours` merges the first close pair in position order)."""
    close = contours._contours_close(1.0, 3.0)
    clusters = [contours.Contour((t,)) for t in fam.triangles]
    while pairs := [p for p in itertools.combinations(clusters, 2) if close(*p)]:
        a, b = pairs[int(rng.integers(len(pairs)))]
        clusters = [c for c in clusters if c is not a and c is not b]
        clusters.append(contours.Contour(a.triangles + b.triangles))
    return clusters


def _partition(clusters) -> list:
    """Each cluster's triangle spans, sorted: a lost or repeated triangle or
    cluster changes it too."""
    return sorted(tuple(sorted((t.left, t.right) for t in c.triangles)) for c in clusters)


def _check_peierls_series(n_terms: int = 10_000):
    worst = 0.0
    for beta in (1.5, 2.0, 3.0):
        x = 3.0 * math.exp(-2.0 * beta)
        ls = np.arange(1, n_terms + 1, dtype=np.float64)
        series = float(np.sum(ls * x ** ls))
        worst = max(worst, abs(series - contours.peierls_entropy_bound(beta)))
    return worst < 1e-10, f"closed form vs series: {worst:.3e}"


def _check_landau_fit():
    for alpha in (1.2, 1.5, 1.8):
        fit = contours.landau_exponent_fit(alpha, [8, 16, 32, 64, 128])
        if abs(fit - (2.0 - alpha)) > 0.05:
            return False, f"alpha={alpha}: fit {fit:.3f}"
    return True, "droplet-cost exponents within 0.05 of 2 - alpha"


def _check_mcmc_oracle(cases=None):
    """A chain from a random start gives an error bar under 0.01 and misses
    the exact value by under 4 error bars of at least `floor`; the detail is
    the worst case's."""
    if cases is None:
        vol = model.Volume(1, 3)
        cases = [(vol, model.ModelParams(0.8, model.PowerLaw(1.0, 1.7)), model.plus_bc(),
                  exact.spin_observable(vol, 0), 2024, (20_000, 1_000), 1e-12)]
    rows = []
    for vol, params, bc, obs, seed, run, floor in cases:
        truth = exact.expectation(vol, params, bc, obs)
        state = mcmc.sampler_new(vol, params, bc, seed=seed, initial="random")
        est = mcmc.estimate(state, obs, *run)
        bar, miss = max(est.stderr, floor), abs(est.mean - truth)
        rows.append((miss / bar, est.stderr < 0.01 and miss < 4.0 * bar,
                     f"exact {truth:.5f} vs mcmc {est.mean:.5f} +- {est.stderr:.5f}"))
    return all(ok for _, ok, _ in rows), max(rows)[2]


def _check_detailed_balance(draws=(("metropolis", 50),)):
    """draws: (rule, count) pairs, each rule in turn on one random stream."""
    vol = model.Volume(1, 2)
    params = model.ModelParams(0.9, model.PowerLaw(1.0, 1.5))
    bc = model.alternating_bc()
    rng = np.random.default_rng(11)
    worst = 0.0
    state = mcmc.sampler_new(vol, params, bc, seed=1)
    for rule, count in draws:
        for _ in range(count):
            cfg = model.random_configuration(vol, rng)
            site = int(rng.integers(-2, 3))
            flipped = cfg.copy()
            flipped[vol.index(site)] *= -1
            flows = []
            for c in (cfg, flipped):
                state.config = c.copy()
                state.resync()
                flows.append(model.specification_kernel(vol, params, bc, c)
                             * mcmc.flip_probability(state, site, rule))
            worst = max(worst, abs(flows[0] - flows[1]))
    return worst < 1e-12, f"max |pi P - pi' P'| = {worst:.3e}"


def _check_interface_symmetry(cases=((4, 2.0),)):
    worst = total = 0.0
    positive = True
    for L, beta in cases:
        law = exact.interface_distribution(model.Volume(1, L),
                                           model.ModelParams(beta, model.PowerLaw(1.0, 1.5)))
        d = law.as_dict()
        worst = max(worst, *(abs(d[t] - d[-t]) for t in law.grid))
        total = max(total, abs(sum(law.masses) - 1.0))
        positive = positive and min(law.masses) > 0
    ok = worst < 1e-12 and total < 1e-12 and positive
    return ok, f"asymmetry {worst:.2e}, mass defect {total:.2e}"


def _check_percus_identities(sizes=(1,)):
    """The Hamiltonian deviation is read where percus_transform computes it."""
    outs = [probes.percus_transform(model.AnisotropicAxes(1.5, "nn"), model.Volume(2, L))
            for L in sizes]
    identity = all(o["identity_table_ok"] for o in outs)
    dev = max(o["hamiltonian_deviation"] for o in outs
              if o["hamiltonian_deviation"] is not None)
    ok = identity and all(o["couplings_nonnegative"] for o in outs) and dev < 1e-9
    return ok, (f"identity {identity}, min coeff "
                f"{min(o['min_coefficient'] for o in outs):.2e}, H dev {dev:.2e}")


def _check_gs_reflection():
    res = probes.gs_reflection_cancellation(2.5, 32)
    return res < 1e-10, f"off-axis residual = {res:.3e}"


def _check_annulus_bound(cases=((1.5, 16), (1.5, 4), (1.3, 8))):
    for alpha, L in cases:
        N = probes.annulus_size(alpha, L)
        if L * N ** (1.0 - alpha) > 1.0 + 1e-9:
            return False, f"bound violated at alpha={alpha}, L={L}"
    return True, "L * N^(1-alpha) <= 1 at the returned radius"


def _check_fkg_sandwich(cases=None):
    if cases is None:
        vol = model.Volume(1, 3)
        params = model.ModelParams(1.2, model.PowerLaw(1.0, 1.6))
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(20):
            obs = exact.increasing_observable(vol, rng.random(vol.n_sites))
            pattern = {s: int(1 - 2 * rng.integers(0, 2))
                       for s in vol.sites() if rng.random() < 0.3}
            cases.append((vol, params, obs, model.pattern_bc(pattern, model.alternating_bc())))
    if not all(exact.fkg_sandwich_check(vol, params, obs, bc)
               for vol, params, obs, bc in cases):
        return False, "sandwich violated"
    return True, f"{len(cases)} randomized increasing observables sandwiched"


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
