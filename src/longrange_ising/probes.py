"""The four headline experiments, runnable at desk scale.

Each probe fixes a finite geometry and reports trends (gaps, exponent fits,
signed profiles) with full provenance: every scalar is tagged exact or mcmc,
mcmc scalars carry a standard error, and reports serialize to canonical JSON
for bit-for-bit regression under a fixed seed.

Decimation, the one-sided g measure, wetting and 2d rigidity read spin means
next to a frozen or split exterior, all through `_measure`: one exact
`conditional_site_means` pass, or one `mcmc.replicas` set of
`estimate_site_means` chains merged per site by `combine_estimates`.  Their
verdicts share one tolerance rule (`_tolerance`): a sampled scalar passes
within 4 sigma, an exact one within the verdict's own threshold.  The sampled
wetting probe still runs one chain set per site it reads, since the
benchmark's wetting job pairs its recorded chains with report keys by
position; one set per side waits for that job to match chains by key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, mcmc, model
from .util import canonical_json, iter_spin_blocks, loglog_slope

#: Replicas used by every mcmc-backed probe (mixed initial conditions).
MCMC_REPLICAS = 8

#: First spawn-key entry of each sampled probe's streams.  The second entry
#: is 0 on the plus side (plus neighborhood or past, interval frozen to
#: plus) and 1 on the minus side, so no two runs share a stream.
_STREAM_KEYS = {"decimation": 1, "g_measure": 2, "wetting": 3}


def _stream_key(probe: str, sign: int) -> tuple:
    return (_STREAM_KEYS[probe], 0 if sign > 0 else 1)


@dataclass(frozen=True)
class Scalar:
    value: float
    method: str                      # "exact" | "mcmc"
    stderr: float = None

    def as_dict(self) -> dict:
        d = {"value": self.value, "method": self.method}
        if self.stderr is not None:
            d["stderr"] = self.stderr
        return d


@dataclass
class ProbeReport:
    name: str
    params: dict
    scalars: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def value(self, key: str) -> float:
        return self.scalars[key].value

    def to_json(self) -> str:
        return canonical_json({
            "name": self.name,
            "params": self.params,
            "scalars": {k: v.as_dict() for k, v in self.scalars.items()},
            "verdicts": self.verdicts,
        })


def _measure(vol, params, bc, sites, method, seed, key, n_sweeps, burn_in,
             frozen=None) -> tuple:
    """(<sigma_x> as a Scalar for each x in `sites`, per-replica runs) with
    the `frozen` spins held.  Exact: one conditional_site_means pass and no
    runs.  MCMC: MCMC_REPLICAS chains under spawn key `key`, each running
    estimate_site_means; runs lists each replica's {site: Estimate}."""
    if method == "exact":
        means = exact.conditional_site_means(vol, params, bc, frozen)
        return {s: Scalar(means[s], "exact") for s in sites}, []
    runs = mcmc.replicas(vol, params, bc, seed, MCMC_REPLICAS,
                         lambda st: mcmc.estimate_site_means(st, sites, n_sweeps, burn_in),
                         frozen, key)
    merged = {s: mcmc.combine_estimates([run[s] for run in runs]) for s in sites}
    return {s: Scalar(e.mean, "mcmc", e.stderr) for s, e in merged.items()}, runs


def _tolerance(s: Scalar, exact_tol: float = 0.0) -> float:
    """Margin a verdict grants a scalar: 4 sigma when sampled, the
    verdict's exact threshold otherwise."""
    return 4.0 * s.stderr if s.method == "mcmc" else exact_tol


def _two_sided_gap(report: ProbeReport, beta: float, plus: Scalar,
                   minus: Scalar) -> Scalar:
    """Record and return the scalar gap = plus - minus, with its verdicts.

    A sampled gap carries the quadrature stderr and a `resolved` verdict
    (gap beyond its tolerance).  At beta = 0 the gap must vanish.
    """
    se = None if plus.stderr is None else math.hypot(plus.stderr, minus.stderr)
    gap = Scalar(plus.value - minus.value, plus.method, se)
    if se is not None:
        report.verdicts["resolved"] = bool(gap.value > _tolerance(gap))
    report.scalars["gap"] = gap
    report.verdicts["gap_positive"] = \
        bool(gap.value > 0.0) if beta > 0 else bool(gap.value == 0.0)
    return gap


# ---------------------------------------------------------------------------
# decimation (renormalized one-point function at the alternating image)


def annulus_size(alpha: float, L: int, multiplier: float = 1.0) -> int:
    """Screening radius N = ceil((multiplier * L)^(1/(alpha-1))).

    At multiplier 1 this is the radius at which the whole-window coupling
    tail L * N^(1-alpha) drops to 1; alpha = 2 would need logarithmic
    corrections and is rejected rather than guessed.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("annulus sizing needs 1 < alpha < 2")
    if L < 1 or multiplier <= 0:
        raise ValueError("L must be >= 1 and multiplier > 0")
    return math.ceil((multiplier * L) ** (1.0 / (alpha - 1.0)))


def _decimation_frozen(L: int, N: int, annulus_sign: int) -> dict:
    """Pre-image constraint: even sites alternate inside the window
    (origin free), and carry the neighborhood sign across the annulus."""
    frozen = {}
    for i in range(1, N // 2 + 1):
        spin = (-1) ** i if i <= L else annulus_sign
        frozen[2 * i] = spin
        frozen[-2 * i] = spin
    return frozen


def decimation_probe(alpha: float, beta: float, L: int, method: str = "exact",
                     seed: int = 0, n_sweeps: int = 40_000,
                     burn_in: int = 4_000) -> ProbeReport:
    """Conditional magnetization of the origin image spin inside the
    alternating window, under plus versus minus neighborhoods.

    The window spans image sites [-L, L]; the screening radius is sized on
    the pre-image window half-width 2L.  Reported one-sided magnetizations
    are symmetrized over the two alternating phases, which makes them
    exactly antisymmetric; the gap is unaffected.
    """
    N = annulus_size(alpha, 2 * L)
    vol = model.Volume(1, N)
    params = model.ModelParams(beta, model.PowerLaw(1.0, alpha))
    report = ProbeReport("decimation", {
        "alpha": alpha, "beta": beta, "L": L, "N": N,
        "method": method, "seed": seed,
    })
    raw = {}
    for sign, tag in ((1, "plus"), (-1, "minus")):
        bc = model.plus_bc() if sign > 0 else model.minus_bc()
        means, _ = _measure(vol, params, bc, [0], method, seed,
                            _stream_key("decimation", sign), n_sweeps, burn_in,
                            _decimation_frozen(L, N, sign))
        raw[sign] = report.scalars[f"m_{tag}_raw"] = means[0]
    gap = _two_sided_gap(report, beta, raw[1], raw[-1])
    m_plus = 0.5 * gap.value                # phase-symmetrized one-sided value
    half_se = None if gap.stderr is None else 0.5 * gap.stderr
    report.scalars["m_plus"] = Scalar(m_plus, gap.method, half_se)
    report.scalars["m_minus"] = Scalar(-m_plus, gap.method, half_se)
    return report


# ---------------------------------------------------------------------------
# one-sided (past-conditioned) magnetization


def past_field(sign: int, alpha: float, L: int, N: int, n: int, x: int,
               em_crossover: int = model.EM_CROSSOVER) -> float:
    """External field at chain site x from a frozen past: an alternating
    window of depth L, the annulus (L, N] at `sign`, plus beyond N, and the
    plus tail beyond the chain length n.  Tails are Hurwitz sums shifted by
    x, so the absolute error is below 1e-10.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if not 0 <= x <= n:
        raise ValueError("x must lie in [0, n]")
    if not L < N < n:
        raise ValueError("need L < N < n")
    ks = np.arange(1, L + 1, dtype=np.float64)
    window = float(np.sum((-1.0) ** ks * (ks + x) ** (-alpha)))
    ks = np.arange(L + 1, N + 1, dtype=np.float64)
    annulus = sign * float(np.sum((ks + x) ** (-alpha)))
    beyond_screen = model.hurwitz_tail(alpha, float(x), N, em_crossover)
    beyond_chain = model.hurwitz_tail(alpha, float(x), n - 1, em_crossover)
    return window + annulus + beyond_screen + beyond_chain


def g_probe(alpha: float, beta: float, L: int, method: str = "exact",
            N: int = None, n: int = None, seed: int = 0,
            n_sweeps: int = 40_000, burn_in: int = 4_000) -> ProbeReport:
    """One-sided magnetization of the origin for the two past neighborhoods
    of the alternating configuration; a positive gap is the discontinuity
    signature of the candidate one-sided conditional probability."""
    N = N if N is not None else annulus_size(alpha, 2 * L)
    n = n if n is not None else N + 4
    if n % 2:
        raise ValueError("chain length n must be even (centered volume)")
    vol = model.Volume(1, n // 2)
    shift = n // 2
    report = ProbeReport("g_measure", {
        "alpha": alpha, "beta": beta, "L": L, "N": N, "n": n,
        "method": method, "seed": seed,
    })
    sides = {}
    for sign, tag in ((1, "plus"), (-1, "minus")):
        fields = tuple(past_field(sign, alpha, L, N, n, s + shift)
                       for s in vol.sites())
        params = model.ModelParams(beta, model.PowerLaw(1.0, alpha), field=fields)
        means, _ = _measure(vol, params, model.free_bc(), [-shift], method, seed,
                            _stream_key("g_measure", sign), n_sweeps, burn_in)
        sides[sign] = report.scalars[f"m_{tag}"] = means[-shift]   # chain site x = 0
    _two_sided_gap(report, beta, sides[1], sides[-1])
    return report


# ---------------------------------------------------------------------------
# wetting below a frozen unfavorable interval


def wetting_probe(alpha: float, beta: float, L: int, N: int,
                  method: str = "exact", seed: int = 0, right_extent: int = 13,
                  left_margin: int = 3, n_sweeps: int = 40_000,
                  burn_in: int = 4_000) -> ProbeReport:
    """Magnetization profile next to an interval [-N, -1] frozen to minus
    under plus boundaries.

    Probe windows of length floor(L/4) sit immediately left of the interval
    and at [0, ...); free segments extend a little beyond them so the
    interface can wander.  The plus-phase reference m is the same geometry
    with the interval frozen to plus.
    """
    window = max(L // 4, 1)
    left_lo = -N - window - left_margin
    vol = model.Volume(1, max(N + window + left_margin, right_extent))
    sites = vol.sites()
    frozen_minus, frozen_plus = {}, {}
    for s in sites:
        if -N <= s <= -1:
            frozen_minus[s] = -1
            frozen_plus[s] = 1
        elif s < left_lo or s > right_extent:
            frozen_minus[s] = 1
            frozen_plus[s] = 1
    params = model.ModelParams(beta, model.PowerLaw(1.0, alpha))
    bc = model.plus_bc()
    window_sites = list(range(-N - window, -N)) + list(range(0, window))
    far_site = right_extent
    report = ProbeReport("wetting", {
        "alpha": alpha, "beta": beta, "L": L, "N": N, "window": window,
        "method": method, "seed": seed,
    })
    # A sampled run keeps one chain set per site (all under one key, hence the
    # same chains) and then the reference's: the benchmark's wetting job pairs
    # its recorded chains with the report keys by position, 8 per key.
    read = window_sites + [far_site]
    profile = {}
    groups = [read] if method == "exact" else [[s] for s in read]
    for group in groups:
        profile.update(_measure(vol, params, bc, group, method, seed,
                                _stream_key("wetting", -1), n_sweeps, burn_in,
                                frozen_minus)[0])
    reference, _ = _measure(vol, params, bc, [0], method, seed, _stream_key("wetting", 1),
                            n_sweeps, burn_in, frozen_plus)
    report.scalars.update({f"profile[{s}]": profile[s] for s in window_sites})
    report.scalars["far_value"] = far = profile[far_site]
    worst = min((profile[s] for s in window_sites), key=lambda m: m.value)
    report.scalars["min_window"] = worst
    report.scalars["m_plus_phase"] = reference[0]
    if beta == 0:
        report.verdicts["profile_zero"] = bool(abs(worst.value) < _tolerance(worst, 1e-12))
    else:
        report.verdicts["window_negative"] = bool(worst.value < 0.0)
    report.verdicts["window_below_far"] = bool(worst.value <= far.value + 1e-12)
    return report


# ---------------------------------------------------------------------------
# 2d isotropic interface-shift energetics


def shift_energy_bound(alpha: float, L: int,
                       em_crossover: int = model.EM_CROSSOVER) -> float:
    """Worst-case coupling cost of moving split boundaries up one row:
    sum over x1 in [0, L], y1 > L of (y1-x1)^(1-alpha) + (x1+y1)^(1-alpha)."""
    if alpha <= 2.0:
        raise ValueError("the row bound needs alpha > 2")
    total = 0.0
    for x1 in range(0, L + 1):
        total += model.hurwitz_tail(alpha - 1.0, 0.0, L - x1, em_crossover)
        total += model.hurwitz_tail(alpha - 1.0, 0.0, L + x1, em_crossover)
    return total


def dobrushin_shift_energy(alpha: float, L: int = 2048, n_points: int = 5) -> tuple:
    """(bound at L, growth exponent fitted on dyadic increments).

    The bound itself tends to a constant for alpha > 3, so the L^(3-alpha)
    rate shows up in the dyadic differences D(2L) - D(L) on both sides of
    alpha = 3; the fit uses those increments.
    """
    ladder = [L >> k for k in range(n_points, -1, -1)]
    values = {l: shift_energy_bound(alpha, l) for l in ladder}
    incs = [(l, values[2 * l] - values[l]) for l in ladder[:-1]]
    slope = loglog_slope([l for l, _ in incs], [v for _, v in incs])
    return values[L], slope


def gs_step_energy(alpha: float, cutoff: int = 256) -> tuple:
    """(truncated step cost, rigorous tail bound) for flipping the negative
    half-line of the split ground state.

    Reflection symmetry cancels every pair involving off-axis sites, leaving
    twice the half-line/half-line coupling sum; truncation at `cutoff` keeps
    pairs within that span and the remainder is bounded by the coupling tail
    2 * sum_{d > cutoff} d^(1-alpha).
    """
    if alpha <= 2.0:
        raise ValueError("the step energy needs alpha > 2 (summability)")
    # pairs (i > 0, k <= 0) at distance d = i - k <= cutoff number exactly d;
    # every pair dropped by the truncation has d > cutoff
    ds = np.arange(1, cutoff + 1, dtype=np.float64)
    value = 2.0 * float(np.sum(ds ** (1.0 - alpha)))
    tail = 2.0 * model.hurwitz_tail(alpha - 1.0, 0.0, cutoff)
    return value, tail


def gs_reflection_cancellation(alpha: float, R: int = 64) -> float:
    """Residual of the off-axis cancellation at truncation radius R.

    Couplings from the flipped half-line to sites strictly above the axis
    against those to their reflections below; zero up to float rounding."""
    i = np.arange(-R, R + 1)[:, None, None]
    j = np.arange(1, R + 1)[None, :, None]
    k = np.arange(-R, 1)[None, None, :]
    above = np.sum(np.hypot(i - k, j) ** (-alpha))
    below = np.sum(np.hypot(i - k, -j) ** (-alpha))
    return float(abs(above - below))


# ---------------------------------------------------------------------------
# duplicate-variable transform and interface rigidity (2d anisotropic)


def duplicate_identity_table() -> bool:
    """Exhaustive check of the sum/difference variable identities on all 16
    assignments of two spin pairs (integer arithmetic)."""
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sxb in (-1, 1):
                for syb in (-1, 1):
                    s1, t1 = sx + sxb, sx - sxb
                    s2, t2 = sy + syb, sy - syb
                    if 2 * (sx * sy + sxb * syb) != s1 * s2 + t1 * t2:
                        return False
                    if 2 * (sx * syb + sxb * sy) != s1 * s2 - t1 * t2:
                        return False
    return True


def _mirror(site):
    return (site[0], -site[1])


def percus_transform(coupling: model.AnisotropicAxes, vol: model.Volume) -> dict:
    """Rewrite the joint system (2d split boundaries + decoupled plus chain)
    in sum/difference variables indexed by the closed upper half-plane.

    Returns the pair-coupling tables, single-site terms and constant, plus a
    validity report: nonnegativity of every coefficient, absence of cross
    terms, the 16-case identity table, and the worst deviation of the
    rewritten Hamiltonian from H_2d + H_chain over all joint states of the
    box.
    """
    if not isinstance(coupling, model.AnisotropicAxes):
        raise ValueError("duplicate transform needs axis couplings")
    if vol.dimension != 2:
        raise ValueError("needs a 2d volume")
    L = vol.half_width
    bc2 = model.dobrushin2d_bc(0)
    chain_vol = model.Volume(1, L)
    chain_spec = model.PowerLaw(1.0, coupling.horizontal_alpha)

    upper = [(x1, x2) for x1 in range(-L, L + 1) for x2 in range(1, L + 1)]
    line = [(x1, 0) for x1 in range(-L, L + 1)]
    labels = upper + line
    pos = {s: i for i, s in enumerate(labels)}
    nlab = len(labels)

    # sigma = s/2 + ct * t on the label of a 2d site (its mirror below the
    # axis, where ct = -1/2); the decoupled chain sits in the difference slot
    # of the line labels, sigma'_x = (s_x - t_x)/2.  Sites list the box, then
    # the chain.
    sites2 = vol.sites()
    lab = np.array([pos[(x1, abs(x2))] for x1, x2 in sites2]
                   + [pos[(x1, 0)] for x1 in chain_vol.sites()])
    ct = np.array([0.5 if x2 >= 0 else -0.5 for _, x2 in sites2]
                  + [-0.5] * chain_vol.n_sites)
    # pairs in upper-triangle order, the box's then the chain's; np.add.at
    # accumulates each table cell in that order
    i2, j2 = np.triu_indices(vol.n_sites, 1)
    i1, j1 = np.triu_indices(chain_vol.n_sites, 1)
    i = np.concatenate([i2, i1 + vol.n_sites])
    j = np.concatenate([j2, j1 + vol.n_sites])
    J = np.concatenate([model.coupling_matrix(vol, coupling)[i2, j2],
                        model.coupling_matrix(chain_vol, chain_spec)[i1, j1]])

    def both_orders(ab, ba):
        return np.stack([ab, ba], axis=1).ravel()

    cells = (both_orders(lab[i], lab[j]), both_orders(lab[j], lab[i]))
    ss = np.zeros((nlab, nlab))
    tt = np.zeros((nlab, nlab))
    st = np.zeros((nlab, nlab))
    np.add.at(ss, cells, np.repeat(J * 0.5 * 0.5, 2))
    np.add.at(tt, cells, np.repeat(J * ct[i] * ct[j], 2))
    np.add.at(st, cells, both_orders(J * 0.5 * ct[j], J * ct[i] * 0.5))
    h = np.concatenate([model.boundary_field_vector(vol, coupling, bc2),
                        model.boundary_field_vector(chain_vol, chain_spec,
                                                    model.plus_bc())])
    lin_s = np.zeros(nlab)
    lin_t = np.zeros(nlab)
    np.add.at(lin_s, lab, h * 0.5)
    np.add.at(lin_t, lab, h * ct)

    # self-pairs (x, mirror x) land on one label as (s^2 - t^2)/4 terms; the
    # constraint s^2 + t^2 = 4 folds them into a nonnegative s^2 coefficient
    # plus a constant, and s_i t_i vanishes identically
    const = 0.0
    for i in range(nlab):
        dtt = tt[i, i]
        ss[i, i] -= dtt
        tt[i, i] = 0.0
        st[i, i] = 0.0
        const -= 2.0 * dtt

    # cross (s t) couplings are part of the rewriting (line-to-column terms
    # come out as s_y (s_x + t_x)/2); nonnegativity must cover them as well
    coefficients = np.concatenate([ss.ravel(), tt.ravel(), st.ravel(), lin_s, lin_t])
    min_coeff = float(coefficients.min()) if coefficients.size else 0.0

    out = {
        "labels": labels,
        "ss": ss, "tt": tt, "st": st, "lin_s": lin_s, "lin_t": lin_t, "constant": const,
        "identity_table_ok": duplicate_identity_table(),
        "min_coefficient": min_coeff,
        "hamiltonian_deviation": None,
        "couplings_nonnegative": bool(min_coeff >= -1e-12),
    }
    # worst deviation of the rewritten form over every joint state
    if vol.n_sites + chain_vol.n_sites <= 20:
        H_st, H = _duplicate_energies(coupling, vol, out)
        out["hamiltonian_deviation"] = float(np.max(np.abs(H_st - H)))
    return out


def _all_hamiltonians(vol: model.Volume, spec: model.CouplingSpec,
                      bc: model.BoundaryCondition) -> tuple:
    """Every configuration of a small volume as float rows (bit b of the row
    index is site b, as in iter_spin_blocks) and H of each, one batched
    quadratic form."""
    S = np.concatenate([B for _, B in iter_spin_blocks(vol.n_sites)]).astype(np.float64)
    J = model.coupling_matrix(vol, spec)
    h = model.boundary_field_vector(vol, spec, bc)
    return S, -0.5 * np.einsum("ki,ki->k", S @ J, S) - S @ h


def _duplicate_energies(coupling: model.AnisotropicAxes, vol: model.Volume,
                        out: dict) -> tuple:
    """The rewritten form of `out` (a percus_transform result) and
    H_2d + H_chain over every joint state, as (2**n2, 2**n1) grids: row i
    and column j are the 2d and chain configurations in iter_spin_blocks
    order."""
    chain_vol = model.Volume(1, vol.half_width)
    S2, H2 = _all_hamiltonians(vol, coupling, model.dobrushin2d_bc(0))
    S1, H1 = _all_hamiltonians(chain_vol, model.PowerLaw(1.0, coupling.horizontal_alpha),
                               model.plus_bc())
    labels = out["labels"]
    upper = [site for site in labels if site[1] > 0]       # labels list these first
    grid = (S2.shape[0], S1.shape[0])
    a = S2[:, [vol.index(site) for site in labels]][:, None, :]
    b_upper = S2[:, [vol.index(_mirror(site)) for site in upper]]
    b_line = S1[:, [chain_vol.index(site[0]) for site in labels[len(upper):]]]
    b = np.concatenate([np.broadcast_to(b_upper[:, None, :], grid + b_upper.shape[1:]),
                        np.broadcast_to(b_line[None, :, :], grid + b_line.shape[1:])], axis=2)
    s, t = a + b, a - b
    H_st = -(0.5 * np.einsum("xyi,ij,xyj->xy", s, out["ss"], s)
             + 0.5 * np.einsum("xyi,ij,xyj->xy", t, out["tt"], t)
             + np.einsum("xyi,ij,xyj->xy", s, out["st"], t)
             + s @ out["lin_s"] + t @ out["lin_t"]) + out["constant"]
    return H_st, H2[:, None] + H1[None, :]


def rigidity_check(alpha1: float, vertical="nn", beta: float = 3.0, L: int = 1,
                   method: str = "exact", seed: int = 0, n_sweeps: int = 6_000,
                   burn_in: int = 1_000) -> ProbeReport:
    """Line-0 magnetization under split boundaries versus the decoupled
    plus-boundary chain, plus the cross-interface sign asymmetry."""
    coupling = model.AnisotropicAxes(alpha1, vertical)
    vol = model.Volume(2, L)
    params = model.ModelParams(beta, coupling)
    bc = model.dobrushin2d_bc(0)
    chain_params = model.ModelParams(beta, model.PowerLaw(1.0, alpha1))
    report = ProbeReport("rigidity", {
        "alpha1": alpha1, "vertical": str(vertical), "beta": beta, "L": L,
        "method": method, "seed": seed,
    })
    xs = list(range(-L, L + 1))
    chain, _ = _measure(model.Volume(1, L), chain_params, model.plus_bc(), xs, "exact",
                        seed, (), n_sweeps, burn_in)
    line0 = [(x, 0) for x in xs]
    means, runs = _measure(vol, params, bc, line0 + [(0, 1), (0, -1)], method, seed, (),
                           n_sweeps, burn_in)
    report.scalars.update({f"chain[{x}]": chain[x] for x in xs})
    report.scalars.update({f"line0[{x}]": means[(x, 0)] for x in xs})
    above = report.scalars["above"] = means[(0, 1)]
    below = report.scalars["below"] = means[(0, -1)]
    margin = min((Scalar(means[(x, 0)].value - chain[x].value, method, means[(x, 0)].stderr)
                  for x in xs), key=lambda m: m.value)
    report.scalars["inequality_margin"] = margin
    report.verdicts["inequality"] = bool(margin.value >= -_tolerance(margin, 1e-12))
    # at beta = 0 (every mean 0) exact runs report these two as holding
    trivial = beta == 0 and method == "exact"
    report.verdicts["line0_positive"] = trivial or bool(
        all(means[s].value > _tolerance(means[s]) for s in line0))
    report.verdicts["sign_asymmetry"] = trivial or bool(
        above.value > _tolerance(above) and below.value < -_tolerance(below))
    if runs:
        report.verdicts["replicas_agree"] = bool(all(
            all(run[s].mean > 0 for s in line0) and run[(0, 1)].mean > 0 > run[(0, -1)].mean
            for run in runs))
    return report
