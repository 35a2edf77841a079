"""The benchmark's four workloads, their seeded inputs and output checks.

A workload is a fixed round of job slots.  Each slot fixes the kind of call
and its size; the inputs the size does not fix (couplings, temperatures,
boundary conditions, frozen patterns, configurations, sampler seeds) are drawn
from a ``SeedSequence`` child spawned for that slot in that round, so rounds
never repeat an input unless a slot says so (the beta-ladders at a fixed
geometry and the pinned canaries).  Keeping sizes fixed per slot makes the
cost of a round independent of the seed.

Jobs that have a command-line subcommand go through ``cli.run_config`` and
append their record to a JSONL store with ``cli.append_record``; the rest call
the library directly.  Exact jobs are checked by invariants, and a seeded
quarter of them is re-derived through a second public path to 1e-12.  Sampled
jobs are gated at 4 sigma against the enumeration oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Callable

import numpy as np

from harness import Job, within_sigmas
from longrange_ising import cli, contours, exact, mcmc, model, probes

#: Share of exact jobs re-derived through a second public path.
REDERIVE_SHARE = 0.25

#: Agreement required between two exact paths (relative above 1).
EXACT_TOL = 1e-12

#: Agreement required of boundary fields (crossover doubling, sign flip).
FIELD_TOL = 1e-10

#: Pinned decimation gaps of acceptance criterion 6, at alpha 1.5 and L 2.
PINNED_GAPS = {2.0: 1.99999946413394, 4.0: 1.99999999999986}
PINNED_TOL = 1e-11

BC_1D = ("plus", "minus", "free", "alternating", "dobrushin1d")

#: Sampler/oracle settings of acceptance criterion 5:
#: (dimension, L, alpha or coupling tag, beta, boundary condition).
ORACLE_SETTINGS = [
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

RULES = ("metropolis", "heat_bath")


class Context:
    """Per-run state the jobs and checks share: the results store and the
    interface-point counts that the beta = 0 checks compare against."""

    def __init__(self, store: str):
        self.store = store
        self.interface_counts = {}


# ---------------------------------------------------------------------------
# shared helpers


def make_bc(name: str) -> model.BoundaryCondition:
    return {"plus": model.plus_bc, "minus": model.minus_bc, "free": model.free_bc,
            "alternating": model.alternating_bc, "dobrushin1d": model.dobrushin1d_bc,
            "dobrushin2d": model.dobrushin2d_bc}[name]()


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _first_problem(*problems):
    return next((p for p in problems if p), None)


def _same_record(stored, live) -> bool:
    """Stored JSON equals the live record up to the store's %.12e rounding."""
    if isinstance(live, dict):
        return isinstance(stored, dict) and set(stored) == {str(k) for k in live} and all(
            _same_record(stored[str(k)], v) for k, v in live.items())
    if isinstance(live, (list, tuple)):
        return isinstance(stored, list) and len(stored) == len(live) and all(
            _same_record(s, v) for s, v in zip(stored, live))
    if isinstance(live, (bool, np.bool_)):
        return stored is bool(live)
    if isinstance(live, (int, np.integer)):
        return stored == int(live)
    if isinstance(live, (float, np.floating)):
        if math.isnan(live) or math.isinf(live):
            return stored == str(float(live))
        return abs(stored - float(live)) <= 1e-11 * max(abs(float(live)), 1e-300)
    return stored == live


def _stored_last(store: str):
    with open(store, "rb") as fh:
        fh.seek(max(0, os.path.getsize(store) - (1 << 20)))
        lines = fh.read().rstrip(b"\n").split(b"\n")
    return json.loads(lines[-1].decode("utf-8"))


def cli_job(ctx: Context, name: str, cfg: dict, check: Callable) -> Job:
    """A job run the way the command line runs it: validate, execute, append."""

    def call():
        record = cli.run_config(cli.validate_config(cfg))
        cli.append_record(ctx.store, record)
        return record

    def check_all(record, chains):
        problem = check(record, chains)
        if problem is None and not _same_record(_stored_last(ctx.store), record):
            problem = "stored record differs from the returned record"
        return problem

    return Job(name, call, check_all)


def _power_law(alpha: float) -> dict:
    return {"family": "power_law", "J": 1.0, "alpha": alpha}


def _scalars(record: dict) -> dict:
    return {row["scalar"]: row for row in record["rows"]}


def _verdicts_hold(record: dict, keys) -> str:
    bad = [k for k in keys if not record["verdicts"].get(k)]
    return f"verdicts failed: {bad}" if bad else None


# ---------------------------------------------------------------------------
# exact jobs (enumeration oracle)


def _draw_model(rng, alpha_lo=1.2, alpha_hi=1.9, beta_lo=0.2, beta_hi=2.5):
    alpha = float(rng.uniform(alpha_lo, alpha_hi))
    beta = float(rng.uniform(beta_lo, beta_hi))
    return alpha, beta, model.ModelParams(beta, model.PowerLaw(1.0, alpha))


def _draw_frozen(rng, vol: model.Volume, n_free: int) -> dict:
    sites = vol.sites()
    picks = rng.choice(len(sites), size=vol.n_sites - n_free, replace=False)
    return {sites[int(i)]: int(rng.choice((-1, 1))) for i in sorted(picks)}


def log_partition_job(ctx, rng, n: int) -> Job:
    vol = model.Volume(1, (n - 1) // 2)
    _, _, params = _draw_model(rng)
    bc = make_bc(BC_1D[int(rng.integers(len(BC_1D)))])
    rederive = rng.random() < REDERIVE_SHARE

    def check(logz, _):
        if not logz >= n * math.log(2.0) - 1e-9:     # Jensen: log Z >= n log 2
            return f"log Z {logz} below n log 2"
        if rederive:
            other = model.log_partition(vol, params, bc.flipped())
            if not _close(logz, other):
                return f"log Z {logz!r} != flipped-boundary {other!r}"
        return None

    return Job(f"log_partition/n{n}", lambda: model.log_partition(vol, params, bc), check)


def site_means_job(ctx, rng, n: int) -> Job:
    vol = model.Volume(1, n // 2 + 1)
    _, _, params = _draw_model(rng)
    bc = make_bc(BC_1D[int(rng.integers(len(BC_1D)))])
    frozen = _draw_frozen(rng, vol, n)
    rederive = rng.random() < REDERIVE_SHARE

    def check(means, _):
        if len(means) != n or any(abs(v) > 1.0 + 1e-12 for v in means.values()):
            return "site means out of range"
        if rederive:
            flipped = exact.conditional_site_means(
                vol, params, bc.flipped(), {s: -v for s, v in frozen.items()})
            worst = max(abs(means[s] + flipped[s]) for s in means)
            if worst > EXACT_TOL:
                return f"spin-flip symmetry off by {worst:.2e}"
        return None

    return Job(f"site_means/n{n}",
               lambda: exact.conditional_site_means(vol, params, bc, frozen), check)


def expectation_job(ctx, rng, n: int, kind: str) -> Job:
    """`kind` is spin, pair or magnetization."""
    vol = model.Volume(1, n // 2 + 1)
    _, _, params = _draw_model(rng)
    bc = make_bc(BC_1D[int(rng.integers(len(BC_1D)))])
    frozen = _draw_frozen(rng, vol, n)
    free = [s for s in vol.sites() if s not in frozen]
    x, y = (int(v) for v in rng.choice(free, size=2, replace=False))
    obs = {"spin": lambda: exact.spin_observable(vol, x),
           "pair": lambda: exact.pair_observable(vol, x, y),
           "magnetization": lambda: exact.magnetization_observable(vol)}[kind]()
    rederive = rng.random() < REDERIVE_SHARE

    def second_path():
        if kind == "pair":
            return exact.conditional_expectation(vol, params, bc.flipped(),
                                                 {s: -v for s, v in frozen.items()}, obs)
        means = exact.conditional_site_means(vol, params, bc, frozen)
        if kind == "spin":
            return means[x]
        return (sum(means.values()) + sum(frozen.values())) / vol.n_sites

    def check(value, _):
        if not abs(value) <= 1.0 + 1e-12:
            return f"{kind} expectation {value} out of range"
        if rederive:
            other = second_path()
            if not _close(value, other):
                return f"{kind} expectation {value!r} != second path {other!r}"
        return None

    return Job(f"expectation/{kind}/n{n}",
               lambda: exact.conditional_expectation(vol, params, bc, frozen, obs), check)


def enumerate_job(ctx, rng, n: int) -> Job:
    L = (n - 1) // 2
    alpha, beta, params = _draw_model(rng)
    bc_name = BC_1D[int(rng.integers(len(BC_1D)))]
    rederive = rng.random() < REDERIVE_SHARE
    cfg = {"subcommand": "enumerate",
           "model": {"dimension": 1, "L": L, "beta": beta, "coupling": _power_law(alpha)},
           "bc": {"name": bc_name}}

    def check(record, _):
        row = record["rows"][0]
        if not row["log_Z"] >= n * math.log(2.0) - 1e-9 \
                or not _close(row["Z"], math.exp(row["log_Z"])) \
                or abs(row["mean_spin_origin"]) > 1.0 + 1e-12:
            return f"enumerate row inconsistent: {row}"
        if rederive:
            vol, bc = model.Volume(1, L), make_bc(bc_name)
            logz = model.log_partition(vol, params, bc.flipped())
            m0 = exact.conditional_site_means(vol, params, bc)[0]
            if not (_close(row["log_Z"], logz) and _close(row["mean_spin_origin"], m0)):
                return "enumerate row disagrees with the second path"
        return None

    return cli_job(ctx, f"cli.enumerate/n{n}", cfg, check)


def decimation_job(ctx, rng, pinned_beta: float = None) -> Job:
    beta = pinned_beta if pinned_beta is not None else float(rng.uniform(1.0, 4.0))
    cfg = {"subcommand": "probe.decimation", "model": {"L": 2, "beta": beta},
           "probe": {"alpha": 1.5}, "method": "exact"}

    def check(record, _):
        s = _scalars(record)
        gap = s["gap"]["value"]
        if record["probe_params"]["N"] != 16 or not 0.0 < gap <= 2.0 \
                or s["m_minus"]["value"] != -s["m_plus"]["value"]:
            return f"decimation report inconsistent (gap {gap})"
        if pinned_beta is not None and abs(gap - PINNED_GAPS[pinned_beta]) > PINNED_TOL:
            return f"pinned gap at beta {pinned_beta} moved: {gap!r}"
        return None

    tag = f"pinned-b{pinned_beta:g}" if pinned_beta is not None else "drawn"
    return cli_job(ctx, f"cli.probe.decimation/{tag}", cfg, check)


def g_probe_job(ctx, rng) -> Job:
    beta = float(rng.uniform(1.0, 4.0))
    cfg = {"subcommand": "probe.g", "model": {"L": 2, "beta": beta},
           "probe": {"alpha": 1.5, "N": 16, "n": 20}, "method": "exact"}

    def check(record, _):
        s = _scalars(record)
        gap = s["gap"]["value"]
        if not 0.0 < gap <= 2.0 or not _close(gap, s["m_plus"]["value"] - s["m_minus"]["value"]):
            return f"one-sided gap {gap} not in (0, 2]"
        return _verdicts_hold(record, ("gap_positive",))

    return cli_job(ctx, "cli.probe.g/n21", cfg, check)


def rigidity_exact_job(ctx, rng) -> Job:
    cfg = {"subcommand": "probe.rigidity",
           "model": {"dimension": 2, "L": 1, "beta": 3.0,
                     "coupling": {"family": "anisotropic_axes", "alpha1": 1.5,
                                  "vertical": "nn"}},
           "method": "exact"}
    return cli_job(ctx, "cli.probe.rigidity/exact-L1", cfg,
                   lambda record, _: _verdicts_hold(
                       record, ("inequality", "line0_positive", "sign_asymmetry")))


# ---------------------------------------------------------------------------
# sampled jobs


def _oracle_setting(index: int):
    dim, L, tag, beta, bc_name = ORACLE_SETTINGS[index]
    if tag == "axes":
        coupling, ccfg = model.AnisotropicAxes(1.5, "nn"), {
            "family": "anisotropic_axes", "alpha1": 1.5, "vertical": "nn"}
    elif tag == "mixed":
        coupling, ccfg = model.IsotropicMixed(1.0, 3.2), {
            "family": "isotropic_mixed", "J_nn": 1.0, "alpha": 3.2}
    else:
        coupling, ccfg = model.PowerLaw(1.0, tag), _power_law(tag)
    vol = model.Volume(dim, L)
    return vol, model.ModelParams(beta, coupling), make_bc(bc_name), ccfg


def sample_job(ctx, rng, setting: int, rule: str, n_sweeps: int = 1000) -> Job:
    """`sample` subcommand: 8 replicas at a criterion-5 setting, origin spin."""
    vol, params, bc, ccfg = _oracle_setting(setting)
    dim, L, _, beta, bc_name = ORACLE_SETTINGS[setting]
    cfg = {"subcommand": "sample",
           "model": {"dimension": dim, "L": L, "beta": beta, "coupling": ccfg},
           "bc": {"name": bc_name},
           "sampler": {"n_sweeps": n_sweeps, "burn_in": n_sweeps // 5, "rule": rule},
           "seed": _seed(rng)}

    def check(record, chains):
        row = record["rows"][0]
        origin = 0 if dim == 1 else (0, 0)
        truth = exact.expectation(vol, params, bc, exact.spin_observable(vol, origin))
        return within_sigmas(row["mean_spin_origin"], truth, row["stderr"],
                             1.0 - truth * truth, chains)

    return cli_job(ctx, f"cli.sample/n{vol.n_sites}/{rule}", cfg, check)


def pair_chain_job(ctx, rng, setting: int, rule: str) -> Job:
    """One direct chain estimating a nearest-pair correlation."""
    vol, params, bc, _ = _oracle_setting(setting)
    site0, site1 = (0, 1) if vol.dimension == 1 else ((0, 0), (0, 1))
    obs = exact.pair_observable(vol, site0, site1)
    seed = _seed(rng)

    def call():
        state = mcmc.sampler_new(vol, params, bc, seed, initial="random")
        return mcmc.estimate(state, obs, 1500, 150, rule=rule)

    def check(est, chains):
        truth = exact.expectation(vol, params, bc, obs)
        return within_sigmas(est.mean, truth, est.stderr, 1.0 - truth * truth, chains)

    return Job(f"chain.pair/n{vol.n_sites}/{rule}", call, check)


def rigidity_mcmc_job(ctx, rng) -> Job:
    cfg = {"subcommand": "probe.rigidity",
           "model": {"dimension": 2, "L": 8, "beta": 3.0,
                     "coupling": {"family": "anisotropic_axes", "alpha1": 1.5,
                                  "vertical": "nn"}},
           "method": "mcmc", "sampler": {"n_sweeps": 800, "burn_in": 200},
           "seed": _seed(rng)}
    return cli_job(ctx, "cli.probe.rigidity/mcmc-n289", cfg,
                   lambda record, _: _verdicts_hold(
                       record, ("inequality", "line0_positive", "sign_asymmetry",
                                "replicas_agree")))


def decimation_mcmc_job(ctx, rng) -> Job:
    beta = float(rng.uniform(0.3, 1.0))
    cfg = {"subcommand": "probe.decimation", "model": {"L": 2, "beta": beta},
           "probe": {"alpha": 1.5}, "method": "mcmc",
           "sampler": {"n_sweeps": 600, "burn_in": 120}, "seed": _seed(rng)}
    reps = probes.MCMC_REPLICAS

    def check(record, chains):
        twin = probes.decimation_probe(1.5, beta, 2)
        s = _scalars(record)
        problems = []
        for k, key in enumerate(("m_plus_raw", "m_minus_raw")):
            truth = twin.value(key)
            problems.append(within_sigmas(s[key]["value"], truth, s[key]["stderr"],
                                          1.0 - truth * truth,
                                          chains[k * reps:(k + 1) * reps]))
        return _first_problem(*problems)

    return cli_job(ctx, "cli.probe.decimation/mcmc-n33", cfg, check)


def wetting_mcmc_job(ctx, rng) -> Job:
    beta = float(rng.uniform(0.3, 1.0))
    N = 8
    cfg = {"subcommand": "probe.wetting", "model": {"L": 4, "beta": beta},
           "probe": {"alpha": 1.6, "N": N}, "method": "mcmc",
           "sampler": {"n_sweeps": 300, "burn_in": 60}, "seed": _seed(rng)}
    reps = probes.MCMC_REPLICAS

    def check(record, chains):
        twin = probes.wetting_probe(1.6, beta, 4, N)
        s = _scalars(record)
        window = twin.params["window"]
        # chain order follows the probe: each window site, the far site, the
        # plus-phase reference; 8 replicas each
        keys = [f"profile[{x}]" for x in
                list(range(-N - window, -N)) + list(range(0, window))]
        keys += ["far_value", "m_plus_phase"]
        problems = []
        for k, key in enumerate(keys):
            truth = twin.value(key)
            problems.append(within_sigmas(s[key]["value"], truth, s[key]["stderr"],
                                          1.0 - truth * truth,
                                          chains[k * reps:(k + 1) * reps]))
        return _first_problem(*problems)

    return cli_job(ctx, "cli.probe.wetting/mcmc", cfg, check)


# ---------------------------------------------------------------------------
# interface law and contour geometry


def _interface_counts(ctx, L: int) -> dict:
    """Direct count of interface points over all configurations (cached per run)."""
    if L not in ctx.interface_counts:
        vol = model.Volume(1, L)
        counts = {t: 0 for t in exact.theta_grid(L)}
        for bits in itertools.product((-1, 1), repeat=vol.n_sites):
            counts[contours.interface_point(vol, np.array(bits, dtype=np.int8)) / L] += 1
        ctx.interface_counts[L] = counts
    return ctx.interface_counts[L]


def interface_job(ctx, rng, L: int, beta: float = None) -> Job:
    alpha = float(rng.uniform(1.3, 1.9))
    beta = float(rng.uniform(0.5, 4.0)) if beta is None else beta
    cfg = {"subcommand": "interface",
           "model": {"L": L, "beta": beta, "coupling": _power_law(alpha)}}

    def check(record, _):
        law = {row["theta"]: row["mass"] for row in record["rows"]}
        if sorted(law) != sorted(exact.theta_grid(L)):
            return "interface law grid differs from theta_grid"
        asym = max(abs(law[t] - law[-t]) for t in law)
        defect = abs(sum(law.values()) - 1.0)
        if asym > EXACT_TOL or defect > EXACT_TOL or min(law.values()) <= 0.0:
            return f"interface law asymmetry {asym:.1e}, mass defect {defect:.1e}"
        if beta == 0.0:
            counts = _interface_counts(ctx, L)
            worst = max(abs(law[t] - counts[t] / 2 ** (2 * L + 1)) for t in law)
            if worst > EXACT_TOL:
                return f"beta=0 law differs from the direct count by {worst:.1e}"
        return None

    return cli_job(ctx, f"cli.interface/L{L}", cfg, check)


def _random_configuration(rng, vol: model.Volume) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=vol.n_sites)


def _parse_family(text: str) -> contours.TriangleFamily:
    """Inverse of contours.serialize_family."""
    top = []
    for line in text.splitlines():
        left, right, sign = line.strip().split(",")
        tri = contours.Triangle(float(left), float(right), int(sign))
        if line.startswith(" "):
            parent = top[-1]
            top[-1] = contours.Triangle(parent.left, parent.right, parent.sign,
                                        parent.children + (tri,))
        else:
            top.append(tri)
    return contours.ordered_family(top)


def contours_cli_job(ctx, rng, L: int) -> Job:
    vol = model.Volume(1, L)
    cfg_spins = _random_configuration(rng, vol)
    cfg = {"subcommand": "contours",
           "probe": {"configuration": contours.serialize_configuration(vol, cfg_spins)}}

    def check(record, _):
        if not record["round_trip_ok"]:
            return "round trip reported broken"
        fam = _parse_family(record["family"]) if record["family"] else \
            contours.ordered_family([])
        if not np.array_equal(contours.reconstruct(vol, fam, model.plus_bc()), cfg_spins):
            return "serialized family does not rebuild the configuration"
        return None

    return cli_job(ctx, f"cli.contours/L{L}", cfg, check)


def dobrushin_round_trip_job(ctx, rng, L: int) -> Job:
    vol = model.Volume(1, L)
    cfg_spins = _random_configuration(rng, vol)
    bc = model.dobrushin1d_bc()

    def call():
        fam = contours.triangles(vol, cfg_spins, bc)
        point = contours.interface_point(vol, cfg_spins, bc)
        return contours.reconstruct(vol, fam, bc, interface=point)

    def check(rebuilt, _):
        return None if np.array_equal(rebuilt, cfg_spins) else "Dobrushin round trip broken"

    return Job(f"contours.round_trip/dobrushin/L{L}", call, check)


def removal_cost_job(ctx, rng, L: int) -> Job:
    vol = model.Volume(1, L)
    alpha = float(rng.uniform(1.5, 1.8))
    spec = model.IsotropicMixed(9.0, alpha)
    cfg_spins = _random_configuration(rng, vol)

    def call():
        fam = contours.triangles(vol, cfg_spins, model.plus_bc())
        return fam, [contours.removal_cost(vol, spec, fam, k) for k in range(len(fam))]

    def check(out, _):
        fam, costs = out
        kap = contours.kappa(alpha)
        for tri, cost in zip(fam.triangles, costs):
            if cost < kap * tri.length ** (2.0 - alpha) - 1e-9:
                return f"removal cost {cost} below kappa |T|^(2-alpha)"
        return None

    return Job(f"contours.removal_cost/L{L}", call, check)


def group_contours_job(ctx, rng) -> Job:
    spans, cursor = [], 0
    while True:
        spans.clear()
        for _ in range(int(rng.integers(2, 7))):
            length = int(rng.integers(1, 5))
            start = cursor + int(rng.integers(length + 1, 60))
            spans.append((start, start + length - 1))
            cursor = start + length
        try:
            fam = contours.ordered_family(
                [contours.Triangle(a - 0.5, b + 0.5, -1) for a, b in spans])
            break
        except ValueError:
            cursor = 0

    def check(grouped, _):
        if not contours.contour_separation_ok(grouped, C=1.0):
            return "grouped contours violate the separation rule"
        members = sorted((t.left, t.right) for c in grouped for t in c.triangles)
        if members != sorted((t.left, t.right) for t in fam):
            return "grouping lost or duplicated triangles"
        return None

    return Job("contours.group_contours", lambda: contours.group_contours(fam, C=1.0), check)


def verify_job(ctx, rng) -> Job:
    cfg = {"subcommand": "verify", "probe": {"quick": True}}

    def check(record, _):
        bad = [row["check"] for row in record["rows"] if not row["ok"]]
        return f"verify --quick failed: {bad}" if bad or not record["all_ok"] else None

    return cli_job(ctx, "cli.verify/quick", cfg, check)


# ---------------------------------------------------------------------------
# boundary fields


def _field_problem(vol, spec, bc, h, rng, n_sites: int) -> str:
    """Spot-check sites: crossover doubling and the flipped boundary."""
    if h.shape != (vol.n_sites,) or not np.all(np.isfinite(h)):
        return "field vector malformed"
    sites = vol.sites()
    picks = {0, vol.n_sites - 1} | {int(i) for i in rng.choice(vol.n_sites, n_sites)}
    for i in sorted(picks):
        x = sites[i]
        doubled = model.boundary_field(vol, spec, bc, x, em_crossover=2 * model.EM_CROSSOVER)
        flipped = model.boundary_field(vol, spec, bc.flipped(), x)
        if abs(doubled - h[i]) > FIELD_TOL:
            return f"doubling the crossover moves h[{x}] by {abs(doubled - h[i]):.1e}"
        if abs(flipped + h[i]) > FIELD_TOL:
            return f"h(flipped bc)[{x}] != -h[{x}]"
    return None


def field_1d_job(ctx, rng, L: int, bc_kind: str) -> list:
    vol = model.Volume(1, L)
    alpha = float(rng.uniform(1.2, 1.95))
    spec = model.PowerLaw(1.0, alpha)
    if bc_kind == "frozen_interval":
        lo = L + 1 + int(rng.integers(0, 4))
        bc = model.frozen_interval_bc(lo, lo + 8)
    elif bc_kind == "left_neighborhood":
        bc = model.left_neighborhood_bc(int(rng.choice((-1, 1))), L + 8 + int(rng.integers(0, 4)), 4)
    else:
        bc = make_bc(bc_kind)
    check_rng = np.random.default_rng(rng.integers(2**63))
    jobs = [Job(f"field.1d/{bc_kind}/L{L}",
                lambda: model.boundary_field_vector(vol, spec, bc),
                lambda h, _: _field_problem(vol, spec, bc, h, check_rng, 6))]
    if bc_kind == "plus":
        # deliberate repeat of the geometry; excess_energy passes the
        # crossover positionally, so today it misses the cached vector
        def check_excess(value, _):
            h = model.boundary_field_vector(vol, spec, bc)
            return None if _close(value, 2.0 * float(np.sum(h))) else "excess energy != 2 sum h"
        jobs.append(Job(f"excess_energy/L{L}", lambda: model.excess_energy(vol, spec),
                        check_excess))
    return jobs


def field_2d_job(ctx, rng, kind: str) -> Job:
    vol = model.Volume(2, 8)
    if kind == "iso":
        spec, bc = model.PowerLaw(1.0, float(rng.uniform(2.2, 3.5))), model.plus_bc()
    elif kind == "mixed":
        spec = model.IsotropicMixed(float(rng.uniform(0.5, 2.0)), float(rng.uniform(2.5, 3.5)))
        bc = model.dobrushin2d_bc(1)
    elif kind == "axes":
        spec, bc = model.AnisotropicAxes(float(rng.uniform(1.3, 1.9)), "nn"), model.dobrushin2d_bc(0)
    else:
        spec = model.AnisotropicAxes(float(rng.uniform(1.3, 1.9)), float(rng.uniform(1.5, 2.5)))
        bc = model.plus_bc()
    check_rng = np.random.default_rng(rng.integers(2**63))
    return Job(f"field.2d/{kind}/L8", lambda: model.boundary_field_vector(vol, spec, bc),
               lambda h, _: _field_problem(vol, spec, bc, h, check_rng, 1))


def wetting_ladder(ctx, rng, N_base: int, round_index: int, betas=None) -> list:
    """Exact wetting at one geometry over a beta-ladder: the second rung
    reads the boundary field the first one built."""
    pinned = betas is not None
    N = N_base if pinned else N_base - 8 * round_index - int(rng.integers(1, 8))
    betas = betas or (0.0, float(rng.uniform(3.0, 4.5)))
    jobs = []
    for beta in betas:
        cfg = {"subcommand": "probe.wetting", "model": {"L": 4, "beta": beta},
               "probe": {"alpha": 1.6, "N": N}, "method": "exact"}

        def check(record, _, beta=beta):
            s = _scalars(record)
            profile = [row["value"] for key, row in s.items() if key.startswith("profile")]
            if any(abs(v) > 1.0 + 1e-12 for v in profile):
                return "wetting profile out of range"
            if beta == 0.0:
                return None if max(abs(v) for v in profile) <= 1e-13 else "beta=0 profile not zero"
            keys = ("window_below_far", "window_negative") if pinned else ("window_below_far",)
            return _verdicts_hold(record, keys)

        jobs.append(cli_job(ctx, f"cli.probe.wetting/N{N_base}", cfg, check))
    return jobs


def past_field_job(ctx, rng, N: int) -> Job:
    alpha = float(rng.uniform(1.2, 1.9))
    L, n = 2, N + 4
    check_rng = np.random.default_rng(rng.integers(2**63))

    def call():
        return {sign: [probes.past_field(sign, alpha, L, N, n, x) for x in range(n + 1)]
                for sign in (1, -1)}

    def check(table, _):
        for x in sorted({0, n} | {int(v) for v in check_rng.integers(0, n + 1, 6)}):
            doubled = probes.past_field(1, alpha, L, N, n, x,
                                        em_crossover=2 * model.EM_CROSSOVER)
            ks = np.arange(L + 1, N + 1, dtype=np.float64)
            annulus = 2.0 * float(np.sum((ks + x) ** (-alpha)))
            if abs(doubled - table[1][x]) > FIELD_TOL \
                    or abs(table[1][x] - table[-1][x] - annulus) > FIELD_TOL:
                return f"past field at x={x} off"
        return None

    return Job(f"past_field/N{N}", call, check)


def shift_job(ctx, rng, near: float) -> Job:
    alpha = near + float(rng.uniform(-0.1, 0.1))
    rederive = rng.random() < REDERIVE_SHARE
    cfg = {"subcommand": "probe.shift", "probe": {"alpha": alpha, "L": 2048}}

    def check(record, _):
        row = record["rows"][0]
        if not row["bound"] > 0 or abs(row["fitted_exponent"] - (3.0 - alpha)) > 0.1:
            return f"shift exponent {row['fitted_exponent']} vs {3.0 - alpha}"
        if rederive:
            again = probes.shift_energy_bound(alpha, 2048, em_crossover=2 * model.EM_CROSSOVER)
            if abs(again - row["bound"]) > FIELD_TOL * max(1.0, abs(again)):
                return "shift bound moves when the crossover doubles"
        return None

    return cli_job(ctx, "cli.probe.shift/L2048", cfg, check)


def landau_job(ctx, rng) -> Job:
    alpha = float(rng.uniform(1.2, 1.8))
    ladder = [8, 16, 32, 64, 128]
    cfg = {"subcommand": "landau", "probe": {"alpha": alpha}, "model": {"L": ladder}}

    def check(record, _):
        if abs(record["fitted_exponent"] - (2.0 - alpha)) > 0.05:
            return f"droplet exponent {record['fitted_exponent']} vs {2.0 - alpha}"
        row = record["rows"][-1]
        flipped = model.excess_energy(model.Volume(1, row["L"]), model.PowerLaw(1.0, alpha),
                                      model.minus_bc())
        return None if _close(row["excess_energy"], -flipped) else "excess energy not odd"

    return cli_job(ctx, "cli.landau", cfg, check)


# ---------------------------------------------------------------------------
# rounds


# A round's median and tail latencies are order statistics, so each round is
# laid out in cost clusters: the median rank and the rank with ten jobs above
# it both fall inside a block of same-cost jobs, never on a gap between two
# cost levels.  Costs below are CPU seconds on a 2-core x86 box.

#: Prefix of the canary jobs' names.  Canaries count in throughput and in the
#: failure count, but not in the latency percentiles (``is_canary``), so their
#: length leaves each round's median and tail blocks in place.
CANARY_PREFIX = "canary/"


def canary_job(ctx, rng, sweeps: int) -> Job:
    """Sampler chains on the workloads that run no sampler of their own, for
    effective samples per second: a `sample` run at setting 0, whose cost is
    steady, long enough that four per round hold ~15 % of the round's time."""
    job = sample_job(ctx, rng, 0, "metropolis", sweeps)
    job.name = CANARY_PREFIX + job.name
    return job


def is_canary(name: str) -> bool:
    return name.startswith(CANARY_PREFIX)


CANARY = (canary_job, 2000)


def _with_canaries(slots: list, k: int = 4) -> list:
    """Spread k canary slots evenly through a round, so their timings sample
    the whole round rather than one moment of it."""
    out = list(slots)
    for i in reversed(range(k)):
        out.insert((2 * i + 1) * len(slots) // (2 * k), CANARY)
    return out


def _slots_exact_oracle(r: int) -> list:
    """~15 s.  Median: nine n=19 site means; tail: ten n=20 site means under
    seven larger jobs (three n=21 log Z, n=21 site means, g_probe, n=22 site
    means, n=23 log Z)."""
    n17 = [(log_partition_job, 17), (site_means_job, 17), (expectation_job, 17, "spin")]
    below = [(rigidity_exact_job,)] + (n17 * 3)[:7] + [
        (decimation_job, 2.0), (decimation_job, 4.0), (decimation_job, None),
        (enumerate_job, 17), (enumerate_job, 17), (site_means_job, 18),
        (expectation_job, 18, "pair")]
    median = [(site_means_job, 19)] * 9
    tail = [(site_means_job, 20)] * 10
    top = [(log_partition_job, 21)] * 3 + [
        (site_means_job, 21), (g_probe_job,), (site_means_job, 22), (log_partition_job, 23)]
    # the n=21 log Z runs come before the median and tail blocks: the large
    # enumeration buffers they free make later same-size jobs up to 30 %
    # faster than the same jobs before them, which would split a block
    return _with_canaries(below[:8] + top[:3] + median[:5] + tail[:5] + below[8:]
                          + median[5:] + tail[5:] + top[3:])


def _slots_mcmc_chains(r: int) -> list:
    """~15 s.  Below: pair chains on half of the criterion-5 settings (two
    rounds cover all ten; the rule of a setting alternates every two rounds);
    median and tail: sixteen `sample` runs at setting 0, under the 17x17
    rigidity run and the decimation and wetting runs against their exact
    twins."""
    half = range(5 * (r % 2), 5 * (r % 2) + 5)
    pairs = [(pair_chain_job, i, RULES[(i + r // 2) % 2]) for i in half]
    samples = [(sample_job, 0, "metropolis")] * 16
    return (pairs[:3] + samples[:8] + [(rigidity_mcmc_job,)] + pairs[3:]
            + [(decimation_mcmc_job,)] + samples[8:] + [(wetting_mcmc_job,)])


def _slots_interface_geometry(r: int) -> list:
    """~13 s.  Below: contour round trips (plus through the command line,
    Dobrushin directly), removal costs and grouping; median: seventeen L=4
    interface laws; tail: sixteen L=5 laws under L=6, L=7 and verify --quick."""
    tiny = [(group_contours_job,)] * 6 + [(dobrushin_round_trip_job, 8)] * 5 \
        + [(removal_cost_job, L) for L in range(4, 11)] + [(contours_cli_job, 8)] * 6
    median = [(interface_job, 4)] * 17
    laws = [(interface_job, 5, 0.0)] + [(interface_job, 5)] * 15 + [
        (interface_job, 6, 0.0), (verify_job,), (interface_job, 6), (interface_job, 7)]
    return _with_canaries(laws[:8] + tiny[::2] + median[:8] + laws[8:16] + tiny[1::2]
                          + median[8:] + laws[16:])


def _slots_field_build(r: int) -> list:
    """~13 s.  Median: 1d vectors and excess energies at L=1024 under plus
    boundaries; tail: the constant-tail L=2048 builds (vectors, excess energy,
    shift bound, cold N=1024 wetting rung) under the alternating L=2048 and
    L=1024 builds and the cold N=2048 wetting rung."""
    below = [(field_2d_job, "axes"), (field_2d_job, "axes_power"), (field_2d_job, "iso"),
             (field_2d_job, "mixed"), (landau_job,), (past_field_job, 256)] + [
        (field_1d_job, 256, k) for k in (
            "plus", "alternating", "dobrushin1d", "frozen_interval", "left_neighborhood")]
    median = [(field_1d_job, 1024, "plus")] * 5
    middle = [(field_1d_job, 1024, "frozen_interval"), (field_1d_job, 1024, "left_neighborhood"),
              (past_field_job, 512)]
    tail = [(field_1d_job, 2048, k) for k in (
        "plus", "dobrushin1d", "plus", "dobrushin1d", "dobrushin1d", "frozen_interval",
        "left_neighborhood")] + [(shift_job, 2.5 if r % 2 == 0 else 3.5)]
    top = [(field_1d_job, 2048, "alternating"), (field_1d_job, 1024, "alternating")]
    first = (wetting_ladder, 2048, r, (0.0, 4.0)) if r == 0 else (wetting_ladder, 2048, r)
    return _with_canaries([first] + below[:6] + median[:3] + [(wetting_ladder, 1024, r)]
                          + tail[:4] + middle + top[:1] + below[6:] + median[3:]
                          + tail[4:] + top[1:])


WORKLOADS = {
    "exact-oracle": _slots_exact_oracle,
    "mcmc-chains": _slots_mcmc_chains,
    "interface-geometry": _slots_interface_geometry,
    "field-build": _slots_field_build,
}


def round_jobs(workload: str, root: np.random.SeedSequence, round_index: int,
               ctx: Context) -> list:
    """The jobs of one round; every slot draws from its own spawned child."""
    jobs = []
    for make, *args in WORKLOADS[workload](round_index):
        rng = np.random.default_rng(root.spawn(1)[0])
        made = make(ctx, rng, *args)
        jobs.extend(made if isinstance(made, list) else [made])
    return jobs


# ---------------------------------------------------------------------------
# reference pass (traced runs only)


def _ok(_out, _chains):
    return None


def _chain_reference(vol, params, bc, seed, n_sweeps, burn_in) -> Job:
    origin = 0 if vol.dimension == 1 else (0, 0)

    def call():
        state = mcmc.sampler_new(vol, params, bc, seed, initial="random")
        return mcmc.estimate(state, exact.spin_observable(vol, origin), n_sweeps, burn_in)

    def check(est, _):
        return None if abs(est.mean) <= 1.0 else "chain mean out of range"

    return Job(f"ref.sweep/n{vol.n_sites}", call, check)


def reference_jobs(ctx: Context, rng) -> list:
    """[(metric or None, job)]: the layer reference sizes, then one small call
    into every traced layer, so each per-layer metric is measured on every
    workload."""
    pl16 = model.ModelParams(0.7, model.PowerLaw(1.0, 1.6))
    plus = model.plus_bc()
    out = []
    for n in (17, 21, 23):
        vol = model.Volume(1, (n - 1) // 2)
        out.append((f"exact.log_partition_s.n{n}", Job(
            f"ref.log_partition/n{n}", lambda vol=vol: model.log_partition(vol, pl16, plus),
            lambda logz, _, n=n: None if logz >= n * math.log(2.0) else "log Z too small")))
        out.append((f"exact.site_means_s.n{n}", Job(
            f"ref.site_means/n{n}", lambda vol=vol: exact.conditional_site_means(vol, pl16, plus),
            lambda means, _: None if min(means.values()) > 0 else "plus means not positive")))
    out.append(("contours.interface_law_s.L6", Job(
        "ref.interface_law/L6",
        lambda: exact.interface_distribution(model.Volume(1, 6),
                                             model.ModelParams(3.0, model.PowerLaw(1.0, 1.5))),
        lambda law, _: None if abs(sum(law.masses) - 1.0) <= EXACT_TOL else "law not normalized")))
    for metric, vol, spec in (
            ("model.field_vector_s.1d-L2048", model.Volume(1, 2048), model.PowerLaw(1.0, 1.6)),
            ("model.field_vector_s.2d-iso-L8", model.Volume(2, 8), model.PowerLaw(1.0, 2.5))):
        out.append((metric, Job(
            f"ref.{metric}", lambda vol=vol, spec=spec: model.boundary_field_vector(vol, spec, plus),
            lambda h, _: None if np.all(h > 0) else "plus field not positive")))
    out += [
        (None, _chain_reference(model.Volume(1, 3), model.ModelParams(0.8, model.PowerLaw(1.0, 1.7)),
                                plus, _seed(rng), 4000, 400)),
        (None, _chain_reference(model.Volume(1, 16), model.ModelParams(0.8, model.PowerLaw(1.0, 1.5)),
                                plus, _seed(rng), 1200, 200)),
        (None, _chain_reference(model.Volume(2, 8),
                                model.ModelParams(0.5, model.AnisotropicAxes(1.5, "nn")),
                                model.dobrushin2d_bc(0), _seed(rng), 150, 30)),
        (None, Job("ref.probes", lambda: [
            probes.decimation_probe(1.5, 2.0, 1),
            probes.g_probe(1.5, 2.0, 1, N=8, n=10),
            probes.wetting_probe(1.6, 4.0, 4, 16),
            probes.rigidity_check(1.5, "nn", 3.0, 1),
            probes.percus_transform(model.AnisotropicAxes(1.5, "nn"), model.Volume(2, 1)),
            probes.dobrushin_shift_energy(2.5, 256)], _ok)),
        (None, removal_cost_job(ctx, rng, 6)),
        (None, verify_job(ctx, rng)),
    ]
    return out
