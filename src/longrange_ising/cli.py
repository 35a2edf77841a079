"""Batch experiment runner.

JSON configs drive every subcommand; results append as one canonical JSON
record per line (floats fixed at %.12e), with optional CSV emission of the
scalar table.  Exit codes: 0 success, 2 config error, 3 capacity error,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time

import numpy as np

from . import __version__, contours, exact, mcmc, model, probes, verify
from .util import CapacityError, canonical_json, format_float


class ConfigError(ValueError):
    """Invalid experiment configuration (field-level diagnostics in args)."""


# ---------------------------------------------------------------------------
# config schema (v1)

_COUPLING_KEYS = {
    "nn": {"J"},
    "power_law": {"J", "alpha"},
    "isotropic_mixed": {"J_nn", "alpha"},
    "anisotropic_axes": {"alpha1", "vertical"},
}

_BC_NAMES = {"plus", "minus", "free", "alternating", "dobrushin1d", "dobrushin2d"}

_SUBCOMMANDS = {
    "enumerate", "sample", "contours", "landau", "interface",
    "probe.decimation", "probe.g", "probe.wetting", "probe.shift",
    "probe.gs-step", "probe.percus", "probe.rigidity", "verify",
}

TEMPLATE = {
    "subcommand": "enumerate | sample | contours | landau | interface | probe.* | verify",
    "model": {
        "dimension": "1 or 2",
        "L": "half width (int) or list of ints for a ladder",
        "beta": "float or list of floats for a ladder",
        "coupling": {"family": "nn | power_law | isotropic_mixed | anisotropic_axes",
                     "J": 1.0, "alpha": 1.5},
        "field": "optional: float, or a list with one float per site",
    },
    "bc": {"name": "plus | minus | free | alternating | dobrushin1d | dobrushin2d",
           "height": "dobrushin2d only"},
    "method": "exact | mcmc",
    "sampler": {"n_sweeps": 20000, "burn_in": 2000, "rule": "metropolis | heat_bath"},
    "probe": {"N": "screening radius (probes that take one)", "n": "chain length"},
    "seed": 0,
    "out": "results path (JSONL); CSV written alongside when requested",
}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return block[key]


def parse_coupling(block: dict) -> model.CouplingSpec:
    family = _require(block, "family", "model.coupling")
    if family not in _COUPLING_KEYS:
        raise ConfigError(f"model.coupling.family: unknown family '{family}'")
    _reject_unknown(block, _COUPLING_KEYS[family] | {"family"}, "model.coupling")
    try:
        if family == "nn":
            return model.NearestNeighbor(float(block.get("J", 1.0)))
        if family == "power_law":
            return model.PowerLaw(float(block.get("J", 1.0)),
                                  float(_require(block, "alpha", "model.coupling")))
        if family == "isotropic_mixed":
            return model.IsotropicMixed(float(block.get("J_nn", 0.0)),
                                        float(_require(block, "alpha", "model.coupling")))
        vertical = block.get("vertical", "nn")
        return model.AnisotropicAxes(float(_require(block, "alpha1", "model.coupling")),
                                     vertical if vertical == "nn" else float(vertical))
    except ValueError as err:
        raise ConfigError(f"model.coupling: {err}") from err


def parse_bc(block: dict) -> model.BoundaryCondition:
    name = _require(block, "name", "bc")
    if name not in _BC_NAMES:
        raise ConfigError(f"bc.name: unknown boundary condition '{name}'")
    _reject_unknown(block, {"name", "height"}, "bc")
    if name == "dobrushin2d":
        return model.dobrushin2d_bc(int(block.get("height", 0)))
    return {
        "plus": model.plus_bc, "minus": model.minus_bc, "free": model.free_bc,
        "alternating": model.alternating_bc, "dobrushin1d": model.dobrushin1d_bc,
    }[name]()


def _as_ladder(value, where: str) -> list:
    if isinstance(value, (int, float)):
        return [value]
    if isinstance(value, list) and value and all(isinstance(v, (int, float)) for v in value):
        return list(value)
    raise ConfigError(f"{where}: expected a number or a non-empty list of numbers")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected a JSON object")
    _reject_unknown(cfg, {"subcommand", "model", "bc", "method", "sampler",
                          "probe", "seed", "out", "emit_csv"}, "top level")
    sub = _require(cfg, "subcommand", "top level")
    if sub not in _SUBCOMMANDS:
        raise ConfigError(f"subcommand: unknown '{sub}'")
    if "model" in cfg:
        mblock = cfg["model"]
        _reject_unknown(mblock, {"dimension", "L", "beta", "coupling", "field"}, "model")
        if "coupling" in mblock:
            parse_coupling(mblock["coupling"])
        if "L" in mblock:
            for L in _as_ladder(mblock["L"], "model.L"):
                if int(L) != L or L < 0:
                    raise ConfigError("model.L: half widths must be nonnegative integers")
        if "beta" in mblock:
            for b in _as_ladder(mblock["beta"], "model.beta"):
                if b < 0:
                    raise ConfigError("model.beta: must be >= 0")
        if "field" in mblock:
            _as_ladder(mblock["field"], "model.field")
    if "bc" in cfg:
        parse_bc(cfg["bc"])
    if cfg.get("method", "exact") not in ("exact", "mcmc"):
        raise ConfigError("method: must be 'exact' or 'mcmc'")
    if "sampler" in cfg:
        _reject_unknown(cfg["sampler"], {"n_sweeps", "burn_in", "rule"}, "sampler")
    if "probe" in cfg:
        _reject_unknown(cfg["probe"], {"N", "n", "alpha", "R", "L", "quick",
                                       "configuration"}, "probe")
    if "seed" in cfg and (not isinstance(cfg["seed"], int) or cfg["seed"] < 0):
        raise ConfigError("seed: must be a nonnegative integer")
    return cfg


# ---------------------------------------------------------------------------
# results store


def _last_line_start(fh, end: int) -> int:
    """Offset just past the last newline before `end` (0 if there is none),
    found by reading backwards in blocks."""
    pos = end
    while pos > 0:
        step = min(pos, 1 << 16)
        pos -= step
        fh.seek(pos)
        cut = fh.read(step).rfind(b"\n")
        if cut >= 0:
            return pos + cut + 1
    return 0


def append_record(path: str, record: dict) -> None:
    """Append one canonical JSON line under an exclusive lock on the store.
    Only the tail is read: a trailing line without its newline is completed
    if it parses and quarantined otherwise, never silently dropped."""
    line = (canonical_json(record) + "\n").encode("utf-8")
    with open(path, "a+b") as fh:      # closing the file releases the lock
        fcntl.flock(fh, fcntl.LOCK_EX)
        end = fh.seek(0, os.SEEK_END)
        cut = _last_line_start(fh, end)
        if cut < end:
            fh.seek(cut)
            tail = fh.read()
            try:
                json.loads(tail.decode("utf-8"))
                line = b"\n" + line
            except (UnicodeDecodeError, json.JSONDecodeError):
                with open(path + ".quarantine", "ab") as qf:
                    qf.write(tail + b"\n")
                fh.truncate(cut)
                print(f"quarantined corrupt trailing line -> {path}.quarantine",
                      file=sys.stderr)
        fh.write(line)


def emit_csv(path: str, rows: list) -> None:
    if not rows:
        return
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            cells = []
            for k in keys:
                v = row.get(k, "")
                cells.append(format_float(v) if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# subcommand execution


def _model_pieces(cfg: dict):
    mblock = cfg.get("model", {})
    dim = int(mblock.get("dimension", 1))
    Ls = [int(v) for v in _as_ladder(mblock.get("L", 4), "model.L")]
    betas = [float(b) for b in _as_ladder(mblock.get("beta", 1.0), "model.beta")]
    coupling = parse_coupling(mblock.get("coupling", {"family": "power_law",
                                                      "J": 1.0, "alpha": 1.5}))
    field = mblock.get("field")
    bc = parse_bc(cfg.get("bc", {"name": "plus"}))
    return dim, Ls, betas, coupling, field, bc


def _params(vol: model.Volume, beta: float, coupling, field) -> model.ModelParams:
    params = model.ModelParams(beta, coupling, field)
    try:
        model.external_field_vector(vol, params)
    except ValueError as err:
        raise ConfigError(f"model.field: {err} ({vol.n_sites} sites)") from err
    return params


def _point_enumerate(args):
    cfg, L, beta = args
    dim, _, _, coupling, field, bc = _model_pieces(cfg)
    vol = model.Volume(dim, L)
    params = _params(vol, beta, coupling, field)
    logZ = model.log_partition(vol, params, bc)
    m0 = exact.expectation(vol, params, bc, exact.spin_observable(
        vol, 0 if dim == 1 else (0, 0)))
    return {"L": L, "beta": beta, "log_Z": logZ, "Z": float(np.exp(logZ)),
            "mean_spin_origin": m0}


def _point_sample(args):
    cfg, L, beta = args
    dim, _, _, coupling, field, bc = _model_pieces(cfg)
    sampler_cfg = cfg.get("sampler", {})
    vol = model.Volume(dim, L)
    params = _params(vol, beta, coupling, field)
    obs = exact.spin_observable(vol, 0 if dim == 1 else (0, 0))
    n_sweeps = int(sampler_cfg.get("n_sweeps", 20_000))
    burn_in = int(sampler_cfg.get("burn_in", 2_000))
    rule = sampler_cfg.get("rule", "metropolis")
    est = mcmc.combine_estimates(mcmc.replicas(
        vol, params, bc, int(cfg.get("seed", 0)), probes.MCMC_REPLICAS,
        lambda st: mcmc.estimate(st, obs, n_sweeps, burn_in, rule=rule)))
    return {"L": L, "beta": beta, "mean_spin_origin": est.mean,
            "stderr": est.stderr, "tau": est.tau, "n_samples": est.n_samples}


def run_config(cfg: dict, workers: int = 1) -> dict:
    """Execute a validated config; returns the full result record.  Input
    that the subcommand rejects (a ValueError) raises ConfigError."""
    t0 = time.time()
    try:
        rows, extra = _run_subcommand(cfg, workers)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{cfg['subcommand']}: {err}") from err
    return {"config": cfg, "tool_version": __version__, "seed": int(cfg.get("seed", 0)),
            "rows": rows, "wall_clock_s": time.time() - t0, **extra}


def _run_subcommand(cfg: dict, workers: int) -> tuple:
    sub = cfg["subcommand"]
    rows, extra = [], {}

    if sub in ("enumerate", "sample"):
        _, Ls, betas, _, _, _ = _model_pieces(cfg)
        points = [(cfg, L, beta) for L in Ls for beta in betas]
        fn = _point_enumerate if sub == "enumerate" else _point_sample
        if workers > 1 and len(points) > 1:
            from concurrent.futures import ProcessPoolExecutor   # only a pool needs it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(fn, points))
        else:
            rows = [fn(p) for p in points]

    elif sub == "landau":
        pblock = cfg.get("probe", {})
        alpha = float(pblock.get("alpha", cfg.get("model", {})
                                 .get("coupling", {}).get("alpha", 1.5)))
        Ls = [int(v) for v in _as_ladder(cfg.get("model", {}).get("L", [8, 16, 32, 64, 128]),
                                         "model.L")]
        for L in Ls:
            rows.append({"L": L, "droplet_cost": contours.landau_excess_sum(alpha, L),
                         "excess_energy": model.excess_energy(
                             model.Volume(1, L), model.PowerLaw(1.0, alpha))})
        extra["fitted_exponent"] = contours.landau_exponent_fit(alpha, Ls)
        extra["expected_exponent"] = 2.0 - alpha

    elif sub == "interface":
        dim, Ls, betas, coupling, field, _ = _model_pieces(cfg)
        vol = model.Volume(1, Ls[0])
        params = _params(vol, betas[0], coupling, field)
        law = exact.interface_distribution(vol, params)
        rows = [{"theta": t, "mass": p} for t, p in zip(law.grid, law.masses)]

    elif sub == "contours":
        text = cfg.get("probe", {}).get("configuration")
        if text is None:
            raise ConfigError("probe.configuration: serialized configuration required")
        vol, config = contours.parse_configuration(text)
        fam = contours.triangles(vol, config, model.plus_bc())
        rec = contours.reconstruct(vol, fam, model.plus_bc())
        extra["family"] = contours.serialize_family(fam)
        extra["round_trip_ok"] = bool(np.array_equal(rec, config))

    elif sub.startswith("probe."):
        rows, extra = _run_probe(cfg, sub.split(".", 1)[1])

    elif sub == "verify":
        results = verify.run_checks(quick=bool(cfg.get("probe", {}).get("quick")))
        rows = [{"check": name, "ok": ok, "detail": detail}
                for name, ok, detail in results]
        extra["all_ok"] = all(ok for _, ok, _ in results)
    return rows, extra


def _run_probe(cfg: dict, which: str) -> tuple:
    mblock = cfg.get("model", {})
    pblock = cfg.get("probe", {})
    sblock = cfg.get("sampler", {})
    method = cfg.get("method", "exact")
    seed = int(cfg.get("seed", 0))
    alpha = float(pblock.get("alpha", mblock.get("coupling", {}).get("alpha", 1.5)))
    beta = float(_as_ladder(mblock.get("beta", 1.0), "model.beta")[0])
    L = int(_as_ladder(mblock.get("L", 2), "model.L")[0])
    kwargs = {}
    if method == "mcmc":
        kwargs = {"n_sweeps": int(sblock.get("n_sweeps", 20_000)),
                  "burn_in": int(sblock.get("burn_in", 2_000))}

    if which == "decimation":
        report = probes.decimation_probe(alpha, beta, L, method=method, seed=seed, **kwargs)
    elif which == "g":
        report = probes.g_probe(alpha, beta, L, method=method, seed=seed,
                                N=pblock.get("N"), n=pblock.get("n"), **kwargs)
    elif which == "wetting":
        report = probes.wetting_probe(alpha, beta, L, int(pblock.get("N", 2048)),
                                      method=method, seed=seed, **kwargs)
    elif which == "rigidity":
        vertical = mblock.get("coupling", {}).get("vertical", "nn")
        report = probes.rigidity_check(
            float(mblock.get("coupling", {}).get("alpha1", alpha)),
            vertical if vertical == "nn" else float(vertical),
            beta, L, method=method, seed=seed, **kwargs)
    elif which == "shift":
        D, slope = probes.dobrushin_shift_energy(alpha, int(pblock.get("L", 2048)))
        return ([{"alpha": alpha, "bound": D, "fitted_exponent": slope}],
                {"expected_exponent": 3.0 - alpha})
    elif which == "gs-step":
        value, tail = probes.gs_step_energy(alpha, int(pblock.get("R", 256)))
        return [{"alpha": alpha, "value": value, "tail_bound": tail}], {}
    elif which == "percus":
        out = probes.percus_transform(
            model.AnisotropicAxes(float(mblock.get("coupling", {}).get("alpha1", alpha)),
                                  "nn"),
            model.Volume(2, L))
        return ([], {"identity_table_ok": out["identity_table_ok"],
                     "couplings_nonnegative": out["couplings_nonnegative"],
                     "min_coefficient": out["min_coefficient"],
                     "hamiltonian_deviation": out["hamiltonian_deviation"]})
    else:
        raise ConfigError(f"probe: unknown probe '{which}'")

    rows = [{"scalar": k, **v.as_dict()} for k, v in sorted(report.scalars.items())]
    return rows, {"verdicts": report.verdicts, "probe_params": report.params}


# ---------------------------------------------------------------------------
# argparse front end


def _add_common(sp):
    sp.add_argument("--config", help="JSON experiment config")
    sp.add_argument("--seed", type=int, default=None, help="master seed")
    sp.add_argument("--workers", type=int, default=1, help="ladder-point workers")
    sp.add_argument("--out", default=None, help="results JSONL path")
    sp.add_argument("--format", choices=("json", "csv", "both"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="longrange-ising",
        description="Long-range Ising toolkit: exact oracles, samplers, probes.")
    ap.add_argument("--explain", action="store_true",
                    help="print an annotated config template and exit")
    sub = ap.add_subparsers(dest="command")

    for name in ("enumerate", "sample", "landau", "interface", "contours"):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.add_argument("--L", type=int, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--beta", type=float, default=None)
        sp.add_argument("--bc", default=None)
        if name == "contours":
            sp.add_argument("--decompose", default=None,
                            help="file with a serialized configuration")

    sp = sub.add_parser("probe")
    sp.add_argument("which", choices=("decimation", "g", "wetting", "shift",
                                      "gs-step", "percus", "rigidity"))
    _add_common(sp)
    sp.add_argument("--L", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--method", choices=("exact", "mcmc"), default=None)

    sp = sub.add_parser("verify")
    _add_common(sp)
    sp.add_argument("--quick", action="store_true")

    sp = sub.add_parser("run")
    _add_common(sp)
    return ap


def _flags_to_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file: invalid JSON at line {err.lineno}: "
                                  f"{err.msg}") from err
    command = args.command
    if command == "probe":
        cfg.setdefault("subcommand", f"probe.{args.which}")
    elif command != "run":
        cfg.setdefault("subcommand", command)
    elif "subcommand" not in cfg:
        raise ConfigError("run: config must carry a 'subcommand'")

    mblock = cfg.setdefault("model", {})
    if getattr(args, "L", None) is not None:
        mblock["L"] = args.L
    if getattr(args, "beta", None) is not None:
        mblock["beta"] = args.beta
    if getattr(args, "alpha", None) is not None:
        cfg.setdefault("probe", {})["alpha"] = args.alpha
        mblock.setdefault("coupling", {"family": "power_law", "J": 1.0,
                                       "alpha": args.alpha})
    if getattr(args, "bc", None):
        cfg["bc"] = {"name": args.bc}
    if getattr(args, "N", None) is not None:
        cfg.setdefault("probe", {})["N"] = args.N
    if getattr(args, "method", None):
        cfg["method"] = args.method
    if getattr(args, "quick", False):
        cfg.setdefault("probe", {})["quick"] = True
    if getattr(args, "decompose", None):
        with open(args.decompose, "r", encoding="utf-8") as fh:
            cfg.setdefault("probe", {})["configuration"] = fh.read()
    if args.seed is not None:
        cfg["seed"] = args.seed
    if not mblock:
        del cfg["model"]
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.explain:
        print(json.dumps(TEMPLATE, indent=2))
        return 0
    if not args.command:
        ap.print_help()
        return 0
    try:
        cfg = validate_config(_flags_to_config(args))
        record = run_config(cfg, workers=args.workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3

    out = args.out or cfg.get("out")
    if out:
        append_record(out, record)
        if args.format in ("csv", "both"):
            emit_csv(os.path.splitext(out)[0] + ".csv", record["rows"])
    else:
        display = dict(record)
        print(canonical_json(display))

    if cfg["subcommand"] == "verify":
        for row in record["rows"]:
            print(f"{row['check']:<26} {'PASS' if row['ok'] else 'FAIL'}  "
                  f"{row['detail']}", file=sys.stderr)
        if not record["all_ok"]:
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
