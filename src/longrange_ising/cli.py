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
from typing import NamedTuple

import numpy as np

from . import __version__, contours, exact, mcmc, model, probes, verify
from .util import CapacityError, canonical_json, format_float


class ConfigError(ValueError):
    """Invalid experiment configuration (field-level diagnostics in args)."""


# ---------------------------------------------------------------------------
# config schema (v1): a config is checked by parsing it (_parse)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return value


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return block[key]


def _choice(value, options, where: str) -> str:
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"{where}: unknown {value!r}, expected one of {sorted(options)}")
    return value


def _integer(value, where: str) -> int:
    """A JSON integer, or a float of integral value (never a bool)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer")
    return value


def _real(value, where: str) -> float:
    """A JSON number (never a bool) that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number")
    return float(value)


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string")
    return value


def _ladder(item):
    """Reader of one `item`, or of a non-empty list of them, as a list."""
    def read(value, where: str) -> list:
        return [item(v, where) for v in (value if isinstance(value, list) and value else [value])]
    return read


def _field(value, where: str):
    """One number for every site, or a list of one number per site."""
    return _ladder(_real)(value, where) if isinstance(value, list) else _real(value, where)


def _vertical(value, where: str):
    return value if value == "nn" else _real(value, where)


def _block(block, schema: dict, where: str) -> dict:
    """A JSON object whose keys are in `schema`, with each value read through
    its schema entry (None keeps the value as it is)."""
    unknown = _object(block, where).keys() - schema.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    prefix = "" if where == "top level" else where + "."
    return {k: v if schema[k] is None else schema[k](v, prefix + k)
            for k, v in block.items()}


_TOP = {"subcommand": None, "model": None, "bc": None, "method": None, "sampler": None,
        "probe": None, "seed": _integer, "out": _text}
_MODEL = {"dimension": _integer, "L": _ladder(_integer), "beta": _ladder(_real),
          "coupling": None, "field": _field}
_SAMPLER = {"n_sweeps": _integer, "burn_in": _integer, "rule": None}
_PROBE = {"N": _integer, "n": _integer, "alpha": _real, "R": _integer, "L": _integer,
          "quick": None, "configuration": _text}

#: family: the spec's class and its fields in argument order, each with its
#: reader and default (None: required)
_COUPLINGS = {
    "nn": (model.NearestNeighbor, {"J": (_real, 1.0)}),
    "power_law": (model.PowerLaw, {"J": (_real, 1.0), "alpha": (_real, None)}),
    "isotropic_mixed": (model.IsotropicMixed, {"J_nn": (_real, 0.0), "alpha": (_real, None)}),
    "anisotropic_axes": (model.AnisotropicAxes, {"alpha1": (_real, None),
                                                 "vertical": (_vertical, "nn")}),
}
# immutable, so every config that leaves them out shares them
_DEFAULT_COUPLING, _DEFAULT_BC = model.PowerLaw(1.0, 1.5), model.plus_bc()

_BC_NAMES = {"plus": model.plus_bc, "minus": model.minus_bc, "free": model.free_bc,
             "alternating": model.alternating_bc, "dobrushin1d": model.dobrushin1d_bc,
             "dobrushin2d": model.dobrushin2d_bc}

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


def parse_coupling(block) -> model.CouplingSpec:
    where = "model.coupling"
    family = _choice(_require(_object(block, where), "family", where), _COUPLINGS,
                     f"{where}.family")
    spec, fields = _COUPLINGS[family]
    c = _block(block, {"family": None, **{k: read for k, (read, _) in fields.items()}}, where)
    args = [_require(c, k, where) if d is None else c.get(k, d) for k, (_, d) in fields.items()]
    try:
        return spec(*args)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def parse_bc(block) -> model.BoundaryCondition:
    b = _block(block, {"name": None, "height": _integer}, "bc")
    name = _choice(_require(b, "name", "bc"), _BC_NAMES, "bc.name")
    if name == "dobrushin2d":
        return model.dobrushin2d_bc(b.get("height", 0))
    return _BC_NAMES[name]()


class _Parsed(NamedTuple):
    """A checked config, its model blocks built, its numbers typed."""

    vols: list          # one Volume per L of the ladder
    params: list        # one ModelParams per beta of the ladder
    bc: model.BoundaryCondition
    sampler: dict       # n_sweeps, burn_in and rule, defaults filled in
    probe: dict
    method: str
    seed: int


def _parse(cfg) -> _Parsed:
    """Every check of a config, made by building what a run reads; bad input
    raises ConfigError."""
    top = _block(cfg, _TOP, "top level")
    sub = _choice(_require(top, "subcommand", "top level"), _SUBCOMMANDS, "subcommand")
    method = _choice(top.get("method", "exact"), ("exact", "mcmc"), "method")
    seed = top.get("seed", 0)
    if seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    m = _block(top.get("model", {}), _MODEL, "model")
    default_L = [8, 16, 32, 64, 128] if sub == "landau" else [2] if sub.startswith("probe.") else [4]
    coupling = parse_coupling(m["coupling"]) if "coupling" in m else _DEFAULT_COUPLING
    try:            # the library's own checks of the model's values
        vols = [model.Volume(m.get("dimension", 1), L) for L in m.get("L", default_L)]
        params = [model.ModelParams(b, coupling, m.get("field")) for b in m.get("beta", [1.0])]
    except ValueError as err:
        raise ConfigError(f"model: {err}") from err
    sampler = {"n_sweeps": 20_000, "burn_in": 2_000, "rule": "metropolis",
               **_block(top.get("sampler", {}), _SAMPLER, "sampler")}
    probe = _block(top.get("probe", {}), _PROBE, "probe")
    bc = parse_bc(top["bc"]) if "bc" in top else _DEFAULT_BC
    return _Parsed(vols, params, bc, sampler, probe, method, seed)


def validate_config(cfg: dict) -> dict:
    """Check a config by parsing it as run_config does; returns it unchanged."""
    _parse(cfg)
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
                v = row.get(k)           # None: missing, or a null Z
                cells.append("" if v is None else format_float(v) if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# subcommand execution


def _check_field(vol: model.Volume, params: model.ModelParams) -> None:
    try:
        model.external_field_vector(vol, params)
    except ValueError as err:
        raise ConfigError(f"model.field: {err} ({vol.n_sites} sites)") from err


def _alpha(p: _Parsed) -> float:
    """probe.alpha, else the coupling's alpha, else 1.5."""
    return p.probe.get("alpha", getattr(p.params[0].coupling, "alpha", 1.5))


def _point(args):
    """One row of an enumerate or sample ladder."""
    sub, p, vol, params = args
    _check_field(vol, params)
    obs = exact.spin_observable(vol, 0 if vol.dimension == 1 else (0, 0))
    if sub == "enumerate":
        logZ = model.log_partition(vol, params, p.bc)
        with np.errstate(over="ignore"):
            Z = float(np.exp(logZ))
        return {"L": vol.half_width, "beta": params.beta, "log_Z": logZ,
                "Z": Z if Z < np.inf else None,     # null past the largest double
                "mean_spin_origin": exact.expectation(vol, params, p.bc, obs)}
    est = mcmc.combine_estimates(mcmc.replicas(   # p.sampler: n_sweeps, burn_in, rule
        vol, params, p.bc, p.seed, probes.MCMC_REPLICAS,
        lambda st: mcmc.estimate(st, obs, **p.sampler)))
    return {"L": vol.half_width, "beta": params.beta, "mean_spin_origin": est.mean,
            "stderr": est.stderr, "tau": est.tau, "n_samples": est.n_samples}


def run_config(cfg: dict, workers: int = 1) -> dict:
    """Execute a config; returns the full result record.  Input that the
    subcommand rejects (a ValueError) raises ConfigError."""
    t0 = time.time()
    p = _parse(cfg)
    try:
        rows, extra = _run_subcommand(cfg["subcommand"], p, workers)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{cfg['subcommand']}: {err}") from err
    return {"config": cfg, "tool_version": __version__, "seed": p.seed,
            "rows": rows, "wall_clock_s": time.time() - t0, **extra}


def _run_subcommand(sub: str, p: _Parsed, workers: int) -> tuple:
    rows, extra = [], {}

    if sub in ("enumerate", "sample"):
        points = [(sub, p, vol, params) for vol in p.vols for params in p.params]
        if workers > 1 and len(points) > 1:
            from concurrent.futures import ProcessPoolExecutor   # only a pool needs it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_point, points))
        else:
            rows = [_point(point) for point in points]

    elif sub == "landau":
        alpha = _alpha(p)
        Ls = [vol.half_width for vol in p.vols]
        for L in Ls:
            rows.append({"L": L, "droplet_cost": contours.landau_excess_sum(alpha, L),
                         "excess_energy": model.excess_energy(
                             model.Volume(1, L), model.PowerLaw(1.0, alpha))})
        extra["fitted_exponent"] = contours.landau_exponent_fit(alpha, Ls)
        extra["expected_exponent"] = 2.0 - alpha

    elif sub == "interface":
        vol = model.Volume(1, p.vols[0].half_width)
        _check_field(vol, p.params[0])
        law = exact.interface_distribution(vol, p.params[0])
        rows = [{"theta": t, "mass": m} for t, m in zip(law.grid, law.masses)]

    elif sub == "contours":
        text = p.probe.get("configuration")
        if text is None:
            raise ConfigError("probe.configuration: serialized configuration required")
        vol, config = contours.parse_configuration(text)
        fam = contours.triangles(vol, config, model.plus_bc())
        rec = contours.reconstruct(vol, fam, model.plus_bc())
        extra["family"] = contours.serialize_family(fam)
        extra["round_trip_ok"] = bool(np.array_equal(rec, config))

    elif sub.startswith("probe."):
        rows, extra = _run_probe(p, sub.split(".", 1)[1])

    elif sub == "verify":
        results = verify.run_checks(quick=bool(p.probe.get("quick")))
        rows = [{"check": name, "ok": ok, "detail": detail}
                for name, ok, detail in results]
        extra["all_ok"] = all(ok for _, ok, _ in results)
    return rows, extra


def _run_probe(p: _Parsed, which: str) -> tuple:
    alpha, beta, L, pblock = _alpha(p), p.params[0].beta, p.vols[0].half_width, p.probe
    alpha1 = getattr(p.params[0].coupling, "horizontal_alpha", alpha)
    run = {"method": p.method, "seed": p.seed}
    if p.method == "mcmc":
        run.update(n_sweeps=p.sampler["n_sweeps"], burn_in=p.sampler["burn_in"])

    if which == "decimation":
        report = probes.decimation_probe(alpha, beta, L, **run)
    elif which == "g":
        report = probes.g_probe(alpha, beta, L, N=pblock.get("N"), n=pblock.get("n"), **run)
    elif which == "wetting":
        report = probes.wetting_probe(alpha, beta, L, pblock.get("N", 2048), **run)
    elif which == "rigidity":
        vertical = getattr(p.params[0].coupling, "vertical", "nn")
        report = probes.rigidity_check(alpha1, vertical, beta, L, **run)
    elif which == "shift":
        D, slope = probes.dobrushin_shift_energy(alpha, pblock.get("L", 2048))
        return ([{"alpha": alpha, "bound": D, "fitted_exponent": slope}],
                {"expected_exponent": 3.0 - alpha})
    elif which == "gs-step":
        value, tail = probes.gs_step_energy(alpha, pblock.get("R", 256))
        return [{"alpha": alpha, "value": value, "tail_bound": tail}], {}
    elif which == "percus":
        out = probes.percus_transform(model.AnisotropicAxes(alpha1, "nn"), model.Volume(2, L))
        return [], {k: out[k] for k in ("identity_table_ok", "couplings_nonnegative",
                                        "min_coefficient", "hamiltonian_deviation")}

    rows = [{"scalar": k, **v.as_dict()} for k, v in sorted(report.scalars.items())]
    return rows, {"verdicts": report.verdicts, "probe_params": report.params}


# ---------------------------------------------------------------------------
# argparse front end


def _add_common(sp, model_flags: bool = False):
    sp.add_argument("--config", help="JSON experiment config")
    sp.add_argument("--seed", type=int, default=None, help="master seed")
    sp.add_argument("--workers", type=int, default=1, help="ladder-point workers")
    sp.add_argument("--out", default=None, help="results JSONL path")
    sp.add_argument("--format", choices=("json", "csv", "both"), default="json")
    if model_flags:
        for flag, kind in (("--L", int), ("--alpha", float), ("--beta", float)):
            sp.add_argument(flag, type=kind, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="longrange-ising",
        description="Long-range Ising toolkit: exact oracles, samplers, probes.")
    ap.add_argument("--explain", action="store_true",
                    help="print an annotated config template and exit")
    sub = ap.add_subparsers(dest="command")

    for name in ("enumerate", "sample", "landau", "interface", "contours"):
        sp = sub.add_parser(name)
        _add_common(sp, model_flags=True)
        sp.add_argument("--bc", default=None)
        if name == "contours":
            sp.add_argument("--decompose", default=None,
                            help="file with a serialized configuration")

    sp = sub.add_parser("probe")
    sp.add_argument("which", choices=("decimation", "g", "wetting", "shift",
                                      "gs-step", "percus", "rigidity"))
    _add_common(sp, model_flags=True)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--method", choices=("exact", "mcmc"), default=None)

    sp = sub.add_parser("verify")
    _add_common(sp)
    sp.add_argument("--quick", action="store_true")

    sp = sub.add_parser("run")
    _add_common(sp)
    return ap


def _read_file(path: str, where: str, parse=str):
    """Read and parse a file named on the command line; failing that, a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{where}: invalid JSON at line {err.lineno}: {err.msg}") from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _flags_to_config(args) -> dict:
    cfg = _read_file(args.config, "config file", json.loads) if args.config else {}
    _object(cfg, "top level")

    def block(key):            # a flag writes into the config's own block
        return _object(cfg.setdefault(key, {}), key)

    command = args.command
    if command == "probe":
        cfg.setdefault("subcommand", f"probe.{args.which}")
    elif command != "run":
        cfg.setdefault("subcommand", command)
    elif "subcommand" not in cfg:
        raise ConfigError("run: config must carry a 'subcommand'")

    mblock = block("model")
    for key, where in (("L", "model"), ("beta", "model"), ("alpha", "probe"), ("N", "probe")):
        if getattr(args, key, None) is not None:
            block(where)[key] = getattr(args, key)
    if getattr(args, "alpha", None) is not None:
        mblock.setdefault("coupling", {"family": "power_law", "J": 1.0, "alpha": args.alpha})
    if getattr(args, "bc", None):
        cfg["bc"] = {"name": args.bc}
    if getattr(args, "method", None):
        cfg["method"] = args.method
    if getattr(args, "quick", False):
        block("probe")["quick"] = True
    if getattr(args, "decompose", None):
        block("probe")["configuration"] = _read_file(args.decompose, "--decompose")
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
