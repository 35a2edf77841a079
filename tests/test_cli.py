"""Experiment runner: schema validation, results store, determinism."""

import json
import math
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from longrange_ising import cli, verify
from longrange_ising.util import canonical_json, format_float

#: named configs, each malformed in one block or value; every one must end in
#: a config error (the CI workflow runs the same table through the CLI)
MALFORMED = json.loads((pathlib.Path(__file__).parent / "malformed_configs.json").read_text())


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "longrange_ising.cli"] + args,
                          capture_output=True, text=True, cwd=cwd)


# ---------------------------------------------------------------------------
# schema


def test_unknown_keys_rejected():
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.validate_config({"subcommand": "enumerate", "model": {"alpha_typo": 1}})


def test_missing_alpha_rejected():
    with pytest.raises(cli.ConfigError, match="alpha"):
        cli.validate_config({"subcommand": "enumerate",
                             "model": {"coupling": {"family": "power_law", "J": 1.0}}})


def test_unknown_subcommand_rejected():
    with pytest.raises(cli.ConfigError, match="subcommand"):
        cli.validate_config({"subcommand": "noodle"})


def test_bad_method_rejected():
    with pytest.raises(cli.ConfigError, match="method"):
        cli.validate_config({"subcommand": "enumerate", "method": "guess"})


def test_per_site_field_list_runs_and_bad_length_is_config_error(tmp_path):
    cfg = {"subcommand": "enumerate",
           "model": {"L": 1, "beta": 0.7, "field": [0.1, 0.2, 0.3]}}
    record = cli.run_config(cli.validate_config(cfg))
    assert math.isfinite(record["rows"][0]["log_Z"])
    cfg["model"]["L"] = 2
    with pytest.raises(cli.ConfigError, match="model.field"):
        cli.run_config(cli.validate_config(cfg))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["run", "--config", str(path)])
    assert res.returncode == 2 and "model.field" in res.stderr
    with pytest.raises(cli.ConfigError, match="model.field"):
        cli.validate_config({"subcommand": "enumerate", "model": {"field": "strong"}})


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_config_exits_2(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[name]))
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_valid_config_passes():
    cfg = {"subcommand": "probe.decimation",
           "model": {"L": 2, "beta": 4.0,
                     "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.5}},
           "method": "exact", "seed": 7}
    assert cli.validate_config(cfg) is cfg


# ---------------------------------------------------------------------------
# store


def test_append_only_and_quarantine(tmp_path):
    path = tmp_path / "results.jsonl"
    cli.append_record(str(path), {"a": 1.0})
    cli.append_record(str(path), {"b": 2.0})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"a": 1.0}
    # corrupt trailing partial line gets quarantined, not dropped
    with open(path, "a") as fh:
        fh.write('{"broken": tru')
    cli.append_record(str(path), {"c": 3.0})
    lines = path.read_text().splitlines()
    assert [json.loads(l) for l in lines] == [{"a": 1.0}, {"b": 2.0}, {"c": 3.0}]
    assert "broken" in (tmp_path / "results.jsonl.quarantine").read_text()


def _best_append_seconds(path, repeats=5):
    best = math.inf
    for i in range(repeats):
        t0 = time.perf_counter()
        cli.append_record(str(path), {"i": i})
        best = min(best, time.perf_counter() - t0)
    return best


def test_append_cost_does_not_grow_with_the_store(tmp_path):
    big = tmp_path / "big.jsonl"
    line = cli.canonical_json({"pad": "x" * 1000}).encode() + b"\n"
    with open(big, "wb") as fh:
        for _ in range(50):
            fh.write(line * ((1 << 20) // len(line) + 1))
    assert big.stat().st_size >= 50 << 20
    empty = _best_append_seconds(tmp_path / "empty.jsonl")
    full = _best_append_seconds(big)
    assert full < 10.0 * empty + 2e-3, (full, empty)
    with open(big, "rb") as fh:
        fh.seek(-200, 2)
        assert [json.loads(l) for l in fh.read().splitlines()[-5:]] == \
            [{"i": i} for i in range(5)]


def test_concurrent_appenders_keep_every_record(tmp_path):
    path = tmp_path / "shared.jsonl"
    code = ("import sys\nfrom longrange_ising import cli\n"
            "for i in range(200):\n"
            "    cli.append_record(sys.argv[1], {'proc': int(sys.argv[2]), 'i': i,"
            " 'pad': 'x' * 20000})\n")
    procs = [subprocess.Popen([sys.executable, "-c", code, str(path), str(p)])
             for p in range(2)]
    try:
        for proc in procs:
            assert proc.wait(timeout=120) == 0
    finally:
        for proc in procs:
            proc.kill()                  # a no-op once the process has exited
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(records) == 400
    for p in range(2):
        assert [r["i"] for r in records if r["proc"] == p] == list(range(200))
    assert not (tmp_path / "shared.jsonl.quarantine").exists()


def test_csv_and_json_share_formatting(tmp_path):
    record = {"rows": [{"x": 1, "value": 0.1234567890123456}]}
    out = tmp_path / "r.jsonl"
    cli.append_record(str(out), record)
    cli.emit_csv(str(tmp_path / "r.csv"), record["rows"])
    js = json.loads(out.read_text())
    csv_cell = (tmp_path / "r.csv").read_text().splitlines()[1].split(",")[0]
    assert float(csv_cell) == js["rows"][0]["value"]
    assert csv_cell == "1.234567890123e-01"


def _reference_canonicalize(obj):
    """canonical_json's tree walk as it was first written: the reference."""
    if isinstance(obj, dict):
        return {str(k): _reference_canonicalize(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonicalize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj) or math.isinf(obj):
            return str(obj)
        return float(format_float(float(obj)))
    return obj


def test_canonical_json_matches_the_reference_walk():
    interface = cli.run_config(cli.validate_config({
        "subcommand": "interface", "model": {"L": 4, "beta": 3.0}}))
    corpus = [
        interface,
        {"f": 0.1, "f32": np.float32(1 / 3), "f64": np.float64(2 / 3), "i64": np.int64(-7),
         "i8": np.int8(3), "b": True, "nb": np.bool_(False), "none": None, "s": "x"},
        [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf"), -0.0, 1e-300],
        (1, (2.5, [np.float64(1e300)]), {"t": (True, False)}),
        {3: "int key", "10": [1, 2], 2.5: {1: 0.1, "1": 0.2}, "a": {}, "z": []},
        {True: 1, "True": 2, None: 3},
    ]
    for obj in corpus:
        want = json.dumps(_reference_canonicalize(obj), sort_keys=True, separators=(",", ":"))
        assert canonical_json(obj) == want


# ---------------------------------------------------------------------------
# subcommands end to end


def test_enumerate_passthrough():
    cfg = cli.validate_config({
        "subcommand": "enumerate",
        "model": {"dimension": 1, "L": 1, "beta": math.log(2.0),
                  "coupling": {"family": "nn", "J": 1.0}},
        "bc": {"name": "free"},
    })
    record = cli.run_config(cfg)
    assert record["rows"][0]["Z"] == pytest.approx(12.5, rel=1e-12)


def test_enumerate_stores_null_for_a_Z_past_the_largest_double(tmp_path):
    # log Z = 794.6 > log(DBL_MAX) = 709.8; log_Z itself stays exact
    cfg = {"subcommand": "enumerate",
           "model": {"dimension": 2, "L": 1, "beta": 1.0,
                     "coupling": {"family": "power_law", "J": 0.7, "alpha": 2.05}},
           "bc": {"name": "plus"}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = cli.run_config(cli.validate_config(cfg))["rows"][0]
    assert row["Z"] is None and row["log_Z"] == pytest.approx(794.6, abs=0.05)
    assert '"Z":null' in canonical_json(row)
    path = tmp_path / "z.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["run", "--config", str(path)])
    assert res.returncode == 0 and json.loads(res.stdout)["rows"][0]["Z"] is None


def test_probe_decimation_matches_module(tmp_path):
    from longrange_ising import probes
    want = probes.decimation_probe(1.5, 4.0, 2).value("gap")
    cfg = cli.validate_config({
        "subcommand": "probe.decimation",
        "model": {"L": 2, "beta": 4.0,
                  "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.5}},
        "method": "exact",
    })
    record = cli.run_config(cfg)
    got = [r for r in record["rows"] if r["scalar"] == "gap"][0]["value"]
    assert got == pytest.approx(want, abs=1e-12)
    assert record["verdicts"]["gap_positive"]


def test_interface_subcommand_symmetric():
    cfg = cli.validate_config({
        "subcommand": "interface",
        "model": {"L": 4, "beta": 3.0,
                  "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.5}},
    })
    record = cli.run_config(cfg)
    masses = {row["theta"]: row["mass"] for row in record["rows"]}
    for t, v in masses.items():
        assert masses[-t] == pytest.approx(v, abs=1e-12)
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-12)


def test_ladder_fans_out():
    cfg = cli.validate_config({
        "subcommand": "enumerate",
        "model": {"dimension": 1, "L": [1, 2], "beta": [0.0, 1.0],
                  "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.5}},
        "bc": {"name": "plus"},
    })
    record = cli.run_config(cfg)
    assert len(record["rows"]) == 4
    assert record["rows"][0]["Z"] == pytest.approx(8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# process-level behavior


def test_ladder_workers_give_the_serial_rows(tmp_path):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({
        "subcommand": "enumerate",
        "model": {"dimension": 1, "L": [1, 2], "beta": 0.7,
                  "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.5}},
        "bc": {"name": "dobrushin1d"},
    }))
    rows = {}
    for workers in ("1", "2"):
        proc = run_cli(["run", "--config", str(path), "--workers", workers])
        assert proc.returncode == 0, proc.stderr
        rows[workers] = json.loads(proc.stdout)["rows"]
    assert len(rows["1"]) == 2
    assert rows["2"] == rows["1"]


def test_cli_import_leaves_the_process_pool_out():
    code = "import sys, longrange_ising.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"subcommand": "enumerate", "model": {"nope": 1}}')
    proc = run_cli(["run", "--config", str(bad)])
    assert proc.returncode == 2
    assert "nope" in proc.stderr

    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "subcommand": "enumerate",
        "model": {"dimension": 2, "L": 2, "beta": 1.0,
                  "coupling": {"family": "anisotropic_axes", "alpha1": 1.5}},
        "bc": {"name": "dobrushin2d"},
    }))
    proc = run_cli(["run", "--config", str(big)])
    assert proc.returncode == 3

    # out-of-range input raised inside a subcommand is a config error too
    cases = [["probe", "decimation", "--alpha", "2.5"], ["probe", "shift", "--alpha", "1.5"],
             ["probe", "gs-step", "--alpha", "1.5"], ["interface", "--L", "0"]]
    for i, text in enumerate(("abc", "0:+1\n1:+2", "0:+1\n-1:-1")):
        path = tmp_path / f"config{i}.txt"
        path.write_text(text)
        cases.append(["contours", "--decompose", str(path)])
    cases.append(["contours", "--decompose", str(tmp_path / "missing.txt")])
    # exterior rules of the other dimension
    for i, (model_block, bc) in enumerate((
            ({"dimension": 1, "L": 2}, "dobrushin2d"),
            ({"dimension": 2, "L": 1, "coupling": {"family": "nn"}}, "alternating"))):
        path = tmp_path / f"mismatch{i}.json"
        path.write_text(json.dumps({"subcommand": "enumerate", "model": model_block,
                                    "bc": {"name": bc}}))
        cases.append(["run", "--config", str(path)])
    for args in cases:
        proc = run_cli(args)
        assert proc.returncode == 2, args
        assert "config error" in proc.stderr, args


def test_cli_verify_quick_green():
    proc = run_cli(["verify", "--quick"])
    assert proc.returncode == 0
    assert "FAIL" not in proc.stderr


# verify --quick rows, detail strings included, as printed at commit a60c815:
# the `verify` record stays byte-identical while its checks get faster.  The
# kernel-normalization and interface-symmetry residuals are rounding of the
# enumeration kernel and move with its summation order; they are as printed
# by the three-block kernel.  The tail-crossover-doubling residual is rounding
# of the field builder; it is as printed since 2d isotropic exterior rows are
# summed as one ray of Poisson leading terms.
QUICK_ROWS = [
    ("kernel-normalization", True, "max |sum - 1| = 1.776e-15"),
    ("dlr-consistency", True, "max deviation = 2.220e-16"),
    ("spin-flip-symmetry", True, "max |H(s|w) - H(-s|-w)| = 0.000e+00"),
    ("tail-crossover-doubling", True, "max doubled-crossover shift = 4.441e-16"),
    ("triangle-bijection", True, "round-trip and injectivity hold (exhaustive, L <= 3)"),
    ("contour-grouping", True, "separation and order independence on 25 random families"),
    ("peierls-series", True, "closed form vs series: 6.939e-18"),
    ("droplet-exponents", True, "droplet-cost exponents within 0.05 of 2 - alpha"),
    ("detailed-balance", True, "max |pi P - pi' P'| = 1.041e-17"),
    ("interface-symmetry", True, "asymmetry 1.39e-16, mass defect 0.00e+00"),
    ("duplicate-transform", True, "identity True, min coeff 0.00e+00, H dev 7.11e-15"),
    ("gs-reflection", True, "off-axis residual = 0.000e+00"),
    ("annulus-bound", True, "L * N^(1-alpha) <= 1 at the returned radius"),
]


def test_verify_quick_rows_pinned():
    assert verify.run_checks(quick=True) == QUICK_ROWS


def test_cli_determinism_bytes(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "subcommand": "sample",
        "model": {"dimension": 1, "L": 2, "beta": 0.8,
                  "coupling": {"family": "power_law", "J": 1.0, "alpha": 1.7}},
        "bc": {"name": "plus"},
        "sampler": {"n_sweeps": 500, "burn_in": 50},
        "seed": 31,
    }))
    records = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        proc = run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0
        rec = json.loads(out.read_text())
        rec.pop("wall_clock_s")
        records.append(json.dumps(rec, sort_keys=True))
    assert records[0] == records[1]


def test_cli_explain():
    proc = run_cli(["--explain"])
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout


def test_cli_contours_decompose_round_trip(tmp_path):
    src = tmp_path / "cfg.txt"
    src.write_text("-2:+1\n-1:-1\n0:-1\n1:+1\n2:-1\n")
    proc = run_cli(["contours", "--decompose", str(src)])
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["round_trip_ok"]
    assert "-2.5" not in record["family"]      # no boundary-touching span here
