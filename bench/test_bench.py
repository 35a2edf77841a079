"""Tests of the benchmark itself: failures are counted, inputs follow the
seed, the trace is consistent, and BENCHMARK.json matches the code.

    python3 -m pytest bench -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import harness
import run
import tracing
import workloads
from longrange_ising import model

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(str(tmp_path / "results.jsonl"))


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _corrupted(job, corrupt):
    original = job.call
    job.call = lambda: corrupt(original())
    return job


def test_correct_outputs_pass(ctx):
    tap = harness.ChainTap()
    tap.install()
    try:
        jobs = [workloads.log_partition_job(ctx, _rng(), 9),
                workloads.interface_job(ctx, _rng(), 2, 0.0),
                workloads.sample_job(ctx, _rng(), 4, "metropolis")]
        outcomes = [harness.execute(job, tap) for job in jobs]
    finally:
        tap.restore()
    assert all(o.ok for o in outcomes), [o.problem for o in outcomes]


def test_corrupted_exact_output_is_a_failure(ctx):
    job = _corrupted(workloads.log_partition_job(ctx, _rng(), 9), lambda logz: logz - 1.0)
    assert not harness.execute(job).ok


def test_corrupted_record_is_a_failure(ctx):
    def skew(record):
        record["rows"][0]["mass"] += 1e-9
        return record

    outcome = harness.execute(_corrupted(workloads.interface_job(ctx, _rng(), 2, 1.0), skew))
    assert not outcome.ok and "asymmetry" in outcome.problem


def test_shifted_sample_is_a_failure(ctx):
    def shift(record):
        record["rows"][0]["mean_spin_origin"] += 0.5
        return record

    tap = harness.ChainTap()
    tap.install()
    try:
        outcome = harness.execute(
            _corrupted(workloads.sample_job(ctx, _rng(), 4, "metropolis"), shift), tap)
    finally:
        tap.restore()
    assert not outcome.ok and "sigma" in outcome.problem


def test_capacity_error_is_a_failure(ctx):
    direct = harness.execute(workloads.log_partition_job(ctx, _rng(), 25))
    via_cli = harness.execute(workloads.enumerate_job(ctx, _rng(), 25))
    for outcome in (direct, via_cli):
        assert not outcome.ok and outcome.problem.startswith("capacity error")


def test_inputs_follow_the_seed(tmp_path):
    def first_records(seed, store):
        c = workloads.Context(str(tmp_path / store))
        jobs = workloads.round_jobs("exact-oracle", np.random.SeedSequence(seed), 0, c)[:4]
        outs = []
        for job in jobs:
            out = job.call()
            if isinstance(out, dict) and "wall_clock_s" in out:
                out = {k: v for k, v in out.items() if k != "wall_clock_s"}
            outs.append(repr(out))
        return outs

    assert first_records(5, "a.jsonl") == first_records(5, "b.jsonl")
    assert first_records(5, "c.jsonl") != first_records(6, "d.jsonl")


def test_one_spawned_child_per_slot(ctx):
    root = np.random.SeedSequence(3)
    workloads.round_jobs("field-build", root, 0, ctx)
    assert root.n_children_spawned == len(workloads.WORKLOADS["field-build"](0))


def test_tail_latency_keeps_ten_beyond():
    values = list(range(1, 31))
    value, pct = harness.tail_latency(values)
    assert value == 20 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_calibration_runs_inside_long_jobs_and_is_taken_out():
    saved = signal.getsignal(signal.SIGPROF)
    probe = calibrate.SpeedProbe()
    with probe:
        t0 = harness.CLOCK()
        while harness.CLOCK() - t0 < 0.5:
            sum(range(1000))
        t1 = harness.CLOCK()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == saved
    assert sum(t0 < t < t1 for t in probe.times) >= 3
    assert 0.0 < probe.paused(t0, t1) < 0.5 * (t1 - t0)
    f_interp, f_vector = probe.factor(t0, t1, 1.0), probe.factor(t0, t1, 0.0)
    assert f_interp > 0.0 and f_vector > 0.0
    assert probe.factor(t0, t1, 0.25) == pytest.approx(0.25 * f_interp + 0.75 * f_vector)
    outcome = harness.Outcome("cli.sample/n7/metropolis", t1 - t0, None, start=t0, end=t1)
    run.calibrate_outcomes([outcome], probe)
    assert outcome.seconds == pytest.approx(t1 - t0 - probe.paused(t0, t1))
    assert outcome.calibrated == pytest.approx(outcome.seconds / f_interp)


def _traced_counts(store):
    ctx = workloads.Context(str(store))
    run.clear_caches()
    jobs = [workloads.site_means_job(ctx, _rng(1), 9),
            workloads.pair_chain_job(ctx, _rng(2), 0, "metropolis"),
            workloads.interface_job(ctx, _rng(3), 3),
            workloads.field_1d_job(ctx, _rng(4), 64, "alternating")[0]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = run.run_round(jobs, None, tracer)
    finally:
        tracer.restore()
    assert all(o.ok for o in outcomes), [o.problem for o in outcomes]
    return tracer


def test_trace_counts_repeat_and_functions_restore(tmp_path):
    originals = (model.log_partition, model.iter_spin_blocks, model.hurwitz_tail)
    first, second = _traced_counts(tmp_path / "a.jsonl"), _traced_counts(tmp_path / "b.jsonl")
    assert (model.log_partition, model.iter_spin_blocks, model.hurwitz_tail) == originals
    for tracer in (first, second):
        assert tracer.counts["exact.configs"] == 2 ** 9 + 2 ** 7
        assert all(t1 >= t0 for _, _, _, t0, t1 in tracer.spans)
        for calls, inclusive, self_s in tracer.span_table().values():
            assert -1e-9 <= self_s <= inclusive + 1e-9
    assert first.counts == second.counts
    assert first.sweeps.keys() == second.sweeps.keys()
    assert [u for u, _ in first.sweeps.values()] == [u for u, _ in second.sweeps.values()]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.LAYER_SPECS]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(u, b) for _, u, b in tracing.LAYER_SPECS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb", "eff_samples_per_s", "setup_s"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact-oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
