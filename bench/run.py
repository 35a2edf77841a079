"""Benchmark of the long-range Ising toolkit: one workload per run.

    python3 bench/run.py --workload exact-oracle --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the toolkit is imported from its
``src`` directory.  A run executes whole rounds of the workload's jobs as a
closed loop with one client until at least ``--seconds`` of job time have
passed, checks every job's output, and prints one line per metric followed
by a JSON result as the last line of standard output.  Every time is CPU
seconds of the thread that does the work (see ``harness.CLOCK``), divided
by the machine's slow-down, which reference kernels timed every 25 ms of CPU
time measure (see ``calibrate.py``).

``--trace 0`` reports the end-to-end metrics.  Throughput covers every round;
latency percentiles cover the first round (two for ``mcmc-chains``, see
``MIN_ROUNDS``), whose job mix is fixed, so they compare across commits
whatever the speed.  ``setup_s`` is the median calibrated CPU
time a fresh interpreter spends importing numpy and the toolkit and
generating the first round's inputs.

``--trace 1`` runs the first round under the layer trace, then a fixed
reference pass (ROADMAP item-1 sizes plus one small call into every layer),
and reports the per-layer metrics.  It then clears the toolkit's caches and
runs the same round untraced; the two rates give the tracing overhead, an
upper estimate since the untraced round runs in a warm process.  Spans are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed for setup_s.
SETUP_PROBES = 9

#: CPU seconds of calibration before and after each of them.
SETUP_CALIBRATION_S = 0.1

#: BLAS threads: one, so runs on a shared machine stay steady.
BLAS_THREADS = "1"

#: Rounds a run makes at least, and that the latency percentiles cover.  The
#: sampler's interpreter-bound jobs shift with co-tenant load on a scale of
#: tens of seconds (CPU time per job by up to 30 % between runs); two rounds
#: average over it.
MIN_ROUNDS = {"mcmc-chains": 2}


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path;
    exits with status 2 when the checkout has no toolkit sources."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "longrange_ising" / "__init__.py").is_file():
        print(f"no toolkit sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int) -> list:
    """CPU seconds a fresh interpreter spends from start until its first
    round of inputs is ready (and it exits), over SETUP_PROBES interpreters,
    each divided by the interpreter-bound slow-down calibrated just before
    and after it (start-up is mostly bytecode loading and execution).

    The benchmark process is pinned to one CPU meanwhile, and the probes
    inherit it, so the calibration measures the core the probe runs on: left
    free, 9 probes of one run gave calibrated times from 0.13 s to 0.36 s,
    pinned 0.19 s to 0.25 s."""
    import calibrate

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        calibrate.measure()             # warm-up
        times = []
        for _ in range(SETUP_PROBES):
            slow = calibrate.mean_interp(SETUP_CALIBRATION_S)
            before = _children_cpu()
            with subprocess.Popen(
                    [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                proc.wait(timeout=120)
            if line.strip() != "ready" or proc.returncode != 0:
                raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
            spent = _children_cpu() - before
            slow = 0.5 * (slow + calibrate.mean_interp(SETUP_CALIBRATION_S))
            times.append(spent / slow)
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def environment() -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:     # no /proc: the thread count stays unknown
        libs = []
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# runs


def run_round(jobs, tap, tracer=None, first_id=0) -> list:
    from harness import execute
    return [execute(job, tap, tracer, first_id + k) for k, job in enumerate(jobs)]


def calibrate_outcomes(outcomes, probe) -> None:
    """Take the calibrations' own time out of each job's seconds and set its
    calibrated seconds from the calibrations around it."""
    from calibrate import interp_share
    for o in outcomes:
        o.seconds -= probe.paused(o.start, o.end)
        o.calibrated = o.seconds / probe.factor(o.start, o.end, interp_share(o.name))


def untraced(workload: str, seed: int, seconds: float, tmp: str) -> tuple:
    import numpy as np

    import calibrate
    import harness
    import workloads

    tap = harness.ChainTap()
    tap.install()
    root = np.random.SeedSequence(seed)
    ctx = workloads.Context(os.path.join(tmp, "results.jsonl"))
    rounds, timed = [], 0.0
    min_rounds = MIN_ROUNDS.get(workload, 1)
    probe = calibrate.SpeedProbe()
    try:
        with probe:
            while len(rounds) < min_rounds or timed < seconds:
                outcomes = run_round(workloads.round_jobs(workload, root, len(rounds), ctx), tap)
                rounds.append(outcomes)
                timed += sum(o.seconds for o in outcomes)
    finally:
        tap.restore()
    every = [o for outcomes in rounds for o in outcomes]
    calibrate_outcomes(every, probe)
    total = sum(o.calibrated for o in every)
    first = [o.calibrated for outcomes in rounds[:min_rounds] for o in outcomes
             if not workloads.is_canary(o.name)]
    chain_jobs = [o for o in every if o.chains]
    p50 = statistics.median(first)
    tail, pct = harness.tail_latency(first)
    metrics = {
        "jobs_per_s": (len(every) / total, "jobs/s",
                       f"{len(every)} jobs in {len(rounds)} rounds, {total:.2f} calibrated s "
                       f"({sum(o.seconds for o in every):.2f} CPU s) of job time; "
                       f"{probe.summary()}"),
        "job_p50_s": (p50, "s", f"median of the {len(first)} jobs of the first "
                                f"{min_rounds} round(s), canaries left out"),
        "job_tail_s": (tail, "s", f"p{pct:.1f} of those {len(first)} jobs, 10 beyond it"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
                        "ru_maxrss of the workload process"),
        "eff_samples_per_s": (
            harness.effective_samples([c for o in chain_jobs for c in o.chains])
            / sum(o.calibrated for o in chain_jobs), "samples/s",
            f"{sum(len(o.chains) for o in chain_jobs)} chains in {len(chain_jobs)} jobs"),
    }
    return every, metrics


def clear_caches() -> None:
    """Empty the toolkit's module-level caches, as a fresh interpreter has them."""
    from longrange_ising import contours, model
    for fn in (model.coupling_matrix, model.boundary_field_vector, model.log_partition,
               model._half_row_sum, model._full_row_sum, contours.landau_excess_sum):
        fn.cache_clear()


def traced(workload: str, seed: int, tmp: str) -> tuple:
    import numpy as np

    import harness
    import tracing
    import workloads

    tap = harness.ChainTap()
    tap.install()
    tracer = tracing.Tracer()
    try:
        root = np.random.SeedSequence(seed)
        ctx = workloads.Context(os.path.join(tmp, "traced.jsonl"))
        jobs = workloads.round_jobs(workload, root, 0, ctx)
        tracer.install()
        try:
            timed = run_round(jobs, tap, tracer)
            reference, extra = {}, []
            ref_rng = np.random.default_rng(root.spawn(1)[0])
            for metric, job in workloads.reference_jobs(ctx, ref_rng):
                job_id = len(timed) + len(extra)
                extra.extend(run_round([job], tap, tracer, job_id))
                if metric:
                    reference[metric] = job_id
        finally:
            tracer.restore()
        clear_caches()
        plain = run_round(workloads.round_jobs(
            workload, np.random.SeedSequence(seed), 0,
            workloads.Context(os.path.join(tmp, "untraced.jsonl"))), tap)
    finally:
        tap.restore()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(str(spans_path))
    rate_plain = len(plain) / sum(o.seconds for o in plain)
    rate_traced = len(timed) / sum(o.seconds for o in timed)
    values = tracing.layer_metrics(tracer, reference, rate_traced, rate_plain)
    notes = {"trace.jobs_per_s": f"one traced round ({len(timed)} jobs)",
             "trace.untraced_jobs_per_s": "the same round, untraced",
             "trace.overhead_ratio": f"spans in {spans_path.relative_to(ROOT)}"}
    metrics = {name: (values[name], unit, notes.get(name, ""))
               for name, unit, _ in tracing.LAYER_SPECS}
    return plain + timed + extra, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        if args.trace:
            outcomes, metrics = traced(args.workload, args.seed, tmp)
        else:
            setup = measure_setup(args.workload, args.seed)
            outcomes, metrics = untraced(args.workload, args.seed, args.seconds, tmp)
            metrics["setup_s"] = (statistics.median(setup), "s",
                                  f"median calibrated CPU time of {len(setup)} fresh interpreters")
    failed = sum(not o.ok for o in outcomes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"  {'fail_ratio':<44} {failed / len(outcomes):>14.6g} failed/attempted"
          f"  ({failed} of {len(outcomes)} jobs)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<10}  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
