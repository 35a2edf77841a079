"""Closed-loop job execution, output gating and latency statistics.

A job is one user-level call into the toolkit plus a check of its output.
Jobs run one after another (a closed loop with a single client); a job's
latency covers the call only, and the check runs outside the timed interval.

Latencies are CPU seconds of the thread that runs the jobs (``CLOCK``).  The
toolkit is single-threaded and the benchmark pins BLAS to one thread, so this
is the process's CPU time, and on an idle machine its wall time.  The thread
clock stays exact while the calibration's profiling timer is armed, when the
process clock only advances at scheduler ticks (4 ms).  On a shared machine
CPU time leaves out the time other tenants take, which made wall-clock
latencies of identical jobs vary by 20-35 %, but it still drifts with the
host's load; the metrics therefore divide it by the machine's slow-down
measured while the jobs run (``calibrate.py``), and ``Outcome.calibrated``
holds that time.

A job fails when the call raises (``CapacityError`` included) or when its
check reports a problem; failed jobs are counted, never dropped.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from longrange_ising import CapacityError, mcmc

CLOCK = time.thread_time


@dataclass
class Job:
    """One user-level call and the check of its output.

    ``check(output, chains)`` returns None when the output is right and a
    one-line reason otherwise; ``chains`` holds what every Markov chain run
    inside the call returned (see ``ChainTap``).
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, list], Optional[str]]


@dataclass
class Outcome:
    name: str
    seconds: float
    problem: Optional[str]
    chains: list = field(default_factory=list)
    start: float = 0.0              # CLOCK at the call's start and end
    end: float = 0.0
    calibrated: float = 0.0         # seconds divided by the machine's slow-down

    @property
    def ok(self) -> bool:
        return self.problem is None


class ChainTap:
    """Records the estimates returned by ``mcmc.estimate`` and
    ``mcmc.estimate_site_means`` while a job runs.

    The wrapper only keeps a reference to the returned value; it adds no
    timing, so it stays installed in untraced runs.  The chains feed the
    4-sigma gates (integrated autocorrelation times) and the effective
    sample count.
    """

    def __init__(self):
        self.current: list = []
        self._saved = []

    def install(self) -> None:
        for attr in ("estimate", "estimate_site_means"):
            orig = getattr(mcmc, attr)
            self._saved.append((attr, orig))
            setattr(mcmc, attr, self._recording(orig))

    def _recording(self, orig):
        @functools.wraps(orig)
        def recorded(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.current.append(out)
            return out
        return recorded

    def restore(self) -> None:
        for attr, orig in reversed(self._saved):
            setattr(mcmc, attr, orig)
        self._saved.clear()


def chain_mixing(entry) -> tuple:
    """(n_samples, tau) of one chain, using its slowest-mixing observable."""
    if isinstance(entry, dict):
        ests = list(entry.values())
        return ests[0].n_samples, max(e.tau for e in ests)
    return entry.n_samples, entry.tau


def effective_samples(chains: list) -> float:
    """Sum over chains of n_samples / (2 tau_int)."""
    total = 0.0
    for entry in chains:
        n, tau = chain_mixing(entry)
        total += n / (2.0 * tau)
    return total


def execute(job: Job, tap: ChainTap = None, tracer=None, job_id: int = 0) -> Outcome:
    """Run one job, time its call, then check its output."""
    if tap is not None:
        tap.current = []
    if tracer is not None:
        tracer.begin_job(job_id)
    problem = None
    out = None
    t0 = CLOCK()
    try:
        out = job.call()
    except CapacityError as err:
        problem = f"capacity error: {err}"
    except Exception as err:  # a crashing job is a failed job, not an abort
        problem = f"raised {err!r}"
    t1 = CLOCK()
    seconds = t1 - t0
    if tracer is not None:
        tracer.end_job()
    chains = list(tap.current) if tap is not None else []
    if problem is None:
        try:
            problem = job.check(out, chains)
        except Exception as err:  # a check that crashes marks the output wrong
            problem = f"check raised {err!r}"
    if problem is not None:
        print(f"FAILED {job.name}: {problem}", file=sys.stderr)
    return Outcome(job.name, seconds, problem, chains, t0, t1)


# ---------------------------------------------------------------------------
# statistics


def tail_latency(seconds: list) -> tuple:
    """(latency, percentile) at the highest percentile that still has ten
    jobs above it; with fewer jobs, the fastest job's latency."""
    xs = sorted(seconds)
    n = len(xs)
    rank = max(n - 11, 0)
    return xs[rank], 100.0 * (rank + 1) / n


def within_sigmas(value: float, truth: float, stderr: float, variance: float,
                  chains: list) -> Optional[str]:
    """4-sigma gate of a sampled mean against its exact value.

    Sigma is the larger of the reported standard error and the error implied
    by the chains' integrated autocorrelation times and the exact variance,
    so a replica-scatter error from few replicas cannot make the gate tight.
    """
    n = sum(chain_mixing(c)[0] for c in chains)
    tau = sum(chain_mixing(c)[1] for c in chains) / len(chains) if chains else 0.5
    sigma = stderr
    if n:
        sigma = max(sigma, math.sqrt(max(variance, 0.0) * 2.0 * tau / n))
    sigma = max(sigma, 1e-12)
    miss = abs(value - truth)
    if miss > 4.0 * sigma:
        return f"sampled {value:.6f} vs exact {truth:.6f}: {miss / sigma:.1f} sigma"
    return None
