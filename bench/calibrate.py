"""Machine-speed calibration of job times.

On a shared host the CPU time of the same code moves with what other tenants
run on the same physical cores.  Each core switches, within a second,
between a fast state and one about 1.8x slower for CPython loops (a 2-vCPU
Xeon VM: a fixed loop took 8 ms or 15 ms, little in between), and the share
of time in the slow state changes from minute to minute: identical sampler
jobs spread 30 % between runs.  The benchmark therefore times two small
reference kernels of its own every EVERY_S of CPU time, from a profiling
timer, so inside long jobs as well as between jobs, and divides each job's
CPU time by the mean slow-down the kernels measured next to it:

* ``interp`` mirrors the sampler's single-site update loop (CPython bytecode,
  numpy scalar reads, ``Generator.random``, ``math.exp``, a small in-place
  row update): the cost regime of ``mcmc.sweep``, ``contours.interface_point``
  and the command-line plumbing;
* ``vector`` mirrors the enumeration kernels (an int8 spin block cast to
  float, a GEMM, an einsum, a log-sum-exp and a power sum over 10^4 terms):
  the cost regime of ``log_partition`` and the site means.

A factor is a kernel's CPU time over its nominal CPU time (``NOMINAL_S``,
about its fastest CPU time on that VM), so a calibrated time reads as CPU
seconds on that VM in its fast state.  The kernels are the benchmark's code,
not the toolkit's, so a change to the toolkit moves calibrated times as it
moves raw ones; each kernel first refills the caches that the interrupted
job emptied, so the job's footprint does not leak into its factor.  Each
job kind weighs the two factors by the share of its time spent in
interpreter-bound code (``interp_share``).
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics

import numpy as np

from harness import CLOCK

#: Nominal CPU seconds of one call of each kernel.
NOMINAL_S = {"interp": 0.00042, "vector": 0.00060}

#: CPU seconds between two calibrations.
EVERY_S = 0.025

_N = 16
_J = np.random.default_rng(1).random((_N, _N)) * 0.1
_H = np.random.default_rng(2).random(_N)
_BLOCK = (((np.arange(4096)[:, None] >> np.arange(_N)) & 1) * 2 - 1).astype(np.int8)
_KS = np.arange(1.0, 10001.0)


def interp_kernel(reps: int = 6) -> int:
    rng = np.random.default_rng(0)
    fields = np.zeros(_N)
    cfg = np.ones(_N, dtype=np.int8)
    flips = 0
    for _ in range(reps):
        for i in range(_N):
            s = cfg[i]
            h = fields[i]
            if rng.random() < math.exp(-0.1 * (1.0 + 2.0 * s * h) ** 2):
                cfg[i] = -s
                fields += 1e-9 * (-2 * s) * _J[i]
                flips += 1
    return flips


def vector_kernel(reps: int = 2) -> float:
    acc = 0.0
    for _ in range(reps):
        sf = _BLOCK.astype(np.float64)
        e = -0.5 * np.einsum("bi,bi->b", sf @ _J, sf) - sf @ _H
        top = e.max()
        acc += top + math.log(float(np.exp(e - top).sum()))
        acc += float(np.sum((_KS + 0.5) ** -1.5))
    return acc


KERNELS = {"interp": interp_kernel, "vector": vector_kernel}

#: Share of interpreter-bound time by job-name prefix; the first match wins.
#: Samplers, interface laws and contour walks are CPython loops; exact
#: enumeration is numpy blocks.  Field builds loop over sites in Python
#: around 10^4-term numpy power sums and sit between the two: the L=1024
#: builds of one run spent mostly in the slow state and of one spent mostly
#: in the fast state calibrated 5 % apart at the default share 0.5, against
#: 14 % apart at share 1 and 10 % at share 0.  The rest mixes both.
_INTERP_SHARE = (
    ("cli.sample", 1.0), ("canary/", 1.0), ("chain.", 1.0), ("cli.probe.rigidity/mcmc", 1.0),
    ("cli.probe.decimation/mcmc", 1.0), ("cli.probe.wetting/mcmc", 1.0),
    ("cli.interface", 1.0), ("contours.", 1.0), ("cli.contours", 1.0),
    ("log_partition", 0.0), ("site_means", 0.0), ("expectation", 0.0),
    ("cli.enumerate", 0.0), ("cli.probe.g", 0.0),
)


def interp_share(job_name: str) -> float:
    for prefix, share in _INTERP_SHARE:
        if job_name.startswith(prefix):
            return share
    return 0.5


def measure() -> dict:
    """Slow-down factor of each kernel, from one timed call of it after one
    untimed repetition.  Without that warm-up, calibrations that interrupted
    a job read slow-downs up to 2.7 against 1.8 between jobs, and calibrated
    sampler throughput rose 7 % as the machine slowed; with it, five
    sampler runs whose raw throughput spread 0.31 (IQR over median) gave a
    calibrated spread of 0.04."""
    factors = {}
    for name, kernel in KERNELS.items():
        kernel(1)                       # untimed: refills the caches a job left cold
        t0 = CLOCK()
        kernel()
        factors[name] = (CLOCK() - t0) / NOMINAL_S[name]
    return factors


def mean_interp(seconds: float) -> float:
    """Mean interpreter-bound slow-down over calls of the kernel that take
    ``seconds`` of CPU time together, outside any job."""
    factors = []
    t0 = CLOCK()
    while CLOCK() - t0 < seconds:
        t = CLOCK()
        interp_kernel()
        factors.append((CLOCK() - t) / NOMINAL_S["interp"])
    return statistics.fmean(factors)


class SpeedProbe:
    """Calibrations taken every EVERY_S of CPU time, inside jobs as well as
    between them, and the factor that applies to a job.

    A profiling timer (``ITIMER_PROF``, process CPU time) raises SIGPROF;
    the handler runs at the next bytecode boundary, times the kernels and
    books its own CPU time as a pause, which ``paused`` takes back out of the
    job that it interrupted.  Use as a context manager around the timed jobs.
    """

    def __init__(self):
        measure()                       # warm-up, not recorded
        self.times: list = []           # CPU time at the middle of each calibration
        self.factors: list = []
        self.pauses: list = []          # (start, end) CPU time of each calibration
        self._saved = None
        self._busy = False

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = CLOCK()
        factors = measure()
        t1 = CLOCK()
        self.times.append(0.5 * (t0 + t1))
        self.factors.append(factors)
        self.pauses.append((t0, t1))
        self._busy = False

    def _on_signal(self, signum, frame) -> None:
        self.calibrate()

    def __enter__(self):
        self.calibrate()
        self._saved = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._saved)
        self.calibrate()
        return False

    def paused(self, start: float, end: float) -> float:
        """CPU seconds of calibration inside [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(max(0.0, min(t1, end) - max(t0, start)) for t0, t1 in self.pauses[lo:hi])

    def factor(self, start: float, end: float, share: float) -> float:
        """Mean factors of the calibrations from the last one before
        [start, end] to the first one after it, weighed by the job's
        interpreter-bound share.  A mean, because the slow-down is
        two-valued: each calibration finds the core either shared or not, and
        the mean estimates the share of the time it was.  Only calibrations
        next to the job count: the core switches within a second, and a
        sampler job timed 30 times, with calibrations 50 ms apart, gave
        calibrated times with a 4 % CV this way against 8 % with every
        calibration within 1 s counted."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end) + 1, len(self.times))
        near = self.factors[lo:hi]
        f_interp = statistics.fmean(f["interp"] for f in near)
        f_vector = statistics.fmean(f["vector"] for f in near)
        return share * f_interp + (1.0 - share) * f_vector

    def summary(self) -> str:
        med = {k: statistics.fmean(f[k] for f in self.factors) for k in KERNELS}
        return (f"{len(self.factors)} calibrations, mean slow-down "
                f"interp {med['interp']:.3f} vector {med['vector']:.3f}")
