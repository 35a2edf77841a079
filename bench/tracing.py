"""Outside-in layer trace: timing wrappers around the toolkit's public
functions, installed with ``setattr`` from the benchmark's own files.

Calls inside a module resolve through the module dict, so wrapping the
attribute catches intra-module calls too.  Each wrapped call records a span
(name, parent span, job id, start, end, in process CPU seconds) in memory;
self time is a span's duration minus the time its child spans cover.  Counters ride on the same
boundaries: enumerated configurations, site updates and accepted flips,
boundary-field cache hits, sampler duplicates, store bytes re-read, energy
drift at resync.  ``restore`` puts every original function back.
"""

from __future__ import annotations

import collections
import functools
import inspect
import os
import tracemalloc

from harness import CLOCK
from longrange_ising import cli, contours, exact, mcmc, model, probes, verify

#: Functions wrapped with a span, by module.
SPANNED = {
    model: ("boundary_field_vector", "hurwitz_tail", "coupling_matrix", "log_partition"),
    exact: ("conditional_site_means", "conditional_expectation", "expectation",
            "interface_distribution", "dlr_consistency_check"),
    mcmc: ("sampler_new", "sweep", "estimate", "estimate_site_means"),
    contours: ("interface_point", "triangles", "reconstruct", "removal_cost",
               "group_contours"),
    probes: ("decimation_probe", "g_probe", "wetting_probe", "rigidity_check",
             "percus_transform", "past_field", "dobrushin_shift_energy"),
    verify: ("run_checks",),
    cli: ("run_config", "append_record"),
}

#: Enumeration entry points measured with tracemalloc (outermost call only).
ENUMERATION_ENTRIES = {"model.log_partition", "exact.conditional_site_means",
                       "exact.conditional_expectation"}

ESTIMATORS = ("mcmc.estimate", "mcmc.estimate_site_means")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counters for one traced pass; inactive outside job calls,
    so output checks leave no spans."""

    def __init__(self):
        self.spans = []                 # [name, parent, job, t0, t1]
        self.stack = []
        self.job = -1
        self.active = False
        self.counts = collections.Counter()
        self.configs_by_span = collections.Counter()
        self.sweeps = collections.defaultdict(lambda: [0, 0.0])   # n_sites -> [updates, s]
        self.taus = []
        self.drifts = []
        self.field_misses = []          # (n_sites, seconds) of cache-missing builds
        self.peak_bytes = 0
        self.sampler_keys = set()
        self._saved = []
        self._malloc_depth = 0
        self._field_cache = model.boundary_field_vector
        self._sampler_signature = inspect.signature(mcmc.sampler_new)

    # -- job boundaries --------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.active = True

    def end_job(self) -> None:
        self.active = False

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "model.boundary_field_vector": self._field_hook,
            "mcmc.sweep": self._sweep_hook,
            "mcmc.sampler_new": self._sampler_hook,
            "mcmc.estimate": self._estimate_hook,
            "mcmc.estimate_site_means": self._estimate_hook,
            "cli.append_record": self._store_hook,
        }
        for module, names in SPANNED.items():
            for attr in names:
                name = f"{_short(module)}.{attr}"
                self._replace(module, attr, self._spanned(name, getattr(module, attr),
                                                          hooks.get(name)))
        for module in (model, exact):
            self._replace(module, "iter_spin_blocks",
                          self._counted_blocks(module.iter_spin_blocks))
        self._replace(mcmc.SamplerState, "resync", self._checked_resync(mcmc.SamplerState.resync))
        self._replace(verify, "CHECKS", [
            (name, quick, self._spanned(f"verify.check.{name}", fn, None))
            for name, quick, fn in verify.CHECKS])

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, orig, hook):
        tracer = self
        measure_malloc = name in ENUMERATION_ENTRIES

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            span = [name, tracer.stack[-1] if tracer.stack else -1, tracer.job,
                    CLOCK(), 0.0]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            token = hook(args, kwargs, None, None) if hook else None
            if measure_malloc:
                tracer._malloc_enter()
            try:
                result = orig(*args, **kwargs)
                if hook:
                    hook(args, kwargs, result, token)
                return result
            finally:
                if measure_malloc:
                    tracer._malloc_exit()
                tracer.stack.pop()
                span[4] = CLOCK()

        return traced

    def _malloc_enter(self) -> None:
        self._malloc_depth += 1
        if self._malloc_depth == 1:
            tracemalloc.start()

    def _malloc_exit(self) -> None:
        self._malloc_depth -= 1
        if self._malloc_depth == 0:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _counted_blocks(self, orig):
        tracer = self

        @functools.wraps(orig)
        def counted(n_sites, *args, **kwargs):
            owner = tracer.spans[tracer.stack[-1]][0] if tracer.active and tracer.stack else None
            for start, S in orig(n_sites, *args, **kwargs):
                if owner is not None:
                    tracer.counts["exact.configs"] += S.shape[0]
                    tracer.configs_by_span[owner] += S.shape[0]
                yield start, S

        return counted

    def _checked_resync(self, orig):
        tracer = self

        @functools.wraps(orig)
        def resync(state):
            in_chain = tracer.active and tracer.stack and \
                tracer.spans[tracer.stack[-1]][0] in ESTIMATORS
            before = state.energy
            orig(state)
            if in_chain:
                tracer.drifts.append(abs(before - state.energy))

        return resync

    # -- hooks: called once before the call (result None) and once after --

    def _field_hook(self, args, kwargs, result, token):
        hits = self._field_cache.cache_info().hits
        if token is None:
            return (hits, CLOCK())
        self.counts["field.calls"] += 1
        if hits > token[0]:
            self.counts["field.hits"] += 1
        else:
            self.field_misses.append((args[0].n_sites, CLOCK() - token[1]))
        return None

    def _sweep_hook(self, args, kwargs, result, token):
        state = args[0]
        if token is None:
            return state.config.copy(), CLOCK()
        acc = self.sweeps[state.vol.n_sites]
        acc[0] += state.free_index.size
        acc[1] += CLOCK() - token[1]
        self.counts["mcmc.flips"] += int((token[0] != state.config).sum())
        return None

    def _sampler_hook(self, args, kwargs, result, token):
        if token is not None:
            return None
        bound = self._sampler_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        frozen = tuple(sorted((repr(s), v) for s, v in (a["frozen"] or {}).items()))
        key = (a["vol"], a["params"], a["bc"], a["seed"], a["initial"], frozen)
        self.counts["mcmc.chains"] += 1
        if key in self.sampler_keys:
            self.counts["mcmc.duplicate_chains"] += 1
        self.sampler_keys.add(key)
        return True

    def _estimate_hook(self, args, kwargs, result, token):
        if token is None:
            return True
        if isinstance(result, dict):
            self.taus.append(max(e.tau for e in result.values()))
        else:
            self.taus.append(result.tau)
        return None

    def _store_hook(self, args, kwargs, result, token):
        if token is None:
            path = args[0] if args else kwargs["path"]
            self.counts["cli.store_bytes_read"] += os.path.getsize(path) \
                if os.path.exists(path) else 0
            return True
        return None

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start_s,end_s\n")
            for i, (name, parent, job, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{job},{name},{t0:.9f},{t1:.9f}\n")

    def span_table(self) -> dict:
        """name -> [calls, inclusive s, self s]."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[i]
        return table

    def job_span_seconds(self, job_id: int, name: str) -> float:
        return sum(t1 - t0 for n, _, job, t0, t1 in self.spans if job == job_id and n == name)


# ---------------------------------------------------------------------------
# per-layer metrics

PROBES = ("decimation_probe", "g_probe", "wetting_probe", "rigidity_check",
          "percus_transform", "past_field", "dobrushin_shift_energy")

QUICK_CHECKS = [name for name, quick, _ in verify.CHECKS if quick]

#: Reference sizes timed by the reference pass: metric -> span read from it.
REFERENCE_SPANS = {
    "model.field_vector_s.1d-L2048": "model.boundary_field_vector",
    "model.field_vector_s.2d-iso-L8": "model.boundary_field_vector",
    "exact.log_partition_s.n17": "model.log_partition",
    "exact.log_partition_s.n21": "model.log_partition",
    "exact.log_partition_s.n23": "model.log_partition",
    "exact.site_means_s.n17": "exact.conditional_site_means",
    "exact.site_means_s.n21": "exact.conditional_site_means",
    "exact.site_means_s.n23": "exact.conditional_site_means",
    "contours.interface_law_s.L6": "exact.interface_distribution",
}

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_SPECS = (
    [("model.boundary_field_vector.self_s", "s", "lower"),
     ("model.boundary_field_vector.sites_per_s", "sites/s", "higher"),
     ("model.boundary_field_vector.cache_hit_ratio", "ratio", "higher"),
     ("model.hurwitz_tail.calls", "count", "lower"),
     ("model.hurwitz_tail.self_s", "s", "lower"),
     ("model.field_vector_s.1d-L2048", "s", "lower"),
     ("model.field_vector_s.2d-iso-L8", "s", "lower"),
     ("model.coupling_matrix.self_s", "s", "lower"),
     ("model.log_partition.self_s", "s", "lower"),
     ("model.log_partition.configs_per_s", "configs/s", "higher"),
     ("exact.configs", "count", "lower"),
     ("exact.configs_per_s", "configs/s", "higher"),
     ("exact.conditional_site_means.self_s", "s", "lower"),
     ("exact.conditional_expectation.self_s", "s", "lower")]
    + [(f"exact.{kind}_s.n{n}", "s", "lower")
       for kind in ("log_partition", "site_means") for n in (17, 21, 23)]
    + [("exact.peak_bytes", "bytes", "lower"),
       ("exact.interface_distribution.self_s", "s", "lower"),
       ("mcmc.site_updates", "count", "lower"),
       ("mcmc.updates_per_s", "updates/s", "higher"),
       ("mcmc.updates_per_s.n7", "updates/s", "higher"),
       ("mcmc.updates_per_s.n33", "updates/s", "higher"),
       ("mcmc.updates_per_s.n289", "updates/s", "higher"),
       ("mcmc.acceptance_ratio", "ratio", "higher"),
       ("mcmc.tau_int_mean", "sweeps", "lower"),
       ("mcmc.sampler_new.self_s", "s", "lower"),
       ("mcmc.estimate.self_s", "s", "lower"),
       ("mcmc.sampler_new.duplicate_ratio", "ratio", "lower"),
       ("mcmc.resync_drift_max", "energy", "lower"),
       ("contours.interface_point.calls", "count", "lower"),
       ("contours.interface_point.self_s", "s", "lower"),
       ("contours.interface_point.per_s", "calls/s", "higher"),
       ("contours.interface_law_s.L6", "s", "lower"),
       ("contours.triangles.self_s", "s", "lower"),
       ("contours.reconstruct.self_s", "s", "lower"),
       ("contours.removal_cost.self_s", "s", "lower")]
    + [(f"probes.{p}.self_s", "s", "lower") for p in PROBES]
    + [(f"verify.check_s.{name}", "s", "lower") for name in QUICK_CHECKS]
    + [("verify.run_checks_s", "s", "lower"),
       ("cli.run_config.self_s", "s", "lower"),
       ("cli.append_record.self_s", "s", "lower"),
       ("cli.append_record.bytes_read", "bytes", "lower"),
       ("trace.jobs_per_s", "jobs/s", "higher"),
       ("trace.untraced_jobs_per_s", "jobs/s", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, reference: dict, traced_rate: float,
                  untraced_rate: float) -> dict:
    """Every per-layer metric of LAYER_SPECS from one traced pass.

    `reference` maps each REFERENCE_SPANS metric to the job id of the
    reference call that measures it.
    """
    table = tracer.span_table()

    def calls(name):
        return table[name][0] if name in table else 0

    def inclusive(name):
        return table[name][1] if name in table else 0.0

    def self_s(name):
        return table[name][2] if name in table else 0.0

    m = {}
    field_calls = tracer.counts["field.calls"]
    m["model.boundary_field_vector.self_s"] = self_s("model.boundary_field_vector")
    m["model.boundary_field_vector.sites_per_s"] = _ratio(
        sum(n for n, _ in tracer.field_misses), sum(s for _, s in tracer.field_misses))
    m["model.boundary_field_vector.cache_hit_ratio"] = _ratio(
        tracer.counts["field.hits"], field_calls)
    m["model.hurwitz_tail.calls"] = calls("model.hurwitz_tail")
    m["model.hurwitz_tail.self_s"] = self_s("model.hurwitz_tail")
    m["model.coupling_matrix.self_s"] = self_s("model.coupling_matrix")
    m["model.log_partition.self_s"] = self_s("model.log_partition")
    m["model.log_partition.configs_per_s"] = _ratio(
        tracer.configs_by_span["model.log_partition"], self_s("model.log_partition"))
    m["exact.configs"] = tracer.counts["exact.configs"]
    m["exact.configs_per_s"] = _ratio(
        sum(tracer.configs_by_span.values()),
        sum(self_s(name) for name in tracer.configs_by_span))
    m["exact.conditional_site_means.self_s"] = self_s("exact.conditional_site_means")
    m["exact.conditional_expectation.self_s"] = self_s("exact.conditional_expectation")
    for metric, span in REFERENCE_SPANS.items():
        m[metric] = tracer.job_span_seconds(reference[metric], span)
    m["exact.peak_bytes"] = tracer.peak_bytes
    m["exact.interface_distribution.self_s"] = self_s("exact.interface_distribution")

    updates = sum(u for u, _ in tracer.sweeps.values())
    m["mcmc.site_updates"] = updates
    m["mcmc.updates_per_s"] = _ratio(updates, sum(s for _, s in tracer.sweeps.values()))
    for n in (7, 33, 289):
        u, s = tracer.sweeps.get(n, (0, 0.0))
        m[f"mcmc.updates_per_s.n{n}"] = _ratio(u, s)
    m["mcmc.acceptance_ratio"] = _ratio(tracer.counts["mcmc.flips"], updates)
    m["mcmc.tau_int_mean"] = _ratio(sum(tracer.taus), len(tracer.taus))
    m["mcmc.sampler_new.self_s"] = self_s("mcmc.sampler_new")
    m["mcmc.estimate.self_s"] = self_s("mcmc.estimate")
    m["mcmc.sampler_new.duplicate_ratio"] = _ratio(
        tracer.counts["mcmc.duplicate_chains"], tracer.counts["mcmc.chains"])
    m["mcmc.resync_drift_max"] = max(tracer.drifts, default=0.0)

    m["contours.interface_point.calls"] = calls("contours.interface_point")
    m["contours.interface_point.self_s"] = self_s("contours.interface_point")
    m["contours.interface_point.per_s"] = _ratio(
        calls("contours.interface_point"), inclusive("contours.interface_point"))
    for name in ("triangles", "reconstruct", "removal_cost"):
        m[f"contours.{name}.self_s"] = self_s(f"contours.{name}")
    for p in PROBES:
        m[f"probes.{p}.self_s"] = self_s(f"probes.{p}")
    for name in QUICK_CHECKS:
        m[f"verify.check_s.{name}"] = inclusive(f"verify.check.{name}")
    m["verify.run_checks_s"] = inclusive("verify.run_checks")
    m["cli.run_config.self_s"] = self_s("cli.run_config")
    m["cli.append_record.self_s"] = self_s("cli.append_record")
    m["cli.append_record.bytes_read"] = tracer.counts["cli.store_bytes_read"]
    m["trace.jobs_per_s"] = traced_rate
    m["trace.untraced_jobs_per_s"] = untraced_rate
    m["trace.overhead_ratio"] = _ratio(untraced_rate, traced_rate) - 1.0
    return m
