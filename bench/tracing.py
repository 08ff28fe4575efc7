"""Spans around the calls where one module of the package calls another.

For the traced run only, ``installed`` rebinds each target name from
outside the package to a wrapper that records a span, and restores the
original objects when the run ends.  Spans stay in memory until then.  A
span is (name, parent index or -1, start ns, end ns, work count); calls are
synchronous on one thread, so spans nest and a span's parent is the one
open when it started.
"""
from __future__ import annotations

import contextlib
import statistics
from time import perf_counter_ns

import numpy as np

import workloads
from diracstar import bessel, diagnostics, experiments, solver


def _cells(args, result) -> int:
    return sum(len(c) for c in args[0].chi)


def _history_level(args, result) -> int:
    return args[2]


def _kernel_samples(args, result) -> int:
    return len(result.samples) + len(result.i1_samples)


# (owner, attribute, span name, work count of one call or None)
TARGETS = (
    (workloads, "run_job", "job", None),
    (workloads, "load_config", "config.load", None),
    (workloads, "run_experiment", "experiments.run_experiment", None),
    (workloads, "sweep_alpha1", "experiments.sweep_alpha1", None),
    (experiments, "run", "experiments.run", None),
    (bessel.BesselKernel, "build", "bessel.kernel_build", _kernel_samples),
    (solver, "build_initial_field", "solver.init_field", None),
    (solver, "step", "solver.step", _cells),
    (solver, "_history_convolution", "boundaries.conv", _history_level),
    (solver.SpinorField, "max_abs", "solver.guard", None),
    (diagnostics, "compute_record", "diagnostics.record", None),
    (diagnostics, "node_profile", "diagnostics.snapshot", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, parent, t0, perf_counter_ns(), 0)
                open_.pop()
                raise
            t1 = perf_counter_ns()
            open_.pop()
            spans[idx] = (name, parent, t0, t1, count(args, result) if count else 0)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            original = vars(owner).get(attr)
            if original is None:  # renamed or removed by a later version
                tracer.missing.append(name)
                continue
            saved.append((owner, attr, original))
            wrapper = tracer.wrap(name, getattr(owner, attr), count)
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def analyse(spans) -> dict:
    """Per-layer metrics, per-job work counts and self times of a trace.

    A span's self time is its duration less its children's durations, so
    the self times of all spans of a job add up to the job's duration.
    """
    name = [s[0] for s in spans]
    parent = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    child = [0] * len(spans)
    root = list(range(len(spans)))
    by_name: dict[str, list[int]] = {}
    for i, p in enumerate(parent):
        by_name.setdefault(name[i], []).append(i)
        if p >= 0:
            child[p] += dur[i]
            root[i] = root[p]
    self_ns = [d - c for d, c in zip(dur, child)]

    def idx(nm: str) -> list[int]:
        return by_name.get(nm, [])

    def mean_dur(members: list[int], unit_ns: float) -> float:
        return _mean([dur[i] for i in members]) / unit_ns

    jobs = idx("job")
    per_job = max(len(jobs), 1)
    steps = idx("solver.step")
    step_ns = sum(dur[i] for i in steps)

    # a step's ordinal within its run places each convolution in a quarter
    ordinal, run_steps = {}, {}
    for i in steps:
        ordinal[i] = run_steps.get(parent[i], 0)
        run_steps[parent[i]] = ordinal[i] + 1
    conv = idx("boundaries.conv")
    conv_q1, conv_q4 = [], []
    for i in conv:
        if parent[i] in ordinal:
            k, total = ordinal[parent[i]], run_steps[parent[parent[i]]]
            if 4 * k < total:
                conv_q1.append(i)
            elif 4 * k >= 3 * total:
                conv_q4.append(i)
    guard = [i for i in idx("solver.guard") if parent[i] in ordinal]
    write = idx("experiments.run_experiment") + idx("experiments.sweep_alpha1")
    runs = idx("experiments.run")
    step_us = [dur[i] / 1e3 for i in steps]

    def share(members: list[int]) -> float:
        return sum(dur[i] for i in members) / step_ns if step_ns else 0.0

    metrics = {
        "solver.step_us_p50": (float(np.percentile(step_us, 50)) if steps else 0.0, "us"),
        "solver.step_us_p99": (float(np.percentile(step_us, 99)) if steps else 0.0, "us"),
        "solver.step_self_us": (_mean([self_ns[i] for i in steps]) / 1e3, "us"),
        "solver.guard_us": (mean_dur(guard, 1e3), "us"),
        "solver.guard_share": (share(guard), "ratio"),
        "solver.init_field_ms": (mean_dur(idx("solver.init_field"), 1e6), "ms"),
        "config.load_ms": (mean_dur(idx("config.load"), 1e6), "ms"),
        "bessel.kernel_build_ms": (
            sum(dur[i] for i in idx("bessel.kernel_build")) / 1e6 / per_job, "ms"),
        "boundaries.conv_us_q1": (mean_dur(conv_q1, 1e3), "us"),
        "boundaries.conv_us_q4": (mean_dur(conv_q4, 1e3), "us"),
        "boundaries.conv_share": (share(conv), "ratio"),
        "diagnostics.record_us": (mean_dur(idx("diagnostics.record"), 1e3), "us"),
        "diagnostics.snapshot_us": (mean_dur(idx("diagnostics.snapshot"), 1e3), "us"),
        "experiments.write_ms": (sum(self_ns[i] for i in write) / 1e6 / per_job, "ms"),
        "experiments.point_s_p50": (
            statistics.median(dur[i] for i in runs) / 1e9 if runs else 0.0, "s"),
    }

    # work counts per job: (span, whether a call counts 1 or its work count)
    counted = {
        "solver.steps": ("solver.step", False),
        "solver.cell_updates": ("solver.step", True),
        "boundaries.conv_terms": ("boundaries.conv", True),
        "diagnostics.records": ("diagnostics.record", False),
        "bessel.kernel_samples": ("bessel.kernel_build", True),
        "experiments.sweep_points": ("experiments.run", False),
    }
    by_job = {j: dict.fromkeys(counted, 0) for j in jobs}
    for key, (nm, use_count) in counted.items():
        for i in idx(nm):
            by_job[root[i]][key] += spans[i][4] if use_count else 1
    job_counts = list(by_job.values())

    self_s: dict[str, float] = {}
    for i, nm in enumerate(name):
        self_s[nm] = self_s.get(nm, 0.0) + self_ns[i] / 1e9
    return {
        "metrics": metrics,
        "counts": job_counts[0] if job_counts else {},
        "counts_agree": all(c == job_counts[0] for c in job_counts),
        "self_s": self_s,
        "job_s": [dur[j] / 1e9 for j in jobs],
        "self_sum_matches": sum(self_ns) == sum(dur[j] for j in jobs),
    }
