"""Benchmark of the diracstar simulator, end to end and per layer.

    python3 bench/run.py --workload star_closed --seed 1 --seconds 40 --trace 0
    python -m pytest bench -q          # the benchmark's own tests

Workloads (see workloads.py and BENCHMARK.json): star_closed,
open_line_long, alpha1_sweep.  Run from any directory; the package is
imported from the sources next to this directory, in one process on one
thread.

--trace 0 repeats the job for about --seconds, with timed set-ups
(setup_s) spread between the jobs, and prints the end-to-end metrics.
Their times are CPU seconds of this process (user + system), which leave
out the time the shared host runs other work on this CPU; wall times are
printed beside them.  --trace 1 spends about half of --seconds on
untraced jobs and half on traced ones (see tracing.py), and prints the
per-layer metrics.
Every job's outputs are checked against the acceptance tolerances; a job
that raises or fails a check counts as failed.  The last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_run"
SWEEP_THREADS_ENV = "DIRACSTAR_SWEEP_THREADS"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_SHARE = 0.1  # share of an untraced run spent on timed set-ups
# work counts that the untraced and the traced jobs must agree on, with the
# span that counts them in the traced run (None: read from the artifacts)
AGREED_COUNTS = {
    "solver.steps": "solver.step",
    "solver.cell_updates": "solver.step",
    "boundaries.conv_terms": "boundaries.conv",
    "diagnostics.records": "diagnostics.record",
    "experiments.bytes_written": None,
    "experiments.files_written": None,
}


def pin_environment() -> dict:
    """Serial sweep and single-threaded BLAS; call before numpy is imported."""
    found = os.environ.pop(SWEEP_THREADS_ENV, None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {f"{SWEEP_THREADS_ENV}_was_set": found is not None}


def describe_machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    failures: list[str]
    counts: dict
    digests: dict


def run_one(workload, seed: int, out_dir: Path) -> Job:
    """Time one job, check its outputs and remove them again."""
    import workloads

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        summary = workloads.run_job(workload, seed, out_dir)
    except Exception:  # InstabilityError included: a failed job, not a crash
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
        shutil.rmtree(out_dir, ignore_errors=True)
        return Job(wall, cpu, [failure], {}, {})
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        failures = workloads.check(workload, summary, out_dir)
        counts = workloads.artifact_counts(out_dir)
        digests = workloads.digests(workload, out_dir)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        failures, counts, digests = [f"unreadable output: {exc!r}"], {}, {}
    shutil.rmtree(out_dir, ignore_errors=True)
    return Job(wall, cpu, failures, counts, digests)


def run_jobs(workload, seed: int, seconds: float, tag: str,
             setups: list[float] | None = None) -> list[Job]:
    """Jobs, and set-ups when given a ``setups`` list, for about ``seconds``.

    The set-ups, each timed in CPU seconds, take about SETUP_SHARE of the
    time and are spread between the jobs, so that both sample the same
    stretch of time on a host whose speed drifts.  No job starts that would
    end further past ``seconds`` than short of it.
    """
    import workloads

    share = SETUP_SHARE if setups is not None else 0.0
    setup_wall = 0.0

    def set_up_until(busy_s: float) -> None:
        nonlocal setup_wall
        while setups is not None and setup_wall < busy_s:
            t0, c0 = time.perf_counter(), time.process_time()
            workloads.set_up(workload, seed)
            setups.append(time.process_time() - c0)
            setup_wall += time.perf_counter() - t0

    start = time.perf_counter()
    jobs: list[Job] = []
    while True:
        elapsed = time.perf_counter() - start
        job_s = statistics.fmean(j.wall_s for j in jobs) if jobs else 0.0
        if jobs and seconds - elapsed < job_s * (1 + share) / 2:
            break
        set_up_until(share * (elapsed + job_s))
        jobs.append(run_one(workload, seed, SCRATCH / f"{tag}{len(jobs)}"))
    set_up_until(share * (time.perf_counter() - start))
    return jobs


def tail(values: list[float]) -> tuple[float, str]:
    """Highest sample with at least ten samples above it; the maximum below 11."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], f"max of {len(ordered)}"
    k = len(ordered) - 11
    return ordered[k], f"p{100 * (k + 1) / len(ordered):.0f} of {len(ordered)}"


def consistent(jobs: list[Job], field: str) -> bool:
    return all(getattr(j, field) == getattr(jobs[0], field) for j in jobs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = pin_environment()
    if not (ROOT / "src" / "diracstar" / "__init__.py").is_file() or not (
        ROOT / "configs"
    ).is_dir():
        print(f"bench: no diracstar sources and configs under {ROOT}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env.update(describe_machine())
    print("environment: " + json.dumps(env, sort_keys=True))

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        if args.trace:
            result = traced_run(workload, args.seed, args.seconds)
        else:
            result = untraced_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


def report_jobs(jobs: list[Job], expected: dict) -> list[str]:
    """Print per-job outcomes; returns the run-level failures found."""
    ok = [j for j in jobs if not j.failures]
    print(f"jobs: {len(jobs)} attempted, {len(jobs) - len(ok)} failed")
    for j in jobs:
        for f in j.failures:
            print(f"  failure: {f}")
    print("work counts per job: "
          + json.dumps(dict(expected, **(ok[0].counts if ok else {})), sort_keys=True))
    if not ok:
        return []
    print("artifact sha256: " + json.dumps(ok[0].digests, sort_keys=True)
          + ("" if consistent(ok, "digests") else " (differs between jobs)"))
    if not consistent(ok, "counts"):
        return ["artifact sizes differ between jobs of one seed"]
    return []


def untraced_run(workload, seed: int, seconds: float) -> dict:
    import workloads

    workloads.set_up(workload, seed)  # warm-up: code paths and file cache
    setups: list[float] = []
    jobs = run_jobs(workload, seed, seconds, "job", setups)
    expected = workloads.expected_counts(workload, seed)
    failures = report_jobs(jobs, expected)

    for kind in ("wall", "cpu"):
        times = [getattr(j, f"{kind}_s") for j in jobs]
        high, which = tail(times)
        print(f"job {kind} times (s): {times}")
        print(f"job {kind} time median {statistics.median(times)!r} s, mean "
              f"{statistics.fmean(times)!r} s, tail ({which} jobs) {high!r} s")
    print(f"set-up cpu times (s): {setups}")
    print(f"set-up cpu time median {statistics.median(setups)!r} s, "
          f"min {min(setups)!r} s over {len(setups)}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # On a shared 2-vCPU VM the CPU time of one and the same job varies by
    # up to 1.4x from one job to the next, and its level drifts over
    # minutes as other tenants load the host.  CPU time leaves out the
    # host's steal time.  The job time is the mean: the median of a run's
    # short jobs jumps between the fast and the slow mode, the mean moves
    # with the share of each.  setup_s is the fastest set-up: even in a
    # slow phase some set-ups, a few ms long, run uncontended, so the
    # minimum of many reads the set-up's own cost, while their median
    # follows the host's load.
    job_cpu = statistics.fmean(j.cpu_s for j in jobs)
    metrics = {
        "job_cpu_s": (job_cpu, "s"),
        "setup_s": (min(setups), "s"),
        "cell_steps_per_s": (
            expected["solver.cell_updates"] / job_cpu, "cell_steps/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return result_line(jobs, failures, metrics)


def traced_run(workload, seed: int, seconds: float) -> dict:
    import tracing
    import workloads

    workloads.set_up(workload, seed)  # warm-up: code paths and file cache
    untraced = run_jobs(workload, seed, seconds / 2, "job")
    expected = workloads.expected_counts(workload, seed)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_jobs(workload, seed, seconds / 2, "traced")
    trace = tracing.analyse(tracer.spans)
    jobs = untraced + traced
    failures = report_jobs(jobs, expected)

    untraced_counts = dict(expected, **(untraced[0].counts))
    traced_counts = dict(trace["counts"], **(traced[0].counts))
    for key, span in AGREED_COUNTS.items():
        if span in tracer.missing:
            continue
        if key in untraced_counts and untraced_counts[key] != traced_counts.get(key):
            failures.append(
                f"work count {key}: untraced {untraced_counts[key]}, "
                f"traced {traced_counts.get(key)}"
            )
    if tracer.missing:
        print("spans missing, their targets not found: " + ", ".join(tracer.missing))
    if not trace["self_sum_matches"]:
        failures.append("span self times do not add up to the job times")
    if not trace["counts_agree"]:
        failures.append("traced work counts differ between jobs of one seed")
    print("traced work counts per job: " + json.dumps(traced_counts, sort_keys=True))

    untraced_wall = statistics.median(j.wall_s for j in untraced)
    traced_wall = statistics.median(j.wall_s for j in traced)
    job_s = sum(trace["job_s"])
    print(f"untraced job wall median {untraced_wall!r} s over {len(untraced)}; "
          f"traced {traced_wall!r} s over {len(traced)}")
    print("self time per span, share of traced job time "
          "(the shares add up to 1):")
    for name, s in sorted(trace["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {s:10.4f} s  {s / job_s:7.2%}")

    metrics = dict(trace["metrics"])
    for key, unit in (
        ("bessel.kernel_samples", "count"), ("diagnostics.records", "count"),
        ("boundaries.conv_terms", "count"), ("solver.cell_updates", "count"),
        ("experiments.sweep_points", "count"),
        ("experiments.bytes_written", "B"), ("experiments.files_written", "count"),
    ):
        metrics[key] = (traced_counts.get(key, 0), unit)
    steps = traced_counts.get("solver.steps", 0)
    # computed traffic: phi and chi read and written once per cell (4 x 16 B
    # complex128) and one history value plus one weight per convolution term
    metrics["solver.bytes_per_step_computed"] = (
        (64 * traced_counts.get("solver.cell_updates", 0)
         + 32 * traced_counts.get("boundaries.conv_terms", 0)) / steps
        if steps else 0.0, "B",
    )
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return result_line(jobs, failures, metrics)


def result_line(jobs: list[Job], run_failures: list[str], metrics: dict) -> dict:
    """Attempts are the jobs plus the run's own consistency check."""
    for f in run_failures:
        print(f"  failure: {f}")
    failed = sum(1 for j in jobs if j.failures) + bool(run_failures)
    print(f"error_rate = {failed} failed / {len(jobs) + 1} attempted")
    return {
        "correct": failed == 0,
        "attempted": len(jobs) + 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
