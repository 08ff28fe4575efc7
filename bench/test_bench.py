"""Tests of the benchmark itself: output checks, trace lifetime, determinism.

    python -m pytest bench -q
"""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from diracstar import InstabilityError, solver

STAR = workloads.WORKLOADS["star_closed"]
OPEN = workloads.WORKLOADS["open_line_long"]
SWEEP = workloads.WORKLOADS["alpha1_sweep"]


def fake_outputs(workload, out_dir: Path, wrong: bool) -> dict:
    """Outputs of one job, right or with one wrong result, without running it."""
    if workload is STAR:
        summary = {"t_final": 10.0, "final_reflection": 0.5 if wrong else 0.001,
                   "final_outgoing_fractions": [2 / 3, 1 / 3],
                   "max_norm_drift": 1e-5}
        for name in STAR.artifacts:
            (out_dir / name).write_text(str(summary))
        return summary
    if workload is OPEN:
        final = 0.5 if wrong else 1e-4
        (out_dir / "timeseries.csv").write_text(
            f"t,N_1,N_2,total,E,R\n0,1,0,1,1,1\n120,0,{final},{final},0,0\n"
        )
        return {}
    alphas = np.linspace(0.4, 1.4, 51)
    centre = 1.0 if wrong else workloads.SUM_RULE_ALPHA1
    rows = [f"{a},{(a - centre) ** 2}" for a in alphas]
    (out_dir / "sweep.csv").write_text("alpha1,R_final\n" + "\n".join(rows) + "\n")
    return {"failures": []}


@pytest.mark.parametrize("workload", [STAR, OPEN, SWEEP], ids=lambda w: w.name)
def test_wrong_result_fails_its_check(workload, tmp_path):
    assert workloads.check(workload, fake_outputs(workload, tmp_path, False), tmp_path) == []
    failures = workloads.check(workload, fake_outputs(workload, tmp_path, True), tmp_path)
    assert failures and all("criterion" in f for f in failures)


def test_failed_check_and_instability_count_as_failed_jobs(monkeypatch, tmp_path):
    def wrong(config, out_dir):
        return fake_outputs(STAR, out_dir, wrong=True)

    def unstable(config, out_dir):
        raise InstabilityError("field grew")

    monkeypatch.setattr(workloads, "run_experiment", wrong)
    wrong_job = run.run_one(STAR, 1, tmp_path / "wrong")
    monkeypatch.setattr(workloads, "run_experiment", unstable)
    unstable_job = run.run_one(STAR, 1, tmp_path / "unstable")
    assert "criterion 01" in wrong_job.failures[0]
    assert "InstabilityError" in unstable_job.failures[0]
    result = run.result_line([wrong_job, unstable_job], [], {})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)


def test_trace_wrappers_are_removed_after_the_traced_run(tmp_path):
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert vars(solver)["step"] is not originals[solver, "step"]
            workloads.run_job(STAR, 1, tmp_path)
            raise RuntimeError("traced run ends early")
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
    assert tracer.missing == []

    trace = tracing.analyse(tracer.spans)
    assert trace["self_sum_matches"]
    expected = workloads.expected_counts(STAR, 1)
    for key in ("solver.steps", "solver.cell_updates", "boundaries.conv_terms",
                "diagnostics.records"):
        assert trace["counts"][key] == expected[key]


def test_one_seed_gives_the_same_work_and_artifacts(tmp_path):
    first = run.run_one(STAR, 5, tmp_path / "a")
    again = run.run_one(STAR, 5, tmp_path / "b")
    other = run.run_one(STAR, 6, tmp_path / "c")
    assert first.failures == again.failures == other.failures == []
    assert first.counts == again.counts
    assert first.digests == again.digests
    assert other.digests != first.digests
    for w in workloads.WORKLOADS.values():
        assert workloads.expected_counts(w, 5) == workloads.expected_counts(w, 6)


def test_seeded_packet_stays_in_range():
    for seed in range(200):
        x0, sigma = workloads.packet(seed)
        assert -6.0 <= x0 <= -4.0 and 0.8 <= sigma <= 1.0
        assert workloads.packet(seed) == (x0, sigma)


def test_fails_without_the_package_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
