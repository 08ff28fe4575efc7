"""The benchmark's workloads: seeded inputs, set-up, one job and its checks.

A job is what a user of the command line waits for: the config file is
loaded and the run or sweep writes its artifacts.  The seed moves only the
packet centre and width, so every seed does the same work and the
acceptance tolerances hold for every seed.
"""
from __future__ import annotations

import csv
import hashlib
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from diracstar import (  # noqa: E402
    build_initial_field,
    load_config,
    run_experiment,
    sweep_alpha1,
)

SUM_RULE_ALPHA1 = math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    artifacts: tuple[str, ...]  # deterministic files whose sha256 is reported
    n_steps: int | None = None  # replaces the config file's value
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("star_closed", "transparent_star.cfg",
                 ("timeseries.csv", "summary.json")),
        Workload("open_line_long", "open_line.cfg",
                 ("timeseries.csv", "summary.json"), n_steps=12000),
        Workload("alpha1_sweep", "alpha1_sweep.cfg", ("sweep.csv",),
                 sweep=True),
    )
}


def packet(seed: int) -> tuple[float, float]:
    """Packet centre x0 in [-6, -4] and width sigma in [0.8, 1.0]."""
    rng = random.Random(seed)
    return rng.uniform(-6.0, -4.0), rng.uniform(0.8, 1.0)


def load(workload: Workload, seed: int):
    """The workload's config file with the seeded packet applied."""
    config = load_config(CONFIG_DIR / workload.config_file)
    x0, sigma = packet(seed)
    config = replace(
        config, x0=x0, sigma=sigma, n_steps=workload.n_steps or config.n_steps
    )
    config.validate()
    return config


def set_up(workload: Workload, seed: int) -> None:
    """Config file to initial field.

    load_config, then build_policy (which builds the Bessel kernel when a
    boundary is transparent), then build_initial_field.  A sweep sets up
    each of its points, as each point is its own run.
    """
    config = load(workload, seed)
    points = [config]
    if workload.sweep:
        spec = config.sweep
        points = [config.with_alpha1(float(a))
                  for a in np.linspace(spec.start, spec.stop, spec.points)]
    for cfg in points:
        policy = cfg.build_policy()
        build_initial_field(
            cfg.build_graph(), cfg.sim_params(), policy,
            x0=cfg.x0, sigma=cfg.sigma, bond_index=cfg.source_bond,
            amplitude=cfg.amplitude, normalize=cfg.normalize_initial,
        )


def run_job(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Load the config and run it through the library calls the CLI makes."""
    config = load(workload, seed)
    if workload.sweep:
        spec = config.sweep
        return sweep_alpha1(config, spec.start, spec.stop, spec.points, out_dir)
    return run_experiment(config, out_dir)


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def check(workload: Workload, summary: dict, out_dir: Path) -> list[str]:
    """Failed acceptance checks of one job's outputs; empty when all hold.

    The tolerances are those of tests/test_acceptance.py, unchanged.
    """
    failures = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    if workload.name == "star_closed":
        r = summary["final_reflection"]
        need(abs(summary["t_final"] - 10.0) < 1e-9,
             f"run ended at t = {summary['t_final']}, not 10")
        need(r < 0.01, f"criterion 01: R(t=10) = {r:.3e}, need < 0.01")
        fr = summary["final_outgoing_fractions"]
        need(len(fr) == 2 and abs(fr[0] - 2 / 3) <= 0.01
             and abs(fr[1] - 1 / 3) <= 0.01,
             f"criterion 03: outgoing fractions {fr}, need 2/3 and 1/3 "
             "within 0.01")
        drift = summary["max_norm_drift"]
        need(drift < 1e-3, f"criterion 04: norm drift {drift:.3e}, need < 1e-3")
    elif workload.name == "open_line_long":
        total = _column(out_dir / "timeseries.csv", "total")
        ratio = total[-1] / total[0]
        need(ratio < 1e-2,
             f"criterion 08: final / initial norm {ratio:.3e}, need < 1e-2")
    else:
        need(summary["failures"] == [],
             f"criterion 02: {len(summary['failures'])} sweep point(s) failed")
        alphas = np.array(_column(out_dir / "sweep.csv", "alpha1"))
        refl = np.array(_column(out_dir / "sweep.csv", "R_final"))
        if np.all(np.isfinite(refl)):
            argmin = alphas[np.argmin(refl)]
            need(abs(argmin - SUM_RULE_ALPHA1) <= 0.02,
                 f"criterion 02: argmin alpha1 = {argmin:.4f}, need within "
                 f"0.02 of {SUM_RULE_ALPHA1:.4f}")
            need(refl.min() < 0.01,
                 f"criterion 02: min R = {refl.min():.3e}, need < 0.01")
            need(refl[0] > 0.05 and refl[-1] > 0.05,
                 f"criterion 02: endpoint R = {refl[0]:.3f}/{refl[-1]:.3f}, "
                 "need > 0.05")
    return failures


def expected_counts(workload: Workload, seed: int) -> dict[str, int]:
    """Exact work of one job, derived from its config.

    cell_updates: cells x steps summed over simulated bonds and points.
    conv_terms: multiply-adds of the boundary convolution, which at step
    level L sums over the L past history entries of each transparent
    boundary.  records: diagnostics records that run() samples.
    """
    config = load(workload, seed)
    points = config.sweep.points if workload.sweep else 1
    n = config.n_steps
    transparent_vertex = config.vertex_mode == "transparent"
    bonds = config.build_graph().bonds[: 1 if transparent_vertex else None]
    ends = (config.end_modes or ("dirichlet",) * len(config.alphas))[: len(bonds)]
    boundaries = sum(m == "transparent" for m in ends) + transparent_vertex
    every = config.sample_every
    records = n // every + 1 + (1 if n % every else 0)
    return {
        "solver.steps": points * n,
        "solver.cell_updates": points * n * sum(b.cells for b in bonds),
        "boundaries.conv_terms": points * boundaries * n * (n - 1) // 2,
        "diagnostics.records": points * records,
    }


def artifact_counts(out_dir: Path) -> dict[str, int]:
    files = [p for p in out_dir.iterdir() if p.is_file()]
    return {
        "experiments.files_written": len(files),
        "experiments.bytes_written": sum(p.stat().st_size for p in files),
    }


def digests(workload: Workload, out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in workload.artifacts
    }
