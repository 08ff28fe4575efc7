"""Experiment drivers: single runs with CSV/JSON artifacts and alpha sweeps.

Artifact layout of a single run (all floats printed with 17 significant
digits so reruns diff bit-identically):

    timeseries.csv             t, N_1..N_k, total, E, R
    snapshot_bond<j>_t<t>.csv  x, re_phi, im_phi, re_chi, im_chi, density
    summary.json               final R, final outgoing fractions, max energy
                               and norm drift, sum-rule residual, vertex factor

A sweep writes sweep.csv (alpha1, R_final) plus sweep_summary.json with the
argmin and any per-point failures.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .boundaries import BoundaryPolicy, vertex_tbc_factor
from .config import ExperimentConfig, SweepSpec
from .graph import sum_rule_residual
from .solver import RunResult, run

__all__ = ["run_experiment", "sweep_alpha1"]


def _time_label(t: float) -> str:
    """Six-digit ``:g`` form of a snapshot time, or repr if that loses it."""
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


def _csv(header: list[str], rows: list[list[float]]) -> str:
    # "%.17g" % v prints what format(float(v), ".17g") prints
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [fmt % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _write_all(out: Path, files: Iterable[tuple[str, str]]) -> None:
    """Write each (name, text) of ``files`` into ``out``, all or nothing.

    ``files`` may be a generator that makes each text as it is asked for.
    If making or writing any file fails, the files this call wrote are
    removed before the exception propagates.
    """
    written: list[Path] = []
    try:
        for name, text in files:
            written.append(out / name)
            written[-1].write_text(text)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _resolve_out_dir(config: ExperimentConfig, out_dir: str | Path | None) -> Path:
    target = out_dir if out_dir is not None else config.output_dir
    if target is None:
        raise ValueError(
            "no output directory: pass out_dir or set [output] directory"
        )
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _summary_of(result: RunResult, config: ExperimentConfig) -> dict:
    records = result.records
    final = records[-1]
    e0, n0 = records[0].energy, records[0].total_norm
    max_e_drift = max(
        (abs(r.energy - e0) / abs(e0) if e0 else 0.0) for r in records
    )
    max_n_drift = max(
        (abs(r.total_norm - n0) / n0 if n0 else 0.0) for r in records
    )
    outgoing = np.asarray(final.partial_norms[1:], dtype=float)
    fractions = (
        (outgoing / outgoing.sum()).tolist() if outgoing.sum() > 0 else []
    )
    return {
        "t_final": final.t,
        "final_reflection": final.reflection,
        "final_partial_norms": list(final.partial_norms),
        "final_outgoing_fractions": fractions,
        "max_energy_drift": max_e_drift,
        "max_norm_drift": max_n_drift,
        "sum_rule_residual": sum_rule_residual(result.graph),
        "vertex_factor": vertex_tbc_factor(config.alphas),
        "graph": result.graph.to_dict(),
        "n_steps": config.n_steps,
        "dt": config.dt,
        "mass": config.mass,
        "vertex_mode": config.vertex_mode,
    }


def run_experiment(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> dict:
    """Run one configured simulation and write its artifacts, all or none.

    Returns the summary dictionary (also written to summary.json).
    """
    out = _resolve_out_dir(config, out_dir)
    result = run(config)
    summary: dict = {}

    def files():
        k = len(result.records[0].partial_norms)
        yield "timeseries.csv", _csv(
            ["t"] + [f"N_{j + 1}" for j in range(k)] + ["total", "E", "R"],
            [[r.t, *r.partial_norms, r.total_norm, r.energy, r.reflection]
             for r in result.records],
        )
        for snap in result.snapshots:
            yield f"snapshot_bond{snap.bond_index}_t{_time_label(snap.time)}.csv", _csv(
                ["x", "re_phi", "im_phi", "re_chi", "im_chi", "density"],
                np.column_stack((
                    snap.x, snap.phi.real, snap.phi.imag,
                    snap.chi.real, snap.chi.imag, snap.density,
                )).tolist(),
            )
        summary.update(_summary_of(result, config))
        yield "summary.json", _json(summary)

    _write_all(out, files())
    return summary


def _sweep_point(config: ExperimentConfig, value: float, policy: BoundaryPolicy) -> float:
    result = run(config.with_alpha1(value), policy)
    return result.records[-1].reflection


def sweep_alpha1(
    config: ExperimentConfig,
    start: float,
    stop: float,
    points: int,
    out_dir: str | Path | None = None,
) -> dict:
    """Sweep alpha1 over ``points`` values in [start, stop].

    Each point is an independent simulation of the base config with alpha1
    replaced, run in sweep order.  Per-point failures are recorded in the
    summary and the sweep continues.
    """
    SweepSpec(start, stop, points).validate()
    out = _resolve_out_dir(config, out_dir)

    policy = config.build_policy()  # alpha1 changes neither modes nor kernel
    values = np.linspace(start, stop, points)
    reflections: list[float] = [float("nan")] * points
    failures: list[dict] = []
    for i in range(points):
        try:
            reflections[i] = _sweep_point(config, float(values[i]), policy)
        except Exception as exc:  # recorded, sweep continues
            failures.append(
                {"index": i, "alpha1": float(values[i]),
                 "error": f"{type(exc).__name__}: {exc}"}
            )

    summary: dict = {
        "points": points,
        "from": float(start),
        "to": float(stop),
        "failures": failures,
    }
    finite = [(r, float(v)) for v, r in zip(values, reflections) if np.isfinite(r)]
    if finite:
        summary["min_reflection"], summary["argmin_alpha1"] = min(finite)
    _write_all(out, [
        ("sweep.csv", _csv(["alpha1", "R_final"],
                           [[float(v), r] for v, r in zip(values, reflections)])),
        ("sweep_summary.json", _json(summary)),
    ])
    return summary
