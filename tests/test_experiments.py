import json
from dataclasses import replace

import numpy as np
import pytest

import diracstar.experiments as experiments_module
from diracstar import (
    BesselKernel,
    ConfigError,
    InstabilityError,
    load_config,
    run,
    run_experiment,
    sweep_alpha1,
)
from diracstar.cli import main
from diracstar.config import SweepSpec

from .conftest import CONFIG_DIR

# regression value frozen from this implementation (canonical grid,
# m = 0.01, dx = 0.0125, dt = 0.01, t_final = 10)
R_KIRCHHOFF_UNIT_WEIGHTS = 0.1125403


@pytest.fixture(scope="module")
def fast_config():
    """Canonical physics on a coarser, shorter grid for cheap IO tests."""
    base = load_config(CONFIG_DIR / "transparent_star.cfg")
    return replace(
        base,
        dx=0.05,
        dt=0.04,
        n_steps=250,
        sample_every=25,
        snapshot_times=(0.0, 10.0),
    )


def test_run_experiment_artifacts(fast_config, tmp_path):
    summary = run_experiment(fast_config, tmp_path)
    assert (tmp_path / "timeseries.csv").exists()
    assert (tmp_path / "summary.json").exists()
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == [
        "snapshot_bond1_t0.csv",
        "snapshot_bond1_t10.csv",
        "snapshot_bond2_t0.csv",
        "snapshot_bond2_t10.csv",
        "snapshot_bond3_t0.csv",
        "snapshot_bond3_t10.csv",
    ]
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    assert summary["final_reflection"] < 0.05
    assert summary["max_norm_drift"] < 1e-3
    assert abs(summary["sum_rule_residual"]) < 1e-12

    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t,N_1,N_2,N_3,total,E,R"
    snap_header = (tmp_path / "snapshot_bond1_t10.csv").read_text().splitlines()[0]
    assert snap_header == "x,re_phi,im_phi,re_chi,im_chi,density"



def test_csv_rows_print_as_format_17g(tmp_path):
    # each value prints exactly as format(float(v), ".17g") prints it
    values = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 0.1, 1e16, 7,
              np.float64(2.0 / 3.0)]
    rows = [[v, -v] for v in values]
    path = tmp_path / "rows.csv"
    path.write_text(experiments_module._csv(["a", "b"], rows))
    expected = ["a,b"] + [
        ",".join(format(float(v), ".17g") for v in row) for row in rows
    ]
    assert path.read_text() == "\n".join(expected) + "\n"

def test_snapshot_labelled_with_sampled_time(fast_config, tmp_path):
    # 2.01 falls on step 50 of dt = 0.04, which samples t = 2
    run_experiment(replace(fast_config, snapshot_times=(2.01,)), tmp_path)
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == [f"snapshot_bond{j}_t2.csv" for j in (1, 2, 3)]


def test_snapshot_names_tell_large_times_apart(fast_config, tmp_path, monkeypatch):
    # six significant digits print 10000.0 and 10000.01 alike; a real run
    # to t = 1e4 is too long for a test, so the sampled times are relabelled
    far = {0.0: 10000.0, 10.0: 10000.01}

    def far_run(config):
        result = run(config)
        result.snapshots[:] = [replace(s, time=far[s.time]) for s in result.snapshots]
        return result

    monkeypatch.setattr(experiments_module, "run", far_run)
    run_experiment(replace(fast_config, snapshot_times=(0.0, 10.0)), tmp_path)
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == sorted(
        f"snapshot_bond{j}_t{t}.csv" for j in (1, 2, 3) for t in ("10000", "10000.01")
    )


def test_canonical_run_transmits_packet(canonical_config, tmp_path):
    summary = run_experiment(canonical_config, tmp_path)
    # packet has left bond 1 and shows up on bonds 2 and 3
    final = {}
    for j in (1, 2, 3):
        rows = np.loadtxt(
            tmp_path / f"snapshot_bond{j}_t10.csv", delimiter=",", skiprows=1
        )
        final[j] = rows[:, 5]
    peak = max(final[2].max(), final[3].max())
    assert final[1].max() < 0.01 * peak
    assert final[2].max() > 0.0 and final[3].max() > 0.0
    assert summary["final_reflection"] < 0.01
    assert summary["final_outgoing_fractions"] == pytest.approx(
        [2 / 3, 1 / 3], abs=0.01
    )


def test_unit_weight_kirchhoff_reflects(canonical_config, tmp_path):
    config = replace(
        canonical_config,
        alphas=(1.0, 1.0, 1.0),
        snapshot_times=(),
        sample_every=100,
    )
    summary = run_experiment(config, tmp_path)
    assert summary["final_reflection"] > 0.05
    assert summary["final_reflection"] == pytest.approx(
        R_KIRCHHOFF_UNIT_WEIGHTS, abs=1e-5
    )


def test_zero_amplitude_runs_clean(fast_config, tmp_path):
    config = replace(fast_config, amplitude=0.0, snapshot_times=())
    summary = run_experiment(config, tmp_path)
    assert summary["final_reflection"] == 0.0
    assert summary["final_partial_norms"] == [0.0, 0.0, 0.0]
    assert summary["max_norm_drift"] == 0.0
    rows = np.loadtxt(tmp_path / "timeseries.csv", delimiter=",", skiprows=1)
    assert np.all(rows[:, 1:] == 0.0)


def test_run_experiment_deterministic(fast_config, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_experiment(fast_config, first)
    run_experiment(fast_config, second)
    for name in ("timeseries.csv", "summary.json", "snapshot_bond1_t10.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_failed_run_removes_partial_outputs(fast_config, tmp_path, monkeypatch):
    import diracstar.experiments as exp

    def boom(result, config):
        raise RuntimeError("summary failed")

    monkeypatch.setattr(exp, "_summary_of", boom)
    with pytest.raises(RuntimeError):
        run_experiment(fast_config, tmp_path)
    assert list(tmp_path.glob("*.csv")) == []


def test_artifact_writer_is_all_or_nothing(tmp_path):
    def files():
        yield "a.csv", "1\n"
        raise RuntimeError("making the second file failed")

    with pytest.raises(RuntimeError):
        experiments_module._write_all(tmp_path, files())
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "b.json").mkdir()  # writing b.json fails
    with pytest.raises(OSError):
        experiments_module._write_all(tmp_path, [("a.csv", "1\n"), ("b.json", "{}")])
    assert [p.name for p in tmp_path.iterdir()] == ["b.json"]


@pytest.mark.parametrize("start, stop, points, cause", [
    (0.4, 1.4, 1, "points must be >= 2, got 1"),
    (-0.4, 1.4, 3, "alpha range must be positive"),
    (0.4, 0.0, 3, "alpha range must be positive"),
])
def test_sweep_range_rule_shared_with_config(fast_config, tmp_path, start, stop,
                                             points, cause):
    with pytest.raises(ValueError, match=f"^{cause}"):
        sweep_alpha1(fast_config, start, stop, points, tmp_path)
    configured = replace(fast_config, sweep=SweepSpec(start, stop, points))
    with pytest.raises(ConfigError, match=rf"^\[sweep\] {cause}"):
        configured.validate()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("start, stop", [(0.4, np.inf), (np.nan, 1.4)])
def test_sweep_rejects_non_finite_range(fast_config, tmp_path, start, stop):
    # unchecked, every point failed on its own and the sweep wrote its files
    with pytest.raises(ValueError, match="alpha range must be positive and finite"):
        sweep_alpha1(fast_config, start, stop, 3, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_interior_only_run_artifacts(fast_config, tmp_path):
    config = replace(fast_config, vertex_mode="transparent", snapshot_times=())
    summary = run_experiment(config, tmp_path)
    # only bond 1 is simulated; the packet leaves through the vertex relation
    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t,N_1,total,E,R"
    assert summary["final_outgoing_fractions"] == []
    assert summary["final_partial_norms"][0] < 0.01
    assert summary["vertex_factor"] == pytest.approx(1.0, abs=1e-14)


def test_sweep_endpoints(fast_config, tmp_path):
    summary = sweep_alpha1(fast_config, 0.4, 1.4, 2, tmp_path)
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 2)
    assert rows[0, 0] == 0.4 and rows[1, 0] == 1.4
    assert np.all(rows[:, 1] > 0.01)  # off the sum rule both endpoints reflect
    assert summary["failures"] == []
    assert summary["argmin_alpha1"] in (0.4, 1.4)


def test_sweep_minimum_at_sum_rule_sample(fast_config, tmp_path):
    # a range placing sqrt(2/3) exactly on the grid puts the minimum there
    target = np.sqrt(2.0 / 3.0)
    sweep_alpha1(fast_config, target - 0.2, target + 0.2, 3, tmp_path)
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert rows[1, 0] == pytest.approx(target, abs=1e-12)
    assert np.argmin(rows[:, 1]) == 1


def test_sweep_matches_single_runs(fast_config, tmp_path):
    sweep_alpha1(fast_config, 0.7, 1.0, 3, tmp_path)
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    for alpha1, r_sweep in rows:
        result = run(fast_config.with_alpha1(alpha1))
        assert result.records[-1].reflection == r_sweep


def test_sweep_records_failures(fast_config, tmp_path, monkeypatch):
    import diracstar.experiments as exp

    real = exp._sweep_point

    def flaky(config, value, policy):
        if value < 0.5:
            raise RuntimeError("diverged")
        return real(config, value, policy)

    monkeypatch.setattr(exp, "_sweep_point", flaky)
    summary = sweep_alpha1(fast_config, 0.4, 1.4, 3, tmp_path)
    assert len(summary["failures"]) == 1
    assert summary["failures"][0]["alpha1"] == 0.4
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4  # header + one row per point, failed one included
    assert "nan" in rows[1]
    assert "argmin_alpha1" in summary


def test_sweep_builds_one_kernel(tmp_path, monkeypatch):
    # alpha1 changes no boundary mode, so one policy serves every point;
    # each point is its own run, whose step plan builds its own kernel
    calls, runs = [], []
    real, real_run = BesselKernel.build, experiments_module.run
    monkeypatch.setattr(
        BesselKernel, "build", lambda *args: calls.append(args) or real(*args)
    )
    monkeypatch.setattr(
        experiments_module, "run", lambda *args: runs.append(args) or real_run(*args)
    )
    config = replace(
        load_config(CONFIG_DIR / "open_line.cfg"),
        dx=0.05, dt=0.04, n_steps=20, snapshot_times=(),
    )
    summary = sweep_alpha1(config, 0.8, 1.2, 3, tmp_path)
    assert summary["failures"] == []
    assert calls == [(0.01, 0.04, 20)] * 3
    assert len(runs) == 3 and all(policy is runs[0][1] for _, policy in runs)


# ------------------------------------------------------------------------ CLI


def test_cli_run_and_check(tmp_path):
    base = load_config(CONFIG_DIR / "transparent_star.cfg")
    fast = replace(base, dx=0.05, dt=0.04, n_steps=250, snapshot_times=())
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text(_render_config(fast))

    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.json").exists()

    assert main(["check-sumrule", "--config", str(cfg_path)]) == 0


def test_cli_sweep(tmp_path, capsys):
    base = load_config(CONFIG_DIR / "transparent_star.cfg")
    fast = replace(base, dx=0.05, dt=0.04, n_steps=250, snapshot_times=())
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text(_render_config(fast))
    code = main(
        ["sweep", "--config", str(cfg_path), "--param", "alpha1",
         "--from", "0.6", "--to", "1.0", "--points", "3",
         "--out", str(tmp_path / "sweep")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "min R" in out
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_cli_sweep_range_from_config(tmp_path, monkeypatch):
    base = load_config(CONFIG_DIR / "transparent_star.cfg")
    fast = replace(base, dx=0.05, dt=0.04, n_steps=50, snapshot_times=())
    cfg_path = tmp_path / "fast.cfg"
    cfg_path.write_text(_render_config(fast))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2

    cfg_path.write_text(
        _render_config(fast) + "\n[sweep]\nfrom = 0.6\nto = 1.0\npoints = 2\n"
    )
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert (summary["from"], summary["to"], summary["points"]) == (0.6, 1.0, 2)
    argv = ["sweep", "--config", str(cfg_path), "--points", "3", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "sweep_summary.json").read_text())["points"] == 3

    # a failed point sets the exit code by its cause
    real = experiments_module._sweep_point
    for error, code in ((InstabilityError("grew"), 3), (ValueError("bad"), 2)):
        def flaky(config, value, policy, error=error):
            if value > 0.9:
                raise error
            return real(config, value, policy)

        monkeypatch.setattr(experiments_module, "_sweep_point", flaky)
        assert main(argv) == code
        failures = json.loads((out / "sweep_summary.json").read_text())["failures"]
        assert [f["alpha1"] for f in failures] == [1.0]


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[graph]\ndx = 0.1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_missing_file_exit_code(tmp_path):
    missing = tmp_path / "nope.cfg"
    code = main(["run", "--config", str(missing), "--out", str(tmp_path)])
    assert code == 4


def _render_config(cfg) -> str:
    lines = ["[graph]", f"dx = {cfg.dx!r}", ""]
    for j, (a, length) in enumerate(zip(cfg.alphas, cfg.lengths), start=1):
        lines += [
            f"[bond {j}]",
            f"alpha = {a!r}",
            f"length = {length!r}",
            f"end_mode = {cfg.end_modes[j - 1]}",
            "",
        ]
    lines += [
        "[boundary]",
        f"vertex_mode = {cfg.vertex_mode}",
        "",
        "[simulation]",
        f"mass = {cfg.mass!r}",
        f"dt = {cfg.dt!r}",
        f"n_steps = {cfg.n_steps}",
        "",
        "[initial]",
        f"bond = {cfg.source_bond}",
        f"x0 = {cfg.x0!r}",
        f"sigma = {cfg.sigma!r}",
        f"normalize_initial = {str(cfg.normalize_initial).lower()}",
        "",
        "[sampling]",
        f"sample_every = {cfg.sample_every}",
    ]
    if cfg.snapshot_times:
        lines.append(
            "snapshot_times = " + " ".join(str(t) for t in cfg.snapshot_times)
        )
    return "\n".join(lines) + "\n"
