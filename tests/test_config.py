import configparser
from dataclasses import replace

import numpy as np
import pytest

import diracstar.config as config_module
from diracstar import (
    BesselKernel,
    ConfigError,
    build_initial_field,
    build_star_graph,
    load_config,
    run,
)
from diracstar.cli import main

from .conftest import CONFIG_DIR


def write_config(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
[graph]
dx = 0.1

[bond 1]
alpha = 1.0
length = 10

[bond 2]
alpha = 1.0
length = 10

[simulation]
mass = 0.0
dt = 0.05
n_steps = 20

[initial]
bond = 1
x0 = -5.0
sigma = 0.9
"""


def test_shipped_canonical_config():
    cfg = load_config(CONFIG_DIR / "transparent_star.cfg")
    assert cfg.mass == 0.01
    assert cfg.dt == 0.01
    assert cfg.dx == 0.0125
    assert cfg.n_steps == 1000
    assert cfg.x0 == -5.0
    assert cfg.sigma == 0.9
    assert cfg.normalize_initial is True
    assert cfg.vertex_mode == "weighted"
    assert cfg.alphas[0] == pytest.approx(np.sqrt(2 / 3), rel=1e-15)
    assert cfg.alphas[1] == 1.0
    assert cfg.alphas[2] == pytest.approx(np.sqrt(2), rel=1e-15)
    assert cfg.lengths == (20.0, 20.0, 20.0)
    assert cfg.snapshot_times == (2.5, 5.0, 7.5, 10.0)


def test_shipped_sweep_config():
    cfg = load_config(CONFIG_DIR / "alpha1_sweep.cfg")
    assert cfg.sweep is not None
    assert cfg.sweep.param == "alpha1"
    assert (cfg.sweep.start, cfg.sweep.stop, cfg.sweep.points) == (0.4, 1.4, 51)


def test_shipped_open_line_config():
    cfg = load_config(CONFIG_DIR / "open_line.cfg")
    assert cfg.end_modes == ("transparent", "transparent")
    assert cfg.vertex_mode == "kirchhoff"


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.end_modes == ("dirichlet", "dirichlet")
    assert cfg.vertex_mode == "weighted"
    assert cfg.sample_every == 10
    assert cfg.snapshot_times == ()
    assert cfg.amplitude == 1.0
    assert cfg.sweep is None


def test_empty_file_lists_required_keys(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, ""))
    message = str(err.value)
    for needed in ("[graph]", "[simulation]", "[initial] x0, sigma)", "dx", "n_steps"):
        assert needed in message
    # [initial] bond is optional and defaults to 1
    cfg = load_config(write_config(tmp_path, MINIMAL.replace("bond = 1\n", "")))
    assert cfg.source_bond == 1


def test_per_bond_counts_must_match(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="one length per bond required"):
        replace(cfg, lengths=(10.0,) * 3).validate()
    with pytest.raises(ConfigError, match="one end_mode per bond required"):
        replace(cfg, end_modes=("dirichlet",)).validate()


def test_cfl_violation_rejected(tmp_path):
    bad = MINIMAL.replace("dt = 0.05", "dt = 0.2")
    with pytest.raises(ConfigError, match="CFL"):
        load_config(write_config(tmp_path, bad))


def test_unknown_key_rejected(tmp_path):
    bad = MINIMAL.replace("dx = 0.1", "dx = 0.1\nwavelength = 3")
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write_config(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    bad = MINIMAL + "\n[plotting]\nstyle = fancy\n"
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_config(tmp_path, bad))


def test_bond_numbering_must_be_contiguous(tmp_path):
    bad = MINIMAL.replace("[bond 2]", "[bond 3]")
    with pytest.raises(ConfigError, match="numbered 1..N"):
        load_config(write_config(tmp_path, bad))


def test_bad_float_names_the_field(tmp_path):
    bad = MINIMAL.replace("sigma = 0.9", "sigma = wide")
    with pytest.raises(ConfigError, match=r"\[initial\] sigma"):
        load_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", [
    ("graph", "dx"), ("simulation", "mass"), ("simulation", "dt"),
    ("initial", "x0"), ("initial", "sigma"), ("initial", "amplitude"),
    ("bond 1", "length"), ("bond 2", "alpha"), ("sweep", "from"), ("sweep", "to"),
    ("sampling", "snapshot_times"),
])
def test_non_finite_value_names_its_key(tmp_path, section, key, value):
    # a NaN passes every "< 0" test, so unchecked it fails later and names
    # another cause ("non-finite field value at step 1")
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL + "[sweep]\nfrom = 0.5\nto = 1.5\npoints = 3\n"
                       "[sampling]\nsnapshot_times = 0.5\n")
    parser[section][key] = value
    path = tmp_path / "test.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(
        ConfigError, match=rf"^\[{section}\] {key} must be finite, got {value}$"
    ):
        load_config(path)


def test_snapshot_time_out_of_range(tmp_path):
    bad = MINIMAL + "\n[sampling]\nsnapshot_times = 0.5 99\n"
    with pytest.raises(ConfigError, match="snapshot time"):
        load_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_snapshot_time_is_a_validation_error(tmp_path, value):
    # unchecked, the step of an infinite time raised OverflowError (exit 1,
    # a traceback) and that of nan a ValueError naming no key
    path = write_config(tmp_path, MINIMAL + f"\n[sampling]\nsnapshot_times = 0 {value}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_snapshot_times_on_one_step_rejected(tmp_path):
    # at dt = 0.05 both times round to step 10; one snapshot would be lost
    bad = MINIMAL + "\n[sampling]\nsnapshot_times = 0.5 0.51\n"
    with pytest.raises(ConfigError, match=r"0\.5 and 0\.51 both fall on step 10"):
        load_config(write_config(tmp_path, bad))


def test_x0_outside_bond_rejected(tmp_path):
    bad = MINIMAL.replace("x0 = -5.0", "x0 = 5.0")
    with pytest.raises(ConfigError, match="x0"):
        load_config(write_config(tmp_path, bad))


def test_bad_vertex_mode_rejected(tmp_path):
    bad = MINIMAL + "\n[boundary]\nvertex_mode = reflecting\n"
    with pytest.raises(ConfigError, match="vertex_mode"):
        load_config(write_config(tmp_path, bad))


def test_bad_end_mode_rejected(tmp_path):
    bad = MINIMAL.replace(
        "[bond 2]\nalpha = 1.0\nlength = 10",
        "[bond 2]\nalpha = 1.0\nlength = 10\nend_mode = open",
    )
    with pytest.raises(ConfigError, match="end_mode"):
        load_config(write_config(tmp_path, bad))


def test_sweep_validation(tmp_path):
    bad = MINIMAL + "\n[sweep]\nfrom = 0.4\nto = 1.4\npoints = 1\n"
    with pytest.raises(ConfigError, match="points"):
        load_config(write_config(tmp_path, bad))
    bad = MINIMAL + "\n[sweep]\nfrom = -0.4\nto = 1.4\npoints = 5\n"
    with pytest.raises(ConfigError, match="positive"):
        load_config(write_config(tmp_path, bad))


def test_transparent_vertex_requires_bond_one_source(tmp_path):
    bad = MINIMAL.replace("bond = 1", "bond = 2")
    bad += "\n[boundary]\nvertex_mode = transparent\n"
    with pytest.raises(ConfigError, match="bond 1"):
        load_config(write_config(tmp_path, bad))


@pytest.mark.parametrize(
    "vertex_mode, bond, cause",
    [
        ("weighted", 0, "bond must be in 1..3, got 0"),
        ("weighted", 4, "bond must be in 1..3, got 4"),
        ("transparent", 4, "bond must be in 1..3, got 4"),
        ("transparent", 2, "a transparent vertex simulates bond 1 only, got bond 2"),
    ],
)
def test_source_bond_rule_shared_with_library(vertex_mode, bond, cause):
    # one rule, with one message, for a config's [initial] bond and the
    # library's bond_index
    cfg = replace(load_config(CONFIG_DIR / "transparent_star.cfg"),
                  vertex_mode=vertex_mode, source_bond=bond)
    with pytest.raises(ConfigError, match=rf"^\[initial\] {cause}$"):
        cfg.validate()
    with pytest.raises(ValueError, match=f"^{cause}$"):
        build_initial_field(cfg.build_graph(), cfg.sim_params(), cfg.build_policy(),
                            x0=cfg.x0, sigma=cfg.sigma, bond_index=bond)


def test_transparent_vertex_rejects_unread_end_modes():
    # only bond 1 is simulated, so ends of bonds 2..N are never read
    cfg = replace(
        load_config(CONFIG_DIR / "transparent_star.cfg"),
        vertex_mode="transparent",
    )
    cfg.validate()
    replace(cfg, end_modes=("transparent", "dirichlet", "dirichlet")).validate()
    for j in (2, 3):
        ends = ["dirichlet"] * 3
        ends[j - 1] = "transparent"
        with pytest.raises(ConfigError, match=rf"\[bond {j}\].*bond 1 only"):
            replace(cfg, end_modes=tuple(ends)).validate()


def test_kernel_past_the_old_overflow_accepted_by_validate():
    # m dt n_steps = 720, where a modified-Bessel kernel m I1 + i m I0 leaves
    # the float range; J0 and J1 are bounded, so these configs are valid
    line = replace(
        load_config(CONFIG_DIR / "open_line.cfg"), mass=6.0, n_steps=12000
    )
    star = replace(
        load_config(CONFIG_DIR / "transparent_star.cfg"),
        mass=6.0, n_steps=12000, vertex_mode="transparent",
    )
    for cfg in (line, star):
        cfg.validate()
        kernel = BesselKernel.build(cfg.mass, cfg.dt, cfg.n_steps)
        assert np.all(np.isfinite(kernel.conv_weights))


def test_non_finite_kernel_argument_exits_2(tmp_path, capsys):
    # finite mass, dt and n_steps whose product m dt n_steps overflows
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL)
    parser["graph"]["dx"] = "1e10"
    for j in (1, 2):
        parser[f"bond {j}"].update(length="1e12", end_mode="transparent")
    parser["simulation"].update(mass="1e300", dt="1e10")
    parser["initial"]["x0"] = "-5e11"
    path = tmp_path / "test.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "m*dt*n_steps is not finite: mass 1e+300" in capsys.readouterr().err


def test_run_builds_graph_twice(monkeypatch):
    # once to validate the config, once for the run
    cfg = replace(
        load_config(CONFIG_DIR / "transparent_star.cfg"),
        n_steps=1, snapshot_times=(),
    )
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return build_star_graph(*args, **kwargs)

    monkeypatch.setattr(config_module, "build_star_graph", counting)
    run(cfg)
    assert len(calls) == 2


def test_percent_in_a_value_is_read_verbatim(tmp_path):
    # no interpolation: '%' is a plain character, and '%%' stays two
    path = write_config(tmp_path, MINIMAL + "[output]\ndirectory = out%1%%\n")
    assert load_config(path).output_dir == "out%1%%"
    assert main(["check-sumrule", "--config", str(path)]) == 0


def test_overflowing_cell_count_is_a_config_error(tmp_path):
    text = MINIMAL.replace("dx = 0.1", "dx = 1e-10").replace("length = 10", "length = 1e300")
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=r"^\[graph/bond\] bond 1: length 1e\+300 over"):
        load_config(path)
    assert main(["check-sumrule", "--config", str(path)]) == 2


def test_parse_error_carries_location(tmp_path):
    path = write_config(tmp_path, "[graph\ndx = 0.1\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)
