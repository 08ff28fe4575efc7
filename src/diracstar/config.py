"""Declarative experiment configuration and the sectioned config-file parser.

The on-disk format is INI-style (configparser syntax).  Sections and keys,
all lowercase, unknown ones rejected; ``_KEYS`` maps each key to its field:

    [graph]       dx
    [bond j]      alpha, length, end_mode (dirichlet | transparent)
    [boundary]    vertex_mode (kirchhoff | weighted | transparent)
    [simulation]  mass, dt, n_steps
    [initial]     bond, x0, sigma, amplitude, normalize_initial
    [sampling]    sample_every, snapshot_times (whitespace-separated)
    [output]      directory
    [sweep]       param, from, to, points            (optional)

A key is required exactly when its field has no default ([sweep] keys only
when [sweep] is given).  Bond sections must be numbered 1..N contiguously;
bond 1 is the incoming bond.  See the README for a worked example.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .boundaries import BoundaryPolicy, EndMode, VertexMode
from .graph import StarGraph, build_star_graph
from .solver import SimParams, check_cfl, check_packet, check_source

__all__ = ["ConfigError", "SweepSpec", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _checked(section: str, rule, *args):
    """``rule(*args)``, its ValueError raised as a ConfigError on ``section``."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _mode(kind, value: str, section: str, key: str):
    """``kind(value)``, or a ConfigError that lists the valid modes."""
    try:
        return kind(value)
    except ValueError:
        *most, last = (m.value for m in kind)
        raise ConfigError(
            f"[{section}] {key} must be {', '.join(most)} or {last}, got {value!r}"
        ) from None


@dataclass(frozen=True)
class SweepSpec:
    start: float
    stop: float
    points: int
    param: str = "alpha1"

    def validate(self) -> None:
        """The sweep rule: alpha1 over >= 2 points of a positive, finite range."""
        if self.param != "alpha1":
            raise ValueError(f"unsupported parameter {self.param!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if not (0 < self.start < math.inf and 0 < self.stop < math.inf):
            raise ValueError(f"alpha range must be positive and finite, got "
                             f"{self.start} to {self.stop}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run or sweep: each field but ``sweep`` is a
    config key (see ``_KEYS``) and holds its key's default.  An empty
    ``end_modes`` puts a wall (dirichlet) at every far end."""

    alphas: tuple[float, ...]
    lengths: tuple[float, ...]
    dx: float
    mass: float
    dt: float
    n_steps: int
    x0: float
    sigma: float
    source_bond: int = 1
    amplitude: float = 1.0
    normalize_initial: bool = True
    vertex_mode: str = "weighted"
    end_modes: tuple[str, ...] = ()
    sample_every: int = 10
    snapshot_times: tuple[float, ...] = ()
    output_dir: str | None = None
    sweep: SweepSpec | None = None

    def validate(self) -> None:
        """Raise a ConfigError naming the section, key and cause of the
        first invalid input."""
        for section, key, name, tupled in _REAL:  # the real-valued keys
            owner = self.sweep if section == "sweep" else self
            if owner is not None:
                value = getattr(owner, name)
                for j, v in enumerate(value if tupled else (value,), 1):
                    if not math.isfinite(v):
                        where = f"bond {j}" if section == _BOND else section
                        raise ConfigError(f"[{where}] {key} must be finite, got {v}")
        n, ends = len(self.alphas), self._ends()
        for key, values in (("length", self.lengths), ("end_mode", ends)):
            if len(values) != n:
                raise ConfigError(f"one {key} per bond required")
        graph = _checked("graph/bond", self.build_graph)
        _checked("simulation", self.sim_params().validate)
        _checked("simulation", check_cfl, self.dt, graph.dx)
        vertex = _mode(VertexMode, self.vertex_mode, "boundary", "vertex_mode")
        for j, mode in enumerate(ends, start=1):
            end = _mode(EndMode, mode, f"bond {j}", "end_mode")
            if j > 1 and end is EndMode.TRANSPARENT and vertex is VertexMode.TRANSPARENT:
                raise ConfigError(
                    f"[bond {j}] end_mode = transparent has no effect: a "
                    "transparent vertex simulates bond 1 only"
                )
        source = _checked("initial", check_source, graph, vertex, self.source_bond)
        _checked("initial", check_packet, self.x0, self.sigma, source)
        if self.sample_every < 1:
            raise ConfigError(
                f"[sampling] sample_every must be >= 1, got {self.sample_every}"
            )
        t_final = self.n_steps * self.dt
        snap_steps: dict[int, float] = {}
        for t, n in zip(self.snapshot_times, self.snapshot_steps()):
            if not 0.0 <= t <= t_final + 1e-12:
                raise ConfigError(
                    f"[sampling] snapshot time {t} outside [0, {t_final}]"
                )
            if n in snap_steps:
                raise ConfigError(
                    f"[sampling] snapshot times {snap_steps[n]} and {t} "
                    f"both fall on step {n}"
                )
            snap_steps[n] = t
        if self.sweep is not None:
            _checked("sweep", self.sweep.validate)

    def _ends(self) -> tuple[str, ...]:
        """``end_modes``, with the empty default resolved."""
        return self.end_modes or (_WALL,) * len(self.alphas)

    def snapshot_steps(self) -> list[int]:
        """Step nearest to each snapshot time; snapshots are taken there."""
        return [int(round(t / self.dt)) for t in self.snapshot_times]

    def build_graph(self) -> StarGraph:
        return build_star_graph(
            [(a, length, self.dx) for a, length in zip(self.alphas, self.lengths)]
        )

    def sim_params(self) -> SimParams:
        return SimParams(mass=self.mass, dt=self.dt, n_steps=self.n_steps)

    def build_policy(self) -> BoundaryPolicy:
        """Boundary policy: the vertex mode and the end modes; a field's
        step plan builds the kernel from ``sim_params``."""
        return BoundaryPolicy(VertexMode(self.vertex_mode), map(EndMode, self._ends()))

    def with_alpha1(self, value: float) -> "ExperimentConfig":
        return replace(
            self, alphas=(float(value),) + self.alphas[1:], sweep=None
        )


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split())


_BOND = "bond j"  # the table's name for every [bond <j>] section
_WALL = EndMode.DIRICHLET.value  # the mode of a far end that names none

# Every config key once: (section, key) -> (field, parser).  A [bond j] key
# fills entry j of a tuple field, a [sweep] key a SweepSpec field, any other
# key an ExperimentConfig field.
_KEYS = {
    ("graph", "dx"): ("dx", float),
    (_BOND, "alpha"): ("alphas", float),
    (_BOND, "length"): ("lengths", float),
    (_BOND, "end_mode"): ("end_modes", str),
    ("boundary", "vertex_mode"): ("vertex_mode", str),
    ("simulation", "mass"): ("mass", float),
    ("simulation", "dt"): ("dt", float),
    ("simulation", "n_steps"): ("n_steps", int),
    ("initial", "bond"): ("source_bond", int),
    ("initial", "x0"): ("x0", float),
    ("initial", "sigma"): ("sigma", float),
    ("initial", "amplitude"): ("amplitude", float),
    ("initial", "normalize_initial"): ("normalize_initial", _bool),
    ("sampling", "sample_every"): ("sample_every", int),
    ("sampling", "snapshot_times"): ("snapshot_times", _floats),
    ("output", "directory"): ("output_dir", str),
    ("sweep", "param"): ("param", str),
    ("sweep", "from"): ("start", float),
    ("sweep", "to"): ("stop", float),
    ("sweep", "points"): ("points", int),
}
_SECTIONS = {section for section, _ in _KEYS}
# (section, key, field, whether the field is a tuple) of each real value
_REAL = [(s, k, name, s == _BOND or parse is _floats)
         for (s, k), (name, parse) in _KEYS.items() if parse in (float, _floats)]
_REQUIRED = {
    f.name for cls in (ExperimentConfig, SweepSpec) for f in fields(cls)
    if f.default is MISSING and f.default_factory is MISSING
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; unknown sections or keys reject."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    bonds = {}
    for section in parser.sections():
        kind = section
        if section.startswith("bond "):
            try:
                bonds[int(section[len("bond "):])] = section
            except ValueError:
                raise ConfigError(f"[{section}] bond sections are '[bond <j>]'")
            kind = _BOND
        if kind not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        if unknown := [k for k in parser.options(section) if (kind, k) not in _KEYS]:
            raise ConfigError(f"[{section}] unknown keys: {', '.join(sorted(unknown))}")
    if sorted(bonds) != list(range(1, len(bonds) + 1)):
        raise ConfigError(f"bond sections must be numbered 1..N, got {sorted(bonds)}")
    bond_sections = [bonds[j] for j in sorted(bonds)] or [_BOND]

    config_args: dict = {}
    sweep_args: dict = {}
    missing: dict[str, list[str]] = {}
    for (section, key), (name, parse) in _KEYS.items():
        required = name in _REQUIRED and (
            section != "sweep" or parser.has_section(section))
        values = []
        for s in bond_sections if section == _BOND else [section]:
            raw = parser.get(s, key) if parser.has_option(s, key) else None
            if raw is None and required:
                missing.setdefault(s, []).append(key)
            try:
                values.append(raw if raw is None else parse(raw))
            except ValueError:
                raise ConfigError(f"[{s}] {key}: cannot parse {raw!r} as "
                                  f"{parse.__name__.lstrip('_')}") from None
        args = sweep_args if section == "sweep" else config_args
        if section == _BOND:  # end_mode is the one optional bond key
            args[name] = tuple(_WALL if v is None else v for v in values)
        elif values[0] is not None:
            args[name] = values[0]
    if missing:
        raise ConfigError(f"{path}: missing required keys (" + "; ".join(
            f"[{s}] {', '.join(keys)}" for s, keys in missing.items()) + ")")
    sweep = SweepSpec(**sweep_args) if parser.has_section("sweep") else None
    config = ExperimentConfig(**config_args, sweep=sweep)
    config.validate()
    return config
