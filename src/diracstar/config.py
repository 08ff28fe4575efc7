"""Declarative experiment configuration and the sectioned config-file parser.

The on-disk format is INI-style (configparser syntax).  Sections and keys,
all lowercase, unknown ones rejected:

    [graph]       dx
    [bond J]      alpha, length, end_mode (dirichlet | transparent)
    [boundary]    vertex_mode (kirchhoff | weighted | transparent)
    [simulation]  mass, dt, n_steps
    [initial]     bond, x0, sigma, amplitude, normalize_initial
    [sampling]    sample_every, snapshot_times (whitespace-separated)
    [output]      directory
    [sweep]       param, from, to, points            (optional)

Bond sections must be numbered 1..N contiguously; bond 1 is the incoming
bond.  See the README for a worked example.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .bessel import BesselKernel, kernel_overflow
from .boundaries import BoundaryPolicy, EndMode, VertexMode
from .graph import StarGraph, build_star_graph
from .solver import SimParams

__all__ = ["ConfigError", "SweepSpec", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    points: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one run or sweep."""

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
        real = [("graph", "dx", self.dx), ("simulation", "mass", self.mass),
                ("simulation", "dt", self.dt), ("initial", "x0", self.x0),
                ("initial", "sigma", self.sigma),
                ("initial", "amplitude", self.amplitude)]
        for j, (alpha, length) in enumerate(zip(self.alphas, self.lengths), 1):
            real += [(f"bond {j}", "alpha", alpha), (f"bond {j}", "length", length)]
        if self.sweep is not None:
            real += [("sweep", "from", self.sweep.start),
                     ("sweep", "to", self.sweep.stop)]
        for section, key, value in real:
            if not math.isfinite(value):
                raise ConfigError(f"[{section}] {key} must be finite, got {value}")
        n = len(self.alphas)
        if n < 2:
            raise ConfigError(f"graph needs at least 2 bonds, got {n}")
        if len(self.lengths) != n:
            raise ConfigError("one length per bond required")
        ends = self.end_modes or ("dirichlet",) * n
        if len(ends) != n:
            raise ConfigError("one end_mode per bond required")
        try:
            graph = self.build_graph()
        except ValueError as exc:
            raise ConfigError(f"[graph/bond] {exc}") from None
        try:
            self.sim_params().validate()
        except ValueError as exc:
            raise ConfigError(f"[simulation] {exc}") from None
        try:
            VertexMode(self.vertex_mode)
        except ValueError:
            raise ConfigError(
                f"[boundary] vertex_mode must be kirchhoff, weighted or "
                f"transparent, got {self.vertex_mode!r}"
            ) from None
        for j, mode in enumerate(ends, start=1):
            try:
                EndMode(mode)
            except ValueError:
                raise ConfigError(
                    f"[bond {j}] end_mode must be dirichlet or transparent, "
                    f"got {mode!r}"
                ) from None
            if j > 1 and mode == "transparent" and self.vertex_mode == "transparent":
                raise ConfigError(
                    f"[bond {j}] end_mode = transparent has no effect: a "
                    "transparent vertex simulates bond 1 only"
                )
        if "transparent" in (self.vertex_mode, *ends):
            if overflow := kernel_overflow(self.mass, self.dt, self.n_steps):
                raise ConfigError(f"[simulation] {overflow}")
        if not 1 <= self.source_bond <= n:
            raise ConfigError(
                f"[initial] bond must be in 1..{n}, got {self.source_bond}"
            )
        if self.vertex_mode == "transparent" and self.source_bond != 1:
            raise ConfigError(
                "[initial] transparent vertex mode simulates bond 1 only"
            )
        if self.sigma <= 0:
            raise ConfigError(f"[initial] sigma must be positive, got {self.sigma}")
        bond = graph.bonds[self.source_bond - 1]
        if not bond.contains(self.x0):
            raise ConfigError(
                f"[initial] x0 = {self.x0} lies outside bond {self.source_bond}"
            )
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
            s = self.sweep
            if s.param != "alpha1":
                raise ConfigError(f"[sweep] unsupported parameter {s.param!r}")
            if s.points < 2:
                raise ConfigError(f"[sweep] points must be >= 2, got {s.points}")
            if s.start <= 0 or s.stop <= 0:
                raise ConfigError("[sweep] alpha range must be positive")

    def snapshot_steps(self) -> list[int]:
        """Step nearest to each snapshot time; snapshots are taken there."""
        return [int(round(t / self.dt)) for t in self.snapshot_times]

    def build_graph(self) -> StarGraph:
        return build_star_graph(
            [(a, length, self.dx) for a, length in zip(self.alphas, self.lengths)]
        )

    def sim_params(self) -> SimParams:
        return SimParams(
            mass=self.mass,
            dt=self.dt,
            dx=self.dx,
            n_steps=self.n_steps,
        )

    def build_policy(self) -> BoundaryPolicy:
        """Boundary policy, with the kernel when a boundary is transparent."""
        vertex = VertexMode(self.vertex_mode)
        ends = tuple(
            EndMode(m) for m in (self.end_modes or ("dirichlet",) * len(self.alphas))
        )
        kernel = None
        if vertex is VertexMode.TRANSPARENT or EndMode.TRANSPARENT in ends:
            kernel = BesselKernel.build(self.mass, self.dt, self.n_steps)
        return BoundaryPolicy(vertex, ends, kernel)

    def with_alpha1(self, value: float) -> "ExperimentConfig":
        return replace(
            self, alphas=(float(value),) + self.alphas[1:], sweep=None
        )


_REQUIRED_SECTIONS = ("graph", "simulation", "initial")
_SECTION_KEYS = {
    "graph": {"dx"},
    "boundary": {"vertex_mode"},
    "simulation": {"mass", "dt", "n_steps"},
    "initial": {"bond", "x0", "sigma", "amplitude", "normalize_initial"},
    "sampling": {"sample_every", "snapshot_times"},
    "output": {"directory"},
    "sweep": {"param", "from", "to", "points"},
}
_BOND_KEYS = {"alpha", "length", "end_mode"}


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {cast.__name__}"
        ) from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; unknown sections or keys reject."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    bond_sections = {}
    for section in parser.sections():
        if section.startswith("bond "):
            try:
                idx = int(section.split(None, 1)[1])
            except ValueError:
                raise ConfigError(f"[{section}] bond sections are '[bond <j>]'")
            bond_sections[idx] = section
            unknown = set(parser.options(section)) - _BOND_KEYS
            if unknown:
                raise ConfigError(
                    f"[{section}] unknown keys: {', '.join(sorted(unknown))}"
                )
        elif section in _SECTION_KEYS:
            unknown = set(parser.options(section)) - _SECTION_KEYS[section]
            if unknown:
                raise ConfigError(
                    f"[{section}] unknown keys: {', '.join(sorted(unknown))}"
                )
        else:
            raise ConfigError(f"unknown section [{section}]")

    missing = [s for s in _REQUIRED_SECTIONS if not parser.has_section(s)]
    if missing or not bond_sections:
        need = missing + ([] if bond_sections else ["bond 1", "bond 2", "..."])
        raise ConfigError(
            f"{path}: missing required sections: "
            + ", ".join(f"[{s}]" for s in need)
            + " (required keys: [graph] dx; [bond j] alpha, length; "
            "[simulation] mass, dt, n_steps; [initial] x0, sigma)"
        )
    if sorted(bond_sections) != list(range(1, len(bond_sections) + 1)):
        raise ConfigError(
            f"bond sections must be numbered 1..N, got {sorted(bond_sections)}"
        )

    alphas, lengths, ends = [], [], []
    for j in range(1, len(bond_sections) + 1):
        sec = bond_sections[j]
        alphas.append(_get(parser, sec, "alpha", float, required=True))
        lengths.append(_get(parser, sec, "length", float, required=True))
        ends.append(_get(parser, sec, "end_mode", str, default="dirichlet"))

    snapshot_raw = _get(parser, "sampling", "snapshot_times", str, default="") \
        if parser.has_section("sampling") else ""
    try:
        snapshot_times = tuple(float(v) for v in snapshot_raw.split())
    except ValueError:
        raise ConfigError(
            f"[sampling] snapshot_times: cannot parse {snapshot_raw!r}"
        ) from None

    sweep = None
    if parser.has_section("sweep"):
        sweep = SweepSpec(
            param=_get(parser, "sweep", "param", str, default="alpha1"),
            start=_get(parser, "sweep", "from", float, required=True),
            stop=_get(parser, "sweep", "to", float, required=True),
            points=_get(parser, "sweep", "points", int, required=True),
        )

    config = ExperimentConfig(
        alphas=tuple(alphas),
        lengths=tuple(lengths),
        dx=_get(parser, "graph", "dx", float, required=True),
        mass=_get(parser, "simulation", "mass", float, required=True),
        dt=_get(parser, "simulation", "dt", float, required=True),
        n_steps=_get(parser, "simulation", "n_steps", int, required=True),
        x0=_get(parser, "initial", "x0", float, required=True),
        sigma=_get(parser, "initial", "sigma", float, required=True),
        source_bond=_get(parser, "initial", "bond", int, default=1),
        amplitude=_get(parser, "initial", "amplitude", float, default=1.0),
        normalize_initial=_get(
            parser, "initial", "normalize_initial", bool, default=True
        ),
        vertex_mode=_get(parser, "boundary", "vertex_mode", str, default="weighted")
        if parser.has_section("boundary") else "weighted",
        end_modes=tuple(ends),
        sample_every=_get(parser, "sampling", "sample_every", int, default=10)
        if parser.has_section("sampling") else 10,
        snapshot_times=snapshot_times,
        output_dir=_get(parser, "output", "directory", str)
        if parser.has_section("output") else None,
        sweep=sweep,
    )
    config.validate()
    return config
