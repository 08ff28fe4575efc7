"""Dirac wave packets on metric star graphs with transparent boundaries."""

from .bessel import BesselKernel
from .boundaries import (
    BoundaryPolicy,
    EndMode,
    VertexMode,
    vertex_tbc_factor,
)
from .config import ConfigError, load_config
from .diagnostics import (
    DiagnosticsRecord,
    compute_record,
    energy,
    partial_norm,
    total_norm,
    transmitted_fractions,
)
from .experiments import run_experiment, sweep_alpha1
from .graph import Orientation, build_star_graph, sum_rule_residual
from .solver import (
    InstabilityError,
    MissingHistoryError,
    SimParams,
    SpinorField,
    build_initial_field,
    gaussian_spinor,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BesselKernel",
    "BoundaryPolicy",
    "ConfigError",
    "DiagnosticsRecord",
    "EndMode",
    "InstabilityError",
    "MissingHistoryError",
    "Orientation",
    "SimParams",
    "SpinorField",
    "VertexMode",
    "build_initial_field",
    "build_star_graph",
    "compute_record",
    "energy",
    "gaussian_spinor",
    "load_config",
    "partial_norm",
    "run",
    "run_experiment",
    "step",
    "sum_rule_residual",
    "sweep_alpha1",
    "total_norm",
    "transmitted_fractions",
    "vertex_tbc_factor",
]
