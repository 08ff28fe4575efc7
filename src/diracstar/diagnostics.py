"""Observables: norms, reflection, transmitted fractions and energy.

The stepper stores phi and chi half a time step apart.  Density and norm
diagnostics first advance phi to chi's (integer) time level with a second-
order Taylor half step, so both components refer to one instant; without
this the observables carry an O(dt) skew that masks the scheme's second
order.  The energy functional deliberately keeps the staggered pairing, as
that is the combination the leap-frog scheme conserves exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SimParams, SpinorField

__all__ = [
    "DiagnosticsRecord",
    "partial_norm",
    "total_norm",
    "transmitted_fractions",
    "energy",
    "node_profile",
    "compute_record",
]

FULLY_TRANSMITTED_THRESHOLD = 0.02


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar observables of one field state at time t."""

    t: float
    partial_norms: tuple[float, ...]
    total_norm: float
    energy: float
    reflection: float


def _phi_at_nodes(field: "SpinorField", b: int, params: "SimParams") -> np.ndarray:
    """phi advanced half a step to chi's time level (one-sided at the ends)."""
    phi, chi, dx = field.phi[b], field.chi[b], field.bonds[b].dx
    dchi = np.empty_like(phi)
    dchi[1:-1] = (chi[1:] - chi[:-1]) / dx
    dchi[0] = (-2.0 * chi[0] + 3.0 * chi[1] - chi[2]) / dx
    dchi[-1] = (2.0 * chi[-1] - 3.0 * chi[-2] + chi[-3]) / dx
    return phi - 0.5 * params.dt * (dchi + 1j * params.mass * phi)


def _chi_at_nodes(field: "SpinorField", b: int) -> np.ndarray:
    """chi interpolated from cell centres to the nodes (one-sided at ends)."""
    chi = field.chi[b]
    out = np.empty(len(chi) + 1, dtype=complex)
    out[1:-1] = 0.5 * (chi[1:] + chi[:-1])
    out[0] = 0.5 * (3.0 * chi[0] - chi[1])
    out[-1] = 0.5 * (3.0 * chi[-1] - chi[-2])
    return out


def _chi_part(field: "SpinorField", b: int) -> np.float64:
    """Midpoint sum of |chi|^2 over bond b, shared by its norm and energy."""
    return np.sum(np.abs(field.chi[b]) ** 2)


def _bond_norm(field: "SpinorField", b: int, params: "SimParams", chi_part) -> float:
    p2 = np.abs(_phi_at_nodes(field, b, params)) ** 2
    return float(field.bonds[b].dx * (p2.sum() - 0.5 * (p2[0] + p2[-1]) + chi_part))


def _bond_energy(field: "SpinorField", b: int, params: "SimParams", chi_part):
    p, c, dx = field.phi[b], field.chi[b], field.bonds[b].dx
    p2 = np.abs(p) ** 2
    cross = np.sum(((p[1:] - p[:-1]) * np.conj(c)).real)
    return dx * (p2.sum() - 0.5 * (p2[0] + p2[-1]) + chi_part + params.dt / dx * cross)


def partial_norm(field: "SpinorField", bond_index: int, params: "SimParams") -> float:
    """Norm contribution of one bond: integral of |phi|^2 + |chi|^2.

    Trapezoid rule over the node-centred phi, midpoint rule over the
    cell-centred chi, matching the staggering at second order.
    """
    b = bond_index - 1
    return _bond_norm(field, b, params, _chi_part(field, b))


def total_norm(field: "SpinorField", params: "SimParams") -> float:
    return sum(partial_norm(field, j + 1, params) for j in range(field.n_bonds))


def transmitted_fractions(
    record: DiagnosticsRecord,
    threshold: float = FULLY_TRANSMITTED_THRESHOLD,
) -> tuple[float, ...]:
    """Outgoing-bond norm fractions Nj / sum_{k>=2} Nk after transmission.

    Only meaningful once the packet has left the incoming bond; raises if
    the record's reflection still exceeds ``threshold``, or if its total
    norm is zero.
    """
    if len(record.partial_norms) < 2:
        raise ValueError("transmitted fractions need at least one outgoing bond")
    if record.total_norm <= 0:
        raise ValueError("transmitted fractions undefined for zero total norm")
    r = record.reflection
    if r > threshold:
        raise ValueError(
            f"packet not fully transmitted: R = {r:.4f} > {threshold}"
        )
    outgoing = np.asarray(record.partial_norms[1:])
    fractions = list(outgoing / outgoing.sum())
    fractions[-1] = 1.0 - sum(fractions[:-1])  # sums to 1 by construction
    return tuple(fractions)


def energy(field: "SpinorField", params: "SimParams") -> float:
    """Discrete energy functional conserved exactly by the leap-frog scheme.

    E = ||phi||^2 + ||chi||^2 + (dt/dx) Re (D phi, chi) with the forward
    difference (D phi)_{j-1/2} = phi_j - phi_{j-1}, summed over bonds, on
    the stored staggered pair.  The norms use the same trapezoid/midpoint
    quadrature as partial_norm; the half weights at the bond end nodes are
    what makes the vertex update conserve E exactly.
    """
    return float(sum(_bond_energy(field, b, params, _chi_part(field, b))
                     for b in range(field.n_bonds)))


def node_profile(
    field: "SpinorField", bond_index: int, params: "SimParams"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x, phi, chi, density) sampled at one bond's integer nodes; the
    density is the position probability density |phi|^2 + |chi|^2."""
    b = bond_index - 1
    x = field.bonds[b].node_coordinates()
    phi = _phi_at_nodes(field, b, params)
    chi = _chi_at_nodes(field, b)
    dens = np.abs(phi) ** 2 + np.abs(chi) ** 2
    return x, phi, chi, dens


def compute_record(
    field: "SpinorField", params: "SimParams", t: float
) -> DiagnosticsRecord:
    """Assemble the scalar diagnostics of the current state.

    The reflection entry is N1 / total, or 0 for an identically zero field
    (``transmitted_fractions`` rejects a record of zero total norm).
    """
    partial, e = [], 0.0
    for b in range(field.n_bonds):
        chi_part = _chi_part(field, b)
        partial.append(_bond_norm(field, b, params, chi_part))
        e += _bond_energy(field, b, params, chi_part)
    total = float(sum(partial))
    refl = partial[0] / total if total > 0 else 0.0
    return DiagnosticsRecord(t, tuple(partial), total, float(e), refl)
