"""Boundary conditions: vertex couplings and transparent-end convolutions.

Vertex modes
  KIRCHHOFF     continuity of phi across the vertex and zero weighted-flux
                defect with unit weights (plain Kirchhoff rule).
  WEIGHTED      alpha-weighted continuity  a1 phi1(0) = ... = aN phiN(0) and
                weighted flux balance  chi1(0)/a1 = sum_{j>=2} chij(0)/aj.
  TRANSPARENT   the vertex is replaced by its Dirichlet-to-Neumann relation;
                only bond 1 is simulated and the vertex end carries the
                convolution condition with the weight-dependent factor A.

End modes (far ends of the truncated bonds)
  DIRICHLET     phi = 0 at the end node.
  TRANSPARENT   time-convolution condition, so outgoing packets exit without
                reflection.

The continuous transparent relation at a right end: the bond carries
    d/dt phi = -d/dx chi - i m phi,   d/dt chi = -d/dx phi + i m chi
(the interior stencil of ``solver``), and beyond x = L the field starts at
zero.  Laplace-transformed in t (variable p), phi'' = (p^2 + m^2) phi, the
Klein-Gordon symbol; the decaying solution has phi' = -k phi with
k = sqrt(p^2 + m^2), and the chi equation gives chi = (p + i m) phi / k.
1/k is the transform of J0(m t), so
    chi(L, t) = d/dt int_0^t J0(m (t-s)) phi(L, s) ds
              + i m int_0^t J0(m (t-s)) phi(L, s) ds.
The derivative is applied analytically (J0(0) = 1, J0' = -J1), giving
    chi(L, t) = phi(L, t) + int_0^t [-m J1 + i m J0](m (t-s)) phi(L, s) ds,
which collapses bit-exactly to the local relation chi = phi at m = 0: the
weights are m times samples bounded by 1, so exactly zero.  (The paper
writes the kernel as I0, the transform of 1/sqrt(p^2 - m^2); on this
system that kernel grows like e^{m t}.)  A left end carries the same
relation with an overall minus sign, the vertex relation the factor A.
``solver`` holds the discrete relation:
``_history_convolution`` with ``_tbc_coefficients`` is its one evaluator
for all three boundaries, and the stepper applies the sign and the factor A.
"""
from __future__ import annotations

import enum
from typing import Sequence

from .graph import StarGraph

__all__ = [
    "VertexMode",
    "EndMode",
    "BoundaryPolicy",
    "vertex_tbc_factor",
]


class VertexMode(enum.Enum):
    KIRCHHOFF = "kirchhoff"
    WEIGHTED = "weighted"
    TRANSPARENT = "transparent"


class EndMode(enum.Enum):
    DIRICHLET = "dirichlet"
    TRANSPARENT = "transparent"


def vertex_tbc_factor(alphas: Sequence[float]) -> float:
    """Factor A = a1^2 sum_{j>=2} aj^-2 of the transparent vertex relation.

    A = 1 exactly when the weights satisfy the transparency sum rule.
    """
    a = [float(v) for v in alphas]
    if len(a) < 2:
        raise ValueError("vertex factor needs at least 2 bond weights")
    return a[0] ** 2 * sum(1.0 / v ** 2 for v in a[1:])


class BoundaryPolicy:
    """The vertex mode and the end modes of a run.

    A policy holds no run state, so one policy can step any number of
    fields, of any mass, dt and n_steps.  The step plan builds the
    convolution kernel from the run's params, the boundary histories live
    in the ``SpinorField``, and the transparent vertex takes its factor A
    from the graph's weights.
    """

    def __init__(self, vertex_mode: VertexMode, end_modes: Sequence[EndMode]) -> None:
        self.vertex_mode = vertex_mode
        self.end_modes = tuple(end_modes)

    def validate_for(self, graph: StarGraph) -> None:
        if len(self.end_modes) != graph.n_bonds:
            raise ValueError(
                f"policy has {len(self.end_modes)} end modes for "
                f"{graph.n_bonds} bonds"
            )
