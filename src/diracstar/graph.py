"""Star-graph topology: bonds, weights, grids, and the transparency sum rule.

A star graph is one vertex with N bonds attached.  Bond 1 is the incoming
bond and carries the coordinate range [-L1, 0]; bonds 2..N are outgoing and
carry [0, Lj].  The vertex sits at x = 0 on every bond.  Each bond carries a
positive coupling weight alpha used by the weighted vertex conditions.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Orientation",
    "Bond",
    "StarGraph",
    "build_star_graph",
    "sum_rule_residual",
]

# relative tolerance for the "length is an integer number of cells" check
_COMMENSURATE_RTOL = 1e-9

# boundary extrapolations and one-sided stencils need a few interior cells
_MIN_CELLS = 4


class Orientation(enum.Enum):
    """Direction of a bond's coordinate relative to the vertex."""

    INCOMING = "incoming"   # coordinate runs [-L, 0], vertex at the right end
    OUTGOING = "outgoing"   # coordinate runs [0, L], vertex at the left end


@dataclass(frozen=True)
class Bond:
    """One bond of the star graph with its grid and coupling weight.

    ``index`` is 1-based.  ``length`` is the truncation length of the
    semi-infinite bond (dimensionless units); ``cells = length / dx`` must
    be an integer so the staggered grid fits exactly.
    """

    index: int
    alpha: float
    length: float
    dx: float
    orientation: Orientation
    cells: int

    def node_coordinates(self) -> np.ndarray:
        """Positions of the integer grid nodes (phi samples), vertex included."""
        if self.orientation is Orientation.INCOMING:
            return -self.length + self.dx * np.arange(self.cells + 1)
        return self.dx * np.arange(self.cells + 1)

    def cell_coordinates(self) -> np.ndarray:
        """Positions of the half-offset cell centres (chi samples)."""
        return self.node_coordinates()[:-1] + 0.5 * self.dx

    def contains(self, x: float) -> bool:
        lo = -self.length if self.orientation is Orientation.INCOMING else 0.0
        return lo <= x <= lo + self.length


@dataclass(frozen=True)
class StarGraph:
    """Immutable star graph: bond 1 incoming, bonds 2..N outgoing."""

    bonds: tuple[Bond, ...]

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    @property
    def dx(self) -> float:
        return self.bonds[0].dx

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(b.alpha for b in self.bonds)

    def to_dict(self) -> dict:
        return {
            "dx": self.dx,
            "bonds": [
                {"alpha": b.alpha, "length": b.length} for b in self.bonds
            ],
        }


def build_star_graph(spec: Iterable[Sequence[float]]) -> StarGraph:
    """Build and validate a star graph from (alpha, length, dx) triples.

    The first entry becomes the incoming bond.  All bonds must share one grid
    spacing, every length must be an integer number of cells, and N >= 2.

    Raises ValueError, naming the bond and field, for N < 2, a non-finite or
    non-positive parameter, non-uniform dx, a cell count that overflows, a
    bond of fewer than 4 cells or a length that does not fit the grid.
    """
    entries = [tuple(float(v) for v in row) for row in spec]
    if any(len(row) != 3 for row in entries):
        raise ValueError("each bond spec must be a (alpha, length, dx) triple")
    if len(entries) < 2:
        raise ValueError(
            f"a star graph needs at least 2 bonds, got {len(entries)}"
        )

    dx0 = entries[0][2]
    bonds = []
    for i, (alpha, length, dx) in enumerate(entries, start=1):
        for name, value in (("alpha", alpha), ("length", length), ("dx", dx)):
            if not math.isfinite(value):
                raise ValueError(f"bond {i}: {name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"bond {i}: {name} must be positive, got {value}")
        if dx != dx0:
            raise ValueError(
                f"bond {i}: all bonds must share one dx ({dx} != {dx0})"
            )
        if not math.isfinite(length / dx):
            raise ValueError(f"bond {i}: length {length} over dx {dx} overflows "
                             "the cell count")
        n = round(length / dx)
        if n < _MIN_CELLS:
            raise ValueError(f"bond {i}: length {length} is shorter than the "
                             f"minimum of {_MIN_CELLS} cells of dx {dx}")
        if abs(n * dx - length) > _COMMENSURATE_RTOL * length:
            raise ValueError(f"bond {i}: length {length} is not a multiple of dx {dx}")
        orientation = Orientation.INCOMING if i == 1 else Orientation.OUTGOING
        bonds.append(Bond(i, alpha, length, dx, orientation, n))
    return StarGraph(tuple(bonds))


def sum_rule_residual(graph: StarGraph) -> float:
    """Transparency defect of the vertex weights.

    Returns ``alpha_1^-2 - sum_{j>=2} alpha_j^-2``.  The weighted vertex
    conditions are reflectionless exactly when this vanishes.
    """
    a = graph.alphas
    return 1.0 / a[0] ** 2 - sum(1.0 / x ** 2 for x in a[1:])
