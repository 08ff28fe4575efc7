"""Staggered leap-frog stepper for the two-component Dirac system on bonds.

The spinor components live on a staggered space-time grid: phi at integer
nodes x_j and half-integer time levels, chi at half-offset nodes x_{j-1/2}
and integer time levels.  With lam = dt/dx and the mass term time-averaged,
one step advances

    (1 + i m dt/2) phi_j^{n+1/2} = (1 - i m dt/2) phi_j^{n-1/2}
                                   - lam (chi_{j+1/2}^n - chi_{j-1/2}^n)
    (1 - i m dt/2) chi_{j-1/2}^{n+1} = (1 + i m dt/2) chi_{j-1/2}^n
                                   - lam (phi_j^{n+1/2} - phi_{j-1}^{n+1/2})

at interior points; boundary and vertex nodes are then set by the boundary
policy.  The scheme is second order and exactly conserves the discrete
energy functional (see diagnostics.energy) for Dirichlet ends with any
Kirchhoff-type vertex coupling.

Vertex update (Kirchhoff / weighted modes): the weighted continuity chain
reduces the vertex to one shared value P = aj phij(0).  Integrating the phi
equation over the half-cells adjoining the vertex and eliminating the vertex
fluxes with the weighted flux balance gives

    dP/dt = (2 / (W dx)) [chi1(-dx/2)/a1 - sum_{j>=2} chij(+dx/2)/aj] - i m P

with W = sum_j aj^-2, discretized like the interior update.  For two unit
weights this is exactly the interior stencil across the joined line, so the
vertex is invisible there.
"""
from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .bessel import BesselKernel
from .boundaries import (
    BoundaryPolicy,
    EndMode,
    VertexMode,
    _endpoint_coefficient,
    _History,
    _history_convolution,
    vertex_tbc_factor,
)
from .graph import Bond, Orientation, StarGraph

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig
    from .diagnostics import DiagnosticsRecord

__all__ = [
    "InstabilityError",
    "SimParams",
    "SpinorField",
    "Snapshot",
    "RunResult",
    "gaussian_spinor",
    "build_initial_field",
    "step",
    "run",
]


# the guard trips when a value exceeds this multiple of the initial maximum
OVERFLOW_FACTOR = 1e6


class InstabilityError(RuntimeError):
    """Field values exceeded the overflow guard or became non-finite."""


@dataclass(frozen=True)
class SimParams:
    """Time-stepping parameters; ``validate`` enforces the CFL bound."""

    mass: float
    dt: float
    dx: float
    n_steps: int

    @property
    def courant(self) -> float:
        return self.dt / self.dx

    def validate(self) -> None:
        for name in ("mass", "dt", "dx"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mass < 0:
            raise ValueError(f"mass must be non-negative, got {self.mass}")
        if self.dt <= 0 or self.dx <= 0:
            raise ValueError("dt and dx must be positive")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.courant > 1.0 + 1e-12:
            raise ValueError(
                f"CFL violated: dt/dx = {self.courant} exceeds 1"
            )


class SpinorField:
    """Per-bond (phi, chi) arrays at one staggered time level, packed.

    ``phi_buf`` holds the nodes of every bond, bond after bond; ``chi_buf``
    holds the cells, with one pad slot after each bond's last cell, so phi
    node k and chi cell k share one offset and one stencil call covers all
    bonds.  The pads stay +0.  ``phi`` and ``chi`` are tuples of per-bond
    views into the buffers: write through them, never rebind them.  The
    constructor copies the given per-bond arrays into new buffers.

    The buffers and the stencil scratch are the rows of one zero arena (see
    ``_allocate``), each on a 64-byte boundary; the gap slots after each buffer
    stay +0, so the guard reads phi and chi as one vector.

    After n accepted steps the stored phi sits at t = (n - 1/2) dt and chi
    at t = n dt.  ``bonds`` is the simulated domain: all graph bonds, or
    just bond 1 for a transparent-vertex interior run.  ``histories`` maps
    each transparent boundary ('vertex', 'end<j>') to its past boundary
    values, one per time level; ``step`` hands these on to the new field,
    so only the newest field of a run can be stepped.
    """

    def __init__(
        self,
        bonds: tuple[Bond, ...],
        phi: list[np.ndarray],
        chi: list[np.ndarray],
        time_level: int = 0,
        initial_max: float | None = None,
        histories: dict[str, _History] | None = None,
    ) -> None:
        if len(phi) != len(bonds) or len(chi) != len(bonds):
            raise ValueError("one phi and chi array required per bond")
        for b, p, c in zip(bonds, phi, chi):
            if p.shape != (b.cells + 1,) or c.shape != (b.cells,):
                raise ValueError(
                    f"bond {b.index}: need {b.cells + 1} phi and {b.cells} "
                    f"chi values, got {p.shape} and {c.shape}"
                )
        self._pack(bonds)
        for view, a in zip(self.phi + self.chi, (*phi, *chi)):
            view[:] = a
        self.time_level = time_level
        self.initial_max = self.max_abs() if initial_max is None else initial_max
        self.histories = {} if histories is None else histories

    def _pack(self, bonds: tuple[Bond, ...]) -> None:
        """Lay the bonds out in a new zero arena and view it."""
        self.bonds, self._plan = bonds, None
        ends = list(accumulate(b.cells + 1 for b in bonds))
        self._cuts = [(slice(a, z), slice(a, z - 1)) for a, z in zip([0, *ends], ends)]
        self._allocate()

    def _allocate(self) -> None:
        """View a new arena: zero rows phi, chi and stencil scratch, each
        rounded up to 4 values (64 bytes) and all cut from one zero byte
        array at its first 64-byte boundary."""
        n = self._cuts[-1][0].stop
        row = -(-n // 4) * 4
        raw = np.zeros(3 * 16 * row + 64, np.uint8)
        start = -raw.ctypes.data % 64
        arena = raw[start:start + 3 * 16 * row].view(complex).reshape(3, row)
        phi_buf, chi_buf, d = arena[0, :n], arena[1, :n], arena[2, :n - 1]
        self._arena, self._state = arena, arena[:2].reshape(-1)
        self.phi_buf, self.chi_buf = phi_buf, chi_buf
        self.phi = tuple(phi_buf[p] for p, _ in self._cuts)
        self.chi = tuple(chi_buf[c] for _, c in self._cuts)
        # stencil operands: inner nodes, cells but the last pad, the values
        # they difference, and scratch for both stencils
        self._operands = (phi_buf[1:-1], chi_buf[:-1], chi_buf[1:-1], chi_buf[:-2],
                          phi_buf[1:], phi_buf[:-1], d, d[:-1])

    def _twin(self) -> "SpinorField":
        """This layout, time level, histories and plan on a new zero arena,
        unchecked."""
        out = object.__new__(SpinorField)
        out.__dict__.update(vars(self))
        out._allocate()
        return out

    @classmethod
    def zeros(cls, bonds: tuple[Bond, ...]) -> "SpinorField":
        field = object.__new__(cls)
        field._pack(bonds)
        field.time_level, field.initial_max, field.histories = 0, 0.0, {}
        return field

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def max_abs(self) -> float:
        """Largest |value| of phi and chi; NaN if any value is NaN."""
        return float(np.max(np.abs(self._state)))  # a NaN sticks

    def copy(self) -> "SpinorField":
        twin = self._twin()
        twin._state[:] = self._state
        twin.histories = copy.deepcopy(self.histories)
        return twin


def check_packet(x0: float, sigma: float, bond: Bond) -> None:
    """The packet rule: sigma finite and positive, x0 on the bond."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not bond.contains(x0):
        raise ValueError(f"x0 = {x0} lies outside bond {bond.index}")


def gaussian_spinor(x0: float, sigma: float, bond: Bond) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian spinor fragment sampled on one bond's staggered nodes.

    Both components are G(x) = (2 pi sigma^2)^(-1/4) exp(-(x-x0)^2/(4 sigma^2))
    sampled at the phi nodes and chi cell centres respectively, i.e. the
    spinor direction is (1, 1)^T, a right-moving packet in the massless
    limit.  ``check_packet`` must hold.
    """
    check_packet(x0, sigma, bond)

    def profile(x: np.ndarray) -> np.ndarray:
        norm = (2.0 * np.pi * sigma ** 2) ** (-0.25)
        return norm * np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2))

    phi = profile(bond.node_coordinates()).astype(complex)
    chi = profile(bond.cell_coordinates()).astype(complex)
    return phi, chi


def _vertex_constants(
    alphas: tuple[float, ...], mode: VertexMode
) -> tuple[np.ndarray, np.float64, float | None]:
    """Effective weights, W = sum_j a_j^-2, transparent factor A."""
    kirchhoff = mode is VertexMode.KIRCHHOFF
    effective = np.ones(len(alphas)) if kirchhoff else np.asarray(alphas, float)
    factor = vertex_tbc_factor(alphas) if mode is VertexMode.TRANSPARENT else None
    return effective, np.sum(1.0 / effective ** 2), factor


def _vertex_shared_value(
    values: np.ndarray, alphas: np.ndarray, w_all: np.float64
) -> complex:
    # least-squares projection of the stored vertex values phi_j(0) on the chain
    total = values[0] / alphas[0]
    for j in range(1, len(values)):
        total += values[j] / alphas[j]
    return total / w_all


def build_initial_field(
    graph: StarGraph,
    params: SimParams,
    policy: BoundaryPolicy,
    x0: float,
    sigma: float,
    bond_index: int = 1,
    amplitude: float = 1.0,
    normalize: bool = True,
) -> SpinorField:
    """Gaussian initial state on one bond, staggered in time for the stepper.

    chi keeps its t = 0 samples; phi is pulled back to t = -dt/2 with a
    Taylor half step (using the staggered derivative of chi), which keeps
    the scheme second order in time.  End and vertex nodes are then made
    consistent with the boundary policy, whose kernel must match the run's
    mass and dt, and the state is optionally rescaled to unit total norm.
    """
    policy.validate_for(graph)
    k = policy.kernel
    if policy.requires_kernel and (k.mass, k.dt) != (params.mass, params.dt):
        raise ValueError(
            f"kernel built for mass {k.mass!r} and dt {k.dt!r}, but the run "
            f"has mass {params.mass!r} and dt {params.dt!r}"
        )
    interior_only = policy.vertex_mode is VertexMode.TRANSPARENT
    bonds = (graph.bonds[0],) if interior_only else graph.bonds
    if interior_only and bond_index != 1:
        raise ValueError("interior runs simulate bond 1 only")
    if not 1 <= bond_index <= len(bonds):
        raise ValueError(f"bond_index {bond_index} outside simulated domain")

    field = SpinorField.zeros(bonds)
    target = bonds[bond_index - 1]
    phi0, chi0 = gaussian_spinor(x0, sigma, target)
    b = bond_index - 1
    field.phi[b][:] = amplitude * phi0
    field.chi[b][:] = amplitude * chi0

    # phi(-dt/2) = phi0 + (dt/2)(d_x chi0 + i m phi0) at interior nodes
    for p, c in zip(field.phi, field.chi):
        dchi = (c[1:] - c[:-1]) / params.dx
        p[1:-1] += 0.5 * params.dt * (dchi + 1j * params.mass * p[1:-1])

    if policy.end_modes[0] is EndMode.DIRICHLET:
        field.phi[0][0] = 0.0
    if not interior_only:
        alphas, w_all, _ = _vertex_constants(graph.alphas, policy.vertex_mode)
        values = [field.phi[0][-1], *(p[0] for p in field.phi[1:])]
        shared = _vertex_shared_value(values, alphas, w_all)
        field.phi[0][-1] = shared / alphas[0]
        for j in range(1, field.n_bonds):
            field.phi[j][0] = shared / alphas[j]
            if policy.end_modes[j] is EndMode.DIRICHLET:
                field.phi[j][-1] = 0.0

    if normalize:
        from .diagnostics import total_norm

        if (total := total_norm(field, params)) > 0:
            field._state *= 1.0 / np.sqrt(total)

    field.initial_max = field.max_abs()
    return field


def _tbc_coefficients(kernel: BesselKernel, params: SimParams, factor: float = 1.0):
    """(denominator, numerator factor) of a transparent node's equation at
    level 0 and at every later level, which share one endpoint coefficient."""
    lam_a, beta = params.courant * factor, 0.5j * params.mass * params.dt
    endpoint = (_endpoint_coefficient(kernel, 0), _endpoint_coefficient(kernel, 1))
    return tuple((1.0 + lam_a * f + beta, 1.0 - lam_a * f - beta) for f in endpoint)


def _solve_tbc_node(
    q: complex, chi_adj: complex, history: _History, kernel: BesselKernel,
    level: int, two_lam: float, coefficients: tuple, right_end: bool,
    factor: float = 1.0,
) -> complex:
    """Advance a transparent boundary node and record its history entry.

    Combines the convolution relation for chi at the boundary with the
    half-cell update of the boundary phi node; the newest boundary value
    enters its own convolution through the trapezoid endpoint, so the two
    relations reduce to one linear equation for the new phi value, with the
    ``coefficients`` of ``_tbc_coefficients``.  The new entry is appended
    to ``history``, which stores its first entry halved: the trapezoid's
    half weight on the oldest value.
    """
    denom, scale = coefficients[level > 0]
    tail = _history_convolution(history, kernel, level)
    numer = scale * q
    if right_end:
        numer += two_lam * (chi_adj - factor * tail)
    else:
        numer -= two_lam * (chi_adj + factor * tail)
    p = numer / denom
    history.append(0.5 * (p + q))
    return p


def _divisor(den: complex) -> tuple[complex, float | None]:
    """(1 - i rat, scl): numpy's x / den is (1 - i rat) x scl, with both
    recomputed per element, while |Re den| >= |Im den| (m dt <= 2); there
    rat = Im den / Re den, scl = 1 / (Re den + Im den rat).  Else (den, None)."""
    if abs(den.imag) > abs(den.real):
        return den, None
    rat = den.imag / den.real
    return complex(1.0, -rat), 1.0 / (den.real + den.imag * rat)


def _divide(out: np.ndarray, divisor: tuple[complex, float | None]) -> None:
    """out /= den with np.divide's bits, given ``divisor = _divisor(den)``."""
    w, scl = divisor
    if scl is None:
        np.divide(out, w, out=out)
    else:
        np.multiply(w, out, out=out)  # w first: out * w rounds differently
        np.multiply(out.view(float), scl, out=out.view(float))


def _stencil(out, num, old, lam, hi, lo, divisor, diff) -> None:
    """out = (num * old - lam * (hi - lo)) / den, op by op, with
    ``divisor = _divisor(den)``."""
    np.subtract(hi, lo, out=diff)
    np.multiply(lam, diff, out=diff)
    np.multiply(num, old, out=out)
    np.subtract(out, diff, out=out)
    _divide(out, divisor)


def _history(field: SpinorField, key: str) -> _History:
    """The boundary's history buffer, created on the first step."""
    history = field.histories.get(key)
    if history is None:
        history = field.histories[key] = _History()
    if len(history) != field.time_level:
        raise ValueError(
            f"history '{key}' has {len(history)} entries at time level "
            f"{field.time_level}: step only the newest field of a run, with "
            "the boundary modes it started with"
        )
    return history


class _StepPlan:
    """What ``step`` derives from its graph, params and policy alone, with
    offsets into the buffers of the stepped field's layout: the vertex nodes,
    the cells beside them, the weights and W (None for a transparent vertex);
    per transparent boundary, vertex first, (history key, node, adjacent cell,
    right end, factor A, coefficients); the Dirichlet end nodes; the pads."""

    def __init__(self, field, graph, params, policy) -> None:
        interior_only = policy.vertex_mode is VertexMode.TRANSPARENT
        if interior_only and field.n_bonds != 1:
            raise ValueError(
                "transparent vertex mode applies to a bond-1-only field; "
                f"got {field.n_bonds} bonds"
            )
        if not interior_only and field.n_bonds != graph.n_bonds:
            raise ValueError("field does not cover the full graph")
        self.graph, self.params, self.policy = graph, params, policy
        self.lam, self.two_lam = params.courant, 2.0 * params.courant
        self.cp = 1.0 + 0.5j * params.mass * params.dt
        self.cm = 1.0 - 0.5j * params.mass * params.dt
        self.by_cp, self.by_cm = _divisor(self.cp), _divisor(self.cm)
        alphas, w_all, factor = _vertex_constants(graph.alphas, policy.vertex_mode)
        pads = [k - 1 for k in accumulate(b.cells + 1 for b in field.bonds)]
        nodes = [pads[0], *(k + 1 for k in pads[:-1])]
        cells = [nodes[0] - 1, *nodes[1:]]
        self.vertex = None if interior_only else (nodes, cells, list(alphas), w_all)
        ends = [("vertex", nodes[0], cells[0], True, factor)] if interior_only else []
        self.walls, self.pads, starts = [], np.array(pads), [0, *nodes[1:]]
        for bond, mode, start, stop in zip(field.bonds, policy.end_modes, starts, pads):
            right_end = bond.orientation is Orientation.OUTGOING
            node, cell = (stop, stop - 1) if right_end else (start, start)
            if mode is EndMode.DIRICHLET:
                self.walls.append(node)
            else:
                ends.append((f"end{bond.index}", node, cell, right_end, 1.0))
        self.transparent = [
            (*e, _tbc_coefficients(policy.kernel, params, e[4])) for e in ends
        ]


def step(
    field: SpinorField,
    graph: StarGraph,
    params: SimParams,
    policy: BoundaryPolicy,
    out: SpinorField | None = None,
) -> SpinorField:
    """Advance the field one time step into ``out``, or a new field.

    ``out`` is a field of the same layout that the caller is done with,
    e.g. the one two levels back; all its values are overwritten, and it
    takes the next time level, the histories and the initial maximum.
    ``field`` is never written to.  All phi nodes are updated first
    (interior stencil, then vertex and end conditions), then every chi cell
    from the new phi.  The constants of ``graph``, ``params`` and ``policy``
    are planned at a run's first step and handed on with the new field, so
    none of the three may change during a run.  Transparent boundaries
    append to the field's history buffers, which the new field takes over.
    Raises ValueError for an older field of the run, and for an ``out``
    that is ``field``, shares memory with it or has another layout;
    InstabilityError when a value exceeds the overflow guard or is not finite.
    """
    plan = field._plan
    if not (plan and plan.graph is graph and plan.params is params
            and plan.policy is policy):
        plan = _StepPlan(field, graph, params, policy)
    phi, chi = field.phi_buf, field.chi_buf
    if out is None:
        out = field._twin()
    elif out is field:
        raise ValueError("out is the field being stepped; pass another field")
    elif out.bonds != field.bonds:
        raise ValueError("out has another bond layout than the field being stepped")
    elif np.may_share_memory(out._arena, field._arena):
        raise ValueError("out shares memory with the field being stepped")
    level = field.time_level
    out.time_level, out.histories, out._plan = level + 1, field.histories, plan
    out.initial_max = field.initial_max

    # one stencil per component over all bonds; the vertex and end updates
    # and the pad reset overwrite the throwaway values beside each junction
    new_phi = out.phi_buf
    old_inner, old_cells, chi_hi, chi_lo, _, _, _, _ = field._operands
    new_inner, new_cells, _, _, phi_hi, phi_lo, d, d_in = out._operands
    _stencil(new_inner, plan.cm, old_inner, plan.lam, chi_hi, chi_lo, plan.by_cp, d_in)

    if plan.vertex is not None:
        nodes, cells, alphas, w_all = plan.vertex
        shared_old = _vertex_shared_value([phi[k] for k in nodes], alphas, w_all)
        flux = chi[cells[0]] / alphas[0]
        for j in range(1, len(cells)):
            flux -= chi[cells[j]] / alphas[j]
        shared_new = (plan.cm * shared_old + plan.two_lam * flux / w_all) / plan.cp
        for k, a in zip(nodes, alphas):
            new_phi[k] = shared_new / a
    for key, node, cell, right_end, factor, coefficients in plan.transparent:
        new_phi[node] = _solve_tbc_node(
            phi[node], chi[cell], _history(field, key), policy.kernel, level,
            plan.two_lam, coefficients, right_end, factor,
        )
    for node in plan.walls:
        new_phi[node] = 0.0

    _stencil(new_cells, plan.cp, old_cells, plan.lam, phi_hi, phi_lo, plan.by_cm, d)
    out.chi_buf[plan.pads] = 0.0
    _check_stability(out, params)
    return out


def _check_stability(field: SpinorField, params: SimParams) -> None:
    """Raise InstabilityError iff ``not field.max_abs() <= limit``.

    max |z| <= ||a||_2, so a 2-norm of at most half the limit (the half
    absorbs the dot's rounding) clears the step; one dot covers phi, chi
    and the +0 gaps between them.  NaN, inf and overflow fail that bound,
    and only then is the exact peak computed.
    """
    # a zero initial field is guarded against non-finite values only
    limit = OVERFLOW_FACTOR * field.initial_max or sys.float_info.max
    # below 1e-150, squares of values near the limit could underflow
    if limit >= 1e-150:
        state = field._state
        if np.sqrt(np.vdot(state, state).real) <= 0.5 * limit:
            return
    peak = field.max_abs()
    if not peak <= limit:  # true for NaN and inf too
        raise InstabilityError(_instability_report(field, params, peak))


def _instability_report(field: SpinorField, params: SimParams, peak: float) -> str:
    """Name the step, the location and class of the peak, and dt/dx."""
    # the first peak in phi, bond after bond, then chi: the arena's order
    mag = np.abs(field._state)
    mag[np.isnan(mag)] = np.inf
    row, k = divmod(int(np.argmax(mag)), field._arena.shape[1])
    kind = ("phi node", "chi cell")[row]
    j = sum(p.start <= k for p, _ in field._cuts) - 1
    k -= field._cuts[j][0].start
    bond = field.bonds[j]
    vertex = bond.cells if bond.orientation is Orientation.INCOMING else 0
    touched = {k, k + row}  # a chi cell touches the nodes on both sides
    if vertex in touched:
        where = "vertex"
    elif bond.cells - vertex in touched:
        where = "end"
    else:
        where = "interior"
    place = f"{kind} {k} of bond {bond.index} ({where}); dt/dx = {params.courant:g}"
    if not np.isfinite(peak):
        return (
            f"non-finite field value at step {field.time_level}, "
            f"first at {place}"
        )
    return (
        f"field grew to {peak:.3e} at step {field.time_level} "
        f"({peak / field.initial_max:.1e} x initial), peak at {place}"
    )


@dataclass(frozen=True)
class Snapshot:
    """Node-sampled field and density of one bond at one output time."""

    bond_index: int
    time: float
    x: np.ndarray
    phi: np.ndarray
    chi: np.ndarray
    density: np.ndarray


@dataclass
class RunResult:
    records: list["DiagnosticsRecord"]
    snapshots: list[Snapshot]
    graph: StarGraph
    field: SpinorField


def run(config: "ExperimentConfig", policy: BoundaryPolicy | None = None) -> RunResult:
    """Execute one configured simulation and collect diagnostics.

    Samples a diagnostics record at t = 0, every ``sample_every`` steps and
    at the final step; node-resolved snapshots are taken at the steps
    nearest to the configured times and labelled with the sampled time
    n dt.  ``policy`` defaults to ``config.build_policy()``; runs with the
    same boundary modes, mass, dt and n_steps may share one.  Each step
    writes into the field two levels back; step instability propagates.
    """
    from .diagnostics import compute_record, node_profile

    config.validate()
    graph = config.build_graph()
    params = config.sim_params()
    policy = policy or config.build_policy()
    field = build_initial_field(
        graph,
        params,
        policy,
        x0=config.x0,
        sigma=config.sigma,
        bond_index=config.source_bond,
        amplitude=config.amplitude,
        normalize=config.normalize_initial,
    )

    snap_steps = set(config.snapshot_steps())

    records = []
    snapshots: list[Snapshot] = []

    def observe(n: int) -> None:
        if n % config.sample_every == 0 or n == params.n_steps:
            records.append(compute_record(field, params, n * params.dt))
        if n in snap_steps:
            for j, bond in enumerate(field.bonds):
                x, phi, chi, dens = node_profile(field, j + 1, params)
                snapshots.append(
                    Snapshot(bond.index, n * params.dt, x, phi, chi, dens)
                )

    observe(0)
    spare = None
    for n in range(1, params.n_steps + 1):
        field, spare = step(field, graph, params, policy, out=spare), field
        observe(n)

    return RunResult(records, snapshots, graph, field)
