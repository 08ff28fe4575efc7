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

Transparent boundaries (see boundaries): the running integral of the
relation is evaluated by trapezoidal quadrature over the stored boundary
history, whose first entry is stored halved (the trapezoid's half weight);
the newest history entry appears inside its own convolution through the
trapezoid endpoint, which keeps the boundary one-step implicit.
"""
from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .bessel import BesselKernel, check_run_constants
from .boundaries import BoundaryPolicy, EndMode, VertexMode, vertex_tbc_factor
from .graph import Bond, Orientation, StarGraph

if TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig
    from .diagnostics import DiagnosticsRecord

__all__ = [
    "InstabilityError",
    "MissingHistoryError",
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

# a run's stencils cover a window of a multiple of this many slots
_CHUNK = 64


class InstabilityError(RuntimeError):
    """Field values exceeded the overflow guard or became non-finite."""


@dataclass(frozen=True)
class SimParams:
    """Time-stepping parameters; the grid spacing is the graph's."""

    mass: float
    dt: float
    n_steps: int

    def validate(self) -> None:
        check_run_constants(self.mass, self.dt, self.n_steps)


def check_cfl(dt: float, dx: float) -> None:
    """The CFL rule: the scheme is stable for dt/dx <= 1."""
    if dt / dx > 1.0 + 1e-12:
        raise ValueError(f"CFL violated: dt/dx = {dt / dx} exceeds 1")


class SpinorField:
    """A run's field: per-bond (phi, chi) arrays at one staggered time level,
    packed, with the step plan of the run's graph, params and policy.

    ``SpinorField(graph, params, policy)`` is the one constructor.  It checks
    the params, dt/dx <= 1 on the graph's grid and the policy against the
    graph, then makes a zero field at time level 0, with ``initial_max =
    0.0`` and no histories, on the simulated bonds ``bonds``: all graph
    bonds, or bond 1 alone for a transparent vertex.  Last it makes the step
    plan, which builds the kernel when a boundary is transparent; every
    ``step`` of the field runs on that plan.  ``phi_buf`` holds the nodes of
    every bond, bond after bond; ``chi_buf`` holds the cells, with one pad
    slot after each bond's last cell, so phi node k and chi cell k share one
    offset and one stencil call covers all bonds.  The pads stay +0.
    ``phi`` and ``chi`` are tuples of per-bond views into the buffers: write
    values through them, never rebind them.

    The buffers and the stencil scratch are the rows of one zero arena, each
    rounded up to 4 values (64 bytes) and all cut from one zero byte array
    at its first 64-byte boundary; the gap slots after each buffer stay +0,
    so the guard reads phi and chi as one vector.

    After n accepted steps the stored phi sits at t = (n - 1/2) dt and chi
    at t = n dt.  ``histories`` maps each transparent boundary ('vertex',
    'end<j>') to a zeroed array of n_steps + 1 entries, made by the step
    from level 0, whose entry k the step from level k writes.  ``copy``
    makes a field of the same graph, params and policy at the same level,
    which shares no state with this one; ``copy.copy`` and ``copy.deepcopy``
    make that copy.
    """

    def __init__(self, graph: StarGraph, params: SimParams,
                 policy: BoundaryPolicy) -> None:
        params.validate()
        check_cfl(params.dt, graph.dx)
        policy.validate_for(graph)
        interior_only = policy.vertex_mode is VertexMode.TRANSPARENT
        self.bonds = bonds = graph.bonds[:1] if interior_only else graph.bonds
        self.time_level, self.initial_max, self.histories = 0, 0.0, {}
        ends = list(accumulate(b.cells + 1 for b in bonds))
        self._cuts = [(slice(a, z), slice(a, z - 1)) for a, z in zip([0, *ends], ends)]
        n = ends[-1]
        row = -(-n // 4) * 4
        raw = np.zeros(3 * 16 * row + 64, np.uint8)
        start = -raw.ctypes.data % 64
        arena = raw[start:start + 3 * 16 * row].view(complex).reshape(3, row)
        phi_buf, chi_buf = arena[0, :n], arena[1, :n]
        self._arena, self._state = arena, arena[:2].reshape(-1)
        self.phi_buf, self.chi_buf = phi_buf, chi_buf
        self.phi = tuple(phi_buf[p] for p, _ in self._cuts)
        self.chi = tuple(chi_buf[c] for _, c in self._cuts)
        self._last = 0, ()
        self._plan = _StepPlan(self, graph, params, policy)

    def _window(self, w: int) -> tuple:
        """The stencil operands of slots [0, w), kept for the last w asked:
        inner nodes, cells but the last, the values they difference,
        scratch for both stencils, and float views of the two outputs."""
        if self._last[0] != w:
            phi, chi, d = self.phi_buf[:w], self.chi_buf[:w], self._arena[2, :w - 1]
            inner, cells = phi[1:-1], chi[:-1]
            self._last = w, (inner, cells, chi[1:-1], chi[:-2], phi[1:], phi[:-1],
                             d, d[:-1], inner.view(float), cells.view(float))
        return self._last[1]

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def max_abs(self) -> float:
        """Largest |value| of phi and chi; NaN if any value is NaN."""
        return float(np.max(np.abs(self._state)))  # a NaN sticks

    def copy(self) -> "SpinorField":
        plan = self._plan
        twin = SpinorField(plan.graph, plan.params, plan.policy)
        twin._state[:] = self._state
        twin.time_level, twin.initial_max = self.time_level, self.initial_max
        twin.histories = copy.deepcopy(self.histories)
        return twin

    __copy__ = copy

    def __deepcopy__(self, memo) -> "SpinorField":
        return self.copy()


def check_packet(x0: float, sigma: float, bond: Bond) -> None:
    """The packet rule: x0 and sigma finite, sigma positive, x0 on the bond."""
    for name, value in (("x0", x0), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not bond.contains(x0):
        raise ValueError(f"x0 = {x0} lies outside bond {bond.index}")


def check_source(graph: StarGraph, vertex_mode: VertexMode, index: int) -> Bond:
    """The source rule: bond ``index`` of the graph, which the run must
    simulate; a transparent vertex simulates bond 1 only."""
    if not 1 <= index <= graph.n_bonds:
        raise ValueError(f"bond must be in 1..{graph.n_bonds}, got {index}")
    if vertex_mode is VertexMode.TRANSPARENT and index != 1:
        raise ValueError(f"a transparent vertex simulates bond 1 only, got bond {index}")
    return graph.bonds[index - 1]


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


def _vertex_shared_value(
    values: list[complex], alphas: list[float], w_all: float
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

    Makes the field of ``graph``, ``params`` and ``policy`` (see
    ``SpinorField``), then writes the packet: chi keeps its t = 0 samples;
    phi is pulled back to t = -dt/2 with a Taylor half step (using the
    staggered derivative of chi), which keeps the scheme second order in
    time.  The field's step plan then sets the end and vertex nodes.  The
    state is optionally rescaled to unit total norm.
    """
    source = check_source(graph, policy.vertex_mode, bond_index)
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")

    field = SpinorField(graph, params, policy)
    plan = field._plan
    phi0, chi0 = gaussian_spinor(x0, sigma, source)
    p, c = field.phi[bond_index - 1], field.chi[bond_index - 1]
    p[:], c[:] = amplitude * phi0, amplitude * chi0
    # phi(-dt/2) = phi0 + (dt/2)(d_x chi0 + i m phi0) at interior nodes; the
    # other bonds are +0 and would stay so
    dchi = (c[1:] - c[:-1]) / graph.dx
    p[1:-1] += 0.5 * params.dt * (dchi + 1j * params.mass * p[1:-1])

    phi = field.phi_buf
    phi[plan.walls] = 0.0
    if plan.vertex is not None:
        nodes, _, alphas, w_all = plan.vertex
        shared = _vertex_shared_value([phi[k] for k in nodes], alphas, w_all)
        for k, a in zip(nodes, alphas):
            phi[k] = shared / a

    if normalize:
        from .diagnostics import total_norm

        if (total := total_norm(field, params)) > 0:
            field._state *= 1.0 / np.sqrt(total)

    field.initial_max = field.max_abs()
    return field


class MissingHistoryError(ValueError):
    """Raised when a step's level passes its plan's n_steps, the levels the
    kernel covers."""


def _history_convolution(past: np.ndarray, kernel: BesselKernel, level: int) -> complex:
    """Trapezoid convolution over the strictly-past history entries.

    ``past[k]`` is the boundary value at level k, the first one halved;
    entries from ``level`` on are not read.  Returns dt * (g_level h_0 / 2
    + sum_{k=1}^{level-1} g_{level-k} h_k) where g are the kernel
    convolution weights; zero at level 0 (empty time interval).
    """
    n = len(kernel.reversed_weights) - 1
    if level > n:
        raise MissingHistoryError(f"kernel covers {n} steps, level {level} requested")
    g = kernel.reversed_weights[n - level : n]
    return complex(kernel.dt * np.dot(g, past[:level]))


def _tbc_coefficients(kernel: BesselKernel, lam: float, factor: float = 1.0):
    """(denominator, numerator factor) of a transparent node's equation at
    level 0 and at every later level, at lam = dt/dx; the newest value's
    multiplier is 1 at level 0 (an empty interval), then 1 + dt g_0 / 2."""
    lam_a, beta = lam * factor, 0.5j * kernel.mass * kernel.dt
    endpoint = (1.0 + 0.0j, 1.0 + 0.5 * kernel.dt * kernel.conv_weights[0])
    return tuple((1.0 + lam_a * f + beta, 1.0 - lam_a * f - beta) for f in endpoint)


def _solve_tbc_node(
    q: complex, chi_adj: complex, history: np.ndarray, kernel: BesselKernel,
    level: int, two_lam: float, coefficients: tuple, right_end: bool,
    factor: float = 1.0,
) -> complex:
    """Advance a transparent boundary node and record its history entry.

    Combines the convolution relation for chi at the boundary with the
    half-cell update of the boundary phi node; the newest boundary value
    enters its own convolution through the trapezoid endpoint, so the two
    relations reduce to one linear equation for the new phi value, with the
    ``coefficients`` of ``_tbc_coefficients``.  The new entry is written
    at ``history[level]``, halved at level 0: the trapezoid's half weight
    on the oldest value (exact above 2^-1021, so the sums round the same).
    """
    denom, scale = coefficients[level > 0]
    tail = _history_convolution(history, kernel, level)
    numer = scale * q
    if right_end:
        numer += two_lam * (chi_adj - factor * tail)
    else:
        numer -= two_lam * (chi_adj + factor * tail)
    p = numer / denom
    entry = 0.5 * (p + q)
    history[level] = entry if level else 0.5 * entry
    return p


def _divisor(den: complex) -> tuple[complex, float | None]:
    """(1 - i rat, scl): numpy's x / den is (1 - i rat) x scl, with both
    recomputed per element, while |Re den| >= |Im den| (m dt <= 2); there
    rat = Im den / Re den, scl = 1 / (Re den + Im den rat).  Else (den, None)."""
    if abs(den.imag) > abs(den.real):
        return den, None
    rat = den.imag / den.real
    return complex(1.0, -rat), 1.0 / (den.real + den.imag * rat)


def _divide(out: np.ndarray, flat: np.ndarray,
            divisor: tuple[complex, float | None]) -> None:
    """out /= den with np.divide's bits, given ``flat = out.view(float)``
    and ``divisor = _divisor(den)``."""
    w, scl = divisor
    if scl is None:
        np.divide(out, w, out=out)
    else:
        np.multiply(w, out, out=out)  # w first: out * w rounds differently
        np.multiply(flat, scl, out=flat)


def _stencil(out, flat, num, old, lam, hi, lo, divisor, diff) -> None:
    """out = (num * old - lam * (hi - lo)) / den, op by op, with
    ``flat = out.view(float)`` and ``divisor = _divisor(den)``."""
    np.subtract(hi, lo, out=diff)
    np.multiply(lam, diff, out=diff)
    np.multiply(num, old, out=out)
    np.subtract(out, diff, out=out)
    _divide(out, flat, divisor)


class _StepPlan:
    """The junctions of a field's run, stated once when the field is made:
    what ``build_initial_field`` and ``step`` derive from the graph, params
    and policy alone, with offsets into the buffers of the field's layout.
    The vertex nodes, the cells beside them, the weights and W (None for a
    transparent vertex); per transparent boundary, vertex first, (history
    key, node, adjacent cell, right end, factor A, coefficients); the
    Dirichlet end nodes; the pads; ``kernel``, built from the params' mass,
    dt and n_steps when a boundary is transparent (else None); ``reach``,
    1 + the largest vertex or transparent node; ``start``, None (every slot)
    except while ``run`` steps the field over its window."""

    def __init__(self, field, graph, params, policy) -> None:
        self.graph, self.params, self.policy = graph, params, policy
        self.lam = params.dt / graph.dx
        self.two_lam = 2.0 * self.lam
        self.cp = 1.0 + 0.5j * params.mass * params.dt
        self.cm = 1.0 - 0.5j * params.mass * params.dt
        self.by_cp, self.by_cm = _divisor(self.cp), _divisor(self.cm)
        interior_only = policy.vertex_mode is VertexMode.TRANSPARENT
        weighted = policy.vertex_mode is not VertexMode.KIRCHHOFF
        alphas = np.asarray(graph.alphas if weighted else [1.0] * graph.n_bonds, float)
        w_all = np.sum(1.0 / alphas ** 2)
        factor = vertex_tbc_factor(graph.alphas) if interior_only else None
        pads = [p.stop - 1 for p, _ in field._cuts]
        nodes = [pads[0], *(k + 1 for k in pads[:-1])]
        cells = [nodes[0] - 1, *nodes[1:]]
        # Python floats: numpy divides a complex scalar by one with the bits
        # it gives for an np.float64, in less than half the time
        self.vertex = None if interior_only else (nodes, cells, alphas.tolist(),
                                                  float(w_all))
        ends = [("vertex", nodes[0], cells[0], True, factor)] if interior_only else []
        self.walls, self.pads, starts = [], pads, [0, *nodes[1:]]
        for bond, mode, start, stop in zip(field.bonds, policy.end_modes, starts, pads):
            right_end = bond.orientation is Orientation.OUTGOING
            node, cell = (stop, stop - 1) if right_end else (start, start)
            if mode is EndMode.DIRICHLET:
                self.walls.append(node)
            else:
                ends.append((f"end{bond.index}", node, cell, right_end, 1.0))
        self.kernel = (BesselKernel.build(params.mass, params.dt, params.n_steps)
                       if ends else None)
        self.transparent = [
            (*e, _tbc_coefficients(self.kernel, self.lam, e[4])) for e in ends
        ]
        junctions = [*(self.vertex[0] if self.vertex else ()), *(e[1] for e in ends)]
        self.reach, self.start = 1 + max(junctions, default=-1), None


def step(field: SpinorField) -> SpinorField:
    """Advance ``field`` one time step in place, on its own plan, and return it.

    A step from level 0 gives the field a zeroed history of n_steps + 1
    entries per transparent boundary.  The vertex's new shared value and
    each transparent node's new value, with its history entry at the old
    level, are computed from the old level.  The phi stencil then
    overwrites the inner nodes, the vertex, transparent and wall nodes are
    written, and the chi stencil overwrites the cells from the new phi.  A
    stencil reads each slot's old value where it writes the new one, so the
    bits are those of a step into another field.  While ``run`` steps the
    field, the stencils cover only the slots the packet can have reached,
    [0, start + level + 2) rounded up to 64 slots: beyond them the field
    holds +0, which is what a full stencil makes of +0 inputs (at m = 0
    too), so the bits are those of a full step.  Otherwise they cover every
    slot.  MissingHistoryError past the kernel's n_steps leaves the field
    as it was.  InstabilityError, when a value exceeds the overflow guard or
    is not finite, leaves the field at the new level, which its message
    names.
    """
    plan = field._plan
    phi, chi = field.phi_buf, field.chi_buf
    level = field.time_level
    if level == 0:
        field.histories = {key: np.zeros(plan.params.n_steps + 1, complex)
                           for key, *_ in plan.transparent}

    if plan.vertex is not None:
        nodes, cells, alphas, w_all = plan.vertex
        shared_old = _vertex_shared_value([phi[k] for k in nodes], alphas, w_all)
        flux = chi[cells[0]] / alphas[0]
        for j in range(1, len(cells)):
            flux -= chi[cells[j]] / alphas[j]
        shared_new = (plan.cm * shared_old + plan.two_lam * flux / w_all) / plan.cp
    ends = []
    for key, node, cell, right_end, factor, coefficients in plan.transparent:
        ends.append((node, _solve_tbc_node(
            phi[node], chi[cell], field.histories[key], plan.kernel, level,
            plan.two_lam, coefficients, right_end, factor,
        )))

    # one stencil per component over all bonds, or in a run over [0, w), whose
    # writes reach slot start + level; the vertex and end updates and the pad
    # reset overwrite the throwaway values beside each junction
    n, start = len(phi), plan.start
    w = n if start is None else min(n, -(-(start + level + 2) // _CHUNK) * _CHUNK)
    inner, cells_w, chi_hi, chi_lo, phi_hi, phi_lo, d, d_in, inner_f, cells_f = (
        field._window(w))
    _stencil(inner, inner_f, plan.cm, inner, plan.lam, chi_hi, chi_lo, plan.by_cp, d_in)
    if plan.vertex is not None:
        for k, a in zip(nodes, alphas):
            phi[k] = shared_new / a
    for node, value in ends:
        phi[node] = value
    for node in plan.walls:
        phi[node] = 0.0
    _stencil(cells_w, cells_f, plan.cp, cells_w, plan.lam, phi_hi, phi_lo, plan.by_cm, d)
    for k in plan.pads:
        chi[k] = 0.0
    field.time_level = level + 1
    _check_stability(field, plan.params)
    return field


def _check_stability(field: SpinorField, params: SimParams) -> None:
    """Raise InstabilityError iff ``not field.max_abs() <= limit``.

    max |z| <= ||a||_2, so a 2-norm of at most half the limit (the half
    absorbs the dot's rounding) clears the step; one dot covers phi, chi
    and the +0 gaps between them.  NaN, inf and overflow fail that bound,
    and only then is the exact peak computed.
    """
    # with a zero initial field, or a limit past the largest float, only
    # non-finite values trip
    limit = min(OVERFLOW_FACTOR * field.initial_max or math.inf, sys.float_info.max)
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
    lam = params.dt / bond.dx
    place = f"{kind} {k} of bond {bond.index} ({where}); dt/dx = {lam:g}"
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
    same boundary modes may share one.  The run steps one field in place,
    over the window of slots that the packet can have reached (see
    ``step``): it sets the window's ``start`` on the field's plan, past the
    source bond and the vertex and transparent nodes, and clears it after
    its last step, so a step on the returned field covers every slot.
    Step instability propagates.
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

    # only the packet's bond and the junctions hold values that are not +0
    plan = field._plan
    plan.start = max(field._cuts[config.source_bond - 1][0].stop, plan.reach)
    observe(0)
    for n in range(1, params.n_steps + 1):
        step(field)
        observe(n)
    plan.start = None
    return RunResult(records, snapshots, graph, field)
