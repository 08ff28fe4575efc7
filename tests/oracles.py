"""Independent reference solutions used only by the test suite.

Deliberately self-contained: the free-line solver below re-implements the
staggered leap-frog scheme on a single interval in plain numpy (no imports
from the package under test), and the Bessel references are mpmath's J0 and
J1 in extended precision and the ascending series of J0 with a rigorous
truncation bound.  These provide the ground truths the production code is
checked against.  The scalar Bessel loop further down is a bit reference,
not a truth: the kernel samples must equal it byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import mpmath
import numpy as np

SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class OracleRun:
    """Reference density profile with provenance.

    ``refinement`` is the grid refinement factor relative to the run being
    validated; 0 marks a closed-form (gridless) reference.
    """

    description: str
    refinement: int
    x: np.ndarray
    density: np.ndarray
    norm: float

    def __post_init__(self) -> None:
        if self.refinement != 0 and self.refinement < 2:
            raise ValueError(
                f"oracle grid must be at least 2x finer, got {self.refinement}"
            )


def gaussian(x, x0: float, sigma: float):
    return (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma**2)
    )


def carrier_packet(x, x0: float, sigma: float, k0: float, mass: float, t: float = 0.0):
    """(phi, chi) at x of a Gaussian packet with carrier e^{i k0 x} on the
    positive-energy branch of the continuum bond equations, at time t.

    A plane wave e^{i(k x - w t)} of d/dt phi = -d/dx chi - i m phi,
    d/dt chi = -d/dx phi + i m chi needs w phi = k chi + m phi, so on the
    branch w = +sqrt(k^2 + m^2) its spinor is (1, (w - m)/k), which moves
    right at the group velocity k/w for k > 0.  The packet is ``gaussian``
    times the carrier and the spinor of k0.  It is exact at t = 0; at
    other t the envelope moves rigidly at the group velocity of k0 (no
    spreading), which is meant for the half step that puts phi at
    t = -dt/2.
    """
    omega = math.hypot(k0, mass)
    phi = gaussian(x - k0 / omega * t, x0, sigma) * np.exp(1j * (k0 * x - omega * t))
    return phi, (omega - mass) / k0 * phi


def _check_support(values: np.ndarray, what: str) -> None:
    edge = max(abs(values[0]), abs(values[-1]))
    if edge > SUPPORT_TOL:
        raise ValueError(
            f"{what} reaches the oracle boundary (edge value {edge:.3e})"
        )


def _density_on_nodes(phi, chi, dx, dt, mass):
    """Same observable definition as the production diagnostics:
    phi advanced half a step to chi's time level, chi averaged to nodes."""
    phat = phi.copy()
    dchi = np.empty_like(phi)
    dchi[1:-1] = (chi[1:] - chi[:-1]) / dx
    dchi[0] = (-2 * chi[0] + 3 * chi[1] - chi[2]) / dx
    dchi[-1] = (2 * chi[-1] - 3 * chi[-2] + chi[-3]) / dx
    phat = phi - 0.5 * dt * (dchi + 1j * mass * phi)
    chn = np.empty_like(phi)
    chn[1:-1] = 0.5 * (chi[1:] + chi[:-1])
    chn[0] = 0.5 * (3 * chi[0] - chi[1])
    chn[-1] = 0.5 * (3 * chi[-1] - chi[-2])
    return np.abs(phat) ** 2 + np.abs(chn) ** 2


def free_line_solution(
    phi0: Callable[[np.ndarray], np.ndarray],
    chi0: Callable[[np.ndarray], np.ndarray],
    mass: float,
    t: float,
    domain: tuple[float, float],
    dx: float,
    dt: float,
    refinement: int = 4,
) -> OracleRun:
    """Reference density of the free-line evolution at time t.

    For mass 0 the two-component system decouples into counter-propagating
    characteristics u = phi + chi and v = phi - chi, so the density is
    evaluated in closed form.  For mass > 0 a leap-frog run on a grid
    ``refinement`` times finer (in both dx and dt) is used, downsampled to
    the caller's nodes.  The initial data must be supported away from the
    domain ends and must not reach them by time t.
    """
    lo, hi = domain
    n_coarse = int(round((hi - lo) / dx))
    x_coarse = lo + dx * np.arange(n_coarse + 1)
    _check_support(phi0(x_coarse), "initial phi")
    _check_support(chi0(x_coarse), "initial chi")

    if mass == 0.0:
        # u moves right, v moves left, both at unit speed
        def phi_t(x):
            u = phi0(x - t) + chi0(x - t)
            v = phi0(x + t) - chi0(x + t)
            return 0.5 * (u + v)

        def chi_t(x):
            u = phi0(x - t) + chi0(x - t)
            v = phi0(x + t) - chi0(x + t)
            return 0.5 * (u - v)

        density = np.abs(phi_t(x_coarse)) ** 2 + np.abs(chi_t(x_coarse)) ** 2
        _check_support(density, "transported density")
        norm = float(np.trapezoid(density, x_coarse))
        return OracleRun("massless transport, closed form", 0, x_coarse, density, norm)

    fdx = dx / refinement
    fdt = dt / refinement
    n_steps = int(round(t / fdt))
    n = n_coarse * refinement
    x = lo + fdx * np.arange(n + 1)
    xc = x[:-1] + 0.5 * fdx

    phi = phi0(x).astype(complex)
    chi = chi0(xc).astype(complex)
    # stagger phi back to t = -dt/2 (second-order initialization)
    dchi = (chi[1:] - chi[:-1]) / fdx
    phi[1:-1] += 0.5 * fdt * (dchi + 1j * mass * phi[1:-1])
    phi[0] = phi[-1] = 0.0  # Dirichlet walls, never reached

    lam = fdt / fdx
    cp = 1.0 + 0.5j * mass * fdt
    cm = 1.0 - 0.5j * mass * fdt
    for _ in range(n_steps):
        phi[1:-1] = (cm * phi[1:-1] - lam * (chi[1:] - chi[:-1])) / cp
        chi = (cp * chi - lam * (phi[1:] - phi[:-1])) / cm

    density_fine = _density_on_nodes(phi, chi, fdx, fdt, mass)
    _check_support(density_fine, "evolved density")
    norm = float(np.trapezoid(density_fine, x))
    return OracleRun(
        f"fine-grid leap-frog, {refinement}x refined",
        refinement,
        x_coarse,
        density_fine[::refinement],
        norm,
    )


def besselj_reference(order: int, z) -> np.ndarray:
    """J0 (order 0) or J1 (order 1) at every z, from mpmath's ``besselj``
    at 40 digits, rounded once to float."""
    with mpmath.workdps(40):
        return np.array([float(mpmath.besselj(order, v)) for v in np.ravel(z)])


class BesselSeriesValue(NamedTuple):
    value: float
    bound: float


def bessel_series_reference(z: float, terms: int = 200) -> BesselSeriesValue:
    """Extended-precision partial sum of J0 = sum_k (-z^2/4)^k / (k!)^2.

    Returns the sum and a rigorous bound on the neglected tail: past term K
    the ratio of consecutive terms is below q/(K+1)^2 in size, q = z^2/4, so
    the tail is dominated by a geometric series once that ratio drops below
    one.  Raises if the budgeted number of terms cannot certify convergence.
    """
    if z < 0:
        raise ValueError(f"z must be non-negative, got {z}")
    if terms < 1:
        raise ValueError("need at least one term")
    with mpmath.workdps(60):
        q = mpmath.mpf(z) ** 2 / 4
        term = mpmath.mpf(1)
        total = mpmath.mpf(1)
        for k in range(1, terms):
            term *= -q / k**2
            total += term
        next_term = abs(term) * q / mpmath.mpf(terms) ** 2
        ratio = q / mpmath.mpf(terms + 1) ** 2
        if ratio >= 1:
            raise ValueError(
                f"series for z = {z} not certified within {terms} terms"
            )
        bound = next_term / (1 - ratio)
        return BesselSeriesValue(float(total), float(bound))


def _horner(coefficients, x: float) -> float:
    # highest power first, as the kernel sums (from 0.0: 0.0 * x + c is c)
    total = 0.0
    for c in coefficients:
        total = total * x + c
    return total


def scalar_bessel_j(order: int, z: float) -> float:
    """J0 (order 0) or J1 (order 1) at one z >= 0, one Python loop per call.

    The three branches of the kernel's array evaluation (series below 4,
    16-node midpoint rule below 25, Hankel's expansion beyond), written
    out for one float with every operation in the same order, so its
    results are the bits every kernel sample must keep: a sample may not
    depend on the other arguments it is evaluated with.  Not a check of
    accuracy (``besselj_reference`` and ``bessel_series_reference`` are).
    cos and sin are numpy's, the routines the array evaluation calls.
    """
    if z < 4.0:
        facts = [float(math.factorial(k)) for k in range(18)]
        if order == 0:
            coefficients = [1.0 / (f * f) for f in facts]
        else:
            coefficients = [1.0 / (f * f * (k + 1)) for k, f in enumerate(facts)]
        value = _horner(coefficients[::-1], -0.25 * z * z)
        return value if order == 0 else 0.5 * z * value
    if z < 25.0:
        total = 0.0
        for k in range(16):
            node = float(np.sin((k + 0.5) * (np.pi / 32)))
            x = z * node
            total += float(np.cos(x)) if order == 0 else float(np.sin(x)) * node
        return total / 16
    # P = sum_k (-1)^k a_2k w^k and Q z = sum_k (-1)^k a_2k+1 w^k, w = 1/z^2,
    # a_k = prod_{j<=k} (4 order^2 - (2j-1)^2) / (k! 8^k)
    a = [1.0]
    for k in range(1, 24):
        a.append(a[-1] * (4 * order * order - (2 * k - 1) ** 2) / (8.0 * k))
    signed = [(-1) ** (k // 2) * v for k, v in enumerate(a)]
    w, amp = 1.0 / (z * z), 1.0 / float(np.sqrt(np.pi * z))
    c, s = float(np.cos(z)), float(np.sin(z))
    p, q = _horner(signed[-2::-2], w), _horner(signed[::-2], w) / z
    if order == 0:
        return amp * (p * (c + s) - q * (s - c))
    return amp * (p * (s - c) + q * (c + s))


def leapfrog_interior(old_phi, old_chi, new_phi, lam, cp, cm):
    """Expression form of one bond's interior leap-frog update.

    Returns the new interior phi from the old fields and the new chi from
    the new phi (whose end nodes the boundary conditions set).  The stepper
    must reproduce these bits exactly: it may reorder nothing, so for
    example ``(cm / cp) * old`` in place of ``cm * old / cp`` fails.
    """
    phi = (cm * old_phi[1:-1] - lam * (old_chi[1:] - old_chi[:-1])) / cp
    chi = (cp * old_chi - lam * (new_phi[1:] - new_phi[:-1])) / cm
    return phi, chi


def inverse_closed_step(phi, chi, weights, lam, cp, cm) -> None:
    """Undo one step of a closed star in place: Dirichlet far ends and a
    vertex that keeps a_j phi_j(0) on one shared value, with ``weights``
    the a_j (all 1 for a Kirchhoff vertex).  ``phi`` and ``chi`` are the
    per-bond arrays; bond 1 ends at the vertex, the others start there.

    The forward step solves cp x_new = cm x_old - lam D y for phi from the
    older chi and then for chi from the newer phi, so the inverse runs
    backwards: chi first, from the newer chi and phi, then phi and the
    vertex from the older chi, whose flux the forward vertex update used.
    """
    for p, c in zip(phi, chi):
        c[:] = (cm * c + lam * (p[1:] - p[:-1])) / cp
    for p, c in zip(phi, chi):
        p[1:-1] = (cp * p[1:-1] + lam * (c[1:] - c[:-1])) / cm
    a = np.asarray(weights, float)
    w_all = np.sum(1.0 / a ** 2)
    values = [phi[0][-1], *(p[0] for p in phi[1:])]
    cells = [chi[0][-1], *(c[0] for c in chi[1:])]
    shared = sum(v / aj for v, aj in zip(values, a)) / w_all
    flux = cells[0] / a[0] - sum(c / aj for c, aj in zip(cells[1:], a[1:]))
    shared = (cp * shared - 2.0 * lam * flux / w_all) / cm
    phi[0][-1] = shared / a[0]
    for p, aj in zip(phi[1:], a[1:]):
        p[0] = shared / aj
    phi[0][0] = 0.0
    for p in phi[1:]:
        p[-1] = 0.0


def trapezoid_convolution(values, conv_weights, dt: float, level: int) -> complex:
    """dt (g_level h_0 / 2 + sum_{k=1}^{level-1} g_{level-k} h_k), the half
    weight put on a copy of the kernel side; ``values`` are the boundary
    values h_0.. as the node update computes them (h_0 not halved)."""
    if level == 0:
        return 0.0 + 0.0j
    g = np.asarray(conv_weights)[level:0:-1].copy()
    g[0] *= 0.5
    return complex(dt * np.dot(g, np.asarray(values[:level], dtype=complex)))


# The per-bond forms that the junction set-up and the diagnostics had before
# the step plan set the junctions and one pass summed each bond: a bit
# reference, not a truth.  Each reads ``field.phi[b]``, ``field.chi[b]``,
# ``field.n_bonds`` and the grid spacing ``field.bonds[b].dx`` of any field
# and ``dt`` and ``mass`` of any params, so nothing here imports the package.


def _phi_at_nodes_reference(field, b, params):
    phi, chi, dx = field.phi[b], field.chi[b], field.bonds[b].dx
    dchi = np.empty_like(phi)
    dchi[1:-1] = (chi[1:] - chi[:-1]) / dx
    dchi[0] = (-2.0 * chi[0] + 3.0 * chi[1] - chi[2]) / dx
    dchi[-1] = (2.0 * chi[-1] - 3.0 * chi[-2] + chi[-3]) / dx
    return phi - 0.5 * params.dt * (dchi + 1j * params.mass * phi)


def partial_norm_reference(field, bond_index, params) -> float:
    b = bond_index - 1
    p2 = np.abs(_phi_at_nodes_reference(field, b, params)) ** 2
    phi_part = p2.sum() - 0.5 * (p2[0] + p2[-1])
    chi_part = np.sum(np.abs(field.chi[b]) ** 2)
    return float(field.bonds[b].dx * (phi_part + chi_part))


def energy_reference(field, params) -> float:
    total = 0.0
    for p, c, bond in zip(field.phi, field.chi, field.bonds):
        lam = params.dt / bond.dx
        p2 = np.abs(p) ** 2
        phi_part = p2.sum() - 0.5 * (p2[0] + p2[-1])
        chi_part = np.sum(np.abs(c) ** 2)
        cross = np.sum(((p[1:] - p[:-1]) * np.conj(c)).real)
        total += bond.dx * (phi_part + chi_part + lam * cross)
    return float(total)


def compute_record_reference(field, params):
    """(partial norms, total norm, energy, reflection) of one state."""
    partial = tuple(
        partial_norm_reference(field, j + 1, params) for j in range(field.n_bonds)
    )
    total = float(sum(partial))
    e = energy_reference(field, params)
    refl = partial[0] / total if total > 0 else 0.0
    return partial, total, e, refl


def _endpoint_values_reference(field, b, upper):
    phi, chi = field.phi[b], field.chi[b]
    if upper:
        return phi[-1], 0.5 * (3.0 * chi[-1] - chi[-2])
    return phi[0], 0.5 * (3.0 * chi[0] - chi[1])


def boundary_form_reference(psi, phi) -> complex:
    """Skew-Hermitian boundary form probing self-adjointness.

    -i sum_b [chi u* + phi v*] between each bond's endpoints (second field
    conjugated), with phi at the end nodes and chi extrapolated one-sided.
    It vanishes, to rounding, for pairs of fields on one domain that
    satisfy a Kirchhoff-type vertex coupling with Dirichlet far ends;
    generic fields give a nonzero value.
    """
    total = 0.0 + 0.0j
    for b in range(psi.n_bonds):
        for upper, sign in ((True, 1.0), (False, -1.0)):
            f1, c1 = _endpoint_values_reference(psi, b, upper)
            f2, c2 = _endpoint_values_reference(phi, b, upper)
            total += sign * (c1 * np.conj(f2) + f1 * np.conj(c2))
    return -1j * total


def initial_field_reference(field, params, alphas, vertex_mode, dirichlet_ends,
                            normalize):
    """The rest of the initial-field set-up, in place, on a field that holds
    the scaled packet samples and zeros: the Taylor half step on every bond,
    the walls and the vertex projection through per-bond views, then the
    optional rescaling to unit norm.  ``vertex_mode`` is 'kirchhoff',
    'weighted' or 'transparent' (a bond-1 field), ``alphas`` and
    ``dirichlet_ends`` hold one entry per graph bond."""
    phi = field.phi
    for p, c, bond in zip(phi, field.chi, field.bonds):
        dchi = (c[1:] - c[:-1]) / bond.dx
        p[1:-1] += 0.5 * params.dt * (dchi + 1j * params.mass * p[1:-1])
    if dirichlet_ends[0]:
        phi[0][0] = 0.0
    if vertex_mode != "transparent":
        kirchhoff = vertex_mode == "kirchhoff"
        weights = np.ones(len(alphas)) if kirchhoff else np.asarray(alphas, float)
        w_all = np.sum(1.0 / weights ** 2)
        values = [phi[0][-1], *(p[0] for p in phi[1:])]
        shared = values[0] / weights[0]
        for j in range(1, len(values)):
            shared += values[j] / weights[j]
        shared = shared / w_all
        phi[0][-1] = shared / weights[0]
        for j in range(1, field.n_bonds):
            phi[j][0] = shared / weights[j]
            if dirichlet_ends[j]:
                phi[j][-1] = 0.0
    if normalize:
        total = sum(partial_norm_reference(field, j + 1, params)
                    for j in range(field.n_bonds))
        if total > 0:
            for arr in field.phi + field.chi:
                arr *= 1.0 / np.sqrt(total)


def run_loop_reference(config, solver, diagnostics):
    """(records, snapshot arrays, final field) of ``config`` by the plainest
    loop: ``build_initial_field``, then ``step`` in place every step, with
    every slot stepped (no window).  A bit reference for ``run``, not a
    truth.  ``solver`` and ``diagnostics`` are the package's modules, so
    nothing here imports the package.  Each snapshot is the (x, phi, chi,
    density) of one bond; the records are ``compute_record``'s."""
    graph, params = config.build_graph(), config.sim_params()
    policy = config.build_policy()
    field = solver.build_initial_field(
        graph, params, policy, x0=config.x0, sigma=config.sigma,
        bond_index=config.source_bond, amplitude=config.amplitude,
        normalize=config.normalize_initial,
    )
    snap_steps = set(config.snapshot_steps())
    records, snapshots = [], []
    for n in range(params.n_steps + 1):
        if n:
            solver.step(field, graph, params, policy)
        if n % config.sample_every == 0 or n == params.n_steps:
            records.append(diagnostics.compute_record(field, params, n * params.dt))
        if n in snap_steps:
            snapshots += [diagnostics.node_profile(field, j + 1, params)
                          for j in range(field.n_bonds)]
    return records, snapshots, field
