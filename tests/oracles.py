"""Independent reference solutions used only by the test suite.

Deliberately self-contained: the free-line solver below re-implements the
staggered leap-frog scheme on a single interval in plain numpy (no imports
from the package under test), and the Bessel reference sums the ascending
series in extended precision with a rigorous truncation bound.  These
provide the ground truths the production code is checked against.  The
scalar Bessel loops further down are a bit reference, not a truth: the
kernel samples must equal them byte for byte.
"""
from __future__ import annotations

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


class BesselSeriesValue(NamedTuple):
    value: float
    bound: float


def bessel_series_reference(z: float, terms: int = 200) -> BesselSeriesValue:
    """Extended-precision partial sum of sum_k (z^2/4)^k / (k!)^2.

    Returns the sum and a rigorous truncation bound: past term K the ratio
    of consecutive terms is below q/(K+1)^2 with q = z^2/4, so the tail is
    dominated by a geometric series once that ratio drops below one.
    Raises if the budgeted number of terms cannot certify convergence.
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
            term *= q / k**2
            total += term
        next_term = term * q / mpmath.mpf(terms) ** 2
        ratio = q / mpmath.mpf(terms + 1) ** 2
        if ratio >= 1:
            raise ValueError(
                f"series for z = {z} not certified within {terms} terms"
            )
        bound = next_term / (1 - ratio)
        return BesselSeriesValue(float(total), float(bound))


_SERIES_CUTOFF = 15.0
_EPS = 2.220446049250313e-16


def _i0_series(z: float) -> float:
    # sum_k (z^2/4)^k / (k!)^2
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        total += term
        if term <= _EPS * total:
            return total


def _i1_series(z: float) -> float:
    # (z/2) * sum_k (z^2/4)^k / (k! (k+1)!)
    q = 0.25 * z * z
    term = 0.5 * z
    total = term
    if z == 0.0:
        return 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        total += term
        if term <= _EPS * total:
            return total


def _iv_asymptotic(nu: int, z: float) -> float:
    # e^z / sqrt(2 pi z) * sum_k (-1)^k a_k(nu) / z^k, truncated at the
    # smallest term (remainder ~ e^{-2z}, < 1e-13 relative for z > 15)
    mu = 4 * nu * nu
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        factor = -(mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        nxt = term * factor
        if abs(nxt) >= abs(term) or abs(nxt) <= _EPS * abs(total):
            if abs(nxt) < abs(term):
                total += nxt
            break
        term = nxt
        total += term
    try:
        scale = np.exp(z) / np.sqrt(2.0 * np.pi * z)
    except OverflowError:  # pragma: no cover - exp(z) overflow path
        return float("inf")
    return float(scale * total)


def scalar_bessel_iv(order: int, z: float) -> float:
    """I0 (order 0) or I1 (order 1) at one z >= 0, one Python loop per call.

    These are the scalar series and large-argument loops that sampled the
    kernel before it was evaluated on whole arrays, kept verbatim: their
    results are the bits every kernel sample must keep.  Not a check of
    accuracy (``bessel_series_reference`` and mpmath are).
    """
    if z <= _SERIES_CUTOFF:
        return (_i0_series, _i1_series)[order](z)
    return _iv_asymptotic(order, z)


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


def trapezoid_convolution(values, conv_weights, dt: float, level: int) -> complex:
    """dt (g_level h_0 / 2 + sum_{k=1}^{level-1} g_{level-k} h_k), the half
    weight put on a copy of the kernel side; ``values`` are the boundary
    values h_0.. as the node update computes them (h_0 not halved)."""
    if level == 0:
        return 0.0 + 0.0j
    g = np.asarray(conv_weights)[level:0:-1].copy()
    g[0] *= 0.5
    return complex(dt * np.dot(g, np.asarray(values[:level], dtype=complex)))
