"""Identities that the discrete scheme satisfies exactly, up to rounding.

Time reversal: on a closed star (Dirichlet ends, Kirchhoff or weighted
vertex) the step is invertible, and a hand-written inverse in ``oracles``
undoes it.  The vertex update must then be the exact inverse of its own
reverse, which energy conservation alone does not pin down.

Dispersion: on a two-bond Dirichlet line with a Kirchhoff vertex and unit
weights (a uniform line, as the vertex is invisible there), a discrete
standing mode only turns its phase, at the frequency of the scheme's own
dispersion relation.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracstar import (
    BoundaryPolicy,
    EndMode,
    SimParams,
    SpinorField,
    VertexMode,
    build_star_graph,
    step,
)

from .oracles import inverse_closed_step

DISPERSION_CELLS, DISPERSION_STEPS, DISPERSION_DX = 20, 200, 0.05

EPS = np.finfo(float).eps

# Time reversal.  Each step, forward or inverse, rounds every value in at
# most 8 operations (a difference, its scaling by lam, the product with cp
# or cm, a subtraction and numpy's complex division of about 4 roundings;
# the vertex's sums over at most 6 bonds round no more per value), each of
# size at most eps times the values it combines.  Both maps conserve the
# discrete energy, so an error made at one step is carried to the end
# without growth, and 2n steps leave at most 2n * 8 eps times the state's
# size.  At lam = 1 the energy only bounds the state from below by zero,
# and no growth there rests on measurement: 40 random stars at n = 600
# reached 1.8e-13 relative, 0.7 eps per step, 11x under the bound.
REVERSAL_STEPS = 600
REVERSAL_BOUND = 2 * REVERSAL_STEPS * 8 * EPS


@st.composite
def closed_stars(draw):
    n = draw(st.integers(2, 6))
    return (
        draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)),
        draw(st.lists(st.integers(8, 30), min_size=n, max_size=n)),
        draw(st.sampled_from([VertexMode.KIRCHHOFF, VertexMode.WEIGHTED])),
        draw(st.sampled_from([0.0, 0.3, 1.0, 10.0])),
        draw(st.sampled_from([0.3, 0.8, 1.0])),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=20, deadline=None)
@given(closed_stars())
def test_steps_forward_and_back_return_to_the_start(star):
    # a random field, stepped once so that its walls and vertex hold what a
    # step writes, goes 600 steps forward and 600 inverse steps back
    alphas, cells, mode, mass, lam = star[:5]
    dx = 0.05
    params = SimParams(mass, lam * dx, REVERSAL_STEPS)
    graph = build_star_graph([(a, c * dx, dx) for a, c in zip(alphas, cells)])
    policy = BoundaryPolicy(mode, (EndMode.DIRICHLET,) * len(alphas))
    rng = np.random.default_rng(star[5])
    field = SpinorField(graph, params, policy)
    for arr in field.phi + field.chi:
        arr[:] = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
    field.initial_max = field.max_abs()
    field = step(field)
    start = np.concatenate(field.phi + field.chi)
    for _ in range(REVERSAL_STEPS):
        field = step(field)
    phi, chi = [p.copy() for p in field.phi], [c.copy() for c in field.chi]
    weights = alphas if mode is VertexMode.WEIGHTED else [1.0] * len(alphas)
    cp, cm = 1.0 + 0.5j * mass * params.dt, 1.0 - 0.5j * mass * params.dt
    for _ in range(REVERSAL_STEPS):
        inverse_closed_step(phi, chi, weights, params.dt / dx, cp, cm)
    back = np.concatenate(phi + chi)
    assert np.linalg.norm(back - start) <= REVERSAL_BOUND * np.linalg.norm(start)


# Dispersion.  With mu = m dt / 2, phi^{n+1/2}_j = e^{-i w (n+1/2) dt} sin k x_j
# and chi^n_{j-1/2} = B e^{-i w n dt} cos k x_{j-1/2} solve the interior
# stencil if and only if, with theta = w dt / 2 and s = sin(k dx / 2),
#
#     sin^2 theta (1 + mu^2) = lam^2 s^2 + mu^2,   B = -i lam s / (sin theta + mu cos theta),
#
# and sin k x vanishes at both walls for k = p pi / (2 L).  theta is taken
# as atan2 of sqrt(lam^2 s^2 + mu^2) and sqrt((1 - lam s)(1 + lam s)),
# which is cos theta sqrt(1 + mu^2): both well conditioned, also where
# sin theta nears 1.  (Evaluated as arcsin sqrt((lam^2 s^2 + mu^2) / (1 +
# mu^2)) instead, 1 - sin^2 theta = (1 - lam^2 s^2) / (1 + mu^2) cancels
# for large mu: at m = 5000 that form alone is 3e-12 off the phase after
# 200 steps, more than the scheme's own gap there, 5e-14.)
#
# Rounding: each step makes a local error of at most 8 eps (as for time
# reversal); the scheme carries it on without growth in the discrete
# energy, which lies between (1 - lam s_max) and (1 + lam) times the squared
# 2-norm, with s_max = cos(pi / (4 C)) for the line's highest mode; so n
# steps, and the start's rounding, leave at most (n + 1) 8 eps kappa, with
# kappa = sqrt((1 + lam) / (1 - lam s_max)) (51 at lam = 1).  The predicted
# phase 2 n theta is off by at most 2 n (4 eps theta) <= 4 pi n eps.
# Measured worst over m in [0, 100]: 6.3e-13 at lam = 1 and p = 2C - 1,
# against a bound of 1.9e-11 there.


def dispersion_bound(lam, n):
    s_max = np.cos(np.pi / (4 * DISPERSION_CELLS))
    kappa = np.sqrt((1.0 + lam) / (1.0 - lam * s_max))
    return ((n + 1) * 8 * kappa + 4 * np.pi * n) * EPS


def assert_standing_mode_turns_at_the_scheme_frequency(mass, lam, p):
    cells, dx, n = DISPERSION_CELLS, DISPERSION_DX, DISPERSION_STEPS
    length = cells * dx
    params = SimParams(mass, lam * dx, n)
    graph = build_star_graph([(1.0, length, dx)] * 2)
    policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.DIRICHLET,) * 2)
    mu = (1.0 + 0.5j * mass * params.dt).imag  # the scheme's own mu
    k = p * np.pi / (2 * length)
    ls = params.dt / dx * np.sin(0.5 * k * dx)
    theta = np.arctan2(np.hypot(ls, mu), np.sqrt((1.0 - ls) * (1.0 + ls)))
    b = -1j * ls / (np.sin(theta) + mu * np.cos(theta))
    field = SpinorField(graph, params, policy)
    for p_arr, c_arr, bond in zip(field.phi, field.chi, graph.bonds):
        p_arr[:] = np.exp(1j * theta) * np.sin(k * (bond.node_coordinates() + length))
        c_arr[:] = b * np.cos(k * (bond.cell_coordinates() + length))
    field.phi[0][0] = field.phi[1][-1] = 0.0  # sin(2 k L) rounds off 0
    field.initial_max = field.max_abs()
    start = np.concatenate(field.phi + field.chi)
    for _ in range(n):
        field = step(field)
    got = np.concatenate(field.phi + field.chi)
    gap = np.linalg.norm(got - np.exp(-2j * theta * n) * start)
    assert gap <= dispersion_bound(params.dt / dx, n) * np.linalg.norm(start)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 100.0), st.floats(0.3, 1.0),
       st.integers(1, 2 * DISPERSION_CELLS - 1))
def test_standing_mode_follows_the_dispersion_relation(mass, lam, p):
    assert_standing_mode_turns_at_the_scheme_frequency(mass, lam, p)


# m dt > 2 (mu > 1): the stencils divide by cp and cm with np.divide
@pytest.mark.parametrize("mass, lam", [(48.0, 1.0), (1000.0, 0.5), (5000.0, 1.0)],
                         ids=["m_dt_2.4", "m_dt_25", "m_dt_250"])
@pytest.mark.parametrize("p", [1, 17, 2 * DISPERSION_CELLS - 1])
def test_standing_mode_at_large_mass_dt(mass, lam, p):
    assert_standing_mode_turns_at_the_scheme_frequency(mass, lam, p)
