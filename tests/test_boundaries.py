from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracstar import (
    BesselKernel,
    BoundaryPolicy,
    EndMode,
    MissingHistoryError,
    SimParams,
    VertexMode,
    build_initial_field,
    build_star_graph,
    load_config,
    run,
    step,
    sum_rule_residual,
    vertex_tbc_factor,
)
from diracstar import solver
from diracstar.solver import _history_convolution, _vertex_shared_value

from .conftest import CANONICAL_ALPHAS, CONFIG_DIR
from .oracles import trapezoid_convolution

DX = 0.0125  # the grid spacing of the node-level tests
MASSLESS = SimParams(mass=0.0, dt=0.01, n_steps=64)
MASSIVE = SimParams(mass=0.3, dt=0.01, n_steps=64)


def _solve_tbc_node(q, chi_adj, history, kernel, level, params, right_end, factor=1.0):
    """The stepper's node update with the constants a step plan holds."""
    lam = params.dt / DX
    return solver._solve_tbc_node(
        q, chi_adj, history, kernel, level, 2.0 * lam,
        solver._tbc_coefficients(kernel, lam, factor), right_end, factor,
    )


@pytest.fixture
def kernel_massless():
    return BesselKernel.build(0.0, 0.01, 64)


@pytest.fixture
def kernel_massive():
    return BesselKernel.build(0.3, 0.01, 64)


def random_history(rng, n):
    return list(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def buffer_of(values):
    """The history a step writes of ``values``: the first one halved."""
    return np.array([0.5 * values[0], *values[1:]], complex)


def assert_local_relation(kernel, sign, factor, seed):
    """At m = 0 every transparent node obeys chi = sign * factor * phi.

    The node update of that local relation is
    p = ((1 - lam A) q + sign 2 lam chi_adj) / (1 + lam A), up to rounding.
    """
    rng = np.random.default_rng(seed)
    lam = MASSLESS.dt / DX
    first, later = solver._tbc_coefficients(kernel, lam, factor)
    assert later == first  # the newest value's multiplier stays 1
    history = np.zeros(len(kernel.reversed_weights), complex)
    for level in range(20):
        assert _history_convolution(history, kernel, level) == 0
        q, chi_adj = (complex(v) for v in random_history(rng, 2))
        p = _solve_tbc_node(
            q, chi_adj, history, kernel, level, MASSLESS,
            right_end=sign > 0, factor=factor,
        )
        expected = ((1 - lam * factor) * q + sign * 2 * lam * chi_adj) / (
            1 + lam * factor
        )
        assert p == pytest.approx(expected, rel=1e-14, abs=0)
        entry = 0.5 * (p + q)
        assert history[level] == (entry if level else 0.5 * entry)


def test_massless_right_end_is_identity(kernel_massless):
    assert_local_relation(kernel_massless, 1.0, 1.0, seed=7)


def test_massless_left_end_is_negation(kernel_massless):
    assert_local_relation(kernel_massless, -1.0, 1.0, seed=8)


def test_massless_vertex_scales_by_factor(kernel_massless):
    for a in (0.5, 1.0, 2.5):
        assert_local_relation(kernel_massless, 1.0, a, seed=9)


def test_zero_history_gives_zero(kernel_massive):
    h = buffer_of([0.0 + 0.0j] * 16)
    for t in range(16):
        assert _history_convolution(h, kernel_massive, t) == 0.0


def test_left_end_is_minus_right_end(kernel_massive):
    # chi = -R[phi] at a left end: mirroring the adjacent chi gives the
    # right end's node value and history, bit-exactly
    rng = np.random.default_rng(11)
    room = len(kernel_massive.reversed_weights)
    h_left, h_right = np.zeros(room, complex), np.zeros(room, complex)
    for level in range(30):
        q, chi_adj = (complex(v) for v in random_history(rng, 2))
        left = _solve_tbc_node(
            q, chi_adj, h_left, kernel_massive, level, MASSIVE, right_end=False
        )
        right = _solve_tbc_node(
            q, -chi_adj, h_right, kernel_massive, level, MASSIVE, right_end=True
        )
        assert left == right
    assert np.array_equal(h_left, h_right)


def test_history_linearity(kernel_massive):
    rng = np.random.default_rng(12)
    h1 = np.array(random_history(rng, 25))
    h2 = np.array(random_history(rng, 25))
    a, b = 0.7 - 0.2j, -1.3 + 0.8j
    combined = buffer_of(a * h1 + b * h2)
    for t in (0, 1, 10, 24):
        lhs = _history_convolution(combined, kernel_massive, t)
        rhs = a * _history_convolution(buffer_of(h1), kernel_massive, t) + \
            b * _history_convolution(buffer_of(h2), kernel_massive, t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_missing_history_signalled():
    # the kernel covers levels 0..2, built for the run's 2 steps: a field
    # stepped on past them needs level 3 at its fourth step
    line = build_star_graph([(1.0, 2.0, 0.05), (1.0, 2.0, 0.05)])
    params = SimParams(mass=0.3, dt=0.04, n_steps=2)
    policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.TRANSPARENT,) * 2)
    field = build_initial_field(line, params, policy, x0=-1.0, sigma=0.2)
    for _ in range(3):
        field = step(field)
    with pytest.raises(MissingHistoryError):
        step(field)


def test_convolution_rounds_as_the_copied_half_weight():
    # the half weight on h_0 instead of on a copy of g_level: the same bits
    # at every level, also for values spread over 600 decades
    kernel = BesselKernel.build(0.3, 0.01, 2000)
    assert np.shares_memory(kernel.conv_weights, kernel.reversed_weights)
    rng = np.random.default_rng(14)
    plain = np.array(random_history(rng, 2000))
    spread = plain * 10.0 ** rng.uniform(-300, 300, 2000)
    for values in (plain, spread):
        buf = buffer_of(values)
        for level in range(2001):
            assert _history_convolution(buf, kernel, level) == trapezoid_convolution(
                values, kernel.conv_weights, kernel.dt, level
            )


def test_vertex_factor_values():
    assert vertex_tbc_factor(CANONICAL_ALPHAS) == pytest.approx(1.0, abs=1e-14)
    assert vertex_tbc_factor((1.0, 1.0, 1.0)) == pytest.approx(2.0)
    assert vertex_tbc_factor((1.0, 1.0)) == pytest.approx(1.0)


@given(
    a1=st.floats(0.2, 5.0),
    a2=st.floats(0.2, 5.0),
    a3=st.floats(0.2, 5.0),
)
def test_factor_one_iff_zero_residual(a1, a2, a3):
    # A - 1 = -a1^2 * residual, so A = 1 exactly when the sum rule holds
    graph = build_star_graph([(a1, 1.0, 0.25), (a2, 1.0, 0.25), (a3, 1.0, 0.25)])
    factor = vertex_tbc_factor((a1, a2, a3))
    residual = sum_rule_residual(graph)
    assert factor - 1.0 == pytest.approx(-(a1**2) * residual, rel=1e-9, abs=1e-12)


def vertex_values(field):
    """phi_j(0) of every bond: bond 1 ends at the vertex, the others start there."""
    return np.array([field.phi[0][-1]] + [p[0] for p in field.phi[1:]])


def test_apply_vertex_enforces_conditions_exactly():
    # the stepper applies the weighted vertex conditions after every step:
    # a_j phi_j(0) is one shared value on every bond
    params = SimParams(mass=0.1, dt=0.04, n_steps=50)
    for alphas in (CANONICAL_ALPHAS, (0.7, 1.3, 2.1, 0.9)):
        graph = build_star_graph([(a, 2.0, 0.05) for a in alphas])
        policy = BoundaryPolicy(
            VertexMode.WEIGHTED, (EndMode.DIRICHLET,) * len(alphas)
        )
        field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
        peak = 0.0
        for _ in range(50):
            field = step(field)
            chain = np.asarray(alphas) * vertex_values(field)
            assert np.all(np.abs(chain - chain[0]) <= 1e-12)
            peak = max(peak, abs(chain[0]))
        assert peak > 0.1  # the packet reached the vertex


def test_apply_vertex_weighted_distribution():
    # incoming value p splits as phi_j(0) = (a1/aj) p over the outgoing bonds
    params = SimParams(mass=0.1, dt=0.04, n_steps=50)
    graph = build_star_graph([(a, 2.0, 0.05) for a in CANONICAL_ALPHAS])
    policy = BoundaryPolicy(VertexMode.WEIGHTED, (EndMode.DIRICHLET,) * 3)
    field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
    for arr in field.phi + field.chi:
        arr[:] = 0.0
    p = 0.37 - 0.11j
    field.phi[0][-1] = p
    alphas = np.asarray(CANONICAL_ALPHAS)
    shared = _vertex_shared_value(vertex_values(field), alphas, np.sum(1.0 / alphas ** 2))
    assert shared / alphas[0] == pytest.approx(p / 2, rel=1e-12)  # projection halves it
    # with no flux the shared value only turns by the mass phase, and the
    # new vertex values split by sqrt(2/3), sqrt(1/3)
    field = step(field)
    phi = vertex_values(field)
    cp = 1.0 + 0.5j * params.mass * params.dt
    cm = 1.0 - 0.5j * params.mass * params.dt
    assert phi[0] == pytest.approx(cm / cp * p / 2, rel=1e-12)
    assert phi[1] / phi[0] == pytest.approx(np.sqrt(2 / 3), rel=1e-12)
    assert phi[2] / phi[0] == pytest.approx(np.sqrt(1 / 3), rel=1e-12)


def test_step_kirchhoff_vertex_ignores_weights():
    # Kirchhoff mode steps as the weighted vertex with unit weights would
    params = SimParams(mass=0.1, dt=0.04, n_steps=50)

    def evolve(alphas, mode):
        graph = build_star_graph([(a, 2.0, 0.05) for a in alphas])
        policy = BoundaryPolicy(mode, (EndMode.DIRICHLET,) * 2)
        field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
        for _ in range(50):
            field = step(field)
        return field

    kirchhoff = evolve((3.0, 5.0), VertexMode.KIRCHHOFF)
    unit = evolve((1.0, 1.0), VertexMode.WEIGHTED)
    for a, b in zip(kirchhoff.phi + kirchhoff.chi, unit.phi + unit.chi):
        assert np.array_equal(a, b)
    phi_vertex = vertex_values(kirchhoff)
    assert phi_vertex[0] == phi_vertex[1]


def test_policy_validation():
    graph = build_star_graph([(1.0, 10.0, 0.1), (1.0, 10.0, 0.1)])
    policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.DIRICHLET,))
    with pytest.raises(ValueError, match="end modes"):
        policy.validate_for(graph)


def test_initial_field_checks_end_mode_count():
    graph = build_star_graph([(a, 2.0, 0.05) for a in CANONICAL_ALPHAS])
    params = SimParams(mass=0.1, dt=0.04, n_steps=10)
    for n_modes in (2, 5):
        policy = BoundaryPolicy(
            VertexMode.WEIGHTED, (EndMode.DIRICHLET,) * n_modes
        )
        with pytest.raises(ValueError, match="end modes"):
            build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)


# An open run never gains energy.  Closed, the leap-frog scheme conserves the
# discrete energy exactly; a transparent boundary only lets energy out, so
# in exact arithmetic E(n) <= E(0).  In floats each step rounds every stored
# value through at most 5 operations (difference, times lam, times the mass
# factor, subtraction, division), each within eps relative, so the quadratic
# energy moves by at most 2 * 5 eps relative per step, and by 10 n eps over
# n steps when every rounding adds up: 3.3e-12 at 1500 steps.  Measured: at
# most 1.05e-13.
@pytest.mark.parametrize("mass", [0.0, 0.01, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("name, vertex_mode", [
    ("open_line.cfg", "kirchhoff"), ("transparent_star.cfg", "transparent"),
])
def test_open_runs_never_gain_energy(name, vertex_mode, mass):
    cfg = replace(
        load_config(CONFIG_DIR / name), vertex_mode=vertex_mode, mass=mass,
        dx=0.025, dt=0.02, n_steps=1500, sample_every=1, snapshot_times=(),
    )
    energies = [r.energy for r in run(cfg).records]
    gain = max(energies) / energies[0] - 1.0
    assert gain <= 10 * cfg.n_steps * np.finfo(float).eps
