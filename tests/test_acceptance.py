"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass line with the measured figure once its
assertions hold, so a verbose run shows one line per criterion.
"""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from diracstar import (
    BoundaryPolicy,
    EndMode,
    SimParams,
    SpinorField,
    VertexMode,
    build_initial_field,
    build_star_graph,
    energy,
    load_config,
    run,
    step,
    sweep_alpha1,
    total_norm,
    transmitted_fractions,
    vertex_tbc_factor,
)
from diracstar.bessel import _bessel_j
from diracstar.diagnostics import node_profile
from diracstar.solver import _history_convolution

from .conftest import CONFIG_DIR
from .oracles import (
    besselj_reference,
    boundary_form_reference,
    carrier_packet,
    free_line_solution,
    gaussian,
)
from .test_diagnostics import impose_vertex_conditions, smooth_field

SUM_RULE_ALPHA1 = math.sqrt(2.0 / 3.0)


def report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_01_vertex_transparency(canonical_run):
    r_final = canonical_run.records[-1].reflection
    assert canonical_run.records[-1].t == pytest.approx(10.0)
    assert r_final < 0.01
    report("01 vertex transparency", f"R(t=10) = {r_final:.3e} < 0.01")


def test_criterion_02_sweep_zero_location(tmp_path):
    config = load_config(CONFIG_DIR / "alpha1_sweep.cfg")
    summary = sweep_alpha1(config, 0.4, 1.4, 51, tmp_path)
    assert summary["failures"] == []
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    alphas, reflections = rows[:, 0], rows[:, 1]
    argmin = alphas[np.argmin(reflections)]
    assert abs(argmin - SUM_RULE_ALPHA1) <= 0.02
    assert reflections.min() < 0.01
    assert reflections[0] > 0.05 and reflections[-1] > 0.05
    report(
        "02 sweep zero location",
        f"argmin = {argmin:.3f} (target {SUM_RULE_ALPHA1:.3f}), "
        f"min R = {reflections.min():.3e}, "
        f"endpoint R = {reflections[0]:.3f}/{reflections[-1]:.3f}",
    )


def test_criterion_03_transmitted_fractions(canonical_run):
    fractions = transmitted_fractions(canonical_run.records[-1])
    assert fractions[0] == pytest.approx(2.0 / 3.0, abs=0.01)
    assert fractions[1] == pytest.approx(1.0 / 3.0, abs=0.01)
    report(
        "03 transmitted fractions",
        f"N2 fraction = {fractions[0]:.6f}, N3 fraction = {fractions[1]:.6f}",
    )


def test_criterion_04_norm_conservation(canonical_run):
    norms = [r.total_norm for r in canonical_run.records]
    drift = max(abs(n - norms[0]) for n in norms) / norms[0]
    assert drift < 1e-3
    report("04 norm conservation", f"relative drift = {drift:.3e} < 1e-3")


def test_criterion_05_energy_exactness(canonical_config):
    config = replace(
        canonical_config, vertex_mode="kirchhoff", snapshot_times=()
    )
    graph = config.build_graph()
    params = config.sim_params()
    policy = config.build_policy()
    field = build_initial_field(
        graph, params, policy, x0=config.x0, sigma=config.sigma
    )
    e0 = energy(field)
    worst = 0.0
    for _ in range(1000):
        field = step(field)
        worst = max(worst, abs(energy(field) - e0))
    assert worst <= 1e-12 * abs(e0)
    report(
        "05 energy exactness",
        f"max |E_n - E_0| / E_0 = {worst / abs(e0):.3e} over 1000 steps",
    )


def test_criterion_06_interior_exterior_equivalence(canonical_config):
    full_cfg = replace(canonical_config, snapshot_times=())
    interior_cfg = replace(full_cfg, vertex_mode="transparent")

    def prepare(cfg):
        graph = cfg.build_graph()
        params = cfg.sim_params()
        policy = cfg.build_policy()
        field = build_initial_field(
            graph, params, policy, x0=cfg.x0, sigma=cfg.sigma
        )
        return graph, params, policy, field

    g_full, p_full, pol_full, f_full = prepare(full_cfg)
    g_int, p_int, pol_int, f_int = prepare(interior_cfg)
    assert vertex_tbc_factor(g_int.alphas) == pytest.approx(1.0, abs=1e-14)

    linf = 0.0
    for n in range(1, 1001):
        f_full, f_int = step(f_full), step(f_int)
        if n % 10 == 0:
            d_full = node_profile(f_full, 1)[3]
            d_int = node_profile(f_int, 1)[3]
            linf = max(linf, float(np.max(np.abs(d_full - d_int))))
    assert linf < 1e-3
    report(
        "06 interior/exterior equivalence",
        f"Linf(bond-1 density) = {linf:.3e} < 1e-3 over t in [0, 10]",
    )


def test_criterion_07_massless_collapse(canonical_config):
    # transparent far ends on a massless two-bond line
    line = build_star_graph([(1.0, 10.0, 0.0125), (1.0, 10.0, 0.0125)])
    params = replace(canonical_config.sim_params(), mass=0.0, n_steps=400)
    policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.TRANSPARENT,) * 2)
    field = build_initial_field(line, params, policy, x0=-5.0, sigma=0.9)
    for _ in range(400):
        field = step(field)

    # the kernel each run's step plan built and stepped with
    histories = [(field._plan.kernel, field.histories["end1"]),
                 (field._plan.kernel, field.histories["end2"])]

    # transparent vertex on the massless interior problem
    cfg = replace(
        canonical_config, mass=0.0, vertex_mode="transparent",
        n_steps=400, snapshot_times=(),
    )
    graph = cfg.build_graph()
    params = cfg.sim_params()
    policy = cfg.build_policy()
    field = build_initial_field(graph, params, policy, x0=-5.0, sigma=0.9)
    for _ in range(400):
        field = step(field)
    histories.append((field._plan.kernel, field.histories["vertex"]))

    # the stepper's evaluator: newest value enters with weight 1, the
    # history tail vanishes, so chi = +/- phi at the ends and chi = A phi
    # at the vertex
    for k, h in histories:
        # levels 0..399 written, level 400 (the kernel's last) still +0
        assert len(h) == 401 and h[400:].tobytes() == bytes(16)
        # the newest value's multiplier at every level >= 1 (1 at level 0)
        assert 1.0 + 0.5 * k.dt * k.conv_weights[0] == 1
        for t in range(400):
            assert _history_convolution(h, k, t) == 0
    report(
        "07 massless collapse",
        "stepper's convolution has endpoint weight 1 and zero tail, i.e. "
        "chi = +/- phi and chi = A phi, bit-exactly at all 400 levels",
    )


def test_criterion_08_line_tbc_quality():
    open_cfg = load_config(CONFIG_DIR / "open_line.cfg")
    walled_cfg = replace(
        open_cfg, end_modes=("dirichlet", "dirichlet"), snapshot_times=()
    )

    def residual(cfg):
        result = run(replace(cfg, snapshot_times=()))
        return result.records[-1].total_norm / result.records[0].total_norm

    res_open = residual(open_cfg)
    res_walled = residual(walled_cfg)
    assert res_open < 1e-2
    assert res_walled >= 100.0 * res_open
    report(
        "08 line TBC quality",
        f"residual norm {res_open:.3e} < 1e-2, "
        f"{res_walled / res_open:.0f}x below the Dirichlet control",
    )


# Criterion 12 (ROADMAP item 1(a)): transparent ends, and the transparent
# vertex on and off the sum rule, against a large-domain Dirichlet reference
# on the same grid, at masses the shipped configs do not reach.  The packet
# sits 8 (~9 sigma) from every junction, and the reference's walls are far
# enough that no reflection returns before t_end.  The bound
# K dx^2 (1 + m t_end) is from a dx-refinement study of the J kernel
# (conv_weights = -m J1 + i m J0) at dx = 0.1, 0.05, 0.025 and dt = 0.8 dx:
# every case converged at second order, with K at most 7.1e-3 (the long
# run) and at most 1.2e-3 at t_end = 30; K = 1e-2.  A modified-Bessel kernel
# m I1 + i m I0 misses the bound by a factor of 70 or more, or overflows.
TBC_K, TBC_DX, TBC_HALF = 1e-2, 0.05, 16.0
TBC_CASES = [("ends", m, 30.0) for m in (0.1, 0.3, 1.0)] + [
    (weights, m, 30.0) for weights in ("canonical", "off_sum_rule") for m in (0.1, 0.3, 1.0)
] + [("ends", 5.0, 144.0)]  # m dt n_steps = 720


def _density_samples(graph, params, policy):
    """Per-bond (x, density) once per unit of time."""
    field = build_initial_field(graph, params, policy, x0=-0.5 * TBC_HALF, sigma=0.9)
    every, samples = round(1.0 / params.dt), []
    for n in range(1, params.n_steps + 1):
        step(field)
        if n % every == 0:
            samples.append([node_profile(field, j)[::3]
                            for j in range(1, field.n_bonds + 1)])
    return samples


@pytest.mark.parametrize("case, mass, t_end", TBC_CASES)
def test_criterion_12_transparent_boundaries_match_a_large_domain(case, mass, t_end):
    dx = TBC_DX
    params = SimParams(mass, 0.8 * dx, round(t_end / (0.8 * dx)))
    far = 0.5 * t_end + 5.0
    if case == "ends":
        graph = build_star_graph([(1.0, TBC_HALF, dx)] * 2)
        reference = build_star_graph([(1.0, TBC_HALF + far, dx)] * 2)
        policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.TRANSPARENT,) * 2)
        walled = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.DIRICHLET,) * 2)
    else:
        alphas = (SUM_RULE_ALPHA1, 1.0, math.sqrt(2.0)) if case == "canonical" else (1.0,) * 3
        graph = reference = build_star_graph(
            [(alphas[0], TBC_HALF, dx)] + [(a, far, dx) for a in alphas[1:]])
        walls = (EndMode.DIRICHLET,) * 3
        policy = BoundaryPolicy(VertexMode.TRANSPARENT, walls)
        walled = BoundaryPolicy(VertexMode.WEIGHTED, walls)
    # bond 1 only under a transparent vertex; the density at a far end is
    # extrapolated one-sided on the open line but centred on the reference,
    # so the far-end nodes are left out
    gap, inner = 0.0, TBC_HALF - 0.5 * dx
    for sample, wanted in zip(_density_samples(graph, params, policy),
                              _density_samples(reference, params, walled)):
        for (x, dens), (x_ref, dens_ref) in zip(sample, wanted):
            gap = max(gap, float(np.max(np.abs(
                dens[np.abs(x) < inner] - dens_ref[np.abs(x_ref) < inner]))))
    bound = TBC_K * dx ** 2 * (1.0 + mass * t_end)
    assert gap <= bound
    report("12 transparent boundaries vs a large domain",
           f"{case}, m = {mass}: max density gap {gap:.3e} <= {bound:.3e}")


# Criterion 13 (ROADMAP item 1): a transparent boundary passes a packet
# with a carrier e^{i k0 x}, on the positive-energy branch, as a walled
# domain long enough that nothing returns does, at m = 5, sigma 2, dx 0.05
# and dt/dx = 0.8.  End: the packet starts at the vertex of a two-bond unit
# line [-16, 16] with transparent ends, against a longer walled line.
# Vertex: three unit weights, so A = 2, off the sum rule (at A = 1 the
# vertex runs the code of a right end); bond 1 is [-32, 0] with a wall at
# -32 and the packet starts at x0 = -16, against the weighted star.  R is
# the norm of the difference on the simulated bonds, relative to the
# reference's whole norm, once the packet's centre is 8 sigma past the
# boundary at its group velocity.  At m = 0, R = 0.023 ... 0.027 (k0 dx)^2
# at the end for k0 dx from 0.05 to 0.5 (second order); the bound
# K (k0 dx)^2 takes K = 0.1, 4x that.  Measured at m = 5: at k0 = 4,
# R = 1.4e-3 = 0.035 (k0 dx)^2 at the end (0.035 also at dx 0.025) and
# 1.2e-3 at the vertex; at k0 = 0.5, R = 0.22 and 0.21, over 3000x the bound.
CARRIER_K, CARRIER_SIGMA = 0.1, 2.0
SLOW_WAVES = pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 1: the J0(m t) kernel reflects the waves "
    "below k_c ~ m^2 dt/sqrt(6) (0.41 here, over a third of this packet's "
    "spectrum), as it takes their scheme frequencies, below m, for evanescent")


def _carrier_field(graph, params, policy, x0, k0):
    """The carrier packet at x0 on the simulated bonds: chi at t = 0, phi at
    t = -dt/2."""
    field = SpinorField(graph, params, policy)
    for bond, p, c in zip(field.bonds, field.phi, field.chi):
        p[:] = carrier_packet(bond.node_coordinates(), x0, CARRIER_SIGMA, k0,
                              params.mass, -0.5 * params.dt)[0]
        c[:] = carrier_packet(bond.cell_coordinates(), x0, CARRIER_SIGMA, k0,
                              params.mass)[1]
    field.initial_max = field.max_abs()
    return field


@pytest.mark.parametrize("boundary, k0", [
    ("end", 4.0), pytest.param("end", 0.5, marks=SLOW_WAVES),
    ("vertex", 4.0), pytest.param("vertex", 0.5, marks=SLOW_WAVES),
], ids=["end-k0=4", "end-k0=0.5", "vertex-k0=4", "vertex-k0=0.5"])
def test_criterion_13_transparent_boundaries_pass_a_carrier_packet(boundary, k0):
    mass, dx = 5.0, TBC_DX
    t_end = (TBC_HALF + 8.0 * CARRIER_SIGMA) * math.hypot(k0, mass) / k0
    params = SimParams(mass, 0.8 * dx, math.ceil(t_end / (0.8 * dx)))
    far = math.ceil(0.5 * params.n_steps * params.dt + 5.0)
    if boundary == "end":
        x0, graph = 0.0, build_star_graph([(1.0, TBC_HALF, dx)] * 2)
        reference = build_star_graph([(1.0, TBC_HALF + far, dx)] * 2)
        policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.TRANSPARENT,) * 2)
        walled = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.DIRICHLET,) * 2)
    else:
        x0, walls = -TBC_HALF, (EndMode.DIRICHLET,) * 3
        graph = reference = build_star_graph(
            [(1.0, 2.0 * TBC_HALF, dx)] + [(1.0, far, dx)] * 2)
        policy = BoundaryPolicy(VertexMode.TRANSPARENT, walls)
        walled = BoundaryPolicy(VertexMode.WEIGHTED, walls)
    field = _carrier_field(graph, params, policy, x0, k0)
    wanted = _carrier_field(reference, params, walled, x0, k0)
    for f in (field, wanted):
        for _ in range(params.n_steps):
            step(f)
    # the simulated bonds are the reference's next to the vertex: the last
    # nodes and cells of its bond 1 and, at the end, the first of its bond 2
    n = graph.bonds[0].cells
    gap = [field.phi[0] - wanted.phi[0][-n - 1:], field.chi[0] - wanted.chi[0][-n:]]
    if boundary == "end":
        gap += [field.phi[1] - wanted.phi[1][:n + 1], field.chi[1] - wanted.chi[1][:n]]
    r = np.linalg.norm(np.concatenate(gap)) / np.hypot(np.linalg.norm(wanted.phi_buf),
                                                       np.linalg.norm(wanted.chi_buf))
    bound = CARRIER_K * (k0 * dx) ** 2
    assert r <= bound
    report("13 transparent boundary passes a carrier packet",
           f"{boundary}, m = {mass}, k0 = {k0}: R = {r:.3e} <= {bound:.3e}")


def test_criterion_09_self_adjointness_probe():
    graph = build_star_graph(
        [(a, 1.0, 0.05) for a in (SUM_RULE_ALPHA1, 1.0, math.sqrt(2.0))]
    )
    params = SimParams(mass=0.1, dt=0.04, n_steps=1)
    rng = np.random.default_rng(99)
    worst = 0.0
    for alphas in ((1.0, 1.0, 1.0), (SUM_RULE_ALPHA1, 1.0, math.sqrt(2.0))):
        psi = impose_vertex_conditions(smooth_field(graph, params, rng), graph, alphas)
        phi = impose_vertex_conditions(smooth_field(graph, params, rng), graph, alphas)
        scale = math.sqrt(total_norm(psi) * total_norm(phi))
        worst = max(worst, abs(boundary_form_reference(psi, phi)) / scale)
    assert worst < 1e-10

    psi = smooth_field(graph, params, rng)
    phi = smooth_field(graph, params, rng)
    scale = math.sqrt(total_norm(psi) * total_norm(phi))
    generic = abs(boundary_form_reference(psi, phi)) / scale
    assert generic > 1e-6
    report(
        "09 self-adjointness probe",
        f"coupled fields: |Omega| = {worst:.3e} < 1e-10; "
        f"random fields: {generic:.3e}",
    )


def test_criterion_10_second_order_convergence():
    x0, sigma, t_final = -5.0, 0.9, 3.0
    domain = (-20.0, 20.0)

    def production_density(dx, dt, mass):
        line = build_star_graph([(1.0, 20.0, dx), (1.0, 20.0, dx)])
        n_steps = int(round(t_final / dt))
        params = SimParams(mass=mass, dt=dt, n_steps=n_steps)
        policy = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.DIRICHLET,) * 2)
        field = build_initial_field(
            line, params, policy, x0=x0, sigma=sigma, normalize=False
        )
        for _ in range(n_steps):
            field = step(field)
        x1, _, _, d1 = node_profile(field, 1)
        x2, _, _, d2 = node_profile(field, 2)
        return np.concatenate([x1, x2[1:]]), np.concatenate([d1, d2[1:]])

    phi0 = chi0 = lambda x: gaussian(x, x0, sigma)

    # massless: closed-form transport oracle
    errors = []
    for dx, dt in ((0.025, 0.02), (0.0125, 0.01)):
        x, dens = production_density(dx, dt, 0.0)
        oracle = free_line_solution(phi0, chi0, 0.0, t_final, domain, dx, dt)
        np.testing.assert_allclose(oracle.x, x, atol=1e-9)
        errors.append(float(np.max(np.abs(dens - oracle.density))))
    ratio_massless = errors[0] / errors[1]
    assert ratio_massless >= 3.0

    # massive: fine-grid leap-frog oracle, 4x refined beyond the finer run
    errors_m = []
    for dx, dt in ((0.025, 0.02), (0.0125, 0.01)):
        x, dens = production_density(dx, dt, 0.01)
        oracle = free_line_solution(
            phi0, chi0, 0.01, t_final, domain, dx, dt, refinement=4
        )
        errors_m.append(float(np.max(np.abs(dens - oracle.density))))
    ratio_massive = errors_m[0] / errors_m[1]
    assert ratio_massive >= 3.0
    report(
        "10 second-order convergence",
        f"error ratio {ratio_massless:.2f} (m=0), "
        f"{ratio_massive:.2f} (m=0.01), both >= 3",
    )


def test_criterion_11_bessel_kernel():
    # a dense grid over every branch of the evaluator: the first 40 zeros of
    # J0 and J1, both branch cutoffs (4 and 25) and their neighbours, and z
    # up to 2000; absolute error, as J0 and J1 have zeros
    zeros = [float(mpmath.besseljzero(v, k)) for v in (0, 1) for k in range(1, 41)]
    cutoffs = [np.nextafter(c, d) for c in (4.0, 25.0) for d in (0.0, c, 2 * c)]
    z = np.unique(np.concatenate(
        [np.linspace(0.0, 30.0, 3001), np.linspace(30.0, 2000.0, 2001), zeros, cutoffs]))
    worst = 0.0
    for got, order in zip(_bessel_j(z), (0, 1)):
        worst = max(worst, float(np.max(np.abs(got - besselj_reference(order, z)))))
    assert worst <= 1e-13
    report(
        "11 bessel kernel",
        f"max absolute error of J0, J1 {worst:.3e} <= 1e-13 at {len(z)} points "
        "of z in [0, 2000]",
    )
