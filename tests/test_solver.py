import copy
import re
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracstar import diagnostics, solver
from diracstar import (
    BesselKernel,
    BoundaryPolicy,
    EndMode,
    InstabilityError,
    MissingHistoryError,
    SimParams,
    SpinorField,
    VertexMode,
    build_initial_field,
    build_star_graph,
    energy,
    gaussian_spinor,
    load_config,
    run,
    step,
    total_norm,
)
from diracstar.config import ExperimentConfig
from diracstar.diagnostics import node_profile
from diracstar.solver import (
    OVERFLOW_FACTOR, _check_stability, _divide, _divisor, check_cfl, check_packet,
)

from .conftest import CANONICAL_ALPHAS, CONFIG_DIR
from .oracles import gaussian, run_loop_reference


def bonds_message(field_bonds, simulated_bonds):
    """The step plan's message for a field whose bonds are not simulated."""
    field_grid, simulated_grid = (
        "; ".join(f"bond {b.index}: {b.cells} cells of dx {b.dx!r}, alpha {b.alpha!r}"
                  for b in bonds)
        for bonds in (field_bonds, simulated_bonds))
    return "^" + re.escape(f"field bonds ({field_grid}) are not the simulated bonds "
                           f"({simulated_grid})") + "$"


def line_graph(length=20.0, dx=0.0125):
    return build_star_graph([(1.0, length, dx), (1.0, length, dx)])


def dirichlet_policy(graph, mode=VertexMode.KIRCHHOFF):
    return BoundaryPolicy(mode, (EndMode.DIRICHLET,) * graph.n_bonds)


def canonical_graph():
    return build_star_graph([(a, 20.0, 0.0125) for a in CANONICAL_ALPHAS])


# ---------------------------------------------------------------- initial data


def test_gaussian_peak_value_on_grid_node():
    g = canonical_graph()
    phi, chi = gaussian_spinor(-5.0, 0.9, g.bonds[0])
    x = g.bonds[0].node_coordinates()
    j = np.argmin(np.abs(x + 5.0))
    assert x[j] == pytest.approx(-5.0, abs=1e-12)
    assert phi[j].real == pytest.approx(
        (2 * np.pi * 0.81) ** -0.25, rel=1e-14
    )
    assert np.argmax(np.abs(phi)) == j


@pytest.mark.parametrize("x0, sigma", [(-3.0, 0.5), (-12.5, 2.0)])
def test_gaussian_value_at_centre(x0, sigma):
    g = canonical_graph()
    phi, _ = gaussian_spinor(x0, sigma, g.bonds[0])
    assert np.max(np.abs(phi)) == pytest.approx(
        (2 * np.pi * sigma**2) ** -0.25, rel=1e-6
    )


def test_gaussian_rejects_bad_arguments():
    g = canonical_graph()
    with pytest.raises(ValueError, match="sigma"):
        gaussian_spinor(-5.0, 0.0, g.bonds[0])
    with pytest.raises(ValueError, match="outside"):
        gaussian_spinor(5.0, 0.9, g.bonds[0])  # bond 1 covers [-20, 0]
    with pytest.raises(ValueError, match="outside"):
        gaussian_spinor(-5.0, 0.9, g.bonds[1])


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_non_finite_sigma_named_as_the_cause(sigma):
    # unchecked, sigma = inf built an all-zero field that ran without error
    # and sigma = nan surfaced as an instability at step 1
    g = line_graph()
    cause = rf"^sigma must be finite, got {sigma}$"
    with pytest.raises(ValueError, match=cause):
        gaussian_spinor(-5.0, sigma, g.bonds[0])
    with pytest.raises(ValueError, match=cause):
        build_initial_field(g, SimParams(0.0, 0.01, 10), dirichlet_policy(g),
                            x0=-5.0, sigma=sigma)


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_non_finite_x0_named_as_the_cause(x0):
    # the packet rule that config and library share; unchecked, the
    # message said "x0 = nan lies outside bond 1"
    g = line_graph()
    cause = rf"^x0 must be finite, got {x0}$"
    with pytest.raises(ValueError, match=cause):
        check_packet(x0, 0.9, g.bonds[0])
    with pytest.raises(ValueError, match=cause):
        build_initial_field(g, SimParams(0.0, 0.01, 10), dirichlet_policy(g),
                            x0=x0, sigma=0.9)


def test_gaussian_continuum_norm_is_two():
    # each component integrates to 1, so |phi|^2 + |chi|^2 integrates to 2
    g = build_star_graph([(1.0, 40.0, 0.002), (1.0, 40.0, 0.002)])
    params = SimParams(mass=0.0, dt=0.001, n_steps=1)
    policy = dirichlet_policy(g)
    field = build_initial_field(
        g, params, policy, x0=-20.0, sigma=0.9, normalize=False
    )
    assert total_norm(field, params) == pytest.approx(2.0, abs=1e-6)


def test_normalization_flag():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    field = build_initial_field(
        g, params, dirichlet_policy(g, VertexMode.WEIGHTED),
        x0=-5.0, sigma=0.9, normalize=True,
    )
    assert total_norm(field, params) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------------- stepping


def test_zero_field_stays_zero():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    policy = dirichlet_policy(g)
    field = SpinorField(g.bonds)
    out = step(field, g, params, policy)
    assert all(np.all(p == 0) for p in out.phi)
    assert all(np.all(c == 0) for c in out.chi)
    assert out.time_level == 1


def random_field(graph, rng, amplitude=1.0):
    field = SpinorField(graph.bonds)
    for p in field.phi:
        p[:] = amplitude * (
            rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
        )
    for c in field.chi:
        c[:] = amplitude * (
            rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
        )
    field.initial_max = field.max_abs()
    return field


def combine(graph, a, f1, b, f2):
    out = SpinorField(graph.bonds)
    for i in range(len(out.phi)):
        out.phi[i][:] = a * f1.phi[i] + b * f2.phi[i]
        out.chi[i][:] = a * f1.chi[i] + b * f2.chi[i]
    out.initial_max = out.max_abs()
    return out


@pytest.mark.parametrize("mode", [VertexMode.KIRCHHOFF, VertexMode.WEIGHTED])
def test_step_is_linear(mode):
    g = build_star_graph([(a, 2.0, 0.05) for a in CANONICAL_ALPHAS])
    params = SimParams(mass=0.2, dt=0.04, n_steps=1)
    rng = np.random.default_rng(21)
    f1 = random_field(g, rng)
    f2 = random_field(g, rng)
    a, b = 0.6 - 0.3j, -1.1 + 0.7j
    lhs = step(combine(g, a, f1, b, f2), g, params, dirichlet_policy(g, mode))
    s1 = step(f1, g, params, dirichlet_policy(g, mode))
    s2 = step(f2, g, params, dirichlet_policy(g, mode))
    rhs = combine(g, a, s1, b, s2)
    for i in range(g.n_bonds):
        np.testing.assert_allclose(lhs.phi[i], rhs.phi[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lhs.chi[i], rhs.chi[i], rtol=1e-12, atol=1e-12)


def test_massless_transport_on_line():
    # (1,1) Gaussian is a pure right-mover: density translates by +t
    g = line_graph()
    params = SimParams(mass=0.0, dt=0.01, n_steps=300)
    policy = dirichlet_policy(g)
    field = build_initial_field(g, params, policy, x0=-5.0, sigma=0.9,
                                normalize=False)
    for _ in range(300):
        field = step(field, g, params, policy)
    x1, _, _, d1 = node_profile(field, 1, params)
    expected = 2.0 * gaussian(x1, -2.0, 0.9) ** 2
    assert np.max(np.abs(d1 - expected)) < 1e-2


def test_one_step_energy_exact():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    policy = dirichlet_policy(g, VertexMode.WEIGHTED)
    field = build_initial_field(g, params, policy, x0=-5.0, sigma=0.9)
    e0 = energy(field, params)
    field = step(field, g, params, policy)
    assert energy(field, params) == pytest.approx(e0, rel=1e-14)


@pytest.mark.parametrize("mode", [VertexMode.KIRCHHOFF, VertexMode.WEIGHTED])
def test_energy_exactly_conserved_closed_system(mode):
    g = build_star_graph([(a, 5.0, 0.025) for a in CANONICAL_ALPHAS])
    params = SimParams(mass=0.05, dt=0.02, n_steps=250)
    policy = dirichlet_policy(g, mode)
    field = build_initial_field(g, params, policy, x0=-2.5, sigma=0.4)
    e0 = energy(field, params)
    worst = 0.0
    for _ in range(250):
        field = step(field, g, params, policy)
        worst = max(worst, abs(energy(field, params) - e0))
    assert worst <= 1e-12 * abs(e0)


def test_norm_drift_small_closed_system():
    g = build_star_graph([(a, 5.0, 0.025) for a in CANONICAL_ALPHAS])
    params = SimParams(mass=0.05, dt=0.02, n_steps=1000)
    policy = dirichlet_policy(g, VertexMode.WEIGHTED)
    field = build_initial_field(g, params, policy, x0=-2.5, sigma=0.4)
    n0 = total_norm(field, params)
    worst = 0.0
    for _ in range(1000):
        field = step(field, g, params, policy)
        worst = max(worst, abs(total_norm(field, params) - n0))
    assert worst < 1e-3 * n0


def test_vertex_invisible_on_unit_line():
    # two unit-weight bonds step exactly like one uniform line
    dx, dt, mass = 0.05, 0.04, 0.3
    g = line_graph(length=2.0, dx=dx)
    params = SimParams(mass=mass, dt=dt, n_steps=1)
    rng = np.random.default_rng(3)
    field = random_field(g, rng)
    c = g.bonds[0].cells

    # assemble the equivalent single line [-2, 2]
    line_phi = np.concatenate([field.phi[0], field.phi[1][1:]])
    line_phi[c] = 0.5 * (field.phi[0][-1] + field.phi[1][0])
    line_chi = np.concatenate([field.chi[0], field.chi[1]])
    stepped = step(field, g, params, dirichlet_policy(g))

    lam, cp, cm = dt / dx, 1 + 0.5j * mass * dt, 1 - 0.5j * mass * dt
    ref_phi = line_phi.copy()
    ref_phi[1:-1] = (cm * line_phi[1:-1] - lam * (line_chi[1:] - line_chi[:-1])) / cp
    ref_phi[0] = ref_phi[-1] = 0.0  # Dirichlet walls of the joined line
    ref_chi = (cp * line_chi - lam * (ref_phi[1:] - ref_phi[:-1])) / cm

    np.testing.assert_allclose(stepped.phi[0], ref_phi[: c + 1], rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(stepped.phi[1], ref_phi[c:], rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(stepped.chi[0], ref_chi[:c], rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(stepped.chi[1], ref_chi[c:], rtol=1e-14, atol=1e-14)


def test_guard_trip_leaves_the_field_at_the_level_it_names():
    # a value written past the guard's limit into a built field: the step
    # that trips the guard has advanced the field, and its message names
    # the level the field is left at
    g = line_graph(length=2.0, dx=0.05)
    params = SimParams(mass=0.0, dt=0.05, n_steps=10)
    policy = dirichlet_policy(g)
    field = build_initial_field(g, params, policy, x0=-1.0, sigma=0.2)
    for _ in range(3):
        step(field, g, params, policy)
    field.phi[0][10] = 2 * OVERFLOW_FACTOR * field.initial_max
    with pytest.raises(InstabilityError, match="grew") as err:
        step(field, g, params, policy)
    assert field.time_level == 4
    assert re.search(rf"\bat step {field.time_level}\b", str(err.value))


def test_instability_names_step_bond_and_node_class():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    field = random_field(g, np.random.default_rng(6))
    field.time_level = 7
    # a NaN at the far end of bond 2 (outgoing: its last phi node)
    bad = field.copy()
    bad.phi[1][-1] = np.nan
    with pytest.raises(InstabilityError) as err:
        _check_stability(bad, params)
    msg = str(err.value)
    assert "non-finite" in msg and "step 7" in msg
    assert f"phi node {g.bonds[1].cells} of bond 2 (end)" in msg
    assert "dt/dx = 0.8" in msg
    # an overflow at the vertex node of bond 1 (incoming: its last phi node)
    bad = field.copy()
    bad.phi[0][-1] = 2 * OVERFLOW_FACTOR * field.initial_max
    with pytest.raises(InstabilityError) as err:
        _check_stability(bad, params)
    msg = str(err.value)
    assert "grew" in msg and "step 7" in msg
    assert f"phi node {g.bonds[0].cells} of bond 1 (vertex)" in msg
    assert "dt/dx = 0.8" in msg
    _check_stability(field, params)


@pytest.mark.parametrize("component", ["phi", "chi"])
def test_guard_verdicts_and_messages_on_either_row(component):
    # phi and chi share one dot product and one peak reduction; a plant in
    # either row keeps its verdict and the message that names it
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    field = random_field(g, np.random.default_rng(11))
    field.time_level = 7
    limit = OVERFLOW_FACTOR * field.initial_max
    kind = {"phi": "phi node", "chi": "chi cell"}[component]
    place = f"{kind} 10 of bond 2 (interior); dt/dx = 0.8"
    above = np.nextafter(limit, np.inf)
    planted = {
        np.nan: f"non-finite field value at step 7, first at {place}",
        np.inf: f"non-finite field value at step 7, first at {place}",
        above: (f"field grew to {above:.3e} at step 7 ({above / field.initial_max:.1e}"
                f" x initial), peak at {place}"),
    }
    for value, message in planted.items():
        bad = field.copy()
        getattr(bad, component)[1][10] = value
        with pytest.raises(InstabilityError) as err:
            _check_stability(bad, params)
        assert str(err.value) == message
    ok = field.copy()
    getattr(ok, component)[1][10] = np.nextafter(limit, 0.0)
    _check_stability(ok, params)


def _guard_plants(limit):
    """Values near every edge of the guard: limit, underflow, overflow, NaN."""
    return (
        0.0, 5e-324, 2.5e-310, 1e-300, limit * (1 - 1e-15), limit,
        limit * (1 + 1e-15), 0.5 * limit, 1e200, 1e308,
        np.inf, -np.inf, np.nan,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_guard_raises_iff_peak_exceeds_limit(data):
    # the norm bound that clears most steps must never change a verdict
    cells = data.draw(st.lists(st.integers(4, 7), min_size=2, max_size=4))
    g = build_star_graph([(1.0, 0.25 * n, 0.25) for n in cells])
    params = SimParams(mass=0.0, dt=0.2, n_steps=1)
    # at 1e303 the limit would overflow to inf, which no value exceeds
    initial_max = data.draw(
        st.sampled_from([0.0, 5e-324, 1e-200, 0.37, 1.0, 1e150, 1e303]))
    limit = min(OVERFLOW_FACTOR * initial_max, sys.float_info.max) or sys.float_info.max
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([0.0, 1e-3, 0.3])) * min(limit, 1.0)
    arrays = [
        scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for b in g.bonds for n in (b.cells + 1, b.cells)
    ]
    for _ in range(data.draw(st.integers(1, 4))):
        a = arrays[data.draw(st.integers(0, len(arrays) - 1))]
        k = data.draw(st.integers(0, len(a) - 1))
        value = data.draw(st.sampled_from(_guard_plants(limit)))
        value *= data.draw(st.sampled_from([1.0, -1.0]))
        if data.draw(st.booleans()):
            a[k] = complex(a[k].real, value)
        else:
            a[k] = complex(value, a[k].imag)
    field = SpinorField(g.bonds)
    for view, a in zip(field.phi + field.chi, arrays[0::2] + arrays[1::2]):
        view[:] = a
    field.initial_max = initial_max
    if not field.max_abs() <= limit:
        with pytest.raises(InstabilityError):
            _check_stability(field, params)
    else:
        _check_stability(field, params)


def test_guard_skips_exact_peak_on_a_healthy_run(canonical_config, monkeypatch):
    # the norm bound clears every step, so the exact peak is computed only
    # for the initial maximum
    graph = canonical_config.build_graph()
    params = canonical_config.sim_params()
    policy = canonical_config.build_policy()
    field = build_initial_field(graph, params, policy, x0=-5.0, sigma=0.9)
    calls = []
    original = SpinorField.max_abs
    monkeypatch.setattr(
        SpinorField, "max_abs", lambda self: calls.append(1) or original(self)
    )
    for _ in range(100):
        field = step(field, graph, params, policy)
    assert field.time_level == 100 and field.initial_max > 0
    assert calls == []


def test_sim_params_validation():
    # SimParams and the kernel share one rule for mass, dt and n_steps; the
    # CFL bound is check_cfl's, on the graph's dx
    SimParams(mass=0.01, dt=0.01, n_steps=10).validate()
    for args, cause in [
        ((-1.0, 0.01, 10), r"^mass must be finite and non-negative, got -1\.0$"),
        ((0.01, 0.0, 10), r"^dt must be finite and positive, got 0\.0$"),
        ((0.01, 0.01, -1), r"^n_steps must be non-negative, got -1$"),
    ]:
        with pytest.raises(ValueError, match=cause):
            SimParams(*args).validate()
        with pytest.raises(ValueError, match=cause):
            BesselKernel.build(*args)
    check_cfl(0.0125, 0.0125)
    with pytest.raises(ValueError, match=r"^CFL violated: dt/dx = 2\.0 exceeds 1$"):
        check_cfl(0.025, 0.0125)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, sign", [("mass", "non-negative"), ("dt", "positive")],
                         ids=["mass", "dt"])
def test_sim_params_rejects_non_finite_values(name, sign, value):
    params = replace(SimParams(mass=0.01, dt=0.01, n_steps=10), **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be finite and {sign}, got {value}$"):
        params.validate()


def test_field_constructor_copies_and_views_are_fixed():
    # the stepper reads the packed buffers: values written through the
    # views are copied in, and a per-bond view cannot be rebound past them
    g = line_graph(length=2.0, dx=0.05)
    phi = [np.full(41, 1.0 + 2.0j), np.full(41, 3.0 + 0j)]
    chi = [np.full(40, -1.0j), np.full(40, 0.5 + 0j)]
    field = SpinorField(g.bonds)
    for view, a in zip(field.phi + field.chi, phi + chi):
        view[:] = a
    want = [a.tobytes() for a in phi + chi]
    for a in phi + chi:
        a[:] = 7.0
    assert [a.tobytes() for a in field.phi + field.chi] == want
    with pytest.raises(TypeError):
        field.phi[0] = phi[0]
    with pytest.raises(TypeError):
        field.chi[1] = chi[1]


def test_initial_field_rejects_bond_outside_domain():
    g = line_graph(length=2.0, dx=0.05)
    params = SimParams(mass=0.0, dt=0.04, n_steps=4)
    with pytest.raises(ValueError, match=r"^bond must be in 1..2, got 3$"):
        build_initial_field(
            g, params, dirichlet_policy(g), x0=1.0, sigma=0.2, bond_index=3
        )


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), float("-inf")])
def test_initial_field_rejects_non_finite_amplitude(amplitude, monkeypatch):
    # unchecked, nan ended as "non-finite field value at step 1 (interior)";
    # the check comes before any field is allocated
    def no_field(self, bonds):
        raise AssertionError("field allocated")

    monkeypatch.setattr(SpinorField, "__init__", no_field)
    g = line_graph(length=2.0, dx=0.05)
    params = SimParams(mass=0.0, dt=0.04, n_steps=4)
    with pytest.raises(ValueError, match=rf"^amplitude must be finite, got {amplitude}$"):
        build_initial_field(g, params, dirichlet_policy(g), x0=-1.0, sigma=0.2,
                            amplitude=amplitude)


def test_step_rejects_partial_field():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=4)
    field = SpinorField(g.bonds[:2])
    with pytest.raises(ValueError, match=bonds_message(g.bonds[:2], g.bonds)):
        step(field, g, params, dirichlet_policy(g))


def test_step_rejects_a_field_on_another_grid():
    # a field of 2 x 40 cells of dx 0.05 stepped with a graph of 2 x 40
    # cells of dx 0.025: unchecked, it stepped at the graph's dt/dx = 0.8,
    # where its own grid gives 0.4
    coarse, fine = line_graph(length=2.0, dx=0.05), line_graph(length=1.0, dx=0.025)
    params = SimParams(mass=0.3, dt=0.02, n_steps=10)
    field = build_initial_field(coarse, params, dirichlet_policy(coarse),
                                x0=-1.0, sigma=0.2)
    before = field_state(field)
    with pytest.raises(ValueError, match=bonds_message(coarse.bonds, fine.bonds)):
        step(field, fine, params, dirichlet_policy(fine))
    assert field_state(field) == before


@pytest.mark.parametrize("planned", [True, False], ids=["replanned", "unplanned"])
def test_step_checks_the_policy_against_the_graph(planned):
    # a 2-end-mode policy on a 3-bond star left bond 3's far-end phi at a
    # stale value, whether the field was planned for another policy or not
    # planned at all
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=4)
    policy = dirichlet_policy(g, VertexMode.WEIGHTED)
    if planned:
        field = build_initial_field(g, params, policy, x0=-5.0, sigma=0.9)
    else:
        field = SpinorField(g.bonds)
    short = BoundaryPolicy(VertexMode.WEIGHTED, (EndMode.DIRICHLET,) * 2)
    with pytest.raises(ValueError, match="policy has 2 end modes for 3 bonds"):
        step(field, g, params, short)


@pytest.mark.parametrize("change", [{"dt": 0.005}, {"mass": 0.5}],
                         ids=["replanned-half_dt", "replanned-mass"])
def test_step_checks_the_kernel_against_the_params(change):
    # open_line.cfg's initial field, planned for dt = 0.01 and m = 0.01 and
    # stepped with dt halved or another mass, once ran on the kernel built
    # for the planned values with no error; its half step in time is theirs
    cfg = load_config(CONFIG_DIR / "open_line.cfg")
    graph, policy = cfg.build_graph(), cfg.build_policy()
    params = cfg.sim_params()
    field = build_initial_field(graph, params, policy, x0=cfg.x0, sigma=cfg.sigma)
    before = field_state(field)
    with pytest.raises(ValueError, match=r"^field planned for mass 0\.01 and dt 0\.01 "
                       "cannot step with mass "):
        step(field, graph, replace(params, **change), policy)
    assert field_state(field) == before


def test_initial_field_takes_one_peak(monkeypatch):
    # the all-zero start of the field needs no peak
    calls = []
    original = SpinorField.max_abs
    monkeypatch.setattr(
        SpinorField, "max_abs", lambda self: calls.append(1) or original(self)
    )
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    field = build_initial_field(
        g, params, dirichlet_policy(g, VertexMode.WEIGHTED), x0=-5.0, sigma=0.9
    )
    assert len(calls) == 1
    assert field.initial_max == original(field) > 0


def test_transparent_vertex_rejects_full_graph_field():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=4)
    policy = BoundaryPolicy(VertexMode.TRANSPARENT, (EndMode.DIRICHLET,) * 3)
    field = SpinorField(g.bonds)
    with pytest.raises(ValueError, match=bonds_message(g.bonds, g.bonds[:1])):
        step(field, g, params, policy)


def test_transparent_vertex_factor_taken_once_per_weight_set(monkeypatch):
    # the factor's Python loop over the weights runs once per run, when
    # build_initial_field plans the run, not every step
    calls = []
    original = solver.vertex_tbc_factor
    monkeypatch.setattr(
        solver, "vertex_tbc_factor", lambda a: calls.append(a) or original(a)
    )
    params, runs = open_runs()
    graph, make_policy = runs[1]
    policy = make_policy()
    field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
    for _ in range(20):
        field = step(field, graph, params, policy)
    assert calls == [graph.alphas]


def test_run_builds_one_step_plan(canonical_config, monkeypatch):
    # build_initial_field plans the run, and every step reuses that plan
    plans = []

    class Counted(solver._StepPlan):
        def __init__(self, *args):
            plans.append(1)
            super().__init__(*args)

    monkeypatch.setattr(solver, "_StepPlan", Counted)
    for config in (canonical_config, load_config(CONFIG_DIR / "open_line.cfg")):
        plans.clear()
        run(replace(config, n_steps=20, snapshot_times=()))
        assert len(plans) == 1


# ---------------------------------------------------------- boundary histories


def open_runs():
    """Transparent-end line and transparent-vertex star, each with a policy."""
    params = SimParams(mass=0.3, dt=0.04, n_steps=60)
    line = line_graph(length=2.0, dx=0.05)
    star = build_star_graph([(a, 2.0, 0.05) for a in (1.0, 1.0, 1.0)])
    return params, [
        (line, lambda: BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.TRANSPARENT,) * 2)),
        (star, lambda: BoundaryPolicy(
            VertexMode.TRANSPARENT, (EndMode.TRANSPARENT,) + (EndMode.DIRICHLET,) * 2)),
    ]


def test_one_policy_serves_interleaved_runs():
    params, runs = open_runs()
    for graph, make_policy in runs:
        shared = make_policy()
        starts = (-1.5, -0.9)
        together = [
            build_initial_field(graph, params, shared, x0=x, sigma=0.2)
            for x in starts
        ]
        for _ in range(60):
            together = [step(f, graph, params, shared) for f in together]
        for x, joint in zip(starts, together):
            own = make_policy()
            alone = build_initial_field(graph, params, own, x0=x, sigma=0.2)
            for _ in range(60):
                alone = step(alone, graph, params, own)
            for a, b in zip(joint.phi + joint.chi, alone.phi + alone.chi):
                assert np.array_equal(a, b)
            assert sorted(joint.histories) == sorted(alone.histories)
            for key, h in joint.histories.items():
                assert np.array_equal(h[:], alone.histories[key][:])


def field_state(field):
    """What a step may change: both buffers, the time level, the histories."""
    return (field.phi_buf.tobytes(), field.chi_buf.tobytes(), field.time_level,
            {key: h[:].tobytes() for key, h in field.histories.items()})


@pytest.mark.parametrize("cause", ["policy", "kernel", "mass", "level", "missing"])
@pytest.mark.parametrize("run_index", [0, 1], ids=["transparent_ends", "transparent_vertex"])
def test_a_step_that_raises_leaves_the_field_as_it_was(cause, run_index):
    # every check comes before the first write: a policy that does not fit
    # the graph, a dt or a mass other than the field's plan, a missing
    # history (end 1 made transparent after 5 steps with a wall) and a level
    # past the kernel, on fields at level 5 (6 for the last) whose transparent
    # boundaries' histories (two, or one for the missing history) are
    # written at every level below it
    params, runs = open_runs()
    graph, make_policy = runs[run_index]
    policy = start = make_policy()
    if cause == "missing":  # the kernel covers levels 0..5, the run 5 steps
        params = replace(params, n_steps=5)
    if cause == "level":
        start = BoundaryPolicy(policy.vertex_mode, (EndMode.DIRICHLET, *policy.end_modes[1:]))
    field = build_initial_field(graph, params, start, x0=-1.0, sigma=0.2)
    for _ in range(5):
        field = step(field, graph, params, start)
    args, error = {
        "policy": ((graph, params, BoundaryPolicy(
            policy.vertex_mode, policy.end_modes[:-1])), ValueError),
        "kernel": ((graph, replace(params, dt=0.5 * params.dt), policy), ValueError),
        "mass": ((graph, replace(params, mass=2.0 * params.mass), policy), ValueError),
        "level": ((graph, params, policy), ValueError),
        "missing": ((graph, params, policy), MissingHistoryError),
    }[cause]
    if cause == "missing":
        field = step(field, *args)  # level 5, the kernel's last
    before = field_state(field)
    assert len(before[3]) == 2 - (cause == "level") and before[2] == 5 + (cause == "missing")
    with pytest.raises(error):
        step(field, *args)
    assert field_state(field) == before


@pytest.mark.parametrize("run_index", [0, 1], ids=["transparent_ends", "transparent_vertex"])
def test_cfl_above_one_is_rejected_before_the_first_write(run_index):
    # dt/dx = 1.2 on the library path: unchecked, the field was built and
    # stepped at the unstable ratio until the overflow guard tripped
    params, runs = open_runs()
    graph, make_policy = runs[run_index]
    policy = make_policy()
    fast = replace(params, dt=1.2 * graph.dx)
    with pytest.raises(ValueError, match=r"^CFL violated: dt/dx = 1\.2\d* exceeds 1$"):
        build_initial_field(graph, fast, policy, x0=-1.0, sigma=0.2)
    field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
    for _ in range(5):
        field = step(field, graph, params, policy)
    before = field_state(field)
    assert len(before[3]) == 2 and before[2] == 5
    with pytest.raises(ValueError, match=r"^CFL violated: dt/dx = 1\.2\d* exceeds 1$"):
        step(field, graph, fast, policy)
    assert field_state(field) == before


@pytest.mark.parametrize("dt, cause", [
    (-0.04, r"^dt must be finite and positive, got -0\.04$"),
    (np.nan, r"^dt must be finite and positive, got nan$"),
], ids=["negative", "nan"])
def test_library_path_names_a_dt_that_is_not_positive(dt, cause):
    # dt/dx of a negative dt passes the CFL bound: unchecked, the run
    # stepped backwards in time without error, and a NaN dt ended as
    # "non-finite field value at step 1"
    g = line_graph(length=2.0, dx=0.05)
    params, policy = SimParams(mass=0.3, dt=dt, n_steps=10), dirichlet_policy(g)
    with pytest.raises(ValueError, match=cause):
        build_initial_field(g, params, policy, x0=-1.0, sigma=0.2)
    field = random_field(g, np.random.default_rng(8))
    before = field_state(field)
    with pytest.raises(ValueError, match=cause):
        step(field, g, params, policy)
    assert field_state(field) == before


def test_a_field_stepped_with_other_boundary_modes_is_rejected():
    # a transparent end that the run did not start with has no history of
    # the levels the field has stepped
    params, runs = open_runs()
    for graph, make_policy in runs:
        policy = make_policy()
        walls = BoundaryPolicy(policy.vertex_mode, (EndMode.DIRICHLET,) * graph.n_bonds)
        field = build_initial_field(graph, params, walls, x0=-1.0, sigma=0.2)
        for _ in range(5):
            step(field, graph, params, walls)
        with pytest.raises(
            ValueError, match=r"^field at time level 5 holds histories \{.*'end1': 61"
        ):
            step(field, graph, params, policy)


@pytest.mark.parametrize("switch", ["walls", "longer_kernel"])
@pytest.mark.parametrize("run_index", [0, 1], ids=["transparent_ends", "transparent_vertex"])
def test_a_field_stepped_on_with_walls_or_a_longer_kernel_is_rejected(run_index, switch):
    # the reverse switch: unchecked, 5 transparent steps and then steps with
    # walls ran silently and left the transparent ends' histories 5 levels
    # behind the field; and a kernel longer than the one the histories were
    # made for (here, of params with twice the steps) stepped once more,
    # then raised IndexError
    params, runs = open_runs()
    graph, make_policy = runs[run_index]
    policy = other = make_policy()
    longer = params
    if switch == "walls":
        other = BoundaryPolicy(policy.vertex_mode, (EndMode.DIRICHLET,) * graph.n_bonds)
    else:
        longer = replace(params, n_steps=2 * params.n_steps)
    field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
    for _ in range(5):
        step(field, graph, params, policy)
    before = field_state(field)
    with pytest.raises(ValueError, match=r"^field at time level 5 holds histories "):
        step(field, graph, longer, other)
    assert field_state(field) == before


@pytest.mark.parametrize("make_copy", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_module_makes_the_copy_method_makes(make_copy):
    # unchecked, a shallow copy of a closed run stepped the shared buffers
    # twice without error, and a deep copy's per-bond views kept reading
    # its start state while its buffers stepped on
    params, runs = open_runs()
    line = line_graph(length=2.0, dx=0.05)
    for graph, make_policy in [(line, lambda: dirichlet_policy(line)), *runs]:
        policy = make_policy()
        field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
        twin, alone = make_copy(field), field.copy()
        for _ in range(10):
            for f in (field, twin, alone):
                step(f, graph, params, policy)
        for f in (field, twin):
            assert f.time_level == 10
            for a, b in zip(f.phi + f.chi, alone.phi + alone.chi):
                assert np.array_equal(a, b)


def test_copied_field_steps_on_its_own():
    params, runs = open_runs()
    for graph, make_policy in runs:
        policy = make_policy()
        field = build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)
        for _ in range(20):
            field = step(field, graph, params, policy)
        twin = field.copy()
        for _ in range(40):
            field = step(field, graph, params, policy)
            twin = step(twin, graph, params, policy)
        for a, b in zip(field.phi + field.chi, twin.phi + twin.chi):
            assert np.array_equal(a, b)
        for key, h in twin.histories.items():
            assert h is not field.histories[key] and len(h) == 61
            assert h.tobytes() == field.histories[key].tobytes()


# ------------------------------------------------------------------ run loop


def zero_steps_config():
    return ExperimentConfig(
        alphas=CANONICAL_ALPHAS,
        lengths=(20.0,) * 3,
        dx=0.0125,
        mass=0.01,
        dt=0.01,
        n_steps=0,
        x0=-5.0,
        sigma=0.9,
    )


def test_run_zero_steps_yields_initial_record_only():
    result = run(zero_steps_config())
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.t == 0.0
    assert rec.reflection == pytest.approx(1.0, abs=1e-9)
    assert rec.total_norm == pytest.approx(1.0, rel=1e-12)


def test_run_sampling_and_snapshots(canonical_run, canonical_config):
    records = canonical_run.records
    assert len(records) == 101  # every 10 steps of 1000, plus t = 0
    assert records[0].t == 0.0
    assert records[-1].t == pytest.approx(10.0)
    times = {s.time for s in canonical_run.snapshots}
    assert times == set(canonical_config.snapshot_times)
    # one snapshot per bond per requested time
    assert len(canonical_run.snapshots) == 3 * len(canonical_config.snapshot_times)


def test_run_rejects_cfl_violation():
    bad = replace(zero_steps_config(), n_steps=100, dt=0.025)
    with pytest.raises(ValueError, match="CFL"):
        run(bad)


@pytest.mark.parametrize("m_dt", [0.0, 1e-4, 0.012, 1.9, 2.0, 2.4, 10.0])
def test_stencil_division_is_numpys_bit_for_bit(m_dt):
    # the stepper's in-place division by cp and cm gives np.divide's bits,
    # signed zeros included, on both sides of numpy's branch at m dt = 2,
    # on whole arrays and on the offset slices the phi stencil writes; the
    # operand order of the multiply matters where numpy's loop uses FMA
    rng = np.random.default_rng(2020)
    special = [0.0, -0.0, 5e-324, -4.9e-322, 2.2e-308, -1e-300, 1e300, -1.7e300]
    for den in (1.0 + 0.5j * m_dt, 1.0 - 0.5j * m_dt):
        divisor = _divisor(den)
        for n in (1, 2, 3, 8, 67, 1000, 1001):
            for _ in range(8):
                parts = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(
                    -300, 300, (n, 2)
                )
                picked = rng.random((n, 2)) < 0.2
                parts[picked] = rng.choice(special, np.count_nonzero(picked))
                x = parts.view(complex)[:, 0]
                want = np.divide(x, den)
                for got in (x.copy(), np.concatenate(([1j], x, [1j]))[1:-1]):
                    _divide(got, got.view(float), divisor)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_run_matches_the_loop(config):
    # run's records, snapshots, final buffers and histories have the bytes
    # of the plain loop that steps every slot in place every step
    result = run(config)
    records, snapshots, field = run_loop_reference(config, solver, diagnostics)

    def as_bytes(values):
        return np.concatenate([np.ravel(v) for v in values]).tobytes()

    assert len(result.records) == len(records)
    for got, want in zip(result.records, records):
        assert as_bytes(astuple(got)) == as_bytes(astuple(want))
    assert len(result.snapshots) == len(snapshots)
    for got, want in zip(result.snapshots, snapshots):
        assert as_bytes((got.x, got.phi, got.chi, got.density)) == as_bytes(want)
    final = result.field
    assert final.phi_buf.tobytes() == field.phi_buf.tobytes()
    assert final.chi_buf.tobytes() == field.chi_buf.tobytes()
    assert final.time_level == field.time_level == config.n_steps
    assert sorted(final.histories) == sorted(field.histories)
    for key, h in field.histories.items():
        assert final.histories[key][:].tobytes() == h[:].tobytes()
    return result


@pytest.mark.parametrize("name", ["transparent_star.cfg", "open_line.cfg"])
def test_run_matches_a_loop_of_in_place_steps(name):
    # run steps its one field in place over a window, and a snapshot keeps
    # the values of its step after the buffers moved on
    config = load_config(CONFIG_DIR / name)
    config = replace(config, n_steps=300, snapshot_times=(0.0, 0.5, 2.0, 3.0))
    result = assert_run_matches_the_loop(config)
    assert len(result.records) == 1 + 300 // config.sample_every
    assert len(result.snapshots) == 4 * result.field.n_bonds
    # each history has the kernel's length, levels 0..300, and holds +0
    # from the field's level on
    for h in result.field.histories.values():
        assert len(h) == 301 and h[300:].tobytes() == bytes(16)


def test_a_field_from_run_steps_every_slot():
    # run's window lives on a plan keyed to run's own params, so a step on
    # the field it returns plans again: a value written far beyond that
    # window is stepped, as on a copy
    config = replace(load_config(CONFIG_DIR / "transparent_star.cfg"),
                     n_steps=20, snapshot_times=())
    result = run(config)
    field, twin = result.field, result.field.copy()
    for f in (field, twin):
        f.phi[-1][-10] = 1.0 - 2.0j
    graph, params = result.graph, config.sim_params()
    policy = config.build_policy()
    new, new_twin = (step(f, graph, params, policy) for f in (field, twin))
    assert new.phi_buf.tobytes() == new_twin.phi_buf.tobytes()
    assert new.chi_buf.tobytes() == new_twin.chi_buf.tobytes()
    assert new.phi[-1][-10] != 0.0 and new.chi[-1][-10] != 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_run_matches_the_loop_on_random_stars(data):
    # short bonds, every vertex mode, walls and transparent ends (the last
    # bond's far end too), any source bond, signed-zero and negative
    # amplitudes, with and without snapshots
    n = data.draw(st.integers(2, 5), label="bonds")
    dx = 0.0625
    cells = data.draw(st.lists(st.integers(4, 160), min_size=n, max_size=n))
    vertex = data.draw(st.sampled_from(["kirchhoff", "weighted", "transparent"]))
    ends = data.draw(st.lists(st.sampled_from(["dirichlet", "transparent"]),
                              min_size=n, max_size=n))
    if vertex == "transparent":  # bonds 2..N are not simulated
        ends[1:] = ["dirichlet"] * (n - 1)
    source = 1 if vertex == "transparent" else data.draw(st.integers(1, n))
    length = cells[source - 1] * dx
    x0 = data.draw(st.floats(0.0, 1.0)) * length - (length if source == 1 else 0.0)
    dt = data.draw(st.sampled_from([0.3, 0.8, 1.0])) * dx
    n_steps = data.draw(st.integers(0, 90), label="steps")
    snaps = data.draw(st.lists(st.integers(0, n_steps), max_size=3, unique=True))
    config = ExperimentConfig(
        alphas=tuple(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))),
        lengths=tuple(c * dx for c in cells),
        dx=dx,
        mass=data.draw(st.sampled_from([0.0, 0.3, 5.0])),
        dt=dt,
        n_steps=n_steps,
        x0=x0,
        sigma=data.draw(st.sampled_from([0.2, 0.5])),
        source_bond=source,
        amplitude=data.draw(st.sampled_from([1.0, -0.0, -1.5])),
        normalize_initial=data.draw(st.booleans()),
        vertex_mode=vertex,
        end_modes=tuple(ends),
        sample_every=data.draw(st.integers(1, 20)),
        snapshot_times=tuple(k * dt for k in snaps),
    )
    assert_run_matches_the_loop(config)
