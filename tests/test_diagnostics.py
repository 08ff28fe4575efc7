import numpy as np
import pytest

from diracstar import (
    BoundaryPolicy,
    DiagnosticsRecord,
    EndMode,
    SimParams,
    SpinorField,
    VertexMode,
    build_initial_field,
    step,
    build_star_graph,
    compute_record,
    energy,
    partial_norm,
    total_norm,
    transmitted_fractions,
)

from .conftest import CANONICAL_ALPHAS
from .oracles import boundary_form_reference


def canonical_graph(length=20.0, dx=0.0125):
    return build_star_graph([(a, length, dx) for a in CANONICAL_ALPHAS])


def zero_field(graph, params):
    """A zero field on every bond of ``graph``, walled at the far ends."""
    walls = BoundaryPolicy(VertexMode.KIRCHHOFF, (EndMode.DIRICHLET,) * graph.n_bonds)
    return SpinorField(graph, params, walls)


def make_record(norms, t=10.0):
    total = float(sum(norms))
    return DiagnosticsRecord(t, tuple(norms), total, 0.0, norms[0] / total)


# ---------------------------------------------------------------------- norms


def test_partial_norm_zero_field():
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.01, dt=0.04, n_steps=1)
    field = zero_field(g, params)
    assert partial_norm(field, 1) == 0.0
    assert total_norm(field) == 0.0


def test_normalized_initial_condition_norms():
    g = canonical_graph()
    params = SimParams(mass=0.01, dt=0.01, n_steps=1)
    policy = BoundaryPolicy(VertexMode.WEIGHTED, (EndMode.DIRICHLET,) * 3)
    field = build_initial_field(g, params, policy, x0=-5.0, sigma=0.9)
    n = [partial_norm(field, j) for j in (1, 2, 3)]
    assert n[0] == pytest.approx(1.0, abs=1e-8)
    assert n[1] + n[2] < 1e-8
    assert total_norm(field) == pytest.approx(1.0, rel=1e-12)


# ----------------------------------------------------- reflection / fractions


def test_reflection_examples():
    # a record's reflection is N1 / sum Nj, and 1 with every other bond at
    # zero; a record of zero total norm has none that transmitted_fractions
    # can use
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.3, dt=0.04, n_steps=1)
    rng = np.random.default_rng(7)
    field = zero_field(g, params)
    for arr in field.phi + field.chi:
        arr[:] = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
    want = partial_norm(field, 1) / total_norm(field)
    assert compute_record(field).reflection == want
    for arr in field.phi[1:] + field.chi[1:]:
        arr[:] = 0.0
    assert compute_record(field).reflection == 1.0
    zero = compute_record(zero_field(g, params))
    assert zero.reflection == 0.0
    with pytest.raises(ValueError, match="zero total norm"):
        transmitted_fractions(zero)
    with pytest.raises(ValueError, match="zero total norm"):
        transmitted_fractions(DiagnosticsRecord(0.0, (0.0, 0.0), 0.0, 0.0, 0.0))


def test_transmitted_fractions_symmetric_split():
    rec = make_record([0.001, 0.4995, 0.4995])
    assert transmitted_fractions(rec) == pytest.approx((0.5, 0.5))


def test_transmitted_fractions_sum_to_one():
    rec = make_record([0.01, 0.57, 0.13, 0.29])
    fractions = transmitted_fractions(rec)
    assert sum(fractions) == 1.0


def test_transmitted_fractions_threshold():
    rec = make_record([0.2, 0.5, 0.3])
    with pytest.raises(ValueError, match="not fully transmitted"):
        transmitted_fractions(rec)
    assert transmitted_fractions(rec, threshold=0.5) == pytest.approx(
        (0.625, 0.375)
    )


def test_four_bond_equal_weights_split_equally():
    # generalized sum rule with three identical outgoing bonds
    alphas = (3**-0.5, 1.0, 1.0, 1.0)
    g = build_star_graph([(a, 20.0, 0.0125) for a in alphas])
    params = SimParams(mass=0.01, dt=0.01, n_steps=1000)
    policy = BoundaryPolicy(VertexMode.WEIGHTED, (EndMode.DIRICHLET,) * 4)
    field = build_initial_field(g, params, policy, x0=-5.0, sigma=0.9)
    for _ in range(1000):
        field = step(field)
    rec = compute_record(field)
    assert rec.reflection < 0.01
    fractions = transmitted_fractions(rec)
    assert fractions == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


# --------------------------------------------------------------------- energy


def test_energy_zero_field():
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.01, dt=0.04, n_steps=1)
    assert energy(zero_field(g, params)) == 0.0


def test_energy_without_chi_is_phi_norm():
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.3, dt=0.04, n_steps=1)
    rng = np.random.default_rng(2)
    field = zero_field(g, params)
    expected = 0.0
    for p in field.phi:
        p[:] = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
        p2 = np.abs(p) ** 2
        expected += g.dx * (p2.sum() - 0.5 * (p2[0] + p2[-1]))
    assert energy(field) == expected


def test_energy_invariant_under_global_phase():
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.3, dt=0.04, n_steps=1)
    rng = np.random.default_rng(4)
    field = zero_field(g, params)
    for p in field.phi:
        p[:] = rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape)
    for c in field.chi:
        c[:] = rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
    rotated = field.copy()
    phase = np.exp(1j * 1.234)
    for p in rotated.phi:
        p *= phase
    for c in rotated.chi:
        c *= phase
    assert energy(rotated) == pytest.approx(
        energy(field), rel=1e-12
    )


# -------------------------------------------------------------- boundary form


def smooth_field(graph, params, rng):
    """Random band-limited field, zero at the far ends."""
    field = zero_field(graph, params)
    for b, bond in enumerate(graph.bonds):
        x = bond.node_coordinates()
        xc = bond.cell_coordinates()
        for arr, pos in ((field.phi[b], x), (field.chi[b], xc)):
            for _ in range(3):
                k = rng.uniform(0.5, 3.0)
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                arr += amp * np.sin(k * (pos - pos[0]))
    field.phi[0][0] = 0.0
    for b in range(1, graph.n_bonds):
        field.phi[b][-1] = 0.0
    return field


def impose_vertex_conditions(field, graph, alphas):
    """Make the node values and extrapolated chi satisfy the vertex coupling."""
    a = np.asarray(alphas, float)
    shared = field.phi[0][-1] * a[0]
    field.phi[0][-1] = shared / a[0]
    for b in range(1, graph.n_bonds):
        field.phi[b][0] = shared / a[b]
    # extrapolated chi(0) of the outgoing bonds fixes the incoming value
    flux = 0.0 + 0.0j
    for b in range(1, graph.n_bonds):
        chi0 = 0.5 * (3 * field.chi[b][0] - field.chi[b][1])
        flux += chi0 / a[b]
    chi_in = a[0] * flux
    # flat near the vertex so the extrapolation lands on chi_in exactly
    field.chi[0][-1] = chi_in
    field.chi[0][-2] = chi_in
    return field


@pytest.mark.parametrize(
    "mode_alphas",
    [(VertexMode.KIRCHHOFF, (1.0, 1.0, 1.0)), (VertexMode.WEIGHTED, CANONICAL_ALPHAS)],
)
def test_boundary_form_vanishes_for_coupled_fields(mode_alphas):
    _, alphas = mode_alphas
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.1, dt=0.04, n_steps=1)
    rng = np.random.default_rng(6)
    psi = impose_vertex_conditions(smooth_field(g, params, rng), g, alphas)
    phi = impose_vertex_conditions(smooth_field(g, params, rng), g, alphas)
    omega = boundary_form_reference(psi, phi)
    scale = np.sqrt(total_norm(psi) * total_norm(phi))
    assert abs(omega) < 1e-10 * scale


def test_boundary_form_nonzero_for_random_fields():
    g = canonical_graph(length=1.0, dx=0.05)
    params = SimParams(mass=0.1, dt=0.04, n_steps=1)
    rng = np.random.default_rng(42)
    psi = smooth_field(g, params, rng)
    phi = smooth_field(g, params, rng)
    omega = boundary_form_reference(psi, phi)
    scale = np.sqrt(total_norm(psi) * total_norm(phi))
    assert abs(omega) > 1e-6 * scale


# ------------------------------------------------------------------ monotone R


def test_reflection_monotone_on_canonical_run(canonical_run):
    records = canonical_run.records
    for prev, cur in zip(records, records[1:]):
        assert cur.reflection <= prev.reflection + 1e-3


def test_record_invariants(canonical_run):
    for rec in canonical_run.records:
        assert rec.total_norm == pytest.approx(sum(rec.partial_norms), rel=1e-12)
        assert 0.0 <= rec.reflection <= 1.0
