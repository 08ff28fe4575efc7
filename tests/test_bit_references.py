"""The junction set-up and the diagnostics against their per-bond forms.

``oracles`` keeps the per-bond forms that ``build_initial_field`` and the
diagnostics had before the step plan set the junctions and one pass summed
each bond.  Each example draws a star of 2..6 short bonds, a vertex mode,
end modes and values that include +-0, subnormals and magnitudes up to
1e150 (so every square stays finite), and compares the bytes.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from diracstar import (
    BoundaryPolicy,
    EndMode,
    SimParams,
    SpinorField,
    VertexMode,
    build_initial_field,
    build_star_graph,
    compute_record,
    energy,
    partial_norm,
    total_norm,
)
from diracstar import solver

from .oracles import (
    compute_record_reference,
    energy_reference,
    initial_field_reference,
    partial_norm_reference,
)

DX = 0.05

reals = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e150, -1e150]),
    st.floats(-1e150, 1e150, allow_nan=False),
)
values = st.builds(complex, reals, reals)


@st.composite
def stars(draw):
    """(graph, policy, params) of a random star."""
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(4, 9), min_size=n, max_size=n))
    alphas = draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n))
    graph = build_star_graph([(a, c * DX, DX) for a, c in zip(alphas, cells)])
    vertex = draw(st.sampled_from(list(VertexMode)))
    ends = tuple(draw(st.lists(st.sampled_from(list(EndMode)), min_size=n, max_size=n)))
    params = SimParams(mass=draw(st.floats(0.0, 5.0)),
                       dt=draw(st.floats(0.1, 1.0)) * DX, n_steps=4)
    return graph, BoundaryPolicy(vertex, ends), params


def domain(graph, policy):
    return graph.bonds[:1] if policy.vertex_mode is VertexMode.TRANSPARENT else graph.bonds


def random_field(draw, bonds):
    field = SpinorField(bonds)
    for arr in field.phi + field.chi:
        arr[:] = draw(st.lists(values, min_size=len(arr), max_size=len(arr)))
    return field


def bits(*numbers):
    return np.array(numbers, dtype=complex).tobytes()


@settings(max_examples=60, deadline=None)
@given(stars(), st.data())
def test_diagnostics_match_the_per_bond_forms(star, data):
    graph, policy, params = star
    field = random_field(data.draw, domain(graph, policy))
    record = compute_record(field, params, 0.5)
    partial, total, e, refl = compute_record_reference(field, params)
    assert bits(*record.partial_norms, record.total_norm, record.energy,
                record.reflection) == bits(*partial, total, e, refl)
    assert bits(*(partial_norm(field, j + 1, params) for j in range(field.n_bonds))) \
        == bits(*(partial_norm_reference(field, j + 1, params)
                  for j in range(field.n_bonds)))
    assert bits(total_norm(field, params)) == bits(sum(partial))
    assert bits(energy(field, params)) == bits(energy_reference(field, params))


@settings(max_examples=80, deadline=None)
@given(stars(), st.data())
def test_initial_junctions_match_the_per_bond_form(star, data):
    # the packet is any drawn spinor: build_initial_field samples it through
    # gaussian_spinor, which the test replaces
    graph, policy, params = star
    bonds = domain(graph, policy)
    b = data.draw(st.integers(0, len(bonds) - 1))
    phi0, chi0 = (np.array(data.draw(st.lists(values, min_size=m, max_size=m)))
                  for m in (bonds[b].cells + 1, bonds[b].cells))
    amplitude = data.draw(st.sampled_from([1.0, -0.0, 0.5, -1.5]))
    normalize = data.draw(st.booleans())
    with mock.patch.object(solver, "gaussian_spinor", lambda *args: (phi0, chi0)):
        field = build_initial_field(graph, params, policy, x0=0.0, sigma=1.0,
                                    bond_index=b + 1, amplitude=amplitude,
                                    normalize=normalize)
    expected = SpinorField(bonds)
    expected.phi[b][:], expected.chi[b][:] = amplitude * phi0, amplitude * chi0
    initial_field_reference(
        expected, params, graph.alphas, policy.vertex_mode.value,
        [m is EndMode.DIRICHLET for m in policy.end_modes], normalize,
    )
    assert field.phi_buf.tobytes() == expected.phi_buf.tobytes()
    assert field.chi_buf.tobytes() == expected.chi_buf.tobytes()
