"""Properties of the stepper on random star graphs.

Each example draws a bond count N in 2..6, a vertex mode and two different
weight vectors in [0.3, 3]^N, and steps both graphs in lockstep in one
process, so vertex constants carried over from another graph show up.
The stencil test draws one star per vertex mode, with random end modes,
and checks each step against the expression form in ``oracles`` and the
junction updates; the arena test checks that every field on them sits on
an aligned arena.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracstar import (
    BoundaryPolicy,
    EndMode,
    SimParams,
    SpinorField,
    VertexMode,
    build_initial_field,
    build_star_graph,
    energy,
    step,
)

from .oracles import leapfrog_interior
from .test_boundaries import vertex_values

PARAMS = SimParams(mass=0.3, dt=0.04, n_steps=50)


@st.composite
def star_pair(draw):
    n = draw(st.integers(2, 6))
    mode = draw(st.sampled_from([VertexMode.WEIGHTED, VertexMode.KIRCHHOFF]))
    weights = st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)
    first = draw(weights)
    second = draw(weights.filter(lambda w: w != first))
    return mode, (tuple(first), tuple(second))


def closed_star(alphas, mode):
    graph = build_star_graph([(a, 2.0, 0.05) for a in alphas])
    policy = BoundaryPolicy(mode, (EndMode.DIRICHLET,) * len(alphas))
    return graph, policy


def packet(graph, policy, params=PARAMS):
    # reaches the vertex at t ~ 1, half way through the 50 steps
    return build_initial_field(graph, params, policy, x0=-1.0, sigma=0.2)


def effective_weights(alphas, mode):
    return np.asarray(alphas) if mode is VertexMode.WEIGHTED else np.ones(len(alphas))


@settings(max_examples=12, deadline=None)
@given(star_pair())
def test_random_star_keeps_vertex_chain(pair):
    mode, weight_sets = pair
    stars = [closed_star(alphas, mode) for alphas in weight_sets]
    fields = [packet(g, p) for g, p in stars]
    for _ in range(PARAMS.n_steps):
        for i, (alphas, (graph, policy)) in enumerate(zip(weight_sets, stars)):
            fields[i] = step(fields[i], graph, PARAMS, policy)
            chain = effective_weights(alphas, mode) * vertex_values(fields[i])
            assert np.all(np.abs(chain - chain[0]) <= 1e-12)


@settings(max_examples=12, deadline=None)
@given(star_pair())
def test_random_star_conserves_energy(pair):
    mode, weight_sets = pair
    stars = [closed_star(alphas, mode) for alphas in weight_sets]
    fields = [packet(g, p) for g, p in stars]
    e0 = [energy(f, PARAMS) for f in fields]
    for _ in range(PARAMS.n_steps):
        for i, (graph, policy) in enumerate(stars):
            fields[i] = step(fields[i], graph, PARAMS, policy)
            assert abs(energy(fields[i], PARAMS) - e0[i]) <= 1e-12 * e0[i]


@settings(max_examples=12, deadline=None)
@given(star_pair(), st.integers(0, 2**32 - 1))
def test_random_star_step_is_linear(pair, seed):
    mode, weight_sets = pair
    rng = np.random.default_rng(seed)
    a, b = 0.6 - 0.3j, -1.1 + 0.7j
    for graph, policy in (closed_star(alphas, mode) for alphas in weight_sets):
        f1 = packet(graph, policy)
        f2 = SpinorField(graph.bonds)
        for arr in f2.phi + f2.chi:
            arr[:] = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
        mixed = SpinorField(graph.bonds)
        for lhs, u, v in zip(mixed.phi + mixed.chi, f1.phi + f1.chi, f2.phi + f2.chi):
            lhs[:] = a * u + b * v
        mixed.initial_max = mixed.max_abs()
        f2.initial_max = f2.max_abs()
        for _ in range(PARAMS.n_steps):
            f1, f2, mixed = (step(f, graph, PARAMS, policy) for f in (f1, f2, mixed))
        for lhs, u, v in zip(mixed.phi + mixed.chi, f1.phi + f1.chi, f2.phi + f2.chi):
            np.testing.assert_allclose(lhs, a * u + b * v, rtol=0, atol=1e-12)


def assert_packed(field):
    """Each bond's arrays are views at one offset of the field's buffers,
    bond after bond, and each chi pad after a bond's last cell is +0."""
    start = 0
    for p, c in zip(field.phi, field.chi):
        for view, buf in ((p, field.phi_buf), (c, field.chi_buf)):
            assert np.shares_memory(view, buf)
            assert view.ctypes.data - buf.ctypes.data == start * buf.itemsize
        start += len(p)
        assert field.chi_buf[start - 1 : start].tobytes() == bytes(16)
    assert start == len(field.phi_buf) == len(field.chi_buf)


def test_packing_probe_rejects_a_view_outside_its_buffer():
    # the probe accepts arena views; a view of another field's buffer at the
    # same offset, a copy, or a view at another offset still fails it
    graph, policy = closed_star((1.0, 1.0, 1.0), VertexMode.WEIGHTED)
    field = packet(graph, policy)
    assert_packed(field)
    other = field.copy()
    for moved in (
        {"phi": (other.phi[0], *field.phi[1:])},
        {"chi": (*field.chi[:-1], field.chi[-1].copy())},
        {"chi": (field.chi[0], field.chi[2], field.chi[1])},
    ):
        bad = object.__new__(SpinorField)  # shares the field's buffers
        vars(bad).update(vars(field), **moved)
        with pytest.raises(AssertionError):
            assert_packed(bad)


def assert_aligned(field):
    """phi, chi and the stencil scratch start on 64-byte boundaries, and the
    arena slots after the phi and chi buffers are +0."""
    for buf in (field.phi_buf, field.chi_buf, field._arena[2]):
        assert buf.ctypes.data % 64 == 0
    assert field._arena[:2, len(field.phi_buf):].tobytes() == bytes(
        32 * (field._arena.shape[1] - len(field.phi_buf))
    )


def random_stars():
    """(alphas, end modes, bond-1 cells, other cells) of a random star."""
    return st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n),
        st.lists(st.sampled_from(list(EndMode)), min_size=n, max_size=n),
        st.integers(40, 60),
        st.lists(st.integers(12, 60), min_size=n - 1, max_size=n - 1),
    ))


def random_star(params, mode, star):
    alphas, ends, first, others = star
    cells = (first, *others)
    graph = build_star_graph([(a, 0.05 * n, 0.05) for a, n in zip(alphas, cells)])
    return graph, BoundaryPolicy(mode, ends)


# m dt = 0.012 and 2.4: numpy divides by cp and cm on either of its branches.
# At m = 60 today's I kernel (ROADMAP item 1) drives transparent boundaries
# past the overflow guard from step 12 on, so that case takes 10 steps; bond
# 1 keeps its far end 1 away from the packet and the outgoing bonds at least
# 12 cells, which no wave crosses in 10 steps.  Unequal cell counts, odd and
# even, put each bond at another offset and alignment in the packed buffers.
STAR_CASES = [pytest.param(PARAMS, m, id=str(m)) for m in VertexMode] + [
    pytest.param(replace(PARAMS, mass=60.0, n_steps=10), m, id=f"{m}-m60")
    for m in VertexMode
]


@pytest.mark.parametrize("params, mode", STAR_CASES)
@settings(max_examples=4, deadline=None)
@given(random_stars())
def test_random_star_step_is_the_expression_stencil(params, mode, star):
    # the packed stencils, stepping the field in place, give each bond the
    # expression's bits, signed zeros included, and every junction node
    # what its update wrote; the old level is a copy taken before the step
    graph, policy = random_star(params, mode, star)
    field = packet(graph, policy, params)
    assert_packed(field)
    cp = 1.0 + 0.5j * params.mass * params.dt
    cm = 1.0 - 0.5j * params.mass * params.dt
    for _ in range(params.n_steps):
        old = field.copy()
        assert step(field, graph, params, policy) is field
        assert_packed(field)
        assert_junctions(old, field, graph, policy)
        assert field.time_level == old.time_level + 1
        for old_phi, old_chi, phi, chi in zip(old.phi, old.chi, field.phi, field.chi):
            want_phi, want_chi = leapfrog_interior(
                old_phi, old_chi, phi, params.dt / graph.dx, cp, cm
            )
            assert phi[1:-1].tobytes() == want_phi.tobytes()
            assert chi.tobytes() == want_chi.tobytes()


def assert_junctions(old, new, graph, policy):
    """Every vertex and end node holds what its update wrote: one value
    a_j phi_j(0) on the chain, +0 at a wall, and at a transparent node the
    value its newest history entry 0.5 (new + old) was made from."""
    nodes = {"end1": (0, 0)}
    for j in range(1, new.n_bonds):
        nodes[f"end{j + 1}"] = (j, -1)
    if policy.vertex_mode is VertexMode.TRANSPARENT:
        nodes["vertex"] = (0, -1)
    else:
        chain = effective_weights(graph.alphas, policy.vertex_mode) * vertex_values(new)
        assert np.all(np.abs(chain - chain[0]) <= 1e-12 * max(1.0, abs(chain[0])))
    for key, (j, k) in nodes.items():
        if key in new.histories:
            entry = 0.5 * (new.phi[j][k] + old.phi[j][k])
            level = old.time_level
            assert new.histories[key][level] == (entry if level else 0.5 * entry)
        elif key != "vertex":
            assert new.phi[j][k].tobytes() == bytes(16)


@pytest.mark.parametrize("mode", list(VertexMode))
@settings(max_examples=4, deadline=None)
@given(random_stars())
def test_every_field_sits_on_an_aligned_arena(mode, star):
    # each way of making a field allocates an aligned arena, and 50 steps
    # in place leave the gaps +0
    graph, policy = random_star(PARAMS, mode, star)
    field = packet(graph, policy)
    for f in (field, field.copy(), SpinorField(field.bonds)):
        assert_aligned(f)
    for _ in range(PARAMS.n_steps):
        step(field, graph, PARAMS, policy)
        assert_aligned(field)
