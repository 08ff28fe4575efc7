import json

import pytest
from hypothesis import given, strategies as st

from diracstar import Orientation, build_star_graph, sum_rule_residual

from .conftest import CANONICAL_ALPHAS


def test_canonical_three_bond_graph():
    g = build_star_graph([(a, 20.0, 0.0125) for a in CANONICAL_ALPHAS])
    assert g.n_bonds == 3
    assert all(b.cells == 1600 for b in g.bonds)
    assert g.bonds[0].orientation is Orientation.INCOMING
    assert all(b.orientation is Orientation.OUTGOING for b in g.bonds[1:])


def test_bond_coordinates():
    g = build_star_graph([(1.0, 10.0, 0.1), (1.0, 10.0, 0.1)])
    incoming = g.bonds[0].node_coordinates()
    outgoing = g.bonds[1].node_coordinates()
    assert incoming[0] == pytest.approx(-10.0)
    assert incoming[-1] == pytest.approx(0.0)
    assert outgoing[0] == pytest.approx(0.0)
    assert outgoing[-1] == pytest.approx(10.0)
    cells = g.bonds[1].cell_coordinates()
    assert len(cells) == 100
    assert cells[0] == pytest.approx(0.05)


def test_two_bonds_form_a_line():
    g = build_star_graph([(1.0, 10.0, 0.1), (1.0, 10.0, 0.1)])
    assert g.n_bonds == 2
    assert sum_rule_residual(g) == 0.0


def test_single_bond_rejected():
    with pytest.raises(ValueError, match="at least 2 bonds"):
        build_star_graph([(1.0, 10.0, 0.1)])


def test_non_commensurate_length_rejected():
    with pytest.raises(ValueError, match="not a multiple"):
        build_star_graph([(1.0, 10.05, 0.1), (1.0, 10.0, 0.1)])


@pytest.mark.parametrize("length", [0.025, 0.0375, 0.03])
def test_too_short_bond_names_the_minimum_cell_count(length):
    # 2 and 3 cells are whole multiples of dx; the cause is the minimum of 4
    with pytest.raises(ValueError, match="bond 2: .* minimum of 4 cells") as err:
        build_star_graph([(1.0, 1.0, 0.0125), (1.0, length, 0.0125)])
    assert "not a multiple" not in str(err.value)


def test_non_uniform_dx_rejected():
    with pytest.raises(ValueError, match="share one dx"):
        build_star_graph([(1.0, 10.0, 0.1), (1.0, 10.0, 0.05)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["alpha", "length", "dx"])
def test_non_finite_bond_input_names_bond_and_field(field, value):
    # unchecked, a NaN alpha surfaced as an instability at step 1, an
    # infinite one ran, and an infinite length raised OverflowError
    bonds = [{"alpha": 1.0, "length": 10.0, "dx": 0.1} for _ in range(2)]
    bonds[1][field] = value
    with pytest.raises(ValueError, match=rf"^bond 2: {field} must be finite, got {value}$"):
        build_star_graph([(b["alpha"], b["length"], b["dx"]) for b in bonds])


def test_overflowing_cell_count_names_the_bond():
    # finite inputs whose ratio overflows raised OverflowError from round()
    with pytest.raises(ValueError, match=r"^bond 1: length 1e\+300 over dx 1e-10 overflows"):
        build_star_graph([(1.0, 1e300, 1e-10), (1.0, 1e300, 1e-10)])


@pytest.mark.parametrize("bad", [(0.0, 10.0, 0.1), (-1.0, 10.0, 0.1)])
def test_non_positive_alpha_rejected(bad):
    with pytest.raises(ValueError, match="alpha"):
        build_star_graph([bad, (1.0, 10.0, 0.1)])


def test_non_positive_length_rejected():
    with pytest.raises(ValueError, match="length"):
        build_star_graph([(1.0, -10.0, 0.1), (1.0, 10.0, 0.1)])


def test_sum_rule_residual_values():
    canonical = build_star_graph([(a, 20.0, 0.0125) for a in CANONICAL_ALPHAS])
    assert abs(sum_rule_residual(canonical)) < 1e-12

    line = build_star_graph([(1.0, 10.0, 0.1), (1.0, 10.0, 0.1)])
    assert sum_rule_residual(line) == 0.0

    equal = build_star_graph([(1.0, 10.0, 0.1)] * 3)
    assert sum_rule_residual(equal) == pytest.approx(-1.0)


@given(
    a2=st.floats(0.2, 5.0),
    a3=st.floats(0.2, 5.0),
    scale=st.floats(0.1, 10.0),
)
def test_zero_residual_predicate_invariant_under_rescaling(a2, a3, scale):
    # weights satisfying the sum rule stay transparent under alpha -> c alpha
    a1 = (1.0 / a2**2 + 1.0 / a3**2) ** -0.5
    base = build_star_graph([(a1, 1.0, 0.25), (a2, 1.0, 0.25), (a3, 1.0, 0.25)])
    scaled = build_star_graph(
        [(scale * a, 1.0, 0.25) for a in (a1, a2, a3)]
    )
    assert abs(sum_rule_residual(base)) < 1e-12 / a1**2
    assert abs(sum_rule_residual(scaled)) < 1e-12 / (scale * a1) ** 2
    # residual scales by exactly c^-2
    off = build_star_graph([(2 * a1, 1.0, 0.25), (a2, 1.0, 0.25), (a3, 1.0, 0.25)])
    off_scaled = build_star_graph(
        [(scale * a, 1.0, 0.25) for a in (2 * a1, a2, a3)]
    )
    assert sum_rule_residual(off_scaled) == pytest.approx(
        sum_rule_residual(off) / scale**2, rel=1e-9
    )


def test_serialization_roundtrip():
    g = build_star_graph([(a, 20.0, 0.0125) for a in CANONICAL_ALPHAS])
    data = json.loads(json.dumps(g.to_dict()))
    restored = build_star_graph(
        [(b["alpha"], b["length"], data["dx"]) for b in data["bonds"]]
    )
    assert restored == g
