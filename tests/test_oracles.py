import math

import numpy as np
import pytest

from diracstar import bessel_i0
from diracstar.bessel import _asymptotic

from .oracles import (
    OracleRun,
    bessel_series_reference,
    free_line_solution,
    gaussian,
)


def packet(x0=-5.0, sigma=0.9):
    return (lambda x: gaussian(x, x0, sigma)), (lambda x: gaussian(x, x0, sigma))


def test_transport_at_time_zero_is_initial_density():
    phi0, chi0 = packet()
    ref = free_line_solution(phi0, chi0, 0.0, 0.0, (-20.0, 20.0), 0.0125, 0.01)
    expected = 2.0 * gaussian(ref.x, -5.0, 0.9) ** 2
    np.testing.assert_allclose(ref.density, expected, atol=1e-14)
    assert ref.refinement == 0


def test_massless_gaussian_translates_right():
    phi0, chi0 = packet()
    ref = free_line_solution(phi0, chi0, 0.0, 7.0, (-20.0, 20.0), 0.0125, 0.01)
    expected = 2.0 * gaussian(ref.x, 2.0, 0.9) ** 2
    np.testing.assert_allclose(ref.density, expected, atol=1e-14)
    assert ref.norm == pytest.approx(2.0, abs=1e-6)


def test_support_reaching_boundary_signalled():
    phi0, chi0 = packet(x0=-1.0)
    with pytest.raises(ValueError, match="boundary"):
        free_line_solution(phi0, chi0, 0.0, 25.0, (-20.0, 20.0), 0.0125, 0.01)
    wide_phi0, wide_chi0 = packet(sigma=12.0)
    with pytest.raises(ValueError, match="boundary"):
        free_line_solution(wide_phi0, wide_chi0, 0.0, 0.0, (-20.0, 20.0), 0.0125, 0.01)


def test_fine_grid_run_close_to_exact_transport_at_small_mass():
    phi0, chi0 = packet()
    massive = free_line_solution(
        phi0, chi0, 0.01, 5.0, (-20.0, 20.0), 0.025, 0.02, refinement=4
    )
    assert massive.refinement == 4
    # m = 0.01 barely disperses over t = 5
    expected = 2.0 * gaussian(massive.x, 0.0, 0.9) ** 2
    assert np.max(np.abs(massive.density - expected)) < 1e-2
    assert massive.norm == pytest.approx(2.0, abs=1e-4)


def test_refinement_below_two_rejected():
    with pytest.raises(ValueError, match="2x finer"):
        OracleRun("bad", 1, np.zeros(2), np.zeros(2), 0.0)
    phi0, chi0 = packet()
    with pytest.raises(ValueError, match="2x finer"):
        free_line_solution(
            phi0, chi0, 0.01, 1.0, (-20.0, 20.0), 0.1, 0.05, refinement=1
        )


def test_series_reference_examples():
    assert bessel_series_reference(0.0).value == 1.0

    ref = bessel_series_reference(1.0, terms=30)
    assert ref.value == pytest.approx(1.2660658777520084, rel=1e-15)
    assert ref.bound < 1e-30

    # branch cross-check at the implementation's series/asymptotic switch
    ref15 = bessel_series_reference(15.0)
    assert math.isclose(
        _asymptotic(0, np.array([15.0]))[0], ref15.value, rel_tol=1e-10
    )


def test_series_reference_convergence_guard():
    with pytest.raises(ValueError, match="not certified"):
        bessel_series_reference(100.0, terms=10)
    with pytest.raises(ValueError):
        bessel_series_reference(-1.0)


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 5.0, 15.0])
def test_production_i0_matches_series_reference(z):
    ref = bessel_series_reference(z)
    assert math.isclose(bessel_i0(z), ref.value, rel_tol=1e-12)
    assert ref.bound < 1e-12 * ref.value
