import numpy as np
import pytest

from diracstar.bessel import _quadrature, _series

from .oracles import (
    OracleRun,
    bessel_series_reference,
    besselj_reference,
    carrier_packet,
    free_line_solution,
    gaussian,
)


def packet(x0=-5.0, sigma=0.9):
    return (lambda x: gaussian(x, x0, sigma)), (lambda x: gaussian(x, x0, sigma))


@pytest.mark.parametrize("k0, mass", [(4.0, 5.0), (0.5, 5.0), (2.0, 0.0)])
def test_carrier_packet_is_on_the_positive_energy_branch(k0, mass):
    # its spinor is the eigenvector of the symbol [[m, k0], [k0, -m]] of
    # i d/dt with eigenvalue +sqrt(k0^2 + m^2); at m = 0 it is (1, 1),
    # the spinor of gaussian_spinor
    x = np.linspace(-8.0, 8.0, 161)
    phi, chi = carrier_packet(x, 0.0, 2.0, k0, mass)
    omega = np.hypot(k0, mass)
    np.testing.assert_allclose(mass * phi + k0 * chi, omega * phi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(k0 * phi - mass * chi, omega * chi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.abs(phi), gaussian(x, 0.0, 2.0), rtol=1e-14)
    later = carrier_packet(x, 0.0, 2.0, k0, mass, t=3.0)[0]
    np.testing.assert_allclose(np.abs(later), gaussian(x, 3.0 * k0 / omega, 2.0), rtol=1e-14)


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


def test_besselj_reference_examples():
    # J0(0) = 1, J1(0) = 0, and the first zero of J0 (DLMF table 10.21.1)
    assert besselj_reference(0, [0.0, 1.0]).tolist() == [1.0, 0.7651976865579666]
    assert besselj_reference(1, 0.0)[0] == 0.0
    assert abs(besselj_reference(0, 2.404825557695773)[0]) < 1e-15


def test_series_reference_examples():
    assert bessel_series_reference(0.0).value == 1.0

    ref = bessel_series_reference(1.0, terms=30)
    assert ref.value == pytest.approx(0.7651976865579666, rel=1e-15)
    assert ref.bound < 1e-30
    assert ref.value == besselj_reference(0, 1.0)[0]

    # branch cross-check at the evaluator's series/quadrature switch
    ref4 = bessel_series_reference(4.0)
    assert ref4.bound < 1e-40
    for branch in (_series, _quadrature):
        assert abs(branch(np.array([4.0]))[0][0] - ref4.value) <= 1e-15


def test_series_reference_convergence_guard():
    with pytest.raises(ValueError, match="not certified"):
        bessel_series_reference(100.0, terms=10)
    with pytest.raises(ValueError):
        bessel_series_reference(-1.0)
