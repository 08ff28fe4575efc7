import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracstar import BesselKernel, bessel_i0, bessel_i1
from diracstar.bessel import _i0_series, _iv_asymptotic


def test_i0_at_zero_is_exactly_one():
    assert bessel_i0(0.0) == 1.0


@pytest.mark.parametrize(
    "z, expected",
    [
        (1.0, 1.2660658777520084),
        (0.1, 1.0025015629340956),
    ],
)
def test_i0_frozen_values(z, expected):
    assert math.isclose(bessel_i0(z), expected, rel_tol=1e-12)


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 5.0, 12.0, 15.0, 20.0, 30.0, 100.0])
def test_i0_matches_mpmath(z):
    ref = float(mpmath.besseli(0, z))
    assert math.isclose(bessel_i0(z), ref, rel_tol=1e-12)


@pytest.mark.parametrize("z", [0.0, 0.1, 1.0, 5.0, 15.0, 30.0, 100.0])
def test_i1_matches_mpmath(z):
    ref = float(mpmath.besseli(1, z))
    if ref == 0.0:
        assert bessel_i1(z) == 0.0
    else:
        assert math.isclose(bessel_i1(z), ref, rel_tol=1e-12)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        bessel_i0(-0.1)
    with pytest.raises(ValueError):
        bessel_i1(-2.0)


def test_branch_agreement_at_cutoff():
    # series and asymptotic branches agree where the implementation switches
    assert math.isclose(_i0_series(15.0), _iv_asymptotic(0, 15.0), rel_tol=1e-10)


def test_kernel_invariants():
    kernel = BesselKernel.build(mass=0.01, dt=0.01, n_steps=1000)
    assert kernel.samples[0] == 1.0
    assert np.all(np.diff(kernel.samples) >= 0)
    assert np.all(kernel.samples >= 1.0)
    assert len(kernel.samples) == len(kernel.i1_samples) == 1001


@given(mass=st.floats(0.0, 5.0), dt=st.floats(1e-3, 0.5))
def test_kernel_monotone_for_any_mass(mass, dt):
    kernel = BesselKernel.build(mass, dt, 50)
    assert kernel.samples[0] == 1.0
    assert np.all(np.diff(kernel.samples) >= 0)


def test_massless_kernel_weights_vanish():
    kernel = BesselKernel.build(0.0, 0.01, 10)
    assert np.all(kernel.conv_weights == 0)
    assert np.all(kernel.samples == 1.0)


def test_kernel_build_validation():
    with pytest.raises(ValueError):
        BesselKernel.build(-0.1, 0.01, 10)
    with pytest.raises(ValueError):
        BesselKernel.build(0.1, 0.0, 10)


def test_kernel_overflow_rejected_before_sampling(monkeypatch):
    # m dt k passes log(max float) = 709.78 at k = 4732 of 12000: the samples
    # would be inf, and the run would fail later as a "non-finite field value"
    import diracstar.bessel as bessel_module

    calls = []
    monkeypatch.setattr(bessel_module, "bessel_i0", lambda z: calls.append(z) or 1.0)
    monkeypatch.setattr(bessel_module, "bessel_i1", lambda z: calls.append(z) or 0.0)
    named = r"mass 3\.0, dt 0\.05 and n_steps 12000 give m\*dt\*n_steps = 1800"
    with pytest.raises(ValueError, match=named):
        BesselKernel.build(3.0, 0.05, 12000)
    assert calls == []
    monkeypatch.undo()
    # just inside the range every weight is finite
    for mass, dt, n_steps in ((1.0, 0.1, 7097), (100.0, 0.01, 705)):
        kernel = BesselKernel.build(mass, dt, n_steps)
        assert np.all(np.isfinite(kernel.conv_weights))
    with pytest.raises(ValueError, match="kernel overflows"):
        BesselKernel.build(100.0, 0.01, 706)
