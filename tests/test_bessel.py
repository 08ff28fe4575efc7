import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracstar import BesselKernel, bessel_i0, bessel_i1, load_config
from diracstar.bessel import _asymptotic, _bessel_iv, _series

from .conftest import CONFIG_DIR
from .oracles import scalar_bessel_iv


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


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function", [bessel_i0, bessel_i1])
def test_non_finite_argument_rejected(function, z):
    # a NaN never meets the large-argument loop's stop test
    with pytest.raises(ValueError, match=f"got {z}"):
        function(z)
    with pytest.raises(ValueError, match=f"got {z}"):
        _bessel_iv(0, np.array([1.0, z, 20.0]))


def test_branch_agreement_at_cutoff():
    # series and asymptotic branches agree where the implementation switches
    at_cutoff = np.array([15.0])
    assert math.isclose(
        _series(0, at_cutoff)[0], _asymptotic(0, at_cutoff)[0], rel_tol=1e-10
    )


def assert_scalar_bits(z, i0, i1):
    """i0, i1 equal, byte for byte, the scalar loops' I0 and I1 at z."""
    for order, got in ((0, i0), (1, i1)):
        expected = np.array([scalar_bessel_iv(order, v) for v in z.tolist()])
        assert got.tobytes() == expected.tobytes(), f"I{order} bits differ"


_RNG = np.random.default_rng(20)
_Z_GRIDS = {
    "dense [0, 15]": np.linspace(0.0, 15.0, 6001),
    "random [0, 15]": _RNG.uniform(0.0, 15.0, 4000),
    "15.0 and its neighbours": np.array(
        [np.nextafter(15.0, 0.0), 15.0, np.nextafter(15.0, 16.0)]
    ),
    "dense (15, 709.78]": np.linspace(np.nextafter(15.0, 16.0), 709.78, 6001),
    "random (15, 709.78]": _RNG.uniform(15.0, 709.78, 4000),
    "zero": np.array([0.0]),
}


@pytest.mark.parametrize("grid", _Z_GRIDS)
def test_samples_keep_the_scalar_loops_bits(grid):
    z = _Z_GRIDS[grid]
    assert_scalar_bits(z, _bessel_iv(0, z), _bessel_iv(1, z))


@pytest.mark.parametrize(
    "mass, dt, n_steps",
    [
        *[(c.mass, c.dt, c.n_steps) for c in map(
            load_config, sorted(CONFIG_DIR.glob("*.cfg"))
        )],
        (1.0, 0.1, 7097),  # up to z = 709.7, just inside the float range
        (100.0, 0.01, 705),
        (1.5, 1.0, 10),  # ends at exactly z = 15.0
        (0.37, 0.029, 1500),  # crosses the cutoff between two samples
    ],
)
def test_kernel_keeps_the_scalar_loops_bits(mass, dt, n_steps):
    kernel = BesselKernel.build(mass, dt, n_steps)
    z = mass * dt * np.arange(n_steps + 1)
    assert_scalar_bits(z, kernel.samples, kernel.i1_samples)


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"mass must be finite .* got {bad}"):
            BesselKernel.build(bad, 0.01, 10)
        with pytest.raises(ValueError, match=f"dt must be finite .* got {bad}"):
            BesselKernel.build(0.1, bad, 10)


def test_kernel_overflow_rejected_before_sampling(monkeypatch):
    # m dt k passes log(max float) = 709.78 at k = 4732 of 12000: the samples
    # would be inf, and the run would fail later as a "non-finite field value"
    import diracstar.bessel as bessel_module

    calls = []
    monkeypatch.setattr(bessel_module, "_bessel_iv", lambda *a: calls.append(a))
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
