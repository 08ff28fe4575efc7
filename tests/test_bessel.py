import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diracstar import BesselKernel, load_config
from diracstar.bessel import _bessel_j, _hankel, _quadrature, _series

from .conftest import CONFIG_DIR
from .oracles import scalar_bessel_j


def test_branch_agreement_at_cutoff():
    # neighbouring branches agree where the evaluator switches, at z = 4
    # (series | quadrature) and z = 25 (quadrature | Hankel)
    for below, above, cutoff in ((_series, _quadrature, 4.0), (_quadrature, _hankel, 25.0)):
        at = np.array([cutoff])
        for lower, upper in zip(below(at), above(at)):
            assert abs(lower[0] - upper[0]) <= 1e-15


def assert_scalar_bits(z, j0, j1):
    """j0, j1 equal, byte for byte, the scalar loop's J0 and J1 at z."""
    for order, got in ((0, j0), (1, j1)):
        expected = np.array([scalar_bessel_j(order, v) for v in z.tolist()])
        assert got.tobytes() == expected.tobytes(), f"J{order} bits differ"


# 15 and 709.78 were the cutoff and the overflow of an earlier I0/I1
# kernel; the grids stay as spans of z, and the J branch cutoffs 4 and 25
# have grids of their own
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
    "4.0, 25.0 and their neighbours": np.array([
        np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0),
        np.nextafter(25.0, 0.0), 25.0, np.nextafter(25.0, 26.0),
    ]),
    "random (709.78, 2000]": _RNG.uniform(709.78, 2000.0, 2000),
}


@pytest.mark.parametrize("grid", _Z_GRIDS)
def test_samples_keep_the_scalar_loops_bits(grid):
    z = np.sort(_Z_GRIDS[grid])  # the evaluator takes an ascending array
    assert_scalar_bits(z, *_bessel_j(z))


@pytest.mark.parametrize(
    "mass, dt, n_steps",
    [
        *[(c.mass, c.dt, c.n_steps) for c in map(
            load_config, sorted(CONFIG_DIR.glob("*.cfg"))
        )],
        (1.0, 0.1, 7097),  # up to z = 709.7, deep in Hankel's branch
        (100.0, 0.01, 705),
        (1.5, 1.0, 10),  # ends at exactly z = 15.0
        (0.37, 0.029, 1500),  # crosses z = 4 and z = 15 between two samples
        (1.0, 0.02, 1500),  # z = 4 and z = 25 are samples
    ],
)
def test_kernel_keeps_the_scalar_loops_bits(mass, dt, n_steps):
    # each sample is a function of its own z: the number of steps, and so
    # the other samples, change none of its bits
    kernel = BesselKernel.build(mass, dt, n_steps)
    z = mass * dt * np.arange(n_steps + 1)
    assert_scalar_bits(z, kernel.samples, kernel.i1_samples)


def test_kernel_invariants():
    kernel = BesselKernel.build(mass=1.0, dt=0.02, n_steps=1500)  # z up to 30
    assert kernel.samples[0] == 1.0 and kernel.i1_samples[0] == 0.0
    assert np.all(np.abs(kernel.samples) <= 1.0)
    assert np.all(np.abs(kernel.i1_samples) <= 1.0)
    assert np.min(kernel.samples) < -0.4  # J0 oscillates: J0(3.83) = -0.40
    assert len(kernel.samples) == len(kernel.i1_samples) == 1501


@given(mass=st.floats(0.0, 5.0), dt=st.floats(1e-3, 0.5))
def test_kernel_monotone_for_any_mass(mass, dt):
    kernel = BesselKernel.build(mass, dt, 50)
    assert kernel.samples[0] == 1.0
    # J0' = -J1 < 0 up to J1's first zero 3.8317, where J0 has its first
    # minimum; a sample there needs m dt >= 3.83 / 50, so the last step before
    # the minimum still falls by ~1e-3, far above the rounding of the series
    falling = kernel.samples[mass * dt * np.arange(51) <= 3.8317059702075125]
    assert np.all(np.diff(falling) <= 0)
    assert np.all(np.abs(kernel.samples) <= 1.0)
    assert np.all(np.abs(kernel.i1_samples) <= 1.0)
    # |w| = m sqrt(J0^2 + J1^2) <= m, from J0^2 + 2 sum_k Jk^2 = 1
    assert np.all(np.abs(kernel.conv_weights) <= mass * (1.0 + 1e-15))


def test_massless_kernel_weights_vanish():
    kernel = BesselKernel.build(0.0, 0.01, 10)
    assert np.all(kernel.conv_weights == 0)
    assert np.all(kernel.samples == 1.0)


def test_negative_argument_rejected():
    # kernel arguments are m (t - tau) >= 0 on a grid of n_steps + 1 levels
    with pytest.raises(ValueError, match="mass must be .* got -0.1"):
        BesselKernel.build(-0.1, 0.01, 10)
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match=f"dt must be .* got {dt}"):
            BesselKernel.build(0.1, dt, 10)
    with pytest.raises(ValueError, match="n_steps must be non-negative, got -1"):
        BesselKernel.build(0.1, 0.01, -1)


def test_kernel_build_validation():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"mass must be finite .* got {bad}"):
            BesselKernel.build(bad, 0.01, 10)
        with pytest.raises(ValueError, match=f"dt must be finite .* got {bad}"):
            BesselKernel.build(0.1, bad, 10)


def test_kernel_overflow_rejected_before_sampling(monkeypatch):
    # finite inputs whose product overflows: unchecked, the samples would be
    # NaN and the run would fail later as a "non-finite field value"
    import diracstar.bessel as bessel_module

    calls = []
    monkeypatch.setattr(bessel_module, "_bessel_j", lambda *a: calls.append(a))
    named = r"m\*dt\*n_steps is not finite: mass 1e\+300, dt 10000000000\.0 and n_steps 10"
    with pytest.raises(ValueError, match=named):
        BesselKernel.build(1e300, 1e10, 10)
    with pytest.raises(ValueError, match="not finite"):
        BesselKernel.build(1e300, 1e10, 0)  # 1e310 * 0 is NaN, not 0
    assert calls == []


@pytest.mark.parametrize("mass, dt, n_steps", [
    (3.0, 0.05, 12000),  # m dt n = 1800
    (6.0, 0.01, 12000),  # 720
    (100.0, 0.01, 706),
    (1e3, 1e2, 1000),  # 1e8
])
def test_kernel_past_the_old_overflow_stays_finite(mass, dt, n_steps):
    # a modified-Bessel kernel leaves the float range beyond m dt n = 709.78;
    # J0 and J1 stay bounded, so these are accepted with finite weights
    kernel = BesselKernel.build(mass, dt, n_steps)
    assert np.all(np.isfinite(kernel.conv_weights))
    assert np.max(np.abs(kernel.samples[1:])) < 1.0
