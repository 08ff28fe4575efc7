"""Modified Bessel functions I0, I1 and the precomputed convolution kernel.

The transparent boundary conditions convolve the boundary history with
I0(m (t - tau)).  The outer time derivative of that convolution is taken
analytically (I0' = I1), so the discrete boundary value needs samples of
both I0 and I1 on the uniform time grid.

I0 and I1 are evaluated with the ascending power series for z <= 15 and the
scaled large-argument expansion beyond.  All series terms of the ascending
series are positive, so the summation is cancellation-free; relative error
is below 1e-12 on both branches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["bessel_i0", "bessel_i1", "BesselKernel"]

_SERIES_CUTOFF = 15.0
_EPS = 2.220446049250313e-16
_LOG_MAX = float(np.log(np.finfo(float).max))


def _i0_series(z: float) -> float:
    # sum_k (z^2/4)^k / (k!)^2
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        total += term
        if term <= _EPS * total:
            return total


def _i1_series(z: float) -> float:
    # (z/2) * sum_k (z^2/4)^k / (k! (k+1)!)
    q = 0.25 * z * z
    term = 0.5 * z
    total = term
    if z == 0.0:
        return 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        total += term
        if term <= _EPS * total:
            return total


def _iv_asymptotic(nu: int, z: float) -> float:
    # e^z / sqrt(2 pi z) * sum_k (-1)^k a_k(nu) / z^k, truncated at the
    # smallest term (remainder ~ e^{-2z}, < 1e-13 relative for z > 15)
    mu = 4 * nu * nu
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        factor = -(mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        nxt = term * factor
        if abs(nxt) >= abs(term) or abs(nxt) <= _EPS * abs(total):
            if abs(nxt) < abs(term):
                total += nxt
            break
        term = nxt
        total += term
    try:
        scale = np.exp(z) / np.sqrt(2.0 * np.pi * z)
    except OverflowError:  # pragma: no cover - exp(z) overflow path
        return float("inf")
    return float(scale * total)


def bessel_i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series for z <= 15, large-argument expansion beyond; relative
    error < 1e-12.  Rejects negative arguments (kernel arguments are
    m (t - tau) >= 0).
    """
    z = float(z)
    if z < 0:
        raise ValueError(f"bessel_i0 requires z >= 0, got {z}")
    if z <= _SERIES_CUTOFF:
        return _i0_series(z)
    return _iv_asymptotic(0, z)


def bessel_i1(z: float) -> float:
    """Modified Bessel function of the first kind, order one."""
    z = float(z)
    if z < 0:
        raise ValueError(f"bessel_i1 requires z >= 0, got {z}")
    if z <= _SERIES_CUTOFF:
        return _i1_series(z)
    return _iv_asymptotic(1, z)


def kernel_overflow(mass: float, dt: float, n_steps: int) -> str | None:
    """Why the kernel weights up to ``n_steps`` leave the float range, or None."""
    # the largest weight, m I0(m dt n_steps), is below m exp(m dt n_steps)
    limit = _LOG_MAX - float(np.log(max(mass, 1.0)))
    if mass * dt * n_steps <= limit:
        return None
    return (
        f"kernel overflows: mass {mass!r}, dt {dt!r} and n_steps {n_steps} "
        f"give m*dt*n_steps = {mass * dt * n_steps:g}, but the weights "
        f"m I0, m I1 leave the float range beyond {limit:.2f}"
    )


@dataclass(frozen=True)
class BesselKernel:
    """Kernel samples for the boundary convolutions on a fixed time grid.

    ``samples[k] = I0(m k dt)`` and ``i1_samples[k] = I1(m k dt)`` for
    k = 0..n_steps.  ``conv_weights`` holds the combination
    ``m I1(m k dt) + i m I0(m k dt)`` that multiplies the boundary history
    in the discrete transparent boundary relation, a reversed view of the
    contiguous ``reversed_weights``, whose slices the convolutions read.
    Immutable; one instance may be shared by any number of simulations.
    """

    mass: float
    dt: float
    samples: np.ndarray
    i1_samples: np.ndarray
    reversed_weights: np.ndarray = field(init=False, repr=False)
    conv_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rev = self.mass * self.i1_samples[::-1] + 1j * self.mass * self.samples[::-1]
        object.__setattr__(self, "reversed_weights", rev)
        object.__setattr__(self, "conv_weights", rev[::-1])

    @classmethod
    def build(cls, mass: float, dt: float, n_steps: int) -> "BesselKernel":
        if mass < 0:
            raise ValueError(f"mass must be non-negative, got {mass}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        if overflow := kernel_overflow(mass, dt, n_steps):
            raise ValueError(overflow)
        z = mass * dt * np.arange(n_steps + 1)
        i0 = np.array([bessel_i0(v) for v in z])
        i1 = np.array([bessel_i1(v) for v in z])
        return cls(mass, dt, i0, i1)
