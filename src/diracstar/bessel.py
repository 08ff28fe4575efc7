"""Modified Bessel functions I0, I1 and the precomputed convolution kernel.

The transparent boundary conditions convolve the boundary history with
I0(m (t - tau)).  The outer time derivative of that convolution is taken
analytically (I0' = I1), so the discrete boundary value needs samples of
both I0 and I1 on the uniform time grid.

I0 and I1 are evaluated with the ascending power series for z <= 15 and the
scaled large-argument expansion beyond.  All series terms of the ascending
series are positive, so the summation is cancellation-free; relative error
is below 1e-12 on both branches.  Both run on whole arrays: every sample
(lane) takes the scalar recurrence's operations in its order and stops at
its own last term, so its bits do not depend on the other samples.  Each
order takes at most 35 passes over the array: ~2 ms for 12 001 samples.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["bessel_i0", "bessel_i1", "BesselKernel"]

_SERIES_CUTOFF = 15.0
_EPS = 2.220446049250313e-16
_LOG_MAX = float(np.log(np.finfo(float).max))
_MAX_TERMS = 100  # every finite z >= 0 stops within 34 terms on either branch


def _series(order: int, z: np.ndarray) -> np.ndarray:
    # (z/2)^order sum_k (z^2/4)^k / (k! (k+order)!); a lane stops after the
    # first term <= _EPS * total, and stopped lanes keep their values
    q = 0.25 * z * z
    term = np.ones_like(z) if order == 0 else 0.5 * z
    total = term.copy()
    live = np.ones(z.shape, bool)
    for k in range(1, _MAX_TERMS):
        np.multiply(term, q / (k * (k + order)), out=term, where=live)
        np.add(total, term, out=total, where=live)
        live &= term > _EPS * total
        if not live.any():
            return total
    raise ArithmeticError(f"I{order} series did not converge")


def _asymptotic(order: int, z: np.ndarray) -> np.ndarray:
    # e^z / sqrt(2 pi z) sum_k (-1)^k a_k(order) / z^k, truncated at the
    # smallest term (remainder ~ e^{-2z}, < 1e-13 relative for z > 15): a
    # lane stops at the first term that does not shrink or is <= _EPS *
    # |total|, and adds that term only if it shrank
    mu = 4 * order * order
    term = np.ones_like(z)
    total = np.ones_like(z)
    live = np.ones(z.shape, bool)
    for k in range(1, _MAX_TERMS):
        nxt = term * (-(mu - (2 * k - 1) ** 2) / (8.0 * k * z))
        smaller = np.abs(nxt) < np.abs(term)
        go = smaller & (np.abs(nxt) > _EPS * np.abs(total))
        np.add(total, nxt, out=total, where=live & smaller)
        live &= go
        np.copyto(term, nxt, where=live)
        if not live.any():
            return np.exp(z) / np.sqrt(2.0 * np.pi * z) * total
    raise ArithmeticError(f"I{order} expansion did not converge")


def _bessel_iv(order: int, z: np.ndarray) -> np.ndarray:
    """I0 (order 0) or I1 (order 1) at every element of a float array z."""
    bad = ~((z >= 0.0) & (z < np.inf))
    if bad.any():
        raise ValueError(f"I{order} requires finite z >= 0, got {z[bad][0]}")
    out = np.empty_like(z)
    small = z <= _SERIES_CUTOFF
    out[small] = _series(order, z[small])
    out[~small] = _asymptotic(order, z[~small])
    return out


def bessel_i0(z: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series for z <= 15, large-argument expansion beyond; relative
    error < 1e-12.  Rejects negative and non-finite arguments (kernel
    arguments are m (t - tau) >= 0).
    """
    return float(_bessel_iv(0, np.array([float(z)]))[0])


def bessel_i1(z: float) -> float:
    """Modified Bessel function of the first kind, order one."""
    return float(_bessel_iv(1, np.array([float(z)]))[0])


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
        if not 0.0 <= mass < np.inf:
            raise ValueError(f"mass must be finite and non-negative, got {mass}")
        if not 0.0 < dt < np.inf:
            raise ValueError(f"dt must be finite and positive, got {dt}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        if overflow := kernel_overflow(mass, dt, n_steps):
            raise ValueError(overflow)
        z = mass * dt * np.arange(n_steps + 1)
        return cls(mass, dt, _bessel_iv(0, z), _bessel_iv(1, z))
