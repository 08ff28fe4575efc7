"""Bessel functions J0, J1 and the precomputed convolution kernel.

The transparent boundary conditions convolve the boundary history with
J0(m (t - tau)), the kernel of the Klein-Gordon operator that is the
second-order form of the interior stencil (see ``boundaries``).  The outer
time derivative of that convolution is taken analytically (J0' = -J1), so
the discrete boundary value needs samples of both J0 and J1 on the uniform
time grid.

Both orders are evaluated on a whole ascending array of z >= 0, in three
branches:
  z < 4        the ascending series, with enough terms that each is at
               most 1e-18 at z = 4;
  4 <= z < 25  the midpoint rule with 16 nodes on a quarter period of
               J0 = (2/pi) int_0^{pi/2} cos(z sin t) dt and
               J1 = (2/pi) int_0^{pi/2} sin t sin(z sin t) dt; both
               integrands are pi-periodic and even, so the rule converges
               geometrically;
  z >= 25      Hankel's expansion, 12 terms in each of P and Q.
The absolute error is below 1e-15 on [0, 2000] against mpmath (tests).
Each sample's bits depend on its z alone, not on the rest of the array.
|J0|, |J1| <= 1, so the kernel weights stay in range for any finite z.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BesselKernel"]

_QUADRATURE_START, _HANKEL_START = 4.0, 25.0


# J0 = sum_k (-q)^k / (k!)^2 and J1 = (z/2) sum_k (-q)^k / (k! (k+1)!),
# q = z^2/4, highest power first: 18 terms, as 4^17/(17!)^2 < 1e-18 at the
# cutoff; the same count at every z, so no sample depends on the others
_FACT = np.cumprod(np.maximum(np.arange(18), 1.0))  # k!
_SERIES = (1.0 / _FACT**2)[::-1], (1.0 / (_FACT**2 * np.arange(1, 19)))[::-1]


def _horner(coefficients, x: np.ndarray) -> np.ndarray:
    # np.polyval's sums (highest power first), made in place
    y = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        y *= x
        y += c
    return y


def _series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = -0.25 * z * z
    return _horner(_SERIES[0], q), 0.5 * z * _horner(_SERIES[1], q)


def _quadrature(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sin t at the midpoints; made per call, as a first np.sin maps ~128 KB
    # of code that runs without a sample in this branch never need
    nodes = np.sin((np.arange(16) + 0.5) * (np.pi / 32))
    x = np.multiply.outer(z, nodes)  # summed in node order, by cumsum
    return (np.cumsum(np.cos(x), axis=1)[:, -1] / len(nodes),
            np.cumsum(np.sin(x) * nodes, axis=1)[:, -1] / len(nodes))


def _hankel_coefficients(order: int, terms: int = 12) -> tuple[list, list]:
    # P = sum_k (-1)^k a_2k w^k and Q z = sum_k (-1)^k a_2k+1 w^k, w = 1/z^2,
    # a_k = prod_{j<=k} (4 order^2 - (2j-1)^2) / (k! 8^k); highest first
    a = [1.0]
    for k in range(1, 2 * terms):
        a.append(a[-1] * (4 * order * order - (2 * k - 1) ** 2) / (8.0 * k))
    signed = [(-1) ** (k // 2) * v for k, v in enumerate(a)]
    return signed[-2::-2], signed[::-2]


_HANKEL = [_hankel_coefficients(order) for order in (0, 1)]


def _hankel(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # J0 = (P0 cos c0 - Q0 sin c0) sqrt(2/(pi z)) with c0 = z - pi/4, and
    # c1 = c0 - pi/2; cos c0 and sin c0 come from cos z and sin z, so the
    # phase z - pi/4 is never rounded
    w, amp = 1.0 / (z * z), 1.0 / np.sqrt(np.pi * z)
    c, s = np.cos(z), np.sin(z)
    cos0, sin0 = c + s, s - c  # sqrt 2 cos c0, sqrt 2 sin c0
    (p0, q0), (p1, q1) = ((_horner(p, w), _horner(q, w) / z) for p, q in _HANKEL)
    return amp * (p0 * cos0 - q0 * sin0), amp * (p1 * sin0 + q1 * cos0)


def _bessel_j(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J0 and J1 at every element of an ascending float array z >= 0."""
    j0, j1 = np.empty_like(z), np.empty_like(z)
    a, b = np.searchsorted(z, (_QUADRATURE_START, _HANKEL_START))
    for branch, part in ((_series, slice(0, a)), (_quadrature, slice(a, b)),
                         (_hankel, slice(b, None))):
        if z[part].size:
            j0[part], j1[part] = branch(z[part])
    return j0, j1


def check_run_constants(mass: float, dt: float, n_steps: int) -> None:
    """The rule for a run's mass, dt and n_steps, which ``SimParams`` and
    the kernel share: mass >= 0 and dt > 0 finite, n_steps an integer >= 0."""
    if not 0.0 <= mass < np.inf:
        raise ValueError(f"mass must be finite and non-negative, got {mass}")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not isinstance(n_steps, numbers.Integral):
        raise ValueError(f"n_steps must be an integer, got {n_steps}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")


@dataclass(frozen=True)
class BesselKernel:
    """Kernel samples for the boundary convolutions on a fixed time grid.

    ``samples[k] = J0(m k dt)`` and ``i1_samples[k] = J1(m k dt)`` for
    k = 0..n_steps.  ``conv_weights`` holds the combination
    ``-m J1(m k dt) + i m J0(m k dt)`` that multiplies the boundary history
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
        rev = -self.mass * self.i1_samples[::-1] + 1j * self.mass * self.samples[::-1]
        object.__setattr__(self, "reversed_weights", rev)
        object.__setattr__(self, "conv_weights", rev[::-1])

    @classmethod
    def build(cls, mass: float, dt: float, n_steps: int) -> "BesselKernel":
        check_run_constants(mass, dt, n_steps)
        if not mass * dt * n_steps < np.inf:
            raise ValueError(
                f"kernel argument m*dt*n_steps is not finite: mass {mass!r}, "
                f"dt {dt!r} and n_steps {n_steps}"
            )
        return cls(mass, dt, *_bessel_j(mass * dt * np.arange(n_steps + 1)))
