"""Dimensionless reductions, special time functions and thermal statistics.

Every dynamics routine in this package works in scaled units: time is
measured in units of 1/omega_m (so the scaled time is omega_m * t_physical)
and the coupling enters through the dimensionless k = g0/omega_m. Conversion
to and from SI quantities happens only at the outer boundaries, i.e. in the
experiment designer and the command line layer.

The three special functions of scaled time used throughout are

    eta(t)   = 1 - exp(-i t)
    big_b(t) = -k**2 * (t - sin t)
    xi(t)    = exp(i t) * eta(t) = -conj(eta(t))

All three accept numpy arrays as well as scalars.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "HBAR",
    "K_B",
    "C_LIGHT",
    "EPSILON_0",
    "eta",
    "big_b",
    "xi",
    "thermal_occupation",
    "energy_eigenvalue_scaled",
]

# SI constants, CODATA 2018 values
HBAR = 1.054571817e-34        # J s
K_B = 1.380649e-23            # J / K
C_LIGHT = 299792458.0         # m / s
EPSILON_0 = 8.8541878128e-12  # F / m


def eta(t):
    """eta(t) = 1 - exp(-i t).  Satisfies |eta(t)|**2 = 2(1 - cos t)."""
    return 1.0 - np.exp(-1j * np.asarray(t, dtype=float))


def big_b(t, k):
    """B(t) = -k**2 (t - sin t), the slow nonlinear phase."""
    t = np.asarray(t, dtype=float)
    return -(k ** 2) * (t - np.sin(t))


def xi(t):
    """xi(t) = exp(i t) eta(t); identically equal to -conj(eta(t)).

    The product is written out in real arithmetic: numpy rounds a complex
    multiply on arrays differently from one on scalars, and this form gives
    the scalar path's bits for every element of an array.
    """
    t = np.asarray(t, dtype=float)
    e = np.exp(1j * t)
    b = 1.0 - np.exp(-1j * t)
    out = np.empty(t.shape, dtype=complex)
    out.real = e.real * b.real - e.imag * b.imag
    out.imag = e.real * b.imag + e.imag * b.real
    return out[()]


def thermal_occupation(T: float, omega_m: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(hbar omega_m / kB T) - 1).

    T is in kelvin, omega_m in rad/s. Raises on non-positive inputs, and
    where hbar omega_m / (kB T) is so small that the occupation overflows.
    Very small T underflows cleanly to 0.0.
    """
    if not (T > 0):
        raise ValueError(f"temperature must be positive, got {T!r}")
    if not (omega_m > 0):
        raise ValueError(f"omega_m must be positive, got {omega_m!r}")
    x = HBAR * omega_m / (K_B * T)
    with np.errstate(over="ignore", divide="ignore"):
        nbar = float(1.0 / np.expm1(x))
    if nbar == math.inf:
        raise ValueError(
            f"the thermal occupation overflows: hbar omega_m / (k_B T) = {x!r} "
            f"at T={T!r} K, omega_m={omega_m!r} rad/s"
        )
    return nbar


def energy_eigenvalue_scaled(n: int, m: int, l: int, k: float, r_a: float, r_b: float) -> float:
    """Eigenenergy in units of hbar*omega_m: r_a n + r_b m + l - k**2 (n - m)**2."""
    if n < 0 or m < 0 or l < 0:
        raise ValueError(f"quantum numbers must be non-negative, got {(n, m, l)}")
    return r_a * n + r_b * m + l - k ** 2 * (n - m) ** 2

