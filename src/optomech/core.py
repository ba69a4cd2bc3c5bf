"""Dimensionless reductions, special time functions, thermal statistics and the regime rule and report.

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

The coupling-regime rule (`entanglement_period`, `K_REGIME_BOUNDARY`), the
report built from it (`regime_report`) and the limits of a witness cell
live here too: the witness module, the experiment designer and the command
line all read them, and the commands that never evaluate a witness then
load no witness module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "K_REGIME_BOUNDARY",
    "entanglement_period",
    "RegimeReport",
    "regime_report",
]

# SI constants, CODATA 2018 values
HBAR = 1.054571817e-34        # J s
K_B = 1.380649e-23            # J / K
C_LIGHT = 299792458.0         # m / s
EPSILON_0 = 8.8541878128e-12  # F / m

#: boundary between the low and high coupling regimes; the boundary itself
#: is classified as high
K_REGIME_BOUNDARY = 1.0 / math.sqrt(2.0)

#: bytes per temporary of a slab loop (the witness scan's, the qubit measures'),
#: which bounds a loop's memory whatever its grid; 128 KiB, glibc's mmap
#: threshold, took thousands of page faults per fig4a call, 64 KiB none
_TEMP_BYTES = 2 ** 16

#: largest |alpha| and |beta| a witness cell may hold. The AC and BC
#: correlations grow like alpha**3, which here stays below 1e300; every
#: output of the CLI at its defaults stays finite up to 1e113, and at 1e114
#: a sweep of D_AC holds an inf
_MAX_AMPLITUDE = 1e100
#: largest k a witness cell may hold. The kernels square it: 1e100 squares to
#: 1e200, which leaves 1e108 of headroom for the times and occupations that
#: k**2 multiplies, where 1e200 overflowed k**2 itself
_MAX_COUPLING = 1e100


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



def _low_regime(k):
    """True where k lies below K_REGIME_BOUNDARY; works elementwise on arrays."""
    return k < K_REGIME_BOUNDARY


def entanglement_period(k, omega_m):
    """Time to the first entanglement-envelope recurrence.

    pi/(omega_m k**2) below the regime boundary k = 1/sqrt 2, 2 pi/omega_m at
    and above it. With omega_m = 1 this is the period in scaled time, with
    omega_m in rad/s the period in seconds. k and omega_m broadcast together;
    scalars give a float, arrays an array.
    """
    k, omega_m = np.asarray(k, dtype=float), np.asarray(omega_m, dtype=float)
    for name, value in (("k", k), ("omega_m", omega_m)):
        if not np.all(value > 0):
            raise ValueError(f"{name} must be positive, got {float(value[~(value > 0)].flat[0])!r}")
    period = np.where(_low_regime(k), math.pi / (omega_m * k ** 2), 2.0 * math.pi / omega_m)
    return float(period) if period.ndim == 0 else period


@dataclass(frozen=True)
class RegimeReport:
    """Coupling-regime classification and the matching feasibility inequality."""

    regime: str
    feasibility_condition: str
    feasibility_ratio: float
    #: `entanglement_period` in scaled time
    envelope_period: float


@np.errstate(all="ignore")
def regime_report(k: float, omega_m: float, kappa: float) -> RegimeReport:
    """Classify the coupling regime and report the matching feasibility ratio.

    omega_m is the mechanical frequency in rad/s and kappa the photon decay
    rate in 1/s (the inverse photon lifetime). Low regime (k < 1/sqrt 2):
    feasibility needs photon blockade g0**2/(omega_m kappa) >> 1. High
    regime (including the boundary): feasibility needs resolved sidebands
    omega_m >> kappa. Ratios compare angular rates, so kappa is multiplied
    by 2 pi. Raises on a non-positive k, omega_m or kappa. The arithmetic is
    in Python's float order, with g0 a numpy float, which squares through
    pow() as a Python float does: a period or ratio that overflows is inf,
    or NaN where both sides of its quotient overflow or underflow, without
    an OverflowError or a warning.
    """
    for name, value in (("k", k), ("omega_m", omega_m), ("kappa", kappa)):
        if not (value > 0):
            raise ValueError(f"{name} must be positive, got {value!r}")
    kappa_angular = 2.0 * math.pi * kappa
    if _low_regime(k):
        regime, condition = "low", "photon_blockade"
        g0 = np.float64(k) * omega_m
        ratio = g0 ** 2 / (omega_m * kappa_angular)
    else:
        regime, condition = "high", "resolved_sideband"
        ratio = omega_m / kappa_angular
    return RegimeReport(regime, condition, float(ratio), entanglement_period(k, 1.0))
