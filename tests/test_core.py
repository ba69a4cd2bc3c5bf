import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from optomech.core import (
    big_b,
    energy_eigenvalue_scaled,
    eta,
    thermal_occupation,
    xi,
)

TIMES = st.floats(min_value=0.0, max_value=16.0 * math.pi, allow_nan=False)


@given(TIMES)
def test_eta_mod_squared(t):
    # |1 - e^{-it}|^2 = 2(1 - cos t)
    assert abs(abs(eta(t)) ** 2 - 2.0 * (1.0 - math.cos(t))) < 1e-12


@given(TIMES)
def test_xi_is_minus_eta_conjugate(t):
    assert abs(xi(t) + np.conj(eta(t))) < 1e-12


@given(TIMES, st.floats(min_value=0.0, max_value=2.0))
def test_big_b_scales_as_k_squared(t, k):
    assert abs(big_b(t, 2.0 * k) - 4.0 * big_b(t, k)) < 1e-12 * (1.0 + abs(big_b(t, k)))


def test_kernels_at_periodic_points():
    assert eta(0.0) == 0.0
    assert abs(eta(2.0 * math.pi)) < 1e-12
    assert abs(abs(eta(math.pi)) - 2.0) < 1e-15
    assert big_b(0.0, 0.7) == 0.0
    assert big_b(2.0 * math.pi, 0.5) == pytest.approx(-0.25 * 2.0 * math.pi, abs=1e-12)


def test_kernels_accept_arrays():
    t = np.linspace(0.0, 4.0 * math.pi, 37)
    e = eta(t)
    assert e.shape == t.shape
    np.testing.assert_allclose(xi(t), -np.conj(e), atol=1e-14)
    b = big_b(t, 0.3)
    # t - sin t is non-negative and non-decreasing, so B never increases
    assert np.all(np.diff(b) <= 1e-15)
    assert np.all(b <= 1e-15)


def test_thermal_occupation_frozen_value():
    nbar = thermal_occupation(0.8e-6, 2.0 * math.pi * 95e3)
    assert nbar == pytest.approx(0.003360227659763006, rel=1e-12)


def test_thermal_occupation_monotone_in_temperature():
    omega = 2.0 * math.pi * 95e3
    values = [thermal_occupation(T, omega) for T in (0.1e-6, 0.4e-6, 0.8e-6, 2.0e-6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_thermal_occupation_deep_ground_state():
    # hbar*omega/k_B*T ~ 46 at 0.1 uK, so the occupation is essentially zero
    assert thermal_occupation(0.1e-6, 2.0 * math.pi * 95e3) < 1e-19


@pytest.mark.parametrize("bad_T, bad_omega", [(0.0, 1.0), (-1e-6, 1.0), (1e-6, 0.0), (1e-6, -5.0)])
def test_thermal_occupation_rejects_nonpositive(bad_T, bad_omega):
    with pytest.raises(ValueError):
        thermal_occupation(bad_T, bad_omega)


@pytest.mark.parametrize("T, omega", [(1e300, 1e-300), (1e-7, 1e-300), (1e19, 1e-280)])
def test_thermal_occupation_refuses_an_overflowing_occupation(T, omega):
    # hbar omega / k_B T underflows to 0, or to a value whose inverse overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="thermal occupation overflows"):
            thermal_occupation(T, omega)


def test_energy_eigenvalue_scaled():
    # r_a*n + r_b*m + l - k^2 (n - m)^2
    assert energy_eigenvalue_scaled(1, 0, 2, 0.5, 1.3, 0.8) == pytest.approx(1.3 + 2.0 - 0.25)
    assert energy_eigenvalue_scaled(0, 2, 0, 0.5, 1.3, 0.8) == pytest.approx(1.6 - 1.0)
    assert energy_eigenvalue_scaled(2, 2, 3, 0.9, 0.4, 0.6) == pytest.approx(0.8 + 1.2 + 3.0)


def test_energy_eigenvalue_rejects_negative_quanta():
    with pytest.raises(ValueError):
        energy_eigenvalue_scaled(-1, 0, 0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        energy_eigenvalue_scaled(0, 0, -2, 0.5, 1.0, 1.0)
