"""Checks for the brute-force Fock-basis reference implementation.

The displacement matrix is validated against scipy's dense matrix
exponential and against the closed-form action on coherent states, so the
rest of the suite can lean on it as an independent oracle.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from optomech.core import energy_eigenvalue_scaled, eta
from optomech.oracle import (
    FockConfig,
    apply_evolution,
    build_initial_state,
    displacement_matrix,
    hamiltonian_expectation,
    moments,
    partial_trace,
)


def test_displacement_identity_at_zero():
    d = displacement_matrix(0.0, 12)
    np.testing.assert_allclose(d, np.eye(13), atol=1e-15)


def test_displacement_first_column_is_coherent_state():
    beta = 0.8 - 0.3j
    col = displacement_matrix(beta, 60)[:, 0]
    n = np.arange(61)
    expected = np.exp(-abs(beta) ** 2 / 2) * beta**n / np.sqrt(scipy.special.factorial(n))
    np.testing.assert_allclose(col, expected, atol=1e-13)


def test_displacement_matches_dense_expm():
    beta = 0.7 - 0.4j
    n = 40
    a = np.diag(np.sqrt(np.arange(1.0, n + 1)), 1)
    dense = scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)
    mine = displacement_matrix(beta, n)
    # compare well inside the truncation so edge effects of expm don't enter
    assert np.abs(dense[:12, :12] - mine[:12, :12]).max() < 1e-12


def test_displacement_adjoint_is_negated_argument():
    beta = 0.5 + 1.1j
    d = displacement_matrix(beta, 30)
    np.testing.assert_allclose(displacement_matrix(-beta, 30), d.conj().T, atol=1e-13)


@given(
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=25, deadline=None)
def test_displacement_acts_on_coherent_states(beta, gamma):
    # D(beta)|gamma> = exp(i Im(beta conj(gamma))) |beta + gamma>
    n_max = 50
    n = np.arange(n_max + 1)
    log_fact = scipy.special.gammaln(n + 1.0)

    def coherent(z):
        if z == 0:
            v = np.zeros(n_max + 1, dtype=complex)
            v[0] = 1.0
            return v
        return np.exp(-abs(z) ** 2 / 2 + n * np.log(complex(z)) - log_fact / 2)

    got = displacement_matrix(beta, n_max) @ coherent(gamma)
    want = np.exp(1j * (beta * np.conj(gamma)).imag) * coherent(beta + gamma)
    assert np.abs(got - want).max() < 1e-9


def test_fock_config_validation():
    with pytest.raises(ValueError):
        FockConfig(n_max_a=0, n_max_b=1, n_max_c=1)
    with pytest.raises(ValueError):
        FockConfig(n_max_a=1, n_max_b=1, n_max_c=1, tolerance=0.0)
    doubled = FockConfig(2, 3, 5).doubled()
    assert (doubled.n_max_a, doubled.n_max_b, doubled.n_max_c) == (4, 6, 10)


def test_qubit_state_construction():
    state = build_initial_state("qubit", k=0.5)
    assert len(state.vectors) == 1
    psi = state.vectors[0]
    assert psi[0, 0, 0] == 0.5
    assert psi[1, 1, 0] == 0.5
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-14


def test_coherent_thermal_state_construction():
    state = build_initial_state("coherent_thermal", alpha=0.6, beta=-0.3, nbar=0.25)
    w = np.asarray(state.weights)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # geometric thermal weights: ratio q = nbar / (1 + nbar)
    assert w[1] / w[0] == pytest.approx(0.25 / 1.25, rel=1e-12)
    m = moments(state, "AB")
    assert m.mean1 == pytest.approx(0.6, abs=1e-8)
    assert m.occ1 == pytest.approx(0.36, abs=1e-8)
    assert m.corr == pytest.approx(-0.18, abs=1e-8)
    mc = moments(state, "AC")
    assert mc.occ2 == pytest.approx(0.25, abs=1e-8)
    assert mc.mean2 == 0.0


def test_coherent_tail_invariant_rejects_small_cutoff():
    cfg = FockConfig(n_max_a=1, n_max_b=1, n_max_c=4)
    with pytest.raises(ValueError, match="tail"):
        build_initial_state("coherent_thermal", alpha=2.5, beta=0.0, nbar=0.0, config=cfg)


def test_thermal_tail_invariant_rejects_small_cutoff():
    cfg = FockConfig(n_max_a=3, n_max_b=3, n_max_c=2)
    with pytest.raises(ValueError, match="mechanical cutoff"):
        build_initial_state("coherent_thermal", alpha=0.0, beta=0.0, nbar=0.8, config=cfg)


def test_unknown_state_kind():
    with pytest.raises(ValueError, match="unknown state kind"):
        build_initial_state("squeezed")


def test_evolution_preserves_norm_and_energy():
    state = build_initial_state("coherent_thermal", alpha=0.7, beta=0.4, nbar=0.3, k=0.6)
    e0 = hamiltonian_expectation(state, 0.6, 1.3, 0.8)
    for t in (0.7, 2.0, 5.5, 11.0):
        evolved = apply_evolution(state, t, 0.6, 1.3, 0.8)
        for psi in evolved.vectors:
            assert abs(np.vdot(psi, psi) - 1.0) < 1e-10
        e_t = hamiltonian_expectation(evolved, 0.6, 1.3, 0.8)
        assert abs(e_t - e0) < 1e-8 * max(1.0, abs(e0))


def test_k_zero_evolution_is_phase_only():
    state = build_initial_state("coherent_thermal", alpha=0.5, beta=0.2, nbar=0.0, k=0.0)
    t, r_a, r_b = 1.7, 1.2, 0.4
    evolved = apply_evolution(state, t, 0.0, r_a, r_b)
    psi0 = state.vectors[0]
    na, nb, nc = psi0.shape
    n = np.arange(na)[:, None, None]
    m = np.arange(nb)[None, :, None]
    l = np.arange(nc)[None, None, :]
    expected = psi0 * np.exp(-1j * t * (r_a * n + r_b * m + l))
    np.testing.assert_allclose(evolved.vectors[0], expected, atol=1e-13)


def test_single_photon_drags_the_mirror():
    # |1,0,0> evolves into a branch whose mechanical part is a coherent
    # state with amplitude k*eta(t) in the lab frame
    cfg = FockConfig(n_max_a=1, n_max_b=1, n_max_c=25)
    psi = np.zeros((2, 2, 26), dtype=complex)
    psi[1, 0, 0] = 1.0
    from optomech.oracle import TriModeState

    state = TriModeState(np.array([1.0]), [psi], cfg)
    for t in (0.9, math.pi, 4.0):
        evolved = apply_evolution(state, t, 0.6, 0.0, 0.0)
        m = moments(evolved, "AC")
        assert m.mean2 == pytest.approx(0.6 * complex(eta(t)), abs=1e-10)
        assert m.occ2 == pytest.approx(0.36 * abs(eta(t)) ** 2, abs=1e-10)


def test_eigenstate_is_stationary():
    k, r_a, r_b = 0.5, 1.3, 0.8
    cfg = FockConfig(n_max_a=2, n_max_b=2, n_max_c=40)
    from optomech.oracle import TriModeState

    n0, m0 = 1, 0
    delta = n0 - m0
    psi = np.zeros((3, 3, 41), dtype=complex)
    psi[n0, m0, :] = displacement_matrix(k * delta, 40)[:, 2]  # l = 2
    state = TriModeState(np.array([1.0]), [psi], cfg)
    t = 2.6
    evolved = apply_evolution(state, t, k, r_a, r_b)
    energy = energy_eigenvalue_scaled(n0, m0, 2, k, r_a, r_b)
    np.testing.assert_allclose(evolved.vectors[0], np.exp(-1j * energy * t) * psi, atol=1e-8)


def test_interaction_picture_strips_mechanical_rotation():
    state = build_initial_state("coherent_thermal", alpha=0.4, beta=0.3, nbar=0.0, k=0.5)
    t = 1.3
    lab = apply_evolution(state, t, 0.5, 0.0, 0.0)
    rot = apply_evolution(state, t, 0.5, 0.0, 0.0, interaction_picture=True)
    # the two pictures differ by e^{-i t n_c} on the mechanical index
    nc = state.config.n_max_c + 1
    phases = np.exp(-1j * t * np.arange(nc))
    np.testing.assert_allclose(lab.vectors[0], rot.vectors[0] * phases[None, None, :], atol=1e-12)


def test_partial_trace_properties():
    state = build_initial_state("coherent_thermal", alpha=0.5, beta=0.3, nbar=0.2, k=0.5)
    evolved = apply_evolution(state, 2.1, 0.5, 1.1, 0.9)
    for keep in ("AB", "AC", "BC", "C"):
        rho = partial_trace(evolved, keep)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_partial_trace_of_initial_qubit_state():
    state = build_initial_state("qubit", k=0.5)
    rho_c = partial_trace(state, "C")
    assert rho_c[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(rho_c[1:, 1:]).max() < 1e-14


def test_partial_trace_rejects_unknown_subsystem():
    state = build_initial_state("qubit", k=0.5)
    with pytest.raises(ValueError):
        partial_trace(state, "AD")


def test_moments_pair_order_is_canonicalized():
    state = build_initial_state("coherent_thermal", alpha=0.4, beta=-0.2, nbar=0.0)
    assert moments(state, "CA") == moments(state, "AC")


def test_moments_rejects_unknown_pair():
    state = build_initial_state("qubit", k=0.5)
    with pytest.raises(ValueError):
        moments(state, "AD")
    with pytest.raises(ValueError):
        moments(state, "AA")


def test_truncation_doubling_is_stable():
    from optomech.duan import duan_from_moments

    alpha, beta, nbar, k = 0.5, 0.5, 0.2, 0.5
    # the tail budget bounds dropped probability mass, not moments, so the
    # base run is sized at 1e-9 to back a 1e-8 claim on derived quantities
    base = FockConfig.for_coherent_thermal(alpha, beta, nbar, k, 1e-9)
    results = []
    for cfg in (base, base.doubled()):
        state = build_initial_state(
            "coherent_thermal", alpha=alpha, beta=beta, nbar=nbar, k=k, config=cfg
        )
        evolved = apply_evolution(state, 2.4, k, 1.5, 0.7)
        results.append([duan_from_moments(moments(evolved, pair)) for pair in ("AB", "AC", "BC")])
    for a, b in zip(*results):
        assert abs(a - b) < 1e-8
