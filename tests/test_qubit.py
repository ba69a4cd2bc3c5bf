import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optomech.core import xi
from optomech.qubit import (
    BASIS_ORDER,
    check_density_matrix,
    concurrence,
    evolve_qubit_state,
    reduced_rho_ab,
    timeseries,
    von_neumann_entropy,
)


def test_basis_order():
    assert BASIS_ORDER == ("00", "01", "10", "11")


def test_initial_branch_state():
    amps, disp = evolve_qubit_state(0.0, 0.5)
    assert np.array_equal(amps, [0.5, 0.5, 0.5, 0.5])
    assert np.array_equal(disp, [0.0, 0.0, 0.0, 0.0])


def test_branch_displacements_track_photon_imbalance():
    _, disp = evolve_qubit_state(math.pi, 0.5)
    d_00, d_01, d_10, d_11 = disp
    # delta = n - m weights the mechanical kick: +-k*xi(t) for the
    # single-photon branches, none for the balanced ones
    assert d_10 == pytest.approx(0.5 * complex(xi(math.pi)), abs=1e-14)
    assert d_01 == pytest.approx(-0.5 * complex(xi(math.pi)), abs=1e-14)
    assert d_10 == pytest.approx(-1.0, abs=1e-12)
    assert d_00 == d_11 == 0.0


def test_branch_phases_at_pi():
    amps, _ = evolve_qubit_state(math.pi, 0.5)
    c_00, c_01, c_10, c_11 = amps
    # unbalanced branches pick up e^{-iB} with B(pi, 0.5) = -(pi - 0)/4
    expected = 0.5 * np.exp(0.25j * math.pi)
    assert c_01 == pytest.approx(expected, abs=1e-14)
    assert c_10 == pytest.approx(expected, abs=1e-14)
    assert c_00 == c_11 == 0.5


def test_amplitudes_and_displacements_vectors():
    amps, disp = evolve_qubit_state(1.2, 0.7)
    assert amps.shape == disp.shape == (len(BASIS_ORDER),)
    # balanced branches (00, 11) keep unit phase and an undisplaced mirror;
    # the single-photon branches (01, 10) share a phase and kick oppositely
    assert amps[0] == amps[3] == 0.5
    assert amps[1] == amps[2]
    assert disp[0] == disp[3] == 0.0
    assert disp[2] == -disp[1] == 0.7 * complex(xi(1.2))


def test_reduced_state_at_pi_frozen():
    rho = reduced_rho_ab(math.pi, 0.5)
    # coherence between balanced and single-photon branches:
    # e^{iB} * e^{-k^2 |eta|^2 / 2} / 4 with B = -pi/4, |eta|^2 = 4
    mag = math.exp(-0.5) / 4.0
    assert rho[0, 1] == pytest.approx(mag * np.exp(-0.25j * math.pi), abs=1e-14)
    assert rho[0, 1] == pytest.approx(0.10722048562008836 * (1.0 - 1.0j), abs=1e-12)
    # the two single-photon branches sit 2k*xi apart in phase space
    assert rho[1, 2] == pytest.approx(math.exp(-2.0) / 4.0, abs=1e-14)
    assert rho[1, 2].real == pytest.approx(0.033833820809153176, abs=1e-15)
    # balanced branches share the undisplaced mirror state
    assert rho[0, 3] == pytest.approx(0.25, abs=1e-14)
    assert np.allclose(np.diag(rho), 0.25, atol=1e-14)


def test_reduced_state_at_2pi_is_pure():
    rho = reduced_rho_ab(2.0 * math.pi, 0.5)
    # mirror disentangles, leaving phases e^{-iB} with B = -pi/2
    assert rho[0, 1] == pytest.approx(-0.25j, abs=1e-14)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_concurrence_frozen_values():
    assert concurrence(reduced_rho_ab(2.0 * math.pi, 0.5)) == 1.0
    assert concurrence(reduced_rho_ab(4.0 * math.pi, 0.5)) < 1e-12
    assert concurrence(reduced_rho_ab(math.pi, 0.5)) == pytest.approx(
        0.26411242496687587, abs=1e-12
    )


def test_concurrence_known_states():
    ket00 = np.zeros((4, 4))
    ket00[0, 0] = 1.0
    assert concurrence(ket00) == 0.0

    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    assert concurrence(np.outer(bell, bell)) == pytest.approx(1.0, abs=1e-12)

    # Werner state: C = max(0, (3p - 1) / 2)
    p = 0.8
    werner = p * np.outer(bell, bell) + (1.0 - p) * np.eye(4) / 4.0
    assert concurrence(werner) == pytest.approx((3.0 * p - 1.0) / 2.0, abs=1e-12)
    assert concurrence(0.2 * np.outer(bell, bell) + 0.8 * np.eye(4) / 4.0) == 0.0


def test_entropy_frozen_values():
    assert von_neumann_entropy(reduced_rho_ab(math.pi, 0.5)) == pytest.approx(
        1.0932912550895684, abs=1e-12
    )
    assert von_neumann_entropy(reduced_rho_ab(2.0 * math.pi, 0.5)) < 1e-12


def test_entropy_reference_states():
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4.0, base=math.e) == pytest.approx(
        math.log(4.0), abs=1e-12
    )
    pure = np.zeros((4, 4))
    pure[2, 2] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(4) / 4.0, base=1.0)


def test_check_density_matrix_rejects_bad_input():
    good = np.eye(4) / 4.0
    check_density_matrix(good)
    with pytest.raises(ValueError):
        check_density_matrix(good * 2.0)  # trace 2
    bad = good.astype(complex).copy()
    bad[0, 1] = 0.3j
    with pytest.raises(ValueError):
        check_density_matrix(bad)  # not Hermitian
    neg = np.diag([0.6, 0.6, -0.1, -0.1])
    with pytest.raises(ValueError):
        check_density_matrix(neg)


@given(
    st.floats(min_value=0.0, max_value=8.0 * math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_reduced_state_is_physical(t, k):
    rho = reduced_rho_ab(t, k)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    c = concurrence(rho)
    assert -1e-12 <= c <= 1.0 + 1e-12
    assert von_neumann_entropy(rho) >= 0.0


def test_k_zero_state_stays_separable():
    grid = np.linspace(0.0, 8.0 * math.pi, 200)
    series = timeseries("concurrence", 0.0, grid)
    assert np.all(series[:, 1] == 0.0)


def test_death_interval_contains_exact_zeros():
    # around t = 4*pi the k = 0.5 concurrence collapses to an exact-zero
    # plateau (split by a revival spike below 3e-9 at 4*pi itself)
    grid = np.linspace(0.0, 8.0 * math.pi, 4000)
    c = timeseries("concurrence", 0.5, grid)[:, 1]
    near = (grid > 12.5) & (grid < 12.6)
    assert np.any(c[near] == 0.0)
    # lobes on both sides of the death window are well clear of zero
    assert c[(grid > 10.5) & (grid < 12.5)].max() > 0.05
    assert c[(grid > 12.6) & (grid < 14.6)].max() > 0.05


def test_timeseries_validation():
    with pytest.raises(ValueError):
        timeseries("negativity", 0.5, [0.0, 1.0])
    with pytest.raises(ValueError):
        timeseries("concurrence", 0.5, [0.0, 2.0, 1.0])  # not increasing
    out = timeseries("entropy", 0.5, [0.0, 1.0, 2.0])
    assert out.shape == (3, 2)
    np.testing.assert_array_equal(out[:, 0], [0.0, 1.0, 2.0])


def test_oracle_agreement_spot_check():
    from optomech.oracle import apply_evolution, build_initial_state, partial_trace

    for t in (0.8, math.pi, 5.1):
        state = build_initial_state("qubit", k=0.5)
        evolved = apply_evolution(state, t, 0.5, 0.0, 0.0)
        rho_fock = partial_trace(evolved, "AB")
        rho_closed = reduced_rho_ab(t, 0.5)
        assert np.abs(rho_fock - rho_closed).max() < 1e-10
