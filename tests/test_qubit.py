import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optomech import qubit as qubit_module
from optomech.core import big_b, xi
from optomech.qubit import (
    BASIS_ORDER,
    _evolve_qubit_state,
    _hermitian_part,
    _measures,
    _spectrum,
    concurrence,
    reduced_rho_ab,
    von_neumann_entropy,
)


def _validated(rho):
    """Both halves of the density-matrix checks, in the order the measures run them."""
    return _spectrum(_hermitian_part(rho), False)


def test_basis_order():
    assert BASIS_ORDER == ("00", "01", "10", "11")


def test_initial_branch_state():
    amps, disp = _evolve_qubit_state(0.0, 0.5)
    assert np.array_equal(amps, [0.5, 0.5, 0.5, 0.5])
    assert np.array_equal(disp, [0.0, 0.0, 0.0, 0.0])


def test_branch_displacements_track_photon_imbalance():
    _, disp = _evolve_qubit_state(math.pi, 0.5)
    d_00, d_01, d_10, d_11 = disp
    # delta = n - m weights the mechanical kick: +-k*xi(t) for the
    # single-photon branches, none for the balanced ones
    assert d_10 == pytest.approx(0.5 * complex(xi(math.pi)), abs=1e-14)
    assert d_01 == pytest.approx(-0.5 * complex(xi(math.pi)), abs=1e-14)
    assert d_10 == pytest.approx(-1.0, abs=1e-12)
    assert d_00 == d_11 == 0.0


def test_branch_phases_at_pi():
    amps, _ = _evolve_qubit_state(math.pi, 0.5)
    c_00, c_01, c_10, c_11 = amps
    # unbalanced branches pick up e^{-iB} with B(pi, 0.5) = -(pi - 0)/4
    expected = 0.5 * np.exp(0.25j * math.pi)
    assert c_01 == pytest.approx(expected, abs=1e-14)
    assert c_10 == pytest.approx(expected, abs=1e-14)
    assert c_00 == c_11 == 0.5


def test_amplitudes_and_displacements_vectors():
    amps, disp = _evolve_qubit_state(1.2, 0.7)
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
    pure = np.zeros((4, 4))
    pure[2, 2] = 1.0
    assert von_neumann_entropy(pure) == 0.0


def test_check_density_matrix_rejects_bad_input():
    good = np.eye(4) / 4.0
    _validated(good)
    with pytest.raises(ValueError, match="trace"):
        _hermitian_part(good * 2.0)  # trace 2
    bad = good.astype(complex).copy()
    bad[0, 1] = 0.3j
    with pytest.raises(ValueError, match="Hermitian"):
        _hermitian_part(bad)  # not Hermitian
    neg = np.diag([0.6, 0.6, -0.1, -0.1])
    assert np.array_equal(_hermitian_part(neg), neg)
    with pytest.raises(ValueError, match="positive semidefinite"):
        _spectrum(neg, False)
    with pytest.raises(ValueError, match="square"):
        _hermitian_part(np.ones((4, 3)) / 4.0)


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
    rhos = reduced_rho_ab(grid, 0.0)
    assert np.all(concurrence(rhos) == 0.0)
    # the uncoupled modes stay in a pure product state
    assert np.all(np.abs(von_neumann_entropy(rhos)) < 1e-9)


def test_death_interval_contains_exact_zeros():
    # around t = 4*pi the k = 0.5 concurrence collapses to an exact-zero
    # plateau (split by a revival spike below 3e-9 at 4*pi itself)
    grid = np.linspace(0.0, 8.0 * math.pi, 4000)
    c = concurrence(reduced_rho_ab(grid, 0.5))
    near = (grid > 12.5) & (grid < 12.6)
    assert np.any(c[near] == 0.0)
    # lobes on both sides of the death window are well clear of zero
    assert c[(grid > 10.5) & (grid < 12.5)].max() > 0.05
    assert c[(grid > 12.6) & (grid < 14.6)].max() > 0.05


def test_oracle_agreement_spot_check():
    from optomech.oracle import FockConfig, apply_evolution, partial_trace, qubit_state

    for t in (0.8, math.pi, 5.1):
        state = qubit_state(FockConfig.for_qubit(0.5))
        evolved = apply_evolution(state, t, 0.5, 0.0, 0.0)
        rho_fock = partial_trace(evolved, "AB")
        rho_closed = reduced_rho_ab(t, 0.5)
        assert np.abs(rho_fock - rho_closed).max() < 1e-10


# --- the batched path against the per-point algorithm it replaced ----------

_SY_SY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def _reference_rho(t: float, k: float) -> np.ndarray:
    """One reduced state, built as the per-point path built it."""
    phase = np.exp(-1j * complex(big_b(t, k)))
    # xi as a complex product of numpy scalars
    disp = k * complex(np.exp(1j * t) * (1.0 - np.exp(-1j * t)))
    c = np.array([0.5, 0.5 * phase, 0.5 * phase, 0.5])
    d = np.array([0.0, -disp, +disp, 0.0])
    mag2 = np.abs(d) ** 2
    overlap = np.exp(-0.5 * (mag2[:, None] + mag2[None, :]) + np.conj(d)[None, :] * d[:, None])
    return c[:, None] * np.conj(c)[None, :] * overlap


def _reference_concurrence(rho: np.ndarray) -> float:
    evals, evecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    if evals[0] >= -1e-12:
        sqrt_rho = (evecs * np.sqrt(evals.clip(0.0, None))) @ evecs.conj().T
        omega = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho).tolist()
    else:
        omega = np.linalg.eigvals(rho @ rho_tilde).real.tolist()
    floor = 64.0 * np.finfo(float).eps * max(max(omega), 0.0)
    lam = sorted(math.sqrt(w) if w > floor else 0.0 for w in omega)
    return min(max(lam[-1] - sum(lam[:-1]), 0.0), 1.0)


def _reference_entropy(rho: np.ndarray) -> float:
    p = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).clip(0.0, 1.0)
    p = p[p > 0.0]
    return float(max(-(p * np.log(p)).sum() / math.log(2.0), 0.0))


def _assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_matches_reference(rhos, conc, ent, points):
    ref = [_reference_rho(t, k) for t, k in points]
    _assert_same_bits(rhos, np.array(ref))
    _assert_same_bits(conc, np.array([_reference_concurrence(r) for r in ref]))
    _assert_same_bits(ent, np.array([_reference_entropy(r) for r in ref]))


@pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.74, 2.0])
def test_batched_time_series_matches_per_point_path(k):
    grid = np.linspace(0.0, 8.0 * math.pi, 4000)
    rhos = reduced_rho_ab(grid, k)
    assert rhos.shape == (4000, 4, 4)
    _assert_matches_reference(
        rhos, concurrence(rhos), von_neumann_entropy(rhos), [(float(t), k) for t in grid]
    )


def test_batched_k_sweep_matches_per_point_path():
    ks = np.linspace(0.0, 1.5, 500)
    rhos = reduced_rho_ab(math.pi, ks)
    assert rhos.shape == (500, 4, 4)
    _assert_matches_reference(
        rhos, concurrence(rhos), von_neumann_entropy(rhos), [(math.pi, float(k)) for k in ks]
    )


def test_stacks_broadcast_and_single_matrices_give_floats():
    t = np.array([0.3, 1.0, math.pi])
    k = np.array([[0.2], [0.5]])
    amps, disp = _evolve_qubit_state(t, k)
    assert amps.shape == disp.shape == (2, 3, 4)
    rhos = reduced_rho_ab(t, k)
    assert rhos.shape == (2, 3, 4, 4)
    conc = concurrence(rhos)
    ent = von_neumann_entropy(rhos)
    assert conc.shape == ent.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            rho = reduced_rho_ab(t[j], k[i, 0])
            assert isinstance(concurrence(rho), float)
            assert isinstance(von_neumann_entropy(rho), float)
            assert concurrence(rho) == conc[i, j]
            assert von_neumann_entropy(rho) == ent[i, j]
    evals, _ = _validated(rhos)
    assert evals.shape == (2, 3, 4)


def test_concurrence_fallback_runs_only_on_matrices_that_need_it(monkeypatch):
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    # a slightly non-positive mixture: smallest eigenvalue -5e-11 on |10>
    nearly = 0.8 * np.outer(bell, bell) + np.diag([0.0, 0.2 + 5e-11, -5e-11, 0.0])
    assert np.linalg.eigvalsh(nearly)[0] == pytest.approx(-5e-11, rel=1e-6)
    psd = reduced_rho_ab(math.pi, 0.5)
    stack = np.stack([psd, nearly.astype(complex), psd])

    calls = []
    eigvals = np.linalg.eigvals

    def spy(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    conc = concurrence(stack)
    assert calls == [(1, 4, 4)]
    expected = [_reference_concurrence(r) for r in stack]
    _assert_same_bits(conc, np.array(expected))
    # an X state: C = 2 (|rho_03| - sqrt(rho_11 rho_22)) = 0.8 up to the perturbation
    assert conc[1] == pytest.approx(0.8, abs=1e-9)
    assert [concurrence(r) for r in stack] == expected


@pytest.mark.parametrize("func", [_validated, concurrence, von_neumann_entropy])
def test_bad_matrix_in_a_stack_is_named_by_index(func):
    good = reduced_rho_ab(np.linspace(0.1, 3.0, 5), 0.5)
    for bad, reason in (
        (good[2] * 2.0, "trace"),
        (good[2] + np.diag([0.0, 0.0, 0.3j, -0.3j]) @ np.ones((4, 4)), "Hermitian"),
        (np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex), "positive semidefinite"),
    ):
        stack = good.copy()
        stack[3] = bad
        with pytest.raises(ValueError, match=f"matrix 3 of the stack: .*{reason}"):
            func(stack)
        grid = np.stack([good, stack])
        with pytest.raises(ValueError, match=rf"matrix \(1, 3\) of the stack: .*{reason}"):
            func(grid)


@pytest.mark.parametrize("k", [-0.1, np.array([0.2, -0.3, 0.5])])
def test_negative_coupling_is_rejected(k):
    for func in (_evolve_qubit_state, reduced_rho_ab, lambda t, k: _measures(t, k, ("entropy",))):
        with pytest.raises(ValueError, match="k must be non-negative"):
            func(1.0, k)
    with pytest.raises(ValueError, match="k must be non-negative, got -0.3"):
        reduced_rho_ab(np.linspace(0.0, 1.0, 3), np.array([0.2, -0.3, 0.5]))


# --- the slab path of fig2 and the qubit sweeps against the whole stack ---


def _axis_grid(axis, k, n):
    """(t, k) of an n-point grid along t at coupling k, or along k up to k at t = pi."""
    if axis == "t":
        return np.linspace(0.0, 8.0 * math.pi, n), k
    return math.pi, np.linspace(0.0, k, n)


@pytest.mark.parametrize("k", [0.0, 0.5, 20.0])
@pytest.mark.parametrize("axis", ["t", "k"])
def test_slab_measures_are_bitwise_the_whole_stack(monkeypatch, axis, k):
    checked = set()
    # the whole stack's states and measures by grid size n (axis and k are this case's); no slab enters them
    whole = {}
    # the module's slab, then one whose edges fall inside the small grids
    for slab in (qubit_module._SLAB, 7):
        monkeypatch.setattr(qubit_module, "_SLAB", slab)
        for n in (1, slab - 1, slab, slab + 1, 2 * slab + 1, 4000):
            t, ks = _axis_grid(axis, k, n)
            both = _measures(t, ks, ("concurrence", "entropy"))
            if n not in whole:
                rhos = reduced_rho_ab(t, ks)
                whole[n] = rhos, concurrence(rhos), von_neumann_entropy(rhos)
            rhos, whole_concurrence, whole_entropy = whole[n]
            _assert_same_bits(both["concurrence"], whole_concurrence)
            _assert_same_bits(both["entropy"], whole_entropy)
            for name, values in both.items():
                _assert_same_bits(_measures(t, ks, (name,))[name], values)
            if n not in checked:
                checked.add(n)
                points = list(zip(*(p.tolist() for p in np.broadcast_arrays(t, ks))))
                # the per-point path squares k with Python's float pow, which at a
                # few k (3 of 4000 on [0, 0.5], 10 on [0, 20]) rounds differently
                # from the k * k that every stack has taken since it replaced that path
                same = [i for i, (_, kp) in enumerate(points) if kp ** 2 == kp * kp]
                _assert_matches_reference(
                    rhos[same], both["concurrence"][same], both["entropy"][same], [points[i] for i in same]
                )


def test_slab_measures_bound_their_memory():
    grid = np.linspace(0.0, 8.0 * math.pi, 100_000)
    tracemalloc.start()
    try:
        _measures(grid, 0.5, ("concurrence", "entropy"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two outputs and the broadcast k, 0.8 MB each, plus temporaries of
    # _SLAB matrices: 2.7 MiB measured. fig2 built the whole stack at once
    # before it took its measures in slabs, and peaked at 153 MiB here
    assert peak < 4 * 2**20


def test_slab_measures_name_the_whole_stack_index():
    grid = np.linspace(0.0, 2.0 * math.pi, 4000)
    # at k = 100 the trace of matrix 465, in the second slab, drifts past 1e-12
    text = "matrix 465 of the stack: trace deviates from 1 by 1.364e-12"
    with pytest.raises(ValueError, match=f"^{text}$"):
        concurrence(reduced_rho_ab(grid, 100.0))
    with pytest.raises(ValueError, match=f"^{text}$"):
        _measures(grid, 100.0, ("concurrence", "entropy"))
    ks = np.array([[0.5], [100.0]])
    with pytest.raises(ValueError, match=r"^matrix \(1, 465\) of the stack: trace"):
        _measures(grid, ks, ("entropy",))
