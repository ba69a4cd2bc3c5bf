"""Checks for the brute-force Fock-basis reference implementation.

The displacement matrix is validated against scipy's dense matrix
exponential, against the closed-form action on coherent states and, column
by column, against the eval_genlaguerre closed form, so the rest of the
suite can lean on it as an independent oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

import optomech.oracle
from optomech.core import big_b, energy_eigenvalue_scaled, eta, xi
from optomech.oracle import (
    FockConfig,
    TriModeState,
    _displacement_columns,
    _log_factorial,
    _poisson_pmf,
    _poisson_sf,
    _poisson_tail_cutoff,
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


# Closed-form reference: every entry of the full matrix from scipy's
# eval_genlaguerre, the builder the degree recurrence replaced, kept
# verbatim as the independent check of it.


def _ref_displacement_matrix(beta, n_max):
    dim = n_max + 1
    beta = complex(beta)
    if beta == 0:
        return np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    row = idx[:, None]
    col = idx[None, :]
    kmin = np.minimum(row, col)
    diff = np.abs(row - col)
    x = abs(beta) ** 2
    lag = scipy.special.eval_genlaguerre(kmin, diff, x)
    log_mag = (
        0.5 * (scipy.special.gammaln(kmin + 1) - scipy.special.gammaln(kmin + diff + 1))
        + diff * math.log(abs(beta))
        - 0.5 * x
    )
    unit = beta / abs(beta)
    phase_base = np.where(row >= col, unit, -np.conj(unit))
    return np.exp(log_mag) * phase_base ** diff * lag


# the degree recurrence drifts like n**2 * eps at small |beta|: these bound
# the largest absolute deviation from the reference, for builds of at most
# 64 columns and for full-width builds up to 351 levels
_COLUMNS_ATOL = 1e-13
_FULL_WIDTH_ATOL = 5e-12


@pytest.mark.parametrize("dim", [2, 5, 40, 151, 351])
@pytest.mark.parametrize("magnitude", [1e-6, 1e-2, 0.5, 2.0, 16.0])
def test_displacement_columns_match_closed_form(dim, magnitude):
    for angle in (0.0, 0.7, -2.1, math.pi):
        beta = magnitude * complex(math.cos(angle), math.sin(angle))
        ref = _ref_displacement_matrix(beta, dim - 1)
        for n_cols in sorted({1, min(25, dim), dim}):
            got = _displacement_columns(beta, dim, n_cols)
            assert got.shape == (dim, n_cols)
            atol = _COLUMNS_ATOL if n_cols <= 64 else _FULL_WIDTH_ATOL
            assert np.abs(got - ref[:, :n_cols]).max() <= atol, (beta, n_cols)
        # the full matrix is the same builder at full width
        np.testing.assert_array_equal(
            displacement_matrix(beta, dim - 1), _displacement_columns(beta, dim, dim)
        )


def test_displacement_columns_at_zero_are_the_identity():
    np.testing.assert_array_equal(_displacement_columns(0.0, 9, 4), np.eye(9, 4))
    # |beta|**2 underflows to 0, and the log-space start still gives D ~ 1
    tiny = _displacement_columns(1e-300, 9, 9)
    np.testing.assert_allclose(tiny, np.eye(9), rtol=0, atol=1e-299)


def _ref_apply_evolution(state, t, k, r_a, r_b):
    """The full-matrix evolution: every member times D(k delta xi) on all columns."""
    na1, nb1, nc1 = state.shape
    n = np.arange(na1)[:, None]
    m = np.arange(nb1)[None, :]
    delta = n - m
    phase = np.exp(-1j * float(big_b(t, k)) * delta.astype(float) ** 2)
    phase = phase * np.exp(-1j * t * (r_a * n + r_b * m))
    out = state.vectors * phase[:, :, None]
    xi_t = complex(xi(t))
    if k != 0.0 and xi_t != 0.0:
        for d in range(1, int(np.abs(delta).max()) + 1):
            mat = _ref_displacement_matrix(k * d * xi_t, nc1 - 1)
            for dd, mat_t in ((d, mat.T), (-d, mat.conj())):
                mask = delta == dd
                out[:, mask, :] = out[:, mask, :] @ mat_t
    return out * np.exp(-1j * t * np.arange(nc1))


def _top_level_state():
    # amplitude on the highest mechanical level nc1 - 1 and on the ground state
    cfg = FockConfig(n_max_a=2, n_max_b=2, n_max_c=30)
    psi = np.zeros((1, 3, 3, 31), dtype=complex)
    psi[0, 2, 0, 30] = 0.6
    psi[0, 0, 1, 0] = 0.8j
    return TriModeState(np.array([1.0]), psi, cfg)


def _stationary_state():
    # a displaced Fock state: every mechanical level is occupied
    cfg = FockConfig(n_max_a=2, n_max_b=2, n_max_c=40)
    psi = np.zeros((1, 3, 3, 41), dtype=complex)
    psi[0, 1, 0, :] = displacement_matrix(0.5, 40)[:, 2]
    return TriModeState(np.array([1.0]), psi, cfg)


_EDGE_STATES = {
    # (state, k, columns the evolution must build)
    "qubit": (lambda: build_initial_state("qubit", k=0.5), 0.5, 1),
    "thermal": (
        lambda: build_initial_state("coherent_thermal", alpha=0.4, beta=0.3, nbar=0.3, k=0.5),
        0.5,
        None,
    ),
    "top_level": (_top_level_state, 0.6, 31),
    "full_support": (_stationary_state, 0.5, 41),
    "k_zero": (
        lambda: build_initial_state("coherent_thermal", alpha=0.5, beta=0.3, nbar=0.3, k=0.0),
        0.0,
        0,
    ),
}


@pytest.mark.parametrize("name", list(_EDGE_STATES))
def test_evolution_builds_only_occupied_columns(monkeypatch, name):
    make, k, want_cols = _EDGE_STATES[name]
    state = make()
    if want_cols is None:
        # a thermal member l0 starts in Fock state l0, so the members set the support
        want_cols = len(state.weights)
    built = []

    def recording(beta, dim, n_cols):
        built.append(n_cols)
        return columns(beta, dim, n_cols)

    columns = optomech.oracle._displacement_columns
    monkeypatch.setattr(optomech.oracle, "_displacement_columns", recording)
    t, r_a, r_b = 2.3, 1.1, 0.6
    got = apply_evolution(state, t, k, r_a, r_b).vectors
    assert set(built) == ({want_cols} if want_cols else set())
    want = _ref_apply_evolution(state, t, k, r_a, r_b)
    # largest deviation seen over these cases: 7.1e-16 (top_level)
    assert np.abs(got - want).max() <= 1e-14


def test_fock_config_validation():
    with pytest.raises(ValueError):
        FockConfig(n_max_a=0, n_max_b=1, n_max_c=1)
    with pytest.raises(ValueError):
        FockConfig(n_max_a=1, n_max_b=1, n_max_c=1, tolerance=0.0)
    doubled = FockConfig(2, 3, 5).doubled()
    assert (doubled.n_max_a, doubled.n_max_b, doubled.n_max_c) == (4, 6, 10)


@pytest.mark.parametrize(
    "kind, params",
    [("qubit", {"k": 0.5}), ("coherent_thermal", {"alpha": 0.5, "beta": 0.3, "nbar": 0.2, "k": 0.4})],
)
def test_initial_state_refuses_tolerance_beside_config(kind, params):
    # config carries its own tail budget, so a second one would go unread
    with pytest.raises(ValueError, match="^pass config or tolerance, not both"):
        build_initial_state(kind, config=FockConfig(8, 8, 40), tolerance=1e-6, **params)


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
    pairs = moments(state)
    m, mc = pairs["AB"], pairs["AC"]
    assert m.mean1 == pytest.approx(0.6, abs=1e-8)
    assert m.occ1 == pytest.approx(0.36, abs=1e-8)
    assert m.corr == pytest.approx(-0.18, abs=1e-8)
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


# ---------------------------------------------------------------------------
# Log-factorials and Poisson tables, pinned to scipy.special (tests only)
# ---------------------------------------------------------------------------


def test_log_factorial_matches_gammaln():
    n = np.arange(2049)
    got = _log_factorial(2048)
    assert got.shape == n.shape
    # both are within 3 ulps of the exact value; largest gap seen: 5.0e-16
    np.testing.assert_allclose(got, scipy.special.gammaln(n + 1.0), rtol=1e-15, atol=0)
    assert got[0] == got[1] == 0.0
    for n_max in (0, 1, 5, 64, 65):
        np.testing.assert_array_equal(_log_factorial(n_max), got[: n_max + 1])


#: relative tolerance of the pmf against scipy's formula; largest seen: 4.5e-13
PMF_RTOL = 1e-12


@pytest.mark.parametrize("lam", [0.0, 1e-4, 1e-2, 0.3, 1.0, 2.5, 7.5, 20.0, 50.0, 100.0, 400.0])
def test_poisson_pmf_matches_scipy_formula(lam):
    n = np.arange(401)
    want = np.exp(scipy.special.xlogy(n, lam) - scipy.special.gammaln(n + 1) - lam)
    got = _poisson_pmf(400, lam)
    normal = want > 1e-290
    np.testing.assert_allclose(got[normal], want[normal], rtol=PMF_RTOL, atol=0)
    assert np.all(got[~normal] < 1e-280)
    if lam == 0:
        # xlogy's meaning at lam = 0: the point mass at n = 0
        np.testing.assert_array_equal(got, (n == 0).astype(float))


@pytest.mark.parametrize("lam", [1e-4, 0.3, 1.0, 7.5, 50.0, 400.0, 1000.0])
def test_poisson_survival_table_matches_pdtrc(lam):
    sf = _poisson_sf(lam)
    n = np.arange(len(sf))
    want = scipy.special.pdtrc(n, lam)
    normal = want > 1e-300
    # largest deviation seen over these cases: 3.8e-12, at lam = 1000
    np.testing.assert_allclose(sf[normal], want[normal], rtol=1e-11, atol=0)
    assert np.all(np.diff(sf) <= 0)
    # the table ends where the remaining mass is below double range
    assert sf[-1] == 0.0
    assert want[-1] < 1e-300


def _pdtrc_walk_cutoff(lam: float, tol: float) -> int:
    """The cutoff as computed before the survival table: a walk on scipy's pdtrc."""
    if lam <= 0 or tol >= 1:
        return 0
    n = int(lam + 10.0 * math.sqrt(lam) + 10.0)
    while scipy.special.pdtrc(n, lam) >= tol:
        n += 1
    while n > 0 and scipy.special.pdtrc(n - 1, lam) < tol:
        n -= 1
    return n


def test_tail_cutoff_matches_the_pdtrc_walk():
    # 100 x 60 = 6,000 (lam, tol) pairs; every one must agree exactly
    lams = np.geomspace(1e-4, 1e3, 100)
    tols = np.geomspace(1e-16, 0.999, 60)
    disagree = [
        (lam, tol)
        for lam in lams
        for tol in tols
        if _poisson_tail_cutoff(lam, tol) != _pdtrc_walk_cutoff(lam, tol)
    ]
    assert disagree == []
    assert _poisson_tail_cutoff(0.0, 1e-10) == 0
    assert _poisson_tail_cutoff(3.0, 1.0) == 0


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["alpha", "beta", "nbar", "k"])
def test_non_finite_coherent_thermal_inputs_name_the_field(field, bad):
    params = {"alpha": 0.5, "beta": 0.3, "nbar": 0.2, "k": 0.4, field: bad}
    match = f"{field} must be finite"
    with pytest.raises(ValueError, match=match):
        FockConfig.for_coherent_thermal(**params)
    with pytest.raises(ValueError, match=match):
        build_initial_state("coherent_thermal", **params)
    with pytest.raises(ValueError, match=match):
        build_initial_state("coherent_thermal", config=FockConfig(8, 8, 40), **params)


@pytest.mark.parametrize("bad", [complex(0.5, math.nan), complex(math.inf, 0.5)])
def test_non_finite_complex_amplitude_names_the_field(bad):
    with pytest.raises(ValueError, match="alpha must be finite"):
        FockConfig.for_coherent_thermal(bad, 0.3, 0.2, 0.4)
    with pytest.raises(ValueError, match="beta must be finite"):
        build_initial_state("coherent_thermal", alpha=0.5, beta=bad, nbar=0.2, k=0.4)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_qubit_coupling_names_the_field(bad):
    with pytest.raises(ValueError, match="k must be finite"):
        FockConfig.for_qubit(bad)
    with pytest.raises(ValueError, match="k must be finite"):
        build_initial_state("qubit", k=bad)
    with pytest.raises(ValueError, match="k must be finite"):
        build_initial_state("qubit", k=bad, config=FockConfig(1, 1, 8))


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
    state = TriModeState(np.array([1.0]), psi[None], cfg)
    for t in (0.9, math.pi, 4.0):
        evolved = apply_evolution(state, t, 0.6, 0.0, 0.0)
        m = moments(evolved)["AC"]
        assert m.mean2 == pytest.approx(0.6 * complex(eta(t)), abs=1e-10)
        assert m.occ2 == pytest.approx(0.36 * abs(eta(t)) ** 2, abs=1e-10)


def test_eigenstate_is_stationary():
    k, r_a, r_b = 0.5, 1.3, 0.8
    cfg = FockConfig(n_max_a=2, n_max_b=2, n_max_c=40)
    n0, m0 = 1, 0
    delta = n0 - m0
    psi = np.zeros((3, 3, 41), dtype=complex)
    psi[n0, m0, :] = displacement_matrix(k * delta, 40)[:, 2]  # l = 2
    state = TriModeState(np.array([1.0]), psi[None], cfg)
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
        results.append([duan_from_moments(m) for m in moments(evolved).values()])
    for a, b in zip(*results):
        assert abs(a - b) < 1e-8


# Per-member reference: the loop over ensemble members that the
# whole-ensemble oracle replaced, kept verbatim as the scalar path.


def _ref_lower(psi, axis):
    p = np.moveaxis(psi, axis, 0)
    out = np.zeros_like(p)
    dim = p.shape[0]
    weights = np.sqrt(np.arange(1, dim, dtype=float)).reshape((-1,) + (1,) * (p.ndim - 1))
    out[:-1] = p[1:] * weights
    return np.moveaxis(out, 0, axis)


def _ref_trace(state):
    return float(sum(w * float(np.vdot(v, v).real) for w, v in zip(state.weights, state.vectors)))


def _ref_partial_trace(state, keep):
    axes = {"A": 0, "B": 1, "C": 2}
    kept = "".join(sorted(set(keep)))
    traced = [axis for mode, axis in axes.items() if mode not in kept]
    kept_axes = [axes[mode] for mode in kept]
    dim_keep = int(np.prod([state.shape[axis] for axis in kept_axes]))
    rho = np.zeros((dim_keep, dim_keep), dtype=complex)
    for w, psi in zip(state.weights, state.vectors):
        if traced:
            block = np.tensordot(psi, psi.conj(), axes=(traced, traced))
        else:
            block = np.multiply.outer(psi, psi.conj())
            block = np.transpose(block, kept_axes + [axis + 3 for axis in kept_axes])
        rho += w * block.reshape(dim_keep, dim_keep)
    return rho


def _ref_moments(state, pair):
    ax1, ax2 = ("ABC".index(mode) for mode in pair)
    mean1 = mean2 = corr = 0.0 + 0.0j
    occ1 = occ2 = 0.0
    for w, psi in zip(state.weights, state.vectors):
        low1 = _ref_lower(psi, ax1)
        low2 = _ref_lower(psi, ax2)
        mean1 += w * np.vdot(psi, low1)
        mean2 += w * np.vdot(psi, low2)
        occ1 += w * float(np.vdot(low1, low1).real)
        occ2 += w * float(np.vdot(low2, low2).real)
        corr += w * np.vdot(psi, _ref_lower(low1, ax2))
    return (mean1, mean2, occ1, occ2, corr)


def _ref_hamiltonian_expectation(state, k, r_a, r_b):
    na1, nb1, nc1 = state.shape
    n = np.arange(na1, dtype=float)
    m = np.arange(nb1, dtype=float)
    l = np.arange(nc1, dtype=float)
    delta = n[:, None, None] - m[None, :, None]
    total = 0.0
    for w, psi in zip(state.weights, state.vectors):
        prob = np.abs(psi) ** 2
        occ = (
            r_a * float((prob.sum(axis=(1, 2)) * n).sum())
            + r_b * float((prob.sum(axis=(0, 2)) * m).sum())
            + float((prob.sum(axis=(0, 1)) * l).sum())
        )
        cross = np.vdot(psi, delta * _ref_lower(psi, 2))
        total += w * (occ - 2.0 * k * float(cross.real))
    return total


# every whole-ensemble quantity matches the per-member loop to this
# relative tolerance, taken against the largest magnitude in the compared
# matrix or record
_PIN_RTOL = 1e-13
_PIN_K, _PIN_RA, _PIN_RB = 0.5, 1.3, 0.4


@pytest.fixture(scope="module")
def pinned():
    mixed = build_initial_state(
        "coherent_thermal", alpha=0.5, beta=0.3, nbar=0.3, k=_PIN_K,
        config=FockConfig(n_max_a=4, n_max_b=4, n_max_c=30, tolerance=1e-5),
    )
    single = build_initial_state("qubit", k=_PIN_K)
    return {
        name: apply_evolution(state, 2.1, _PIN_K, _PIN_RA, _PIN_RB)
        for name, state in (("mixed", mixed), ("single", single))
    }


def _assert_pinned(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= _PIN_RTOL * np.abs(want).max()


def test_pinned_states_are_what_the_cases_claim(pinned):
    mixed, single = pinned["mixed"], pinned["single"]
    assert mixed.vectors.ndim == 4 and mixed.vectors.shape[0] >= 5
    assert mixed.vectors.shape[0] == len(mixed.weights)
    assert mixed.shape == mixed.vectors.shape[1:]
    assert single.vectors.shape[0] == 1


@pytest.mark.parametrize("name", ["mixed", "single"])
def test_trace_and_energy_match_per_member_loop(pinned, name):
    state = pinned[name]
    _assert_pinned(state.trace(), _ref_trace(state))
    _assert_pinned(
        hamiltonian_expectation(state, _PIN_K, _PIN_RA, _PIN_RB),
        _ref_hamiltonian_expectation(state, _PIN_K, _PIN_RA, _PIN_RB),
    )


@pytest.mark.parametrize("name", ["mixed", "single"])
@pytest.mark.parametrize("keep", ["AB", "AC", "BC", "C", "ABC"])
def test_partial_trace_matches_per_member_loop(pinned, name, keep):
    state = pinned[name]
    _assert_pinned(partial_trace(state, keep), _ref_partial_trace(state, keep))


@pytest.fixture(scope="module")
def pinned_moments(pinned):
    # one all-pairs call per state serves the three pair cases
    return {name: moments(state) for name, state in pinned.items()}


@pytest.mark.parametrize("name", ["mixed", "single"])
@pytest.mark.parametrize("pair", ["AB", "AC", "BC"])
def test_moments_match_per_member_loop(pinned, pinned_moments, name, pair):
    state = pinned[name]
    assert list(pinned_moments[name]) == ["AB", "AC", "BC"]
    m = pinned_moments[name][pair]
    # one record: the single-member <c> vanishes exactly, so only the
    # record's own scale makes a relative tolerance meaningful
    _assert_pinned([m.mean1, m.mean2, m.occ1, m.occ2, m.corr], _ref_moments(state, pair))


def _peak_bytes(fn, *args):
    """Largest traced allocation, in bytes, while fn runs (its result included)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ensemble_operations_stay_within_memory_bound():
    # the largest ensemble of the default certification: the truncation-
    # doubling state, 13 members of 17 x 17 x 303 amplitudes
    alpha, beta, nbar, k, r_a, r_b = 0.5, 0.5, 0.2, 0.5, 1.5, 0.7
    cfg = FockConfig.for_coherent_thermal(alpha, beta, nbar, k, 1e-9).doubled()
    state = build_initial_state(
        "coherent_thermal", alpha=alpha, beta=beta, nbar=nbar, k=k, config=cfg
    )
    evolved = apply_evolution(state, 2.0, k, r_a, r_b)
    ensemble_bytes = len(evolved.weights) * math.prod(evolved.shape) * 16
    bound = 2.5 * ensemble_bytes
    peaks = {
        "apply_evolution": _peak_bytes(apply_evolution, state, 2.0, k, r_a, r_b),
        "hamiltonian_expectation": _peak_bytes(hamiltonian_expectation, evolved, k, r_a, r_b),
    }
    peaks["moments"] = _peak_bytes(moments, evolved)
    for keep in ("C", "AB"):
        peaks[f"partial_trace {keep}"] = _peak_bytes(partial_trace, evolved, keep)
    over = {name: peak / ensemble_bytes for name, peak in peaks.items() if peak > bound}
    assert not over, f"peak over 2.5x the ensemble's bytes: {over}"


def test_partial_trace_rejects_oversized_reduced_matrix():
    # keep AC of the doubled certification ensemble, 13 members of
    # 17 x 17 x 303 amplitudes, would be a 5151 x 5151 matrix (424 MB)
    cfg = FockConfig.for_coherent_thermal(0.5, 0.5, 0.2, 0.5, 1e-9).doubled()
    state = build_initial_state(
        "coherent_thermal", alpha=0.5, beta=0.5, nbar=0.2, k=0.5, config=cfg
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="keep AC: reduced dimension 5151 exceeds 4096"):
            partial_trace(state, "AC")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
