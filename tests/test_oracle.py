"""Checks for the brute-force Fock-basis reference implementation.

The displacement matrix is validated against scipy's dense matrix
exponential, against the closed-form action on coherent states and, column
by column, against the eval_genlaguerre closed form, so the rest of the
suite can lean on it as an independent oracle.
"""

import ast
import contextlib
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

import optomech.oracle
from optomech import certify
from optomech.cli import _execute, resolve_config
from optomech.core import big_b, energy_eigenvalue_scaled, eta, xi
from optomech.duan import duan_from_moments
from optomech.oracle import (
    FockConfig,
    TriModeState,
    _displacement_blocks,
    _log_factorial,
    _poisson_pmf,
    _poisson_sf,
    _poisson_tail_cutoff,
    _trace_and_energy,
    apply_evolution,
    coherent_thermal_state,
    displacement_matrix,
    moments,
    partial_trace,
    qubit_state,
)


def _thermal_state(alpha, beta, nbar, k):
    """The coherent-thermal input in the Fock space that its inputs size."""
    return coherent_thermal_state(
        alpha, beta, nbar, FockConfig.for_coherent_thermal(alpha, beta, nbar, k)
    )


def _package_imports(module) -> set:
    """(source, name) of every import of the package in module's source file."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            imported |= {(source, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
    return {(m, name) for m, name in imported if m.startswith(".") or m.split(".")[0] == "optomech"}


def test_oracle_borrows_no_closed_form():
    # the oracle certifies the analytic modules, so of the package it may
    # import the time kernels alone: nothing of duan, qubit, certify, design or cli
    assert _package_imports(optomech.oracle) == {(".core", "big_b"), (".core", "xi")}


@pytest.mark.parametrize("name", ["core", "qubit", "duan", "design"])
def test_analytic_modules_import_nothing_of_the_oracle(name):
    # the analytic route never leans on what certifies it, nor on the front end
    for source, imported in _package_imports(importlib.import_module(f"optomech.{name}")):
        modules = set(source.lstrip(".").split("."))
        if source in (".", "optomech"):  # from . import oracle
            modules.add(imported)
        assert not modules & {"oracle", "certify", "cli"}, (name, source, imported)


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
            got = _displacement_blocks((beta,), dim, n_cols)[0]
            assert got.shape == (dim, n_cols)
            atol = _COLUMNS_ATOL if n_cols <= 64 else _FULL_WIDTH_ATOL
            assert np.abs(got - ref[:, :n_cols]).max() <= atol, (beta, n_cols)
        # the full matrix is the same builder at full width
        np.testing.assert_array_equal(
            displacement_matrix(beta, dim - 1), _displacement_blocks((beta,), dim, dim)[0]
        )


def test_displacement_columns_at_zero_are_the_identity():
    np.testing.assert_array_equal(_displacement_blocks((0.0,), 9, 4)[0], np.eye(9, 4))
    # |beta|**2 underflows to 0, and the log-space start still gives D ~ 1
    tiny = _displacement_blocks((1e-300,), 9, 9)[0]
    np.testing.assert_allclose(tiny, np.eye(9), rtol=0, atol=1e-299)


def _per_beta_columns(beta, dim, n_cols):
    """The one-beta recurrence that `_displacement_blocks` replaced, kept verbatim."""
    beta = complex(beta)
    if beta == 0:
        return np.eye(dim, n_cols, dtype=complex)
    x = abs(beta) ** 2
    order = np.arange(dim)
    table = np.empty((n_cols, dim))
    table[0] = np.exp(order * math.log(abs(beta)) - 0.5 * (x + _log_factorial(dim - 1)))
    if n_cols > 1:
        table[1] = (1.0 + order - x) / np.sqrt(1.0 + order) * table[0]
    for n in range(1, n_cols - 1):
        table[n + 1] = (
            (2 * n + 1 + order - x) * table[n] - np.sqrt(n * (n + order)) * table[n - 1]
        ) / np.sqrt((n + 1) * (n + 1 + order))
    row = order[:, None]
    col = np.arange(n_cols)[None, :]
    diff = np.abs(row - col)
    unit = beta / abs(beta)
    phase = np.where(row >= col, (unit ** order)[diff], ((-np.conj(unit)) ** order)[diff])
    return phase * table[np.minimum(row, col), diff]


@pytest.mark.parametrize(
    "dim, n_cols, n_betas",
    [(292, 17, 17), (303, 13, 32), (152, 13, 16), (41, 41, 2), (351, 12, 20), (81, 81, 4), (9, 1, 3)],
)
def test_displacement_blocks_are_bitwise_the_per_beta_builds(dim, n_cols, n_betas):
    # the evolution's betas k d xi(t) for d = 1..n_betas, one of them 0
    k_xi = 0.6 * complex(xi(2.3))
    betas = [k_xi * d for d in range(1, n_betas + 1)] + [0.0]
    blocks = _displacement_blocks(betas, dim, n_cols)
    assert blocks.shape == (len(betas), dim, n_cols)
    for beta, block in zip(betas, blocks):
        want = _per_beta_columns(beta, dim, n_cols).tobytes()
        assert block.tobytes() == want
        assert _displacement_blocks((beta,), dim, n_cols)[0].tobytes() == want


def test_displacement_matrix_keeps_nothing_after_it_returns():
    # a 400-level build leaves its 2.56 MB result allocated and no table
    # of the recurrence or its gathers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = displacement_matrix(0.7 - 0.4j, 399)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept - matrix.nbytes < 2**16


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
    return TriModeState.from_vectors(np.array([1.0]), psi, cfg)


def _stationary_state():
    # a displaced Fock state: every mechanical level is occupied
    cfg = FockConfig(n_max_a=2, n_max_b=2, n_max_c=40)
    psi = np.zeros((1, 3, 3, 41), dtype=complex)
    psi[0, 1, 0, :] = displacement_matrix(0.5, 40)[:, 2]
    return TriModeState.from_vectors(np.array([1.0]), psi, cfg)


_EDGE_STATES = {
    # (state, k, columns the evolution must build)
    "qubit": (lambda: qubit_state(FockConfig.for_qubit(0.5)), 0.5, 1),
    "thermal": (
        lambda: _thermal_state(0.4, 0.3, 0.3, 0.5),
        0.5,
        None,
    ),
    "top_level": (_top_level_state, 0.6, 31),
    "full_support": (_stationary_state, 0.5, 41),
    "k_zero": (
        lambda: _thermal_state(0.5, 0.3, 0.3, 0.0),
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

    def recording(betas, dim, n_cols):
        built.append(n_cols)
        return blocks(betas, dim, n_cols)

    blocks = optomech.oracle._displacement_blocks
    monkeypatch.setattr(optomech.oracle, "_displacement_blocks", recording)
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


def test_qubit_state_construction():
    state = qubit_state(FockConfig.for_qubit(0.5))
    assert len(state.vectors) == 1
    psi = state.vectors[0]
    assert psi[0, 0, 0] == 0.5
    assert psi[1, 1, 0] == 0.5
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-14


def test_coherent_thermal_state_construction():
    state = _thermal_state(0.6, -0.3, 0.25, 0.0)
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
    with pytest.raises(ValueError, match=r"^coherent tail mass .* beyond n_max_a=1 exceeds"):
        coherent_thermal_state(2.5, 0.0, 0.0, cfg)
    with pytest.raises(ValueError, match=r"^coherent tail mass .* beyond n_max_b=1 exceeds"):
        coherent_thermal_state(0.0, 2.5, 0.0, cfg)


def test_thermal_tail_invariant_rejects_small_cutoff():
    cfg = FockConfig(n_max_a=3, n_max_b=3, n_max_c=2)
    with pytest.raises(
        ValueError, match=r"^thermal tail needs mechanical cutoff \d+, config has n_max_c=2$"
    ):
        coherent_thermal_state(0.0, 0.0, 0.8, cfg)


def test_coherent_thermal_state_rejects_negative_occupation():
    with pytest.raises(ValueError, match="^nbar must be non-negative"):
        coherent_thermal_state(0.5, 0.3, -0.1, FockConfig(8, 8, 40))


@pytest.mark.parametrize(
    "weights, shape",
    [
        ([1.0], (2, 3, 3, 9)),  # one member too many
        ([0.5, 0.5], (1, 3, 3, 9)),  # one member too few
        ([1.0], (1, 3, 3, 8)),  # the mechanical cutoff disagrees with the config's
        ([1.0], (3, 3, 9)),  # no member axis
    ],
)
def test_from_vectors_refuses_a_shape_that_disagrees(weights, shape):
    cfg = FockConfig(n_max_a=2, n_max_b=2, n_max_c=8)
    with pytest.raises(ValueError, match=r"^vectors must have shape \(\d+, 3, 3, 9\)"):
        TriModeState.from_vectors(np.array(weights), np.zeros(shape, dtype=complex), cfg)


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
    match = f"^{field} must be finite"
    with pytest.raises(ValueError, match=match):
        FockConfig.for_coherent_thermal(**params)
    if field != "k":
        # k only sizes the config, so the builder never sees it
        del params["k"]
        with pytest.raises(ValueError, match=match):
            coherent_thermal_state(**params, config=FockConfig(8, 8, 40))


@pytest.mark.parametrize("bad", [complex(0.5, math.nan), complex(math.inf, 0.5)])
def test_non_finite_complex_amplitude_names_the_field(bad):
    with pytest.raises(ValueError, match="^alpha must be finite"):
        FockConfig.for_coherent_thermal(bad, 0.3, 0.2, 0.4)
    with pytest.raises(ValueError, match="^beta must be finite"):
        coherent_thermal_state(0.5, bad, 0.2, FockConfig(8, 8, 40))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_qubit_coupling_names_the_field(bad):
    with pytest.raises(ValueError, match="^k must be finite"):
        FockConfig.for_qubit(bad)


def test_evolution_preserves_norm_and_energy():
    state = _thermal_state(0.7, 0.4, 0.3, 0.6)
    _, e0 = _trace_and_energy(state, 0.6, 1.3, 0.8)
    for t in (0.7, 2.0, 5.5, 11.0):
        evolved = apply_evolution(state, t, 0.6, 1.3, 0.8)
        for psi in evolved.vectors:
            assert abs(np.vdot(psi, psi) - 1.0) < 1e-10
        _, e_t = _trace_and_energy(evolved, 0.6, 1.3, 0.8)
        assert abs(e_t - e0) < 1e-8 * max(1.0, abs(e0))


def test_k_zero_evolution_is_phase_only():
    state = _thermal_state(0.5, 0.2, 0.0, 0.0)
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
    state = TriModeState.from_vectors(np.array([1.0]), psi[None], cfg)
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
    state = TriModeState.from_vectors(np.array([1.0]), psi[None], cfg)
    t = 2.6
    evolved = apply_evolution(state, t, k, r_a, r_b)
    energy = energy_eigenvalue_scaled(n0, m0, 2, k, r_a, r_b)
    np.testing.assert_allclose(evolved.vectors[0], np.exp(-1j * energy * t) * psi, atol=1e-8)


def test_interaction_picture_strips_mechanical_rotation():
    state = _thermal_state(0.4, 0.3, 0.0, 0.5)
    t = 1.3
    lab = apply_evolution(state, t, 0.5, 0.0, 0.0)
    rot = apply_evolution(state, t, 0.5, 0.0, 0.0, interaction_picture=True)
    # the two pictures differ by e^{-i t n_c} on the mechanical index
    nc = state.config.n_max_c + 1
    phases = np.exp(-1j * t * np.arange(nc))
    np.testing.assert_allclose(lab.vectors[0], rot.vectors[0] * phases[None, None, :], atol=1e-12)


@pytest.mark.parametrize("cell, k", [((0.5, 0.3, 0.2), 0.5), ((0.7, 0.4, 0.3), 0.6)])
def test_chained_evolutions_compose(cell, k):
    # an evolved state may occupy every mechanical level, so the second
    # evolution takes the full width; largest deviations seen: 5.1e-15 on
    # the members, 1.6e-15 on the moments
    t1, t2, r_a, r_b = 0.9, 1.7, 1.3, 0.8
    state = coherent_thermal_state(*cell, FockConfig.for_coherent_thermal(*cell, k, 1e-12))
    once = apply_evolution(state, t1 + t2, k, r_a, r_b)
    twice = apply_evolution(apply_evolution(state, t1, k, r_a, r_b), t2, k, r_a, r_b)
    assert twice.n_cols == state.shape[2] > state.n_cols
    assert np.abs(twice.vectors - once.vectors).max() <= 1e-12
    want, got = moments(once), moments(twice)
    for pair, m in want.items():
        fields = ("mean1", "mean2", "occ1", "occ2", "corr")
        assert max(abs(getattr(got[pair], f) - getattr(m, f)) for f in fields) <= 1e-12


def test_partial_trace_properties():
    state = _thermal_state(0.5, 0.3, 0.2, 0.5)
    evolved = apply_evolution(state, 2.1, 0.5, 1.1, 0.9)
    for keep in ("AB", "AC", "BC", "C"):
        rho = partial_trace(evolved, keep)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_partial_trace_of_initial_qubit_state():
    state = qubit_state(FockConfig.for_qubit(0.5))
    rho_c = partial_trace(state, "C")
    assert rho_c[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(rho_c[1:, 1:]).max() < 1e-14


def test_partial_trace_rejects_unknown_subsystem():
    state = qubit_state(FockConfig.for_qubit(0.5))
    with pytest.raises(ValueError):
        partial_trace(state, "AD")


def test_truncation_doubling_is_stable():
    alpha, beta, nbar, k = 0.5, 0.5, 0.2, 0.5
    # the tail budget bounds dropped probability mass, not moments, so the
    # base run is sized at 1e-9 to back a 1e-8 claim on derived quantities
    base = FockConfig.for_coherent_thermal(alpha, beta, nbar, k, 1e-9)
    results = []
    for cfg in (base, base.doubled()):
        evolved = apply_evolution(coherent_thermal_state(alpha, beta, nbar, cfg), 2.4, k, 1.5, 0.7)
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
    mixed = coherent_thermal_state(
        0.5, 0.3, 0.3, FockConfig(n_max_a=4, n_max_b=4, n_max_c=30, tolerance=1e-5)
    )
    single = qubit_state(FockConfig.for_qubit(_PIN_K))
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
    trace, energy = _trace_and_energy(state, _PIN_K, _PIN_RA, _PIN_RB)
    _assert_pinned(trace, _ref_trace(state))
    _assert_pinned(energy, _ref_hamiltonian_expectation(state, _PIN_K, _PIN_RA, _PIN_RB))


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


# The whole-ensemble products that the one-member-at-a-time pass replaced,
# kept verbatim: the pass must reproduce them bit for bit.


def _whole_ensemble_numbers(state):
    prob = np.abs(state.vectors)
    prob *= prob
    prob = np.tensordot(state.weights, prob, axes=1)
    return [
        float(prob.sum(axis=tuple(other for other in range(3) if other != axis)) @ np.arange(dim))
        for axis, dim in enumerate(prob.shape)
    ]


def _whole_ensemble_ladder(state, axes, coeff=None):
    psi = state.vectors
    lo = [slice(None)] * psi.ndim
    hi = [slice(None)] * psi.ndim
    factor = state.weights[:, None, None, None]
    for axis in axes:
        lo[axis + 1] = slice(None, -1)
        hi[axis + 1] = slice(1, None)
        sqrt_n = np.sqrt(np.arange(1, psi.shape[axis + 1], dtype=float))
        factor = factor * np.expand_dims(sqrt_n, [d for d in range(psi.ndim) if d != axis + 1])
    ket = psi[tuple(hi)] * factor
    if coeff is not None:
        ket *= coeff
    return complex(np.vecdot(psi[tuple(lo)], ket).sum())


def _doubled_certification_state():
    """The truncation-doubling check's fine ensemble, 13 members of 17 x 17 x 303."""
    alpha, beta, nbar, k = 0.5, 0.5, 0.2, 0.5
    cfg = FockConfig.for_coherent_thermal(alpha, beta, nbar, k, 1e-9).doubled()
    state = coherent_thermal_state(alpha, beta, nbar, cfg)
    return apply_evolution(state, 2.0, k, 1.5, 0.7)


@pytest.mark.parametrize("name", ["mixed", "single", "doubled"])
def test_expectations_are_bitwise_the_whole_ensemble_products(pinned, name):
    state = _doubled_certification_state() if name == "doubled" else pinned[name]
    na1, nb1, _ = state.shape
    delta = np.arange(na1)[:, None, None] - np.arange(nb1)[None, :, None]
    # trace, <a>, <b>, <c>, AB, AC, BC, and the energy's <(n_a - n_b) c>
    axes = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    forms = [(ax, None) for ax in axes] + [((2,), delta)]
    want = [_whole_ensemble_ladder(state, ax, coeff) for ax, coeff in forms]
    occ = _whole_ensemble_numbers(state)
    assert optomech.oracle._expectations(state, forms) == (want, occ)
    mean, corr, cross = want[1:4], want[4:7], want[7]
    got = moments(state)
    for (pair, (i, j)), c in zip((("AB", (0, 1)), ("AC", (0, 2)), ("BC", (1, 2))), corr):
        m = got[pair]
        assert (m.mean1, m.mean2, m.occ1, m.occ2, m.corr) == (mean[i], mean[j], occ[i], occ[j], c)
    assert _trace_and_energy(state, _PIN_K, _PIN_RA, _PIN_RB) == (
        want[0].real, _PIN_RA * occ[0] + _PIN_RB * occ[1] + occ[2] - 2.0 * _PIN_K * cross.real
    )


def _wide_evolution(state, t, k, r_a, r_b):
    """Every member of `apply_evolution(state, ...)`, each branch through the parent's n_cols columns.

    The builder every state used before a state could say that each member
    occupies one mechanical level.
    """
    na1, nb1, nc1 = state.shape
    n_cols = state.n_cols
    n = np.arange(na1)[:, None]
    m = np.arange(nb1)[None, :]
    delta = n - m
    phase = np.exp(-1j * float(big_b(t, k)) * delta.astype(float) ** 2)
    phase = phase * np.exp(-1j * t * (r_a * n + r_b * m))
    chunk = state.vectors
    chunk *= phase[:, :, None]
    xi_t = complex(xi(t))
    if k != 0.0 and xi_t != 0.0:
        l = np.arange(nc1)
        sign = (-1.0) ** (l[None, :] - l[:n_cols, None])
        betas = [k * d * xi_t for d in range(1, int(np.abs(delta).max()) + 1)]
        for d, block in enumerate(_displacement_blocks(betas, nc1, n_cols), 1):
            for dd, block_dd in ((d, block.T), (-d, block.T * sign)):
                mask = delta == dd
                if mask.any():
                    chunk[:, mask, :] = chunk[:, mask, :n_cols] @ block_dd
    chunk *= np.exp(-1j * t * np.arange(nc1))
    return chunk


def _certification_evolutions(monkeypatch, check, seed):
    """(initial state, t, k, r_a, r_b) of every evolution that check witnesses at seed."""
    return [
        (coherent_thermal_state(cell["alpha"], cell["beta"], cell["nbar"], config), t, cell["k"], r_a, r_b)
        for (t, r_a, r_b, config), cell, _ in _oracle_duan_calls(monkeypatch, check, seed)
    ]


_CONSERVATION_CELL = (0.7, 0.4, 0.3)


@pytest.mark.parametrize("t", [0.3, 1.7, 5.2, 11.0])
def test_one_level_evolution_is_bitwise_the_wide_build_on_the_conservation_ensemble(t):
    # 17 members of 11 x 8 x 292 amplitudes; the wide build rounds the
    # one-row branches (0, 7) and (10, 0) differently, so there the two
    # agree to rounding, and everywhere else bit for bit
    k, r_a, r_b = 0.6, 1.3, 0.8
    state = coherent_thermal_state(*_CONSERVATION_CELL, FockConfig.for_coherent_thermal(*_CONSERVATION_CELL, k))
    assert state.one_level and state.n_cols == len(state.weights) == 17
    got = apply_evolution(state, t, k, r_a, r_b)
    members, want = got.vectors, _wide_evolution(state, t, k, r_a, r_b)
    na1, nb1, _ = state.shape
    delta = np.subtract.outer(np.arange(na1), np.arange(nb1))
    one_row = np.isin(delta, [d for d in np.unique(delta) if np.count_nonzero(delta == d) == 1])
    assert np.array_equal(np.argwhere(one_row), [[0, nb1 - 1], [na1 - 1, 0]])
    assert members[:, ~one_row].tobytes() == want[:, ~one_row].tobytes()
    slack = 4 * np.finfo(float).eps * np.abs(want[:, one_row]) + 1e-300
    assert (np.abs(members[:, one_row] - want[:, one_row]) <= slack).all()
    wide = TriModeState.from_vectors(state.weights, want, state.config)
    assert repr(moments(got)) == repr(moments(wide))


@pytest.mark.parametrize(
    "check, calls",
    [(certify._check_k_zero, 2), (certify._check_truncation_doubling, 2), (certify._check_cv, 4)],
    ids=["k-zero", "truncation-doubling", "cv"],
)
def test_one_level_evolution_keeps_the_wide_build_where_the_witness_reads_it(monkeypatch, check, calls):
    # at seed 1234: two k = 0 cells, the coarse (13 x 9 x 9 x 152) and the
    # doubled (13 x 17 x 17 x 303) doubling ensemble, and four CV draws
    evolutions = _certification_evolutions(monkeypatch, check, 1234)
    assert len(evolutions) == calls
    for state, t, k, r_a, r_b in evolutions:
        got = apply_evolution(state, t, k, r_a, r_b)
        want = _wide_evolution(state, t, k, r_a, r_b)
        members = got.vectors
        nc1 = state.shape[2]
        if k == 0.0 or nc1 % 4 == 0:
            assert members.tobytes() == want.tobytes()
        else:
            # OpenBLAS builds the last nc1 % 4 columns of the wide product with
            # another kernel, whose rounding the one-column product does not
            # share: those levels differ by rounding, the others only in the
            # sign of some zeros
            edge = nc1 - nc1 % 4
            assert np.array_equal(members[..., :edge], want[..., :edge])
            slack = 4 * np.finfo(float).eps * np.abs(want[..., edge:]) + 1e-300
            assert (np.abs(members[..., edge:] - want[..., edge:]) <= slack).all()
        wide = TriModeState.from_vectors(state.weights, want, state.config)
        assert repr(moments(got)) == repr(moments(wide))


def test_only_a_coherent_thermal_state_is_on_one_level():
    cell, k = (0.5, 0.3, 0.2), 0.5
    state = coherent_thermal_state(*cell, FockConfig.for_coherent_thermal(*cell, k, 1e-12))
    evolved = apply_evolution(state, 0.9, k, 1.3, 0.8)
    assert state.one_level
    assert not evolved.one_level
    assert not apply_evolution(evolved, 1.7, k, 1.3, 0.8).one_level
    assert not TriModeState.from_vectors(state.weights, state.vectors, state.config).one_level
    assert not qubit_state(FockConfig.for_qubit(k)).one_level


def _chunked_members(state):
    """The bytes of a state's members, chunk after chunk, each chunk at its first member."""
    members = []
    for first, chunk in state._member_chunks():
        assert first == len(members)
        members.extend(chunk)
    return np.array(members).tobytes()


def _whole_ensemble_moments(state):
    """`moments` of the state from the whole-ensemble products."""
    mean = [_whole_ensemble_ladder(state, (axis,)) for axis in range(3)]
    occ = _whole_ensemble_numbers(state)
    return {
        pair: optomech.oracle.ModePairMoments(
            mean[i], mean[j], occ[i], occ[j], _whole_ensemble_ladder(state, (i, j))
        )
        for pair, (i, j) in (("AB", (0, 1)), ("AC", (0, 2)), ("BC", (1, 2)))
    }


def _oracle_duan_calls(monkeypatch, check, seed):
    """(arguments, result) of every `_oracle_duan` call that check makes at seed."""
    calls = []
    oracle_duan = certify._oracle_duan

    def spy(*args, **cell):
        result = oracle_duan(*args, **cell)
        calls.append((args, cell, result))
        return result

    monkeypatch.setattr(certify, "_oracle_duan", spy)
    check(np.random.default_rng(seed))
    return calls


@pytest.mark.parametrize(
    "check, seed",
    [
        (certify._check_cv, 1234),
        (certify._check_cv, 86),
        (certify._check_cv, 95),
        (certify._check_k_zero, 1234),
        (certify._check_truncation_doubling, 1234),
    ],
)
def test_streamed_witness_is_bitwise_the_evolved_state(monkeypatch, check, seed):
    # the coarse and the doubled ensemble, the CV draws and two k = 0 cells
    calls = _oracle_duan_calls(monkeypatch, check, seed)
    assert calls
    for (t, r_a, r_b, config), cell, witness in calls:
        initial = coherent_thermal_state(cell["alpha"], cell["beta"], cell["nbar"], config)
        evolved = apply_evolution(initial, t, cell["k"], r_a, r_b)
        assert _chunked_members(evolved) == evolved.vectors.tobytes()
        want = _whole_ensemble_moments(evolved)
        assert repr(moments(evolved)) == repr(want)
        assert repr(witness) == repr({pair: duan_from_moments(m) for pair, m in want.items()})


@pytest.mark.parametrize("t", [None, 0.0, 1.7, 9.4])
def test_fused_conservation_pass_is_bitwise_trace_and_energy(t):
    # the conservation check's cell; None is the initial state, t = 0 evolves it by the identity
    cell, k, r_a, r_b = (0.7, 0.4, 0.3), 0.6, 1.3, 0.8
    state = coherent_thermal_state(*cell, FockConfig.for_coherent_thermal(*cell, k))
    if t is not None:
        state = apply_evolution(state, t, k, r_a, r_b)
    # a chunk holds several members, and several chunks make the ensemble
    assert 1 < optomech.oracle._CHUNK_BYTES // (16 * math.prod(state.shape)) < len(state.weights)
    assert _chunked_members(state) == state.vectors.tobytes()
    na1, nb1, _ = state.shape
    delta = np.arange(na1)[:, None, None] - np.arange(nb1)[None, :, None]
    occ = _whole_ensemble_numbers(state)
    cross = _whole_ensemble_ladder(state, (2,), delta)
    want = (
        _whole_ensemble_ladder(state, ()).real,
        r_a * occ[0] + r_b * occ[1] + occ[2] - 2.0 * k * cross.real,
    )
    assert repr(optomech.oracle._trace_and_energy(state, k, r_a, r_b)) == repr(want)


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
    state = coherent_thermal_state(alpha, beta, nbar, cfg)
    evolved = apply_evolution(state, 2.0, k, r_a, r_b)
    member_bytes = math.prod(evolved.shape) * 16
    ensemble_bytes = len(evolved.weights) * member_bytes
    # apply_evolution holds no member: it keeps a displacement block of
    # state.n_cols columns for each sign of each delta (2.0 MB here) and
    # builds them with at most one member's worth of temporaries; measured
    # 0.68x that bound
    na1, nb1, nc1 = evolved.shape
    blocks_bytes = 2 * (max(na1, nb1) - 1) * nc1 * state.n_cols * 16
    assert _peak_bytes(apply_evolution, state, 2.0, k, r_a, r_b) <= blocks_bytes + member_bytes
    bound = 2.5 * ensemble_bytes
    peaks = {"_trace_and_energy": _peak_bytes(_trace_and_energy, evolved, k, r_a, r_b)}
    peaks["moments"] = _peak_bytes(moments, evolved)
    for keep in ("C", "AB"):
        peaks[f"partial_trace {keep}"] = _peak_bytes(partial_trace, evolved, keep)
    over = {name: peak / ensemble_bytes for name, peak in peaks.items() if peak > bound}
    assert not over, f"peak over 2.5x the ensemble's bytes: {over}"


def test_truncation_doubling_check_memory():
    # the check's fine ensemble is the largest of the default certification.
    # The checks build it a member chunk at a time, so they hold the real
    # |psi|**2 table (half the ensemble's bytes), the displacement blocks,
    # one chunk and one member's temporaries; measured: 0.84x for the
    # doubling check and 0.42x for conservation, whose own ensemble is 0.38x
    evolved = _doubled_certification_state()
    ensemble_bytes = len(evolved.weights) * math.prod(evolved.shape) * 16
    peaks = {
        "_check_truncation_doubling": _peak_bytes(
            certify._check_truncation_doubling, np.random.default_rng(1234)
        ),
        "_check_conservation": _peak_bytes(certify._check_conservation, np.random.default_rng(1234)),
        "moments": _peak_bytes(moments, evolved),
        "_trace_and_energy": _peak_bytes(_trace_and_energy, evolved, 0.5, 1.5, 0.7),
    }
    bounds = {
        "_check_truncation_doubling": 0.9,
        "_check_conservation": 0.5,
        "moments": 0.8,
        "_trace_and_energy": 0.8,
    }
    ratios = {name: peak / ensemble_bytes for name, peak in peaks.items()}
    over = {name: ratio for name, ratio in ratios.items() if ratio > bounds[name]}
    assert not over, f"peaks over their bound, in units of the ensemble's bytes: {over}"


def test_partial_trace_rejects_oversized_reduced_matrix():
    # keep AC of the doubled certification ensemble, 13 members of
    # 17 x 17 x 303 amplitudes, would be a 5151 x 5151 matrix (424 MB)
    cfg = FockConfig.for_coherent_thermal(0.5, 0.5, 0.2, 0.5, 1e-9).doubled()
    state = coherent_thermal_state(0.5, 0.5, 0.2, cfg)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="keep AC: reduced dimension 5151 exceeds 4096"):
            partial_trace(state, "AC")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16



@pytest.fixture
def blas_pairs():
    """certify's (get, set) pairs, with numpy's OpenBLAS at 2 threads as the caller's count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"].lower():
        pytest.skip(f"numpy is linked to {blas['name']}, not OpenBLAS")
    pairs = certify._openblas()
    # a silent no-op would bring back the second thread's spin-wait unnoticed
    assert pairs, "numpy is linked to OpenBLAS, but the certification does not find it"
    before = [get() for get, _ in pairs]
    for _, put in pairs:
        put(2)
    yield pairs
    for (_, put), count in zip(pairs, before):
        put(count)


def test_certification_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, blas_pairs):
    check = certify._check_displacement
    seen = []

    def spy(rng):
        seen.append([get() for get, _ in blas_pairs])
        return check(rng)

    def failing(rng):
        spy(rng)
        raise RuntimeError("check failed")

    monkeypatch.setattr(certify, "_check_displacement", spy)
    certify.run(1234)
    after_return = [get() for get, _ in blas_pairs]
    monkeypatch.setattr(certify, "_check_displacement", failing)
    with pytest.raises(RuntimeError, match="check failed"):
        certify.run(1234)
    after_raise = [get() for get, _ in blas_pairs]
    assert seen == [[1] * len(blas_pairs)] * 2
    assert after_return == after_raise == [2] * len(blas_pairs)


def test_certification_bits_do_not_depend_on_the_blas_thread_count(monkeypatch, blas_pairs):
    # OpenBLAS splits a product by rows and columns, so each element keeps its k-sum
    cfg = resolve_config("oracle-check", overrides=("seed=1234",))
    table, code = _execute(cfg)
    monkeypatch.setattr(certify, "_one_blas_thread", contextlib.nullcontext)
    other, other_code = _execute(cfg)
    assert code == other_code == 0
    assert repr(table.rows) == repr(other.rows) and table.metadata == other.metadata
