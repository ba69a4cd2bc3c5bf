import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from optomech import duan as duan_module
from optomech.core import SystemParams, thermal_occupation
from optomech.duan import (
    K_REGIME_BOUNDARY,
    CVInitialState,
    ModePairMoments,
    duan_from_moments,
    duan_values,
    entanglement_period,
    regime_report,
    window_minima,
)

TABLE_OMEGA_M = 2.0 * math.pi * 95e3
TABLE_NBAR = 0.003360227659763006  # 0.8 uK at 95 kHz


def _params(k, r_a=1.0, r_b=1.0):
    return SystemParams.from_dimensionless(k=k, r_a=r_a, r_b=r_b)


class TestWitnessKernel:
    def test_vacuum_sits_on_the_boundary(self):
        assert duan_from_moments(ModePairMoments(0.0, 0.0, 0.0, 0.0, 0.0)) == 1.0

    def test_product_coherent_states_sit_on_the_boundary(self):
        a, b = 0.3 + 0.2j, -0.1 + 0.5j
        m = ModePairMoments(mean1=a, mean2=b, occ1=abs(a) ** 2, occ2=abs(b) ** 2, corr=a * b)
        assert duan_from_moments(m) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_two_mode_squeezing_reaches_exp_minus_2r(self, r):
        m = ModePairMoments(
            mean1=0.0,
            mean2=0.0,
            occ1=math.sinh(r) ** 2,
            occ2=math.sinh(r) ** 2,
            corr=-math.sinh(r) * math.cosh(r),
        )
        assert duan_from_moments(m) == pytest.approx(math.exp(-2.0 * r), rel=1e-12)

    def test_rejects_occupation_below_mean_square(self):
        with pytest.raises(ValueError, match="inconsistent moments"):
            duan_from_moments(ModePairMoments(mean1=1.0, mean2=0.0, occ1=0.5, occ2=0.0, corr=0.0))


class TestInitialState:
    def test_rejects_complex_amplitudes(self):
        with pytest.raises(ValueError, match="Fock oracle"):
            CVInitialState(alpha=0.2 + 0.1j, beta=0.5, nbar=0.0)

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            CVInitialState(alpha=0.5, beta=0.5, nbar=-0.01)


def test_witness_floors_at_t_zero():
    p = _params(0.6, r_a=1.3, r_b=0.7)
    st0 = CVInitialState(0.4, 0.6, 0.25)
    assert duan_values(0.0, st0, p, "AB") == 1.0
    assert duan_values(0.0, st0, p, "AC") == 1.25
    assert duan_values(0.0, st0, p, "BC") == 1.25


@given(st.floats(min_value=0.0, max_value=12.0 * math.pi, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_k_zero_leaves_every_pair_uncorrelated(t):
    p = _params(0.0, r_a=2.0, r_b=1.5)
    st0 = CVInitialState(0.7, 0.3, 0.4)
    assert abs(duan_values(t, st0, p, "AB") - 1.0) < 1e-12
    assert abs(duan_values(t, st0, p, "AC") - 1.4) < 1e-12
    assert abs(duan_values(t, st0, p, "BC") - 1.4) < 1e-12


def test_values_functions_are_vectorized():
    p = _params(0.5, r_a=1.1, r_b=0.9)
    st0 = CVInitialState(0.5, 0.5, 0.1)
    t = np.linspace(0.0, 4.0 * math.pi, 50)
    for pair in ("AB", "AC", "BC"):
        for lower in (False, True):
            out = np.asarray(duan_values(t, st0, p, pair, lower=lower))
            assert out.shape == t.shape
            assert np.all(np.isfinite(out))
            assert out[0] == pytest.approx(duan_values(float(t[0]), st0, p, pair, lower=lower))


@given(st.floats(min_value=0.05, max_value=6.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_lower_curves_bound_the_witness(r_a):
    p = _params(0.6, r_a=r_a, r_b=0.8)
    st0 = CVInitialState(0.5, 0.4, 0.2)
    t = np.linspace(0.05, 4.0 * math.pi, 120)
    for pair in ("AB", "AC", "BC"):
        v = np.asarray(duan_values(t, st0, p, pair), dtype=float)
        lo = np.asarray(duan_values(t, st0, p, pair, lower=True), dtype=float)
        assert np.all(lo <= v + 1e-10)


def test_ac_and_bc_differ_through_the_coupling_sign():
    # a photon in mode A kicks the mirror opposite to a photon in mode B, so
    # BC is AC relabeled with k -> -k as well as alpha <-> beta and
    # r_a <-> r_b; certify both against the Fock oracle at an asymmetric
    # point, where the sign flip keeps them well apart
    from optomech.oracle import apply_evolution, build_initial_state, moments

    alpha, beta, nbar, k, t = 0.3, 0.8, 0.15, 0.7, 1.7
    p = _params(k, r_a=1.4, r_b=0.6)
    state = build_initial_state("coherent_thermal", alpha=alpha, beta=beta, nbar=nbar, k=k)
    evolved = apply_evolution(state, t, k, p.r_a, p.r_b)
    st0 = CVInitialState(alpha, beta, nbar)
    d_ac = duan_values(t, st0, p, "AC")
    d_bc = duan_values(t, st0, p, "BC")
    oracle = moments(evolved)
    assert d_ac == pytest.approx(duan_from_moments(oracle["AC"]), rel=1e-6)
    assert d_bc == pytest.approx(duan_from_moments(oracle["BC"]), rel=1e-6)
    assert abs(d_ac - d_bc) > 0.1


def test_oracle_agreement_spot_check():
    from optomech.oracle import apply_evolution, build_initial_state, moments

    alpha, beta, nbar, k, t = 0.5, 0.5, 0.1, 0.5, 2.0
    p = _params(k, r_a=1.0, r_b=0.5)
    state = build_initial_state("coherent_thermal", alpha=alpha, beta=beta, nbar=nbar, k=k)
    evolved = apply_evolution(state, t, k, p.r_a, p.r_b)
    st0 = CVInitialState(alpha, beta, nbar)
    oracle = moments(evolved)
    for pair in ("AB", "AC", "BC"):
        reference = duan_from_moments(oracle[pair])
        assert duan_values(t, st0, p, pair) == pytest.approx(reference, rel=1e-6)


class TestMinOverWindow:
    """`window_minima` on one cell: every cell parameter a scalar."""

    _CELL = dict(alpha=0.5, beta=0.5, nbar=0.0)
    _TABLE = SystemParams(omega_a=1e15, omega_b=1e15, omega_m=TABLE_OMEGA_M, g0=0.74 * TABLE_OMEGA_M)

    def test_k_zero_never_dips_below_threshold(self):
        res = window_minima("AB", 4.0 * math.pi, 1.0, 1.0, k=0.0, **self._CELL)
        assert res.d_star.shape == ()
        assert float(res.d_star) == pytest.approx(1.0, abs=1e-12)

    def test_table_operating_point_frozen(self):
        p = self._TABLE
        window = TABLE_OMEGA_M * 1.5670841192409183e-05  # one cavity photon lifetime
        res = window_minima(
            "AB", (0.0, window), p.r_a, p.r_b, alpha=0.5, beta=0.5, nbar=TABLE_NBAR, k=p.k
        )
        assert float(res.d_star) == pytest.approx(0.7980434478774613, rel=1e-9)
        assert float(res.t_star) == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_direct_and_envelope_modes_agree(self):
        # 75 carrier cycles across the window keeps the direct scan cheap
        # while the envelope refinement converges at O(1/cycles)
        cell = dict(alpha=0.5, beta=0.5, nbar=0.01, k=0.6)
        window = (0.0, 4.0 * math.pi)
        direct = window_minima("AB", window, 18.75, 18.75, mode="direct", **cell)
        envelope = window_minima("AB", window, 18.75, 18.75, mode="envelope", **cell)
        assert (direct.mode, envelope.mode) == ("direct", "envelope")
        d_direct, d_env = float(direct.d_star), float(envelope.d_star)
        assert d_env <= d_direct + 1e-9
        assert abs(d_direct - d_env) < 5e-3

    def test_auto_switches_to_envelope_for_optical_carriers(self):
        p = self._TABLE
        # ~5e9 carrier cycles in this window: a direct scan would need
        # more points than the hard cap allows, so auto must not pick it
        res = window_minima("AB", (0.0, 9.0), p.r_a, p.r_b, k=p.k, **self._CELL)
        assert res.mode == "envelope"
        assert 0.0 <= float(res.t_star) <= 9.0
        assert float(res.d_star) < 1.0

    def test_coarse_direct_resolution_is_rejected(self):
        with pytest.raises(ValueError, match="cannot resolve the carrier"):
            window_minima(
                "AB", 4.0 * math.pi, 30.0, 30.0, k=0.5, resolution=0.1, mode="direct", **self._CELL
            )

    def test_direct_scan_size_guard(self):
        p = self._TABLE
        with pytest.raises(ValueError, match="use mode='envelope'"):
            window_minima("AB", 9.0, p.r_a, p.r_b, k=p.k, mode="direct", **self._CELL)

    @pytest.mark.parametrize(
        "mode, message", [("direct", "use mode='envelope'"), ("envelope", "too large")], ids=["direct", "envelope"]
    )
    def test_scan_grid_floor_and_cap(self, monkeypatch, mode, message):
        # both modes share one 65-point floor and one 20,000,000-point cap;
        # linspace is faked so the largest admitted grid is not allocated
        monkeypatch.setattr(duan_module.np, "linspace", lambda lo, hi, n: n)
        assert duan_module._scan_grid(0.0, 1.0, 1e-8, 1.0, mode) == (65, mode)
        assert duan_module._scan_grid(0.0, 19_999_999.0, 1e-8, 1.0, mode) == (20_000_000, mode)
        with pytest.raises(ValueError, match=message):
            duan_module._scan_grid(0.0, 20_000_000.0, 1e-8, 1.0, mode)

    def test_window_validation(self):
        st0 = CVInitialState(0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="bipartition"):
            window_minima("AD", 1.0, 1.0, 1.0, k=0.5, **self._CELL)
        with pytest.raises(ValueError, match="pair"):
            duan_values(1.0, st0, _params(0.5), "AD")
        with pytest.raises(ValueError, match="window"):
            window_minima("AB", (2.0, 1.0), 1.0, 1.0, k=0.5, **self._CELL)
        with pytest.raises(ValueError, match="window"):
            window_minima("AB", (-1.0, 1.0), 1.0, 1.0, k=0.5, **self._CELL)
        with pytest.raises(ValueError, match="mode"):
            window_minima("AB", 1.0, 1.0, 1.0, k=0.5, mode="grid", **self._CELL)


def _reference_minimum(bipartition, state, p, window, mode):
    """Per-cell reference for `window_minima`: the scalar minimizer it replaced.

    Dense scan on the same grid rule, then scipy's golden section on the
    bracket of the grid minimum's two neighbours when that minimum is a
    strict interior one, kept only where it is lower.
    """
    def func(t):
        return duan_values(t, state, p, bipartition, lower=mode == "envelope")

    t_min, t_max = window
    span = t_max - t_min
    step = math.pi / (8.0 * (p.r_a + p.r_b)) if mode == "direct" else span / 4000.0
    grid = np.linspace(t_min, t_max, max(int(math.ceil(span / step)) + 1, 65))
    values = np.asarray(func(grid), dtype=float)
    best = int(np.argmin(values))
    d_star = float(values[best])
    if 0 < best < len(grid) - 1 and d_star < values[best - 1] and d_star < values[best + 1]:
        res = minimize_scalar(
            lambda tt: float(func(tt)),
            bracket=tuple(grid[best - 1 : best + 2]),
            method="golden",
            options={"xtol": 1e-12},
        )
        d_star = min(d_star, float(res.fun))
    return d_star


# fig4b-like cells vary the amplitudes at one (k, nbar); 36 cells at 4001
# envelope points span three scan blocks. fig4a-like cells vary k and nbar.
_AMPLITUDES = np.linspace(0.1, 1.6, 6)
_CELLS = {
    "amplitudes": dict(
        alpha=np.repeat(_AMPLITUDES, 6), beta=np.tile(_AMPLITUDES, 6), nbar=0.05, k=0.74
    ),
    "coupling": dict(
        alpha=0.5, beta=0.6, nbar=np.tile([0.0, 0.3], 6), k=np.repeat(np.linspace(0.2, 1.45, 6), 2)
    ),
}
_OPTICAL = SystemParams(omega_a=1e15, omega_b=1.2e15, omega_m=TABLE_OMEGA_M, g0=0.0)
_WINDOWS = {
    # optical carriers over one photon lifetime, and a carrier at the
    # mechanical frequency that a direct scan resolves
    "envelope": ((0.0, 9.353966), _OPTICAL.r_a, _OPTICAL.r_b),
    "direct": ((0.5, 40.0), 1.0, 1.3),
}


@pytest.mark.parametrize("cells", sorted(_CELLS))
@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_window_minima_matches_scalar_golden_reference(bipartition, mode, cells):
    window, r_a, r_b = _WINDOWS[mode]
    spec = _CELLS[cells]
    res = window_minima(bipartition, window, r_a, r_b, mode=mode, **spec)
    assert res.mode == mode
    columns = np.broadcast_arrays(
        *(np.asarray(spec[key], dtype=float) for key in ("alpha", "beta", "nbar", "k"))
    )
    assert res.d_star.shape == res.t_star.shape == res.refined.shape == columns[0].shape
    assert res.refined.any()
    for i, (alpha, beta, nbar, k) in enumerate(zip(*columns)):
        state = CVInitialState(float(alpha), float(beta), float(nbar))
        p = _params(float(k), r_a=r_a, r_b=r_b)
        expected = _reference_minimum(bipartition, state, p, window, mode)
        assert abs(res.d_star[i] - expected) <= 1e-12, (i, res.d_star[i], expected)
        assert window[0] <= res.t_star[i] <= window[1]
        got = duan_values(res.t_star[i], state, p, bipartition, lower=mode == "envelope")
        assert got == pytest.approx(res.d_star[i], abs=1e-12)


_KEYS = ("alpha", "beta", "nbar", "k")
# no cell is its own alpha <-> beta swap, so swapping gives new rows
_BASE_CELLS = {
    "shared": dict(alpha=[0.2, 0.5, 1.1, -0.7], beta=[0.9, 0.6, 0.3, 0.4], nbar=0.05, k=0.74),
    "per_cell": dict(
        alpha=[0.2, 0.5, 1.1, -0.7], beta=[0.9, 0.6, 0.3, 0.4],
        nbar=[0.0, 0.3, 0.1, 0.2], k=[0.3, 0.74, 1.2, 0.6],
    ),
}


def _cell_rows(spec):
    return np.stack(np.broadcast_arrays(*(np.asarray(spec[key], dtype=float) for key in _KEYS)), axis=1)


def _minima(bipartition, mode, rows, **kw):
    window, r_a, r_b = _WINDOWS[mode]
    return window_minima(bipartition, window, r_a, r_b, mode=mode, **dict(zip(_KEYS, rows.T)), **kw)


@pytest.mark.parametrize("cells", sorted(_BASE_CELLS))
@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_window_minima_merges_repeated_and_swapped_cells(bipartition, mode, cells):
    base = _cell_rows(_BASE_CELLS[cells])
    distinct = np.concatenate([base, base[:, [1, 0, 2, 3]]])
    rng = np.random.default_rng(7)
    index = rng.permutation(np.concatenate([np.arange(len(distinct)), rng.integers(0, len(distinct), 12)]))
    ref = _minima(bipartition, mode, distinct)
    res = _minima(bipartition, mode, distinct[index])
    assert ref.refined.any()
    for field in ("t_star", "d_star", "refined"):
        assert np.array_equal(getattr(res, field), getattr(ref, field)[index]), field
    # only D_AB is symmetric under alpha <-> beta
    assert res.scanned_cells == ref.scanned_cells == (len(base) if bipartition == "AB" else len(distinct))


@pytest.mark.parametrize("mode", sorted(_WINDOWS))
def test_window_minima_ab_is_symmetric_in_the_amplitudes(mode):
    alpha = np.array([0.3, -0.8, -0.2, 1.5, 0.0, -1.1])
    beta = np.array([1.1, 0.4, -0.9, -1.5, 0.7, -0.6])
    window, r_a, r_b = _WINDOWS[mode]
    kw = dict(nbar=0.05, k=0.74)
    res = window_minima("AB", window, r_a, r_b, mode=mode, alpha=alpha, beta=beta, **kw)
    swapped = window_minima("AB", window, r_a, r_b, mode=mode, alpha=beta, beta=alpha, **kw)
    for field in ("t_star", "d_star", "refined"):
        assert np.array_equal(getattr(res, field), getattr(swapped, field)), field
    # what makes merging (alpha, beta) with (beta, alpha) exact: the curves
    # themselves are bitwise symmetric
    t = np.linspace(*window, 997)
    p = _params(0.74, r_a=r_a, r_b=r_b)
    for a, b in zip(alpha, beta):
        for lower in (False, True):
            one = duan_values(t, CVInitialState(a, b, 0.05), p, "AB", lower=lower)
            other = duan_values(t, CVInitialState(b, a, 0.05), p, "AB", lower=lower)
            assert np.array_equal(one, other)


@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_window_minima_of_no_cells(bipartition, mode):
    res = _minima(bipartition, mode, np.empty((0, 4)))
    assert res.t_star.shape == res.d_star.shape == res.refined.shape == (0,)
    assert res.scanned_cells == 0


@pytest.mark.parametrize("shared", [True, False])
def test_window_minima_builds_shared_k_kernels_once(monkeypatch, shared):
    # with one amplitude at zero no cell is refined, so every kernel call
    # below belongs to the scan of 100 cells in blocks of 16 rows
    built = {"twob": 0, "thermal": 0}

    def counting(name):
        original = getattr(duan_module._Kernels, name)

        def wrapper(self, *args):
            if self.coupled is None:
                built[name] += 1
            return original(self, *args)
        return wrapper

    for name in built:
        monkeypatch.setattr(duan_module._Kernels, name, counting(name))
    window, r_a, r_b = _WINDOWS["envelope"]
    k = 0.74 if shared else np.linspace(0.5, 1.0, 100)
    res = window_minima(
        "AB", window, r_a, r_b, alpha=0.0, beta=np.linspace(0.1, 2.0, 100), nbar=0.01, k=k
    )
    assert res.mode == "envelope" and res.scanned_cells == 100
    assert not res.refined.any()
    blocks = math.ceil(100 / (duan_module._BLOCK_ELEMENTS // 4001))
    calls = 1 if shared else blocks
    assert built == {"twob": calls, "thermal": calls}


@pytest.mark.parametrize("mode", ["direct", "envelope", "auto"])
@pytest.mark.parametrize("resolution", [-0.01, 0.0, math.nan, math.inf, -math.inf])
def test_window_minima_rejects_bad_resolution(mode, resolution):
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        window_minima(
            "AB", 4.0 * math.pi, 30.0, 30.0, alpha=0.5, beta=0.5, nbar=0.0, k=0.5,
            resolution=resolution, mode=mode,
        )


def test_window_minima_resolution_none_is_the_default():
    cell = dict(alpha=0.5, beta=0.5, nbar=0.0, k=0.5)
    default = window_minima("AB", 4.0 * math.pi, 30.0, 30.0, mode="direct", **cell)
    explicit = window_minima("AB", 4.0 * math.pi, 30.0, 30.0, mode="direct", resolution=None, **cell)
    assert float(default.d_star) == float(explicit.d_star)
    # the resolved minimum the step rule gives, which a negative step once skipped
    assert float(default.d_star) == pytest.approx(0.8648, abs=5e-5)


def test_window_minima_zero_amplitude_cells_stay_separable():
    zeros = np.zeros(4)
    others = np.array([0.0, 0.5, 1.0, 2.0])
    res = window_minima(
        "AB", (0.0, 9.353966), _OPTICAL.r_a, _OPTICAL.r_b,
        alpha=np.concatenate([zeros, others]), beta=np.concatenate([others, zeros]),
        nbar=TABLE_NBAR, k=0.74,
    )
    assert np.all(np.abs(res.d_star - 1.0) <= 1e-12)
    assert not res.refined.any()


def test_window_minima_validates_cells():
    window, r_a, r_b = _WINDOWS["direct"]
    with pytest.raises(ValueError, match="nbar"):
        window_minima("AB", window, r_a, r_b, alpha=0.5, beta=0.5, nbar=[0.0, -0.1], k=0.5)
    with pytest.raises(ValueError, match="k must"):
        window_minima("AB", window, r_a, r_b, alpha=0.5, beta=0.5, nbar=0.0, k=[0.5, -0.5])
    with pytest.raises(ValueError, match="alpha"):
        window_minima("AB", window, r_a, r_b, alpha=[0.5, math.nan], beta=0.5, nbar=0.0, k=0.5)
    with pytest.raises(ValueError, match="r_b"):
        window_minima("AB", window, r_a, 0.0, alpha=0.5, beta=0.5, nbar=0.0, k=0.5)


def _reference_envelope_scan(kern, alpha, beta, nbar, k, m, r_a, r_b):
    """The full envelope D_AB scan the bounded one replaced, as a block loop.

    _ab_lower on (rows, n) blocks of cells, then each row's argmin and the
    strict-interior test against its two grid neighbours. Takes what
    `_bounded_ab_scan` does and returns what it returns, plus the largest
    excess of `_block_floor` over the minimum of the grid values it bounds.
    """
    n = kern.t.size
    best, d_grid, strict = np.empty(m, dtype=np.intp), np.empty(m), np.zeros(m, dtype=bool)
    bounds = duan_module._block_bounds(kern)
    starts = np.arange(0, n, duan_module._SCAN_BLOCK)
    excess = -np.inf
    rows = max(1, 2 ** 16 // n)
    for start in range(0, m, rows):
        block = slice(start, min(start + rows, m))
        size = block.stop - block.start
        cols = [p if np.ndim(p) == 0 else p[block, None] for p in (alpha, beta)]
        values = np.broadcast_to(duan_module._ab_lower(kern, *cols, nbar, k, r_a, r_b), (size, n))
        floor = duan_module._block_floor(cols[0] ** 2 + cols[1] ** 2, 2.0 * np.abs(cols[0] * cols[1]), bounds)
        excess = max(excess, float(np.max(floor - np.minimum.reduceat(values, starts, axis=1))))
        i = np.argmin(values, axis=1)
        at = np.arange(size)
        d = values[at, i]
        strict[block] = (
            (i > 0) & (i < n - 1)
            & (d < values[at, np.maximum(i - 1, 0)])
            & (d < values[at, np.minimum(i + 1, n - 1)])
        )
        best[block], d_grid[block] = i, d
    return best, d_grid, strict, m * n, excess


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _bounded_against_reference(monkeypatch, window, r_a, r_b, resolution=None, **cells):
    """window_minima on the bounded scan, and on the reference scan of the same cells.

    Returns both results and both scans, (best, d_grid, strict, evaluated)
    per distinct cell with the reference's floor excess appended, after
    checking that the bounded scan ran.
    """
    real = duan_module._bounded_ab_scan
    scans = {}

    def spy(*args):
        scans["bounded"] = real(*args)
        scans["reference"] = _reference_envelope_scan(*args)
        return scans["bounded"]

    kw = dict(mode="envelope", resolution=resolution, **cells)
    monkeypatch.setattr(duan_module, "_bounded_ab_scan", spy)
    res = window_minima("AB", window, r_a, r_b, **kw)
    assert scans["bounded"] is not None
    monkeypatch.setattr(duan_module, "_bounded_ab_scan", lambda *args: scans["reference"][:4])
    ref = window_minima("AB", window, r_a, r_b, **kw)
    return res, ref, scans["bounded"], scans["reference"]


def _assert_bounded_scan_is_exact(res, ref, scan, ref_scan):
    for name, got, want in zip(("best", "d_grid", "strict"), scan[:3], ref_scan[:3]):
        assert _same_bits(got, want), name
    for field in ("t_star", "d_star", "refined"):
        assert _same_bits(getattr(res, field), getattr(ref, field)), field
    assert res.evaluated_points == scan[3]
    assert ref.evaluated_points == ref_scan[3]
    # the block floors bound every computed grid value, with no slack used
    assert ref_scan[4] <= 0.0


# the fig4b temperatures of the witness-grid benchmark at seeds 0-9; the
# first is fig4b's default
_FIG4B_TEMPERATURES = [
    8e-07, 8.6269e-07, 9.53045e-07, 5.89806e-07, 1.92849e-07,
    7.67608e-07, 8.39759e-07, 2.35764e-07, 9.66066e-07, 4.35981e-07,
]


def _fig4b_cells(temperature_K):
    """window, r_a, r_b and the cells of `optomech fig4b` at a temperature."""
    from optomech import cli

    v = cli.resolve_config("fig4b", overrides=(f"temperature_K={temperature_K!r}",)).values
    window, _, r_a, r_b = cli._witness_window(v)
    alphas, betas = cli._axis(v, "alpha"), cli._axis(v, "beta")
    nbar = thermal_occupation(v["temperature_K"], v["omega_m_rad_per_s"])
    cells = dict(
        alpha=np.repeat(alphas, betas.size), beta=np.tile(betas, alphas.size), nbar=nbar, k=v["k"]
    )
    return window, r_a, r_b, cells


def test_fig4b_default_temperature_is_the_first_benchmark_one():
    from optomech.cli import FIELDS

    assert FIELDS["fig4b"]["temperature_K"][0] == _FIG4B_TEMPERATURES[0]


@pytest.mark.parametrize("temperature_K", _FIG4B_TEMPERATURES)
def test_bounded_scan_is_bitwise_the_full_scan_on_fig4b(monkeypatch, temperature_K):
    window, r_a, r_b, cells = _fig4b_cells(temperature_K)
    res, ref, scan, ref_scan = _bounded_against_reference(monkeypatch, window, r_a, r_b, **cells)
    _assert_bounded_scan_is_exact(res, ref, scan, ref_scan)
    assert res.scanned_cells == 5151
    assert ref.evaluated_points == 5151 * 4001
    assert res.evaluated_points <= 0.2 * 5151 * 4001
    assert res.refined.any() and scan[2].any()


_RNG = np.random.default_rng(20260)
_RANDOM_AMPLITUDES = dict(alpha=_RNG.uniform(-2.0, 2.0, 40), beta=_RNG.uniform(-2.0, 2.0, 40))
_ENVELOPE = (0.0, 9.353966)
_BOUNDED_CASES = {
    # one amplitude zero: D_AB = 1 + T (1 - env) has no cross term
    "flat": dict(
        alpha=[0.0, 0.0, 0.7, 1.5, 0.0, -0.0], beta=[0.3, 1.2, 0.0, 0.0, 0.0, 2.0], nbar=0.01, k=0.74
    ),
    "equal": dict(alpha=np.linspace(0.05, 2.0, 12), beta=np.linspace(0.05, 2.0, 12), nbar=0.0, k=0.74),
    "random-low-k": dict(**_RANDOM_AMPLITUDES, nbar=0.2, k=0.6),
    "random-high-k": dict(**_RANDOM_AMPLITUDES, nbar=0.0, k=0.9),
    "random-boundary-k": dict(**_RANDOM_AMPLITUDES, nbar=0.05, k=K_REGIME_BOUNDARY),
    "random-k-0.05": dict(**_RANDOM_AMPLITUDES, nbar=0.05, k=0.05),
    "random-k-0": dict(**_RANDOM_AMPLITUDES, nbar=0.05, k=0.0),
    "t_min": dict(**_RANDOM_AMPLITUDES, nbar=0.01, k=0.74, window=(0.7, 9.353966)),
    # 1,235 grid points: the last block holds 19 of 32
    "grid-not-multiple": dict(**_RANDOM_AMPLITUDES, nbar=0.01, k=0.74, resolution=9.353966 / 1234),
    "one-cell": dict(alpha=0.5, beta=0.7, nbar=0.01, k=0.74),
}


@pytest.mark.parametrize("case", sorted(_BOUNDED_CASES))
def test_bounded_scan_is_bitwise_the_full_scan(monkeypatch, case):
    spec = dict(_BOUNDED_CASES[case])
    window = spec.pop("window", _ENVELOPE)
    res, ref, scan, ref_scan = _bounded_against_reference(
        monkeypatch, window, _OPTICAL.r_a, _OPTICAL.r_b, **spec
    )
    _assert_bounded_scan_is_exact(res, ref, scan, ref_scan)
    n = len(duan_module._scan_grid(*window, _OPTICAL.r_a + _OPTICAL.r_b, spec.get("resolution"), "envelope")[0])
    assert ref.evaluated_points == res.scanned_cells * n
    if case == "grid-not-multiple":
        assert n == 1235 and n % duan_module._SCAN_BLOCK
    if case == "one-cell":
        assert res.d_star.shape == () and res.scanned_cells == 1
    if case == "random-k-0":
        # D_AB = 1 everywhere, so every block survives: the scan computes
        # every grid value once, plus two neighbours per cell
        assert res.evaluated_points == res.scanned_cells * (n + 2)


def _synthetic_kernels(cos, theta):
    """Coupled kernels with the given cos 2B and thermal exponent, on 0 <= t <= 1."""
    t = np.linspace(0.0, 1.0, cos.size)
    coupled = (np.arccos(cos), cos, np.sqrt(1.0 - cos ** 2), theta)
    return duan_module._Kernels(t=t, unit_b=t, eta=t.astype(complex), eta_sq=t, coupled=coupled)


def _tie_across_blocks():
    # every point of block 0 and point 70 of block 2 take the minimum, while
    # block 2's wide ranges of cos 2B and theta give it the lowest floor, so
    # the incumbent is point 70 and the answer point 0
    cos, theta = np.full(96, 0.5), np.full(96, 0.3)
    cos[32:64] = 0.2
    cos[64:96], theta[64:96] = 0.0, 2.0
    cos[66], theta[66] = 1.0, 5.0
    cos[67], theta[67] = 0.0, 0.0
    cos[70], theta[70] = 0.5, 0.3
    return cos, theta, [0, 0], [False, False]


def _plateau():
    # points 40 and 41 share the minimum: 40 is the answer, and not a strict one
    cos, theta = np.full(96, 0.2), np.full(96, 0.3)
    cos[40:42] = 0.5
    return cos, theta, [40, 40], [False, False]


@pytest.mark.parametrize("layout", [_tie_across_blocks, _plateau], ids=lambda f: f.__name__[1:])
def test_bounded_scan_on_equal_grid_values(layout):
    # with beta = 0, D_AB = 1 + alpha**2 (1 - env) falls as env rises, so
    # equal (cos 2B, theta) give bitwise equal values
    cos, theta, best, strict = layout()
    kern = _synthetic_kernels(cos, theta)
    args = (kern, np.array([1.0, 0.6]), np.array([0.0, 0.0]), 0.0, 0.5, 2, 1.0, 1.0)
    if layout is _tie_across_blocks:
        floor = duan_module._block_floor(np.array([[1.0]]), np.array([[0.0]]), duan_module._block_bounds(kern))
        assert np.argmin(floor) == 2
    scan = duan_module._bounded_ab_scan(*args)
    ref = _reference_envelope_scan(*args)
    assert list(ref[0]) == best and list(ref[2]) == strict
    for got, want in zip(scan[:3], ref[:3]):
        assert _same_bits(got, want)


def test_bounded_scan_skips_overflowing_inputs(monkeypatch):
    # amplitudes whose squares overflow keep the full scan, whose argmin
    # meets the NaN at t = 0 first
    scans = []
    real = duan_module._bounded_ab_scan
    monkeypatch.setattr(duan_module, "_bounded_ab_scan", lambda *args: scans.append(real(*args)) or scans[-1])
    with np.errstate(all="ignore"):
        res = window_minima("AB", _ENVELOPE, _OPTICAL.r_a, _OPTICAL.r_b, alpha=[0.5, 1e200], beta=0.5,
                            nbar=0.0, k=0.74, mode="envelope")
    assert scans == [None]
    assert res.evaluated_points == 2 * 4001
    assert np.isnan(res.d_star[1]) and np.isfinite(res.d_star[0])


def _oracle_envelope_ab(alpha, beta, nbar, k, t):
    """D_AB's lower envelope over the carrier phase from the Fock oracle.

    In the interaction picture the carrier phase drops out of every moment;
    it would rotate <a b> - <a><b>, so its real part is replaced by minus its
    modulus.
    """
    from optomech.oracle import apply_evolution, build_initial_state, moments

    state = build_initial_state("coherent_thermal", alpha=alpha, beta=beta, nbar=nbar, k=k, tolerance=1e-10)
    m = moments(apply_evolution(state, t, k, 1.0, 1.0, interaction_picture=True))["AB"]
    return m.occ1 + m.occ2 - 2.0 * abs(m.corr - m.mean1 * m.mean2) - abs(m.mean1) ** 2 - abs(m.mean2) ** 2 + 1.0


def test_fig4b_envelope_minima_agree_with_the_oracle():
    # fig4b cells at its defaults, the last with one amplitude at zero; the
    # largest deviation read 4.3e-10, at (0.91, 0.91), fig4b's argmin
    window, r_a, r_b, cells = _fig4b_cells(_FIG4B_TEMPERATURES[0])
    alpha = np.array([0.5, 1.0, 0.91, 0.3, 1.2, 1.0])
    beta = np.array([0.5, 1.0, 0.91, 0.6, 0.8, 0.0])
    res = window_minima("AB", window, r_a, r_b, alpha=alpha, beta=beta, nbar=cells["nbar"], k=cells["k"])
    assert res.mode == "envelope"
    assert list(res.refined) == [True] * 5 + [False]
    assert np.all(res.d_star[:5] < 1.0) and res.d_star[5] == 1.0
    for a, b, t, d in zip(alpha, beta, res.t_star, res.d_star):
        oracle = _oracle_envelope_ab(float(a), float(b), cells["nbar"], cells["k"], float(t))
        assert d == pytest.approx(oracle, rel=1e-6), (a, b, t)


def test_envelope_mean_grows_with_temperature():
    # thermal dephasing exp(-k^2 |eta|^2 (2 nbar + 1)) weakens the dip
    # everywhere except the eta = 0 nodes, so the window-averaged envelope
    # rises with temperature even though the global minimum does not move
    p = SystemParams(omega_a=1e15, omega_b=1e15, omega_m=TABLE_OMEGA_M, g0=0.74 * TABLE_OMEGA_M)
    t = np.linspace(0.0, 9.353966, 2001)
    means = []
    for T in (0.1e-6, 0.4e-6, 0.8e-6):
        st0 = CVInitialState(0.5, 0.5, thermal_occupation(T, TABLE_OMEGA_M))
        means.append(float(np.mean(duan_values(t, st0, p, "AB", lower=True))))
    assert means[0] < means[1] < means[2]


class TestRegimeReport:
    def test_boundary_constant(self):
        assert K_REGIME_BOUNDARY == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_high_coupling_operating_point(self):
        rr = regime_report(0.74, TABLE_OMEGA_M, 63812.78373776075)
        assert rr.regime == "high"
        assert rr.feasibility_condition == "resolved_sideband"
        assert rr.envelope_period == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert rr.envelope_period_seconds == pytest.approx(1.0526315789473684e-05, rel=1e-12)
        assert rr.feasibility_ratio == pytest.approx(1.4887299132788725, rel=1e-9)

    def test_low_coupling_operating_point(self):
        rr = regime_report(0.25, TABLE_OMEGA_M, 63812.78373776075)
        assert rr.regime == "low"
        assert rr.feasibility_condition == "photon_blockade"
        # below the boundary the slow beat sets the period: pi / k^2
        assert rr.envelope_period == pytest.approx(math.pi / 0.25**2, rel=1e-12)

    def test_boundary_belongs_to_high_regime(self):
        rr = regime_report(K_REGIME_BOUNDARY, 1.0, 1.0)
        assert rr.regime == "high"
        assert rr.envelope_period == pytest.approx(2.0 * math.pi, rel=1e-12)
        below = regime_report(np.nextafter(K_REGIME_BOUNDARY, 0.0), 1.0, 1.0)
        assert below.regime == "low"

    @pytest.mark.parametrize("k", [0.25, 0.7, K_REGIME_BOUNDARY, 0.74, 1.3])
    @pytest.mark.parametrize("omega_m", [1.0, TABLE_OMEGA_M])
    def test_periods_are_the_entanglement_period(self, k, omega_m):
        rr = regime_report(k, omega_m, 63812.78373776075)
        assert rr.envelope_period == entanglement_period(k, 1.0)
        assert rr.envelope_period_seconds == entanglement_period(k, omega_m)

    def test_validation(self):
        with pytest.raises(ValueError):
            regime_report(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            regime_report(0.5, 1.0, -1.0)
        with pytest.raises(ValueError, match="omega_m"):
            regime_report(0.5, 0.0, 1.0)
