import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from optomech import duan as duan_module
from optomech.core import (
    K_REGIME_BOUNDARY,
    RegimeReport,
    entanglement_period,
    regime_report,
    thermal_occupation,
)
from optomech.duan import duan_from_moments, duan_values, window_minima
from optomech.oracle import ModePairMoments

TABLE_OMEGA_M = 2.0 * math.pi * 95e3
TABLE_NBAR = 0.003360227659763006  # 0.8 uK at 95 kHz
# the table's operating point as fig3 scales it: carriers of 1e15 rad/s over
# omega_m, and k = 0.74 through g0 = k omega_m and back
TABLE_R = 1e15 / TABLE_OMEGA_M
TABLE_K = (0.74 * TABLE_OMEGA_M) / TABLE_OMEGA_M


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


_GOOD_CELL = dict(bipartition="AB", r_a=1.0, r_b=1.0, alpha=0.5, beta=0.5, nbar=0.0, k=0.5)


@pytest.mark.parametrize("entry", ["duan_values", "window_minima"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha", 0.2 + 0.1j, "alpha must be real .*Fock oracle only"),
        ("beta", math.inf, "beta must be finite"),
        ("alpha", -2e100, r"alpha must be finite with magnitude at most 1e\+100"),
        ("nbar", -0.01, "nbar must be finite and non-negative"),
        ("nbar", math.nan, "nbar must be finite and non-negative"),
        ("k", -0.5, "k must be finite and non-negative"),
        ("r_a", 0.0, "r_a must be positive and finite"),
        ("bipartition", "AD", "bipartition must be one of"),
        # 1e200 overflowed k**2 in the kernels
        ("k", 2e100, r"k must be finite and non-negative, at most 1e\+100"),
    ],
    ids=[
        "complex-alpha", "inf-beta", "oversized-alpha", "negative-nbar", "nan-nbar", "negative-k",
        "zero-r_a", "AD", "oversized-k",
    ],
)
def test_witness_cells_are_refused_by_field(entry, field, value, message):
    # one check serves both entries; at a scalar cell nbar = nan once gave a
    # silent nan, and k and r_a were refused as g0 and omega_a
    cell = {**_GOOD_CELL, field: value}
    head = (cell.pop("bipartition"), cell.pop("r_a"), cell.pop("r_b"))
    with pytest.raises(ValueError, match=message):
        if entry == "duan_values":
            duan_values(1.0, *head, **cell)
        else:
            window_minima(head[0], 1.0, *head[1:], **cell)


@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
@pytest.mark.parametrize("lower", [False, True])
def test_amplitude_bound_admits_its_boundary(bipartition, lower):
    t = np.linspace(0.0, 4.0 * math.pi, 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in ((1e100, 0.5), (0.5, -1e100), (1e100, 1e100)):
            d = duan_values(t, bipartition, 1.0, 1.0, alpha=alpha, beta=beta, nbar=0.0, k=0.5, lower=lower)
            assert np.isfinite(d).all()


def test_duan_values_takes_the_time_first():
    # the benchmark's tracer counts a duan_values call's points from its
    # first positional argument
    assert next(iter(inspect.signature(duan_values).parameters)) == "t"


def test_witness_floors_at_t_zero():
    cell = dict(alpha=0.4, beta=0.6, nbar=0.25, k=0.6)
    assert duan_values(0.0, "AB", 1.3, 0.7, **cell) == 1.0
    assert duan_values(0.0, "AC", 1.3, 0.7, **cell) == 1.25
    assert duan_values(0.0, "BC", 1.3, 0.7, **cell) == 1.25


@given(st.floats(min_value=0.0, max_value=12.0 * math.pi, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_k_zero_leaves_every_pair_uncorrelated(t):
    cell = dict(alpha=0.7, beta=0.3, nbar=0.4, k=0.0)
    assert abs(duan_values(t, "AB", 2.0, 1.5, **cell) - 1.0) < 1e-12
    assert abs(duan_values(t, "AC", 2.0, 1.5, **cell) - 1.4) < 1e-12
    assert abs(duan_values(t, "BC", 2.0, 1.5, **cell) - 1.4) < 1e-12


def test_values_functions_are_vectorized():
    cell = dict(alpha=0.5, beta=0.5, nbar=0.1, k=0.5)
    t = np.linspace(0.0, 4.0 * math.pi, 50)
    for pair in ("AB", "AC", "BC"):
        for lower in (False, True):
            out = np.asarray(duan_values(t, pair, 1.1, 0.9, **cell, lower=lower))
            assert out.shape == t.shape
            assert np.all(np.isfinite(out))
            assert out[0] == pytest.approx(duan_values(float(t[0]), pair, 1.1, 0.9, **cell, lower=lower))


@given(st.floats(min_value=0.05, max_value=6.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_lower_curves_bound_the_witness(r_a):
    cell = dict(alpha=0.5, beta=0.4, nbar=0.2, k=0.6)
    t = np.linspace(0.05, 4.0 * math.pi, 120)
    for pair in ("AB", "AC", "BC"):
        v = np.asarray(duan_values(t, pair, r_a, 0.8, **cell), dtype=float)
        lo = np.asarray(duan_values(t, pair, r_a, 0.8, **cell, lower=True), dtype=float)
        assert np.all(lo <= v + 1e-10)


def test_ac_and_bc_differ_through_the_coupling_sign():
    # a photon in mode A kicks the mirror opposite to a photon in mode B, so
    # BC is AC relabeled with k -> -k as well as alpha <-> beta and
    # r_a <-> r_b; certify both against the Fock oracle at an asymmetric
    # point, where the sign flip keeps them well apart
    from optomech.oracle import apply_evolution, moments

    alpha, beta, nbar, k, t = 0.3, 0.8, 0.15, 0.7, 1.7
    r_a, r_b = 1.4, 0.6
    state = _oracle_state(alpha, beta, nbar, k)
    evolved = apply_evolution(state, t, k, r_a, r_b)
    cell = dict(alpha=alpha, beta=beta, nbar=nbar, k=k)
    d_ac = duan_values(t, "AC", r_a, r_b, **cell)
    d_bc = duan_values(t, "BC", r_a, r_b, **cell)
    oracle = moments(evolved)
    assert d_ac == pytest.approx(duan_from_moments(oracle["AC"]), rel=1e-6)
    assert d_bc == pytest.approx(duan_from_moments(oracle["BC"]), rel=1e-6)
    assert abs(d_ac - d_bc) > 0.1


def test_oracle_agreement_spot_check():
    from optomech.oracle import apply_evolution, moments

    alpha, beta, nbar, k, t = 0.5, 0.5, 0.1, 0.5, 2.0
    r_a, r_b = 1.0, 0.5
    state = _oracle_state(alpha, beta, nbar, k)
    evolved = apply_evolution(state, t, k, r_a, r_b)
    oracle = moments(evolved)
    for pair in ("AB", "AC", "BC"):
        reference = duan_from_moments(oracle[pair])
        got = duan_values(t, pair, r_a, r_b, alpha=alpha, beta=beta, nbar=nbar, k=k)
        assert got == pytest.approx(reference, rel=1e-6)


class TestMinOverWindow:
    """`window_minima` on one cell: every cell parameter a scalar."""

    _CELL = dict(alpha=0.5, beta=0.5, nbar=0.0)

    def test_k_zero_never_dips_below_threshold(self):
        res = window_minima("AB", 4.0 * math.pi, 1.0, 1.0, k=0.0, **self._CELL)
        assert res.d_star.shape == ()
        assert float(res.d_star) == pytest.approx(1.0, abs=1e-12)

    def test_table_operating_point_frozen(self):
        window = TABLE_OMEGA_M * 1.5670841192409183e-05  # one cavity photon lifetime
        res = window_minima("AB", window, TABLE_R, TABLE_R, alpha=0.5, beta=0.5, nbar=TABLE_NBAR, k=TABLE_K)
        assert res.mode == "envelope"
        assert float(res.d_star) == pytest.approx(0.7980434478774613, rel=1e-9)
        assert float(res.t_star) == pytest.approx(2.0 * math.pi, abs=1e-6)
        # 120 carrier cycles: the minimum the direct step rule resolves
        res = window_minima("AB", 4.0 * math.pi, 30.0, 30.0, k=0.5, **self._CELL)
        assert res.mode == "direct"
        assert float(res.d_star) == pytest.approx(0.8648, abs=5e-5)

    def test_direct_and_envelope_modes_agree(self):
        # carriers just either side of the 1e5-cycle switch, so the window
        # holds 99,996 and 100,004 cycles; the envelope refinement converges
        # at O(1/cycles)
        cell = dict(alpha=0.5, beta=0.5, nbar=0.01, k=0.6)
        window = 4.0 * math.pi
        direct = window_minima("AB", window, 24_999.0, 24_999.0, **cell)
        envelope = window_minima("AB", window, 25_001.0, 25_001.0, **cell)
        assert (direct.mode, envelope.mode) == ("direct", "envelope")
        d_direct, d_env = float(direct.d_star), float(envelope.d_star)
        assert d_env <= d_direct + 1e-9
        assert abs(d_direct - d_env) < 5e-3

    def test_auto_switches_to_envelope_for_optical_carriers(self):
        # ~5e9 carrier cycles in this window, far past the 1e5-cycle switch
        res = window_minima("AB", 9.0, TABLE_R, TABLE_R, k=TABLE_K, **self._CELL)
        assert res.mode == "envelope"
        assert 0.0 <= float(res.t_star) <= 9.0
        assert float(res.d_star) < 1.0

    @pytest.mark.parametrize("mode", ["direct", "envelope"])
    def test_scan_grid_floor_and_cap(self, mode):
        # a grid holds no points until the scan reads them, so the largest
        # grids cost nothing here
        if mode == "direct":
            assert duan_module._scan_grid(1.0, 1.0) == (duan_module._Grid(1.0, 65), "direct")
        else:
            assert duan_module._scan_grid(9.0, TABLE_R + TABLE_R) == (duan_module._Grid(9.0, 4002), "envelope")
        for t_max in (1e-3, 1.0, 9.0, 4.0 * math.pi, 1e6):
            # the largest carrier sum whose window holds at most 1e5 cycles
            fast = 2.0 * math.pi * 1e5 / t_max
            while fast * t_max / (2.0 * math.pi) > 1e5:
                fast = math.nextafter(fast, 0.0)
            while math.nextafter(fast, math.inf) * t_max / (2.0 * math.pi) <= 1e5:
                fast = math.nextafter(fast, math.inf)
            if mode == "envelope":
                fast = math.nextafter(fast, math.inf)
            grid, got = duan_module._scan_grid(t_max, fast)
            n = grid.size
            assert got == mode, t_max
            if mode == "direct":
                # 8 fast t_max / pi + 2 at most
                assert 1_599_999 <= n <= 1_600_002, (t_max, n)
            else:
                assert 4001 <= n <= 4002, (t_max, n)


def _reference_minimum(bipartition, r_a, r_b, cell, window, mode):
    """Per-cell reference for `window_minima`: the scalar minimizer it replaced.

    Dense scan on the same grid rule, then scipy's golden section on the
    bracket of the grid minimum's two neighbours when that minimum is a
    strict interior one, kept only where it is lower.
    """
    def func(t):
        return duan_values(t, bipartition, r_a, r_b, **cell, lower=mode == "envelope")

    step = math.pi / (8.0 * (r_a + r_b)) if mode == "direct" else window / 4000.0
    grid = np.linspace(0.0, window, max(int(math.ceil(window / step)) + 1, 65))
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
#: carriers of 1e15 and 1.2e15 rad/s over the table's omega_m
_OPTICAL_R = (1e15 / TABLE_OMEGA_M, 1.2e15 / TABLE_OMEGA_M)
_WINDOWS = {
    # optical carriers over one photon lifetime, and a carrier at the
    # mechanical frequency that a direct scan resolves
    "envelope": (9.353966, *_OPTICAL_R),
    "direct": (40.0, 1.0, 1.3),
}


@pytest.mark.parametrize("cells", sorted(_CELLS))
@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_window_minima_matches_scalar_golden_reference(bipartition, mode, cells):
    window, r_a, r_b = _WINDOWS[mode]
    spec = _CELLS[cells]
    res = window_minima(bipartition, window, r_a, r_b, **spec)
    assert res.mode == mode
    columns = np.broadcast_arrays(
        *(np.asarray(spec[key], dtype=float) for key in ("alpha", "beta", "nbar", "k"))
    )
    assert res.d_star.shape == res.t_star.shape == res.refined.shape == columns[0].shape
    assert res.refined.any()
    for i, (alpha, beta, nbar, k) in enumerate(zip(*columns)):
        cell = dict(alpha=float(alpha), beta=float(beta), nbar=float(nbar), k=float(k))
        expected = _reference_minimum(bipartition, r_a, r_b, cell, window, mode)
        assert abs(res.d_star[i] - expected) <= 1e-12, (i, res.d_star[i], expected)
        assert 0.0 <= res.t_star[i] <= window
        got = duan_values(res.t_star[i], bipartition, r_a, r_b, **cell, lower=mode == "envelope")
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
    res = window_minima(bipartition, window, r_a, r_b, **dict(zip(_KEYS, rows.T)), **kw)
    assert res.mode == mode
    return res


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
    res = window_minima("AB", window, r_a, r_b, alpha=alpha, beta=beta, **kw)
    swapped = window_minima("AB", window, r_a, r_b, alpha=beta, beta=alpha, **kw)
    assert res.mode == mode
    for field in ("t_star", "d_star", "refined"):
        assert np.array_equal(getattr(res, field), getattr(swapped, field)), field
    # what makes merging (alpha, beta) with (beta, alpha) exact: the curves
    # themselves are bitwise symmetric
    t = np.linspace(0.0, window, 997)
    for a, b in zip(alpha, beta):
        for lower in (False, True):
            one = duan_values(t, "AB", r_a, r_b, alpha=a, beta=b, lower=lower, **kw)
            other = duan_values(t, "AB", r_a, r_b, alpha=b, beta=a, lower=lower, **kw)
            assert np.array_equal(one, other)


@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_window_minima_of_no_cells(bipartition, mode):
    res = _minima(bipartition, mode, np.empty((0, 4)))
    assert res.t_star.shape == res.d_star.shape == res.refined.shape == (0,)
    assert res.scanned_cells == 0


def _kernel_builds(monkeypatch):
    """Spy on the kernel builders.

    Returns two lists that fill as the scan runs: the time shape of each
    `_time_kernels` call, and the k values and time shape of each
    `_coupling` call, which builds cos 2B on one row per k value it gets.
    """
    times, couplings = [], []
    time_kernels, coupling = duan_module._time_kernels, duan_module._coupling

    def spy_time(t):
        times.append(np.shape(t))
        return time_kernels(t)

    def spy_coupling(time, k, func, fast):
        couplings.append((np.ravel(k).tolist(), np.shape(time[0])))
        return coupling(time, k, func, fast)

    monkeypatch.setattr(duan_module, "_time_kernels", spy_time)
    monkeypatch.setattr(duan_module, "_coupling", spy_coupling)
    return times, couplings


def _slab_sizes(n, slab):
    return [min(slab, n - start) for start in range(0, n, slab)]


@pytest.mark.parametrize("shared", [True, False])
def test_window_minima_builds_shared_k_kernels_once(monkeypatch, shared):
    # with one amplitude at zero no cell is refined, so every kernel below
    # belongs to the scan of 100 cells on 4001 points, plus one build at the
    # grid neighbours of the minima, one row per cell
    times, couplings = _kernel_builds(monkeypatch)
    window, r_a, r_b = _WINDOWS["envelope"]
    k = 0.74 if shared else np.linspace(0.5, 1.0, 100)
    res = window_minima(
        "AB", window, r_a, r_b, alpha=0.0, beta=np.linspace(0.1, 2.0, 100), nbar=0.01, k=k
    )
    assert res.mode == "envelope" and res.scanned_cells == 100
    assert not res.refined.any()
    # the bounded scan builds the time kernels of the whole grid once
    assert times == [(4001,), (100, 2)]
    if shared:
        # and the k kernels of the whole grid once, at the one shared k
        assert couplings == [([0.74], (4001,)), ([0.74], (100, 2))]
        return
    # with a k per cell, it builds the k kernels only at the 32 points of
    # each evaluated (cell, block) pair, one k per pair, at most a
    # temporary's worth of pairs per call
    assert len(couplings[-1][0]) == 100 and couplings[-1][1] == (100, 2)
    pairs = 0
    for ks, shape in couplings[:-1]:
        assert shape == (duan_module._SCAN_BLOCK, len(ks))
        assert len(ks) <= duan_module._TEMP_ELEMENTS // duan_module._SCAN_BLOCK
        assert set(ks) <= set(k.tolist())
        pairs += len(ks)
    # each cell has at most one pair on the last block, which holds 1 point
    assert 0 <= 32 * pairs - (res.evaluated_points - 2 * 100) <= 31 * 100
    assert res.evaluated_points <= 0.1 * 100 * 4001


def test_window_minima_couples_each_slab_to_each_distinct_k_once(monkeypatch):
    # fig4a's layout on a witness without block floors (D_AC): k classes of
    # cells that differ in nbar alone, here of 20 cells (more than one group
    # of 8), 3, 3, 1, 1, 1 and 5 cells, given out of order of k
    times, couplings = _kernel_builds(monkeypatch)
    sizes = [20, 3, 3, 1, 1, 1, 5]
    ks = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1])
    k = np.repeat(ks, sizes)
    nbar = np.concatenate([np.linspace(0.0, 0.4, size) for size in sizes])
    order = np.random.default_rng(5).permutation(k.size)
    window, r_a, r_b = _WINDOWS["envelope"]
    res = window_minima("AC", window, r_a, r_b, alpha=0.0, beta=0.7, nbar=nbar[order], k=k[order])
    assert res.scanned_cells == 34 and not res.refined.any()
    slabs = _slab_sizes(4001, duan_module._TEMP_ELEMENTS // 8)
    assert times == [(size,) for size in slabs] + [(34, 2)]
    # each slab builds cos 2B once per distinct k, in batches of whole
    # classes of at most 8 cells, or of the one larger class
    batches = [[0.5], [0.6, 0.7, 0.8, 0.9], [1.0, 1.1]]
    assert couplings[:-1] == [(batch, (size,)) for size in slabs for batch in batches]
    assert sorted(sum(batches, [])) == ks.tolist()
    # the neighbours of the minima: one row per cell
    assert len(couplings[-1][0]) == 34 and couplings[-1][1] == (34, 2)


@pytest.mark.parametrize("window", [-0.01, 0.0, math.nan, math.inf, -math.inf])
def test_window_minima_rejects_bad_window(window):
    with pytest.raises(ValueError, match="window must be positive and finite"):
        window_minima("AB", window, 30.0, 30.0, alpha=0.5, beta=0.5, nbar=0.0, k=0.5)


def test_window_minima_zero_amplitude_cells_stay_separable():
    zeros = np.zeros(4)
    others = np.array([0.0, 0.5, 1.0, 2.0])
    res = window_minima(
        "AB", 9.353966, *_OPTICAL_R,
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


def _per_cell_kernels(time, k, nbar, fast):
    """The kernels of time coupled to each cell's own (k, nbar), with no k shared.

    The reference coupling for `duan._coupling` and `duan._couple`: every
    array that depends on k is built at the k of each row, in the curves'
    own operation order; sin 2B and both carriers, cos(fast t) and
    cos(fast t + 2B), are always built.
    """
    t, unit_b, eta_t, eta_sq = time
    twob = 2.0 * (k ** 2 * unit_b)
    thermal = k ** 2 * eta_sq * (2.0 * nbar + 1.0)
    drive, carrier = np.cos(fast * t), np.cos(fast * t + twob)
    return duan_module._Kernels(
        t, unit_b, eta_t, eta_sq, k, nbar, np.cos(twob), np.sin(twob), drive, carrier, thermal
    )


def _block_extremes(values, size=duan_module._SCAN_BLOCK):
    """(min, max) of values over each block of size points of its last axis."""
    starts = np.arange(0, np.shape(values)[-1], size)
    return np.minimum.reduceat(values, starts, axis=-1), np.maximum.reduceat(values, starts, axis=-1)


def _block_bounds(time, kern, size=duan_module._SCAN_BLOCK):
    """The bounded scan's (min cos 2B, max cos 2B, max |sin 2B|, min theta, max theta) per block.

    kern holds the kernels of the whole grid time at one k per row, or at
    one shared k; the blocks hold size points. cos and sin are bounded by
    `duan._trig_bounds` on the block extremes of 2B, the thermal exponent
    theta by its exact block extremes. None where an argument of cos or a
    bound is not finite.
    """
    u_lo, u_hi = _block_extremes(time[1], size)
    k_sq = np.asarray(kern.k) ** 2
    lo, hi = 2.0 * (k_sq * u_lo), 2.0 * (k_sq * u_hi)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return None
    thermal = np.broadcast_to(kern.thermal, np.broadcast_shapes(kern.cos_twob.shape, np.shape(kern.thermal)))
    bounds = (*duan_module._trig_bounds(lo, hi), *_block_extremes(thermal, size))
    return bounds if all(np.all(np.isfinite(b)) for b in bounds) else None


def _reference_scan(func, grid, params, m, r_a, r_b):
    """Whole-grid reference for `duan._scan`: every kernel built on the whole grid at once.

    The grid is np.linspace's, and the kernels are coupled to each cell's
    own k (`_per_cell_kernels`). func on (rows, n) blocks of cells, then
    each row's argmin and the strict-interior test against its two grid
    neighbours. Takes what `_scan` takes and returns what a full scan
    returns, then two more entries for an envelope D_AB whose amplitudes
    stay below about 1e7 and whose bounds are all finite (else None):

    - the (lower, upper) bounds of the grid values a bounded scan
      evaluates. Both count each cell's lowest-floor block and two
      neighbours. upper adds the blocks whose floor is within the margin of
      that block's minimum. Where k and nbar are shared, the scan drops a
      block whose 8-point sub-floors all exceed the cell's running minimum
      plus the margin, and that minimum falls in an order of blocks that
      this reference does not follow: lower adds only the blocks holding a
      sub-floor within the margin of the cell's final minimum. With k or
      nbar per cell, lower is upper;
    - the largest excess of `_block_floor`, on the 32-point blocks and on
      the 8-point sub-blocks, over the minimum of the grid values it bounds.
    """
    alpha, beta, nbar, k = params
    n = grid.size
    time = duan_module._time_kernels(np.linspace(0.0, grid.t_max, n))
    best, d_grid, strict = np.empty(m, dtype=np.intp), np.empty(m), np.empty(m, dtype=bool)
    sizes = np.diff(np.append(np.arange(0, n, duan_module._SCAN_BLOCK), n))
    per_block = duan_module._SCAN_BLOCK // duan_module._SUB_BLOCK
    total = np.broadcast_to(np.asarray(alpha) ** 2 + np.asarray(beta) ** 2, (m,))
    bounded = func is duan_module._ab_lower and np.all(duan_module._TRIG_ERROR * total < 1.0)
    shared = np.ndim(k) == np.ndim(nbar) == 0
    lower = upper = 2 * m
    excess = -np.inf
    rows = max(1, 2 ** 16 // n)
    for start in range(0, m, rows):
        block = slice(start, min(start + rows, m))
        size = block.stop - block.start
        at = np.arange(size)

        def col(p):
            return p if np.ndim(p) == 0 else p[block, None]

        kern = _per_cell_kernels(time, col(k), col(nbar), r_a + r_b)
        values = np.broadcast_to(func(kern, col(alpha), col(beta), r_a, r_b), (size, n))
        i = np.argmin(values, axis=1)
        d = values[at, i]
        strict[block] = (
            (i > 0) & (i < n - 1)
            & (d < values[at, np.maximum(i - 1, 0)])
            & (d < values[at, np.minimum(i + 1, n - 1)])
        )
        best[block], d_grid[block] = i, d
        bounds = [_block_bounds(time, kern, s) if bounded else None for s in (duan_module._SCAN_BLOCK, duan_module._SUB_BLOCK)]
        if bounds[0] is None or bounds[1] is None:
            bounded = False
            continue
        a, b = (np.broadcast_to(p, (m,))[block, None] for p in (alpha, beta))
        tot = a ** 2 + b ** 2
        margin = duan_module._BOUND_MARGIN * (1.0 + tot)
        floor, sub_floor = (duan_module._block_floor(tot, 2.0 * np.abs(a * b), bound) for bound in bounds)
        minima = _block_extremes(values)[0]
        excess = max(
            excess,
            float(np.max(floor - minima)),
            float(np.max(sub_floor - _block_extremes(values, duan_module._SUB_BLOCK)[0])),
        )
        lowest = np.argmin(floor, axis=1)
        survives = floor <= minima[at, lowest][:, None] + margin
        survives[at, lowest] = True
        upper += int((survives * sizes).sum())
        if shared:
            reach = sub_floor <= d[:, None] + margin
            survives = np.logical_or.reduceat(reach, np.arange(0, reach.shape[1], per_block), axis=1)
            survives[at, lowest] = True
        lower += int((survives * sizes).sum())
    if not bounded:
        return best, d_grid, strict, m * n, None, None
    return best, d_grid, strict, m * n, (lower, upper), excess


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _scan_against_reference(monkeypatch, bipartition, window, r_a, r_b, **cells):
    """window_minima, and window_minima on the whole-grid reference scan of the same cells.

    Returns both results and both scans: `_scan`'s (best, d_grid, strict,
    evaluated) per distinct cell, and `_reference_scan`'s. The scan runs
    twice, and its reruns agree to the bit and the count.
    """
    real = duan_module._scan
    scans = {}

    def spy(*args):
        scans["scan"] = real(*args)
        rerun = real(*args)
        assert all(_same_bits(got, want) for got, want in zip(rerun[:3], scans["scan"][:3]))
        assert rerun[3] == scans["scan"][3]
        scans["reference"] = _reference_scan(*args)
        return scans["scan"]

    monkeypatch.setattr(duan_module, "_scan", spy)
    res = window_minima(bipartition, window, r_a, r_b, **cells)
    monkeypatch.setattr(duan_module, "_scan", lambda *args: scans["reference"][:4])
    ref = window_minima(bipartition, window, r_a, r_b, **cells)
    return res, ref, scans["scan"], scans["reference"]


def _assert_scan_is_exact(res, ref, scan, ref_scan):
    for name, got, want in zip(("best", "d_grid", "strict"), scan[:3], ref_scan[:3]):
        assert _same_bits(got, want), name
    for field in ("t_star", "d_star", "refined"):
        assert _same_bits(getattr(res, field), getattr(ref, field)), field
    assert ref.evaluated_points == ref_scan[3]
    bounded = ref_scan[4] is not None
    assert res.evaluated_points == scan[3]
    if bounded:
        lower, upper = ref_scan[4]
        assert lower <= scan[3] <= upper
        # the block and sub-block floors bound every computed grid value,
        # with no slack used
        assert ref_scan[5] <= 0.0
    else:
        assert scan[3] == ref_scan[3]
    return bounded


def _bounded_against_reference(monkeypatch, window, r_a, r_b, **cells):
    """The D_AB envelope minima on the bounded scan, checked bitwise against the reference."""
    res, ref, scan, ref_scan = _scan_against_reference(monkeypatch, "AB", window, r_a, r_b, **cells)
    assert res.mode == "envelope"
    assert _assert_scan_is_exact(res, ref, scan, ref_scan), "the bounded scan did not run"
    return res, ref, scan


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
    d = cli._domain("fig4b", v)
    window, r_a, r_b = d.window, d.r_a, d.r_b
    alphas, betas = d.alpha_axis, d.beta_axis
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
    res, ref, scan = _bounded_against_reference(monkeypatch, window, r_a, r_b, **cells)
    assert res.scanned_cells == 5151
    assert ref.evaluated_points == 5151 * 4001
    assert res.evaluated_points <= 0.08 * 5151 * 4001
    assert res.refined.any() and scan[2].any()


def test_bounded_scan_across_slabs_and_groups(monkeypatch):
    # a budget of 2**10 cuts fig4b's 5,151 cells into 11 groups of survivor
    # masks (10 of 512 cells, one of 31), their floors into chunks of 8
    # cells, the sub-floors of a surviving block into chunks of 256 cells
    # and their block folds into 32 cells each
    monkeypatch.setattr(duan_module, "_TEMP_ELEMENTS", 2 ** 10)
    floors = []
    real = duan_module._block_floor

    def spy(*args):
        floor = real(*args)
        floors.append((args[0].size, np.size(args[2][0]), floor.size))
        return floor

    monkeypatch.setattr(duan_module, "_block_floor", spy)
    window, r_a, r_b, cells = _fig4b_cells(_FIG4B_TEMPERATURES[0])
    res, _, _ = _bounded_against_reference(monkeypatch, window, r_a, r_b, **cells)
    assert res.scanned_cells == 5151
    # the scan's calls twice, then the reference's rows of 16 cells, each on
    # the 126 blocks and the 501 sub-blocks of the grid
    ref = floors[-2 * 322:]
    assert ref == [(16, blocks, 16 * blocks) for _ in range(321) for blocks in (126, 501)] + [
        (15, 126, 15 * 126), (15, 501, 15 * 501)
    ]
    scan = floors[:-2 * 322]
    assert scan[:len(scan) // 2] == scan[len(scan) // 2:]
    scan = scan[:len(scan) // 2]
    assert [c for c, blocks, _ in scan if blocks == 126] == [8] * (10 * 64 + 3) + [7]
    # the sub-floors of one surviving block: its four sub-blocks, or the one
    # of the last block, which holds 1 point, for at most 256 cells at once
    sub = [(c, blocks, size) for c, blocks, size in scan if blocks != 126]
    assert {blocks for _, blocks, _ in sub} == {1, 4}
    assert all(size == c * blocks <= duan_module._TEMP_ELEMENTS for c, blocks, size in sub)
    assert max(c for c, _, _ in sub) == duan_module._TEMP_ELEMENTS // 4


@pytest.mark.parametrize(
    "t_max", [5e-324, 1e-320, 3e-310, 1e-3, 4.0 * math.pi, 9.353966, 2000.0, 1e6, 1e300]
)
def test_grid_points_are_linspace_bitwise(t_max):
    # the smallest windows make linspace's step underflow to 0, where it
    # divides before it multiplies
    for size in (65, 4001, 4002, 10_187):
        grid = duan_module._Grid(t_max, size)
        want = np.linspace(0.0, t_max, size)
        assert grid.points(np.arange(size)).tobytes() == want.tobytes(), size
        # a slab across an unaligned edge, and scattered points
        assert grid.points(np.arange(37, size)).tobytes() == want[37:].tobytes()
        index = np.array([[size - 1, 0], [1, size - 2]])
        assert grid.points(index).tobytes() == want[index].tobytes()


def test_near_switch_grid_points_are_linspace_bitwise():
    grid, mode = duan_module._scan_grid(4.0 * math.pi, 2 * 24_999.0)
    assert mode == "direct" and grid.size == 1_599_937
    want = np.linspace(0.0, 4.0 * math.pi, grid.size)
    slab = duan_module._TEMP_ELEMENTS
    for start in range(0, grid.size, slab):
        index = np.arange(start, min(start + slab, grid.size))
        assert grid.points(index).tobytes() == want[index].tobytes(), start


def test_envelope_grid_fits_one_temporary():
    # the bounded scan builds the kernels of the whole envelope grid at once,
    # which keeps its temporaries within _TEMP_ELEMENTS only while no
    # envelope grid is longer: a step of t_max / 4000 gives 4,001 points, or
    # 4,002 where t_max / step rounds above 4000
    rng = np.random.default_rng(22000)
    sizes = set()
    for window in 10.0 ** rng.uniform(-6.0, 12.0, 22_000):
        grid, mode = duan_module._scan_grid(float(window), 1e18)
        assert mode == "envelope"
        sizes.add(grid.size)
    assert sizes <= {4001, 4002}
    assert 4002 <= duan_module._TEMP_ELEMENTS


def _fig4a_cells(*overrides):
    """window, r_a, r_b and the cells of `optomech fig4a` with the given overrides."""
    from optomech import cli

    v = cli.resolve_config("fig4a", overrides=overrides).values
    d = cli._domain("fig4a", v)
    window, r_a, r_b = d.window, d.r_a, d.r_b
    ks = d.k_axis
    nbars = [thermal_occupation(T, v["omega_m_rad_per_s"]) for T in v["temperatures_K"]]
    cells = dict(
        alpha=v["alpha"], beta=v["beta"], nbar=np.tile(nbars, ks.size), k=np.repeat(ks, len(nbars))
    )
    return window, r_a, r_b, cells


_RNG = np.random.default_rng(20260)
_RANDOM_AMPLITUDES = dict(alpha=_RNG.uniform(-2.0, 2.0, 40), beta=_RNG.uniform(-2.0, 2.0, 40))
# 40 cells in five k classes, k = 0 and the regime boundary among them, each
# class at several nbar
_MIXED_K = dict(
    k=np.resize([0.0, 0.3, K_REGIME_BOUNDARY, 0.74, 1.2], 40), nbar=np.resize([0.0, 0.05, 0.2], 40)
)
_ENVELOPE = 9.353966
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
    # the default 4,001 grid points: the last block holds 1 of 32
    "grid-not-multiple": dict(**_RANDOM_AMPLITUDES, nbar=0.01, k=0.74),
    "one-cell": dict(alpha=0.5, beta=0.7, nbar=0.01, k=0.74),
    # cells with their own k and nbar
    "fig4a": _fig4a_cells()[3],
    "mixed-k": dict(**_RANDOM_AMPLITUDES, **_MIXED_K),
    "mixed-k-nbar-0": dict(**_RANDOM_AMPLITUDES, k=_MIXED_K["k"], nbar=0.0),
    "mixed-nbar": dict(**_RANDOM_AMPLITUDES, k=0.74, nbar=_MIXED_K["nbar"]),
    # windows whose 32-point blocks span many envelope periods, so cos 2B
    # and sin 2B take their whole range in every block
    **{
        f"mixed-k-window-{window:.0e}": dict(**_RANDOM_AMPLITUDES, **_MIXED_K, window=window)
        for window in (1e6, 1e9, 1e12)
    },
    # a budget of 2**10 takes the floors, incumbents and surviving blocks
    # of 8 cells at a time, and 32 (cell, block) pairs per evaluation
    "fig4a-budget-2**10": dict(_fig4a_cells()[3], budget=2 ** 10),
    "mixed-k-budget-2**10": dict(**_RANDOM_AMPLITUDES, **_MIXED_K, budget=2 ** 10),
}


@pytest.mark.parametrize("case", sorted(_BOUNDED_CASES))
def test_bounded_scan_is_bitwise_the_full_scan(monkeypatch, case):
    cells = dict(_BOUNDED_CASES[case])
    window = cells.pop("window", _ENVELOPE)
    monkeypatch.setattr(duan_module, "_TEMP_ELEMENTS", cells.pop("budget", duan_module._TEMP_ELEMENTS))
    res, ref, _ = _bounded_against_reference(monkeypatch, window, *_OPTICAL_R, **cells)
    n = duan_module._scan_grid(window, sum(_OPTICAL_R))[0].size
    assert ref.evaluated_points == res.scanned_cells * n
    if case == "grid-not-multiple":
        assert n == 125 * duan_module._SCAN_BLOCK + 1
    if case == "one-cell":
        assert res.d_star.shape == () and res.scanned_cells == 1
    if case == "random-k-0":
        # D_AB = 1 everywhere, so every block survives: the scan computes
        # every grid value once, plus two neighbours per cell
        assert res.evaluated_points == res.scanned_cells * (n + 2)


def test_trig_bounds_contain_the_block_extremes():
    # random k and windows from 1e-3 to 1e13: each bound holds every
    # computed cos 2B and |sin 2B| of its block, at the block edges too
    rng = np.random.default_rng(2121)
    short = 0
    for window in 10.0 ** rng.uniform(-3.0, 13.0, 40):
        time = duan_module._time_kernels(np.linspace(0.0, window, 4001))
        k = np.concatenate([[0.0, K_REGIME_BOUNDARY], rng.uniform(0.0, 3.0, 14)])[:, None]
        twob = 2.0 * (k ** 2 * time[1])
        u_lo, u_hi = _block_extremes(time[1])
        c_lo, c_hi, s_hi = duan_module._trig_bounds(2.0 * (k ** 2 * u_lo), 2.0 * (k ** 2 * u_hi))
        cos_lo, cos_hi = _block_extremes(np.cos(twob))
        assert np.all(c_lo <= cos_lo) and np.all(cos_hi <= c_hi)
        assert np.all(_block_extremes(np.abs(np.sin(twob)))[1] <= s_hi)
        if window < 2.0:
            # a block of a short window spans a small part of a period of
            # cos 2B, and its bounds say so
            assert np.all(c_hi - c_lo < 1.0)
            short += 1
    assert short == 8


@pytest.mark.parametrize("cells", sorted(_CELLS))
@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_scan_is_bitwise_the_whole_grid_reference(monkeypatch, bipartition, mode, cells):
    # a budget of 2**9 cuts every grid without a floor into slabs of 64
    # points for groups of 8 cells, and the bounded scan's cells into small
    # floor chunks and block folds, so slab and group edges fall inside each
    # grid
    monkeypatch.setattr(duan_module, "_TEMP_ELEMENTS", 2 ** 9)
    window, r_a, r_b = _WINDOWS[mode]
    res, ref, scan, ref_scan = _scan_against_reference(monkeypatch, bipartition, window, r_a, r_b, **_CELLS[cells])
    assert res.mode == mode and res.refined.any()
    bounded = _assert_scan_is_exact(res, ref, scan, ref_scan)
    # the envelope D_AB has a certified floor, with k and nbar shared or per cell
    assert bounded == (bipartition == "AB" and mode == "envelope")


# the fig4a (alpha, beta) of the witness-grid benchmark at seeds 0-9, the
# first fig4a's default, and its direct-mode overrides (carriers at the
# mechanical frequency)
_FIG4A_AMPLITUDES = [
    (0.5, 0.5), (0.552755, 0.451014), (0.41131, 0.416974), (0.473991, 0.520784),
    (0.479212, 0.430994), (0.559039, 0.58849), (0.497007, 0.452324), (0.530187, 0.414487),
    (0.425266, 0.540963), (0.427708, 0.573312),
]
_OMEGA_M = 2.0 * math.pi * 95.0e3
_FIG4A_DIRECT = tuple(
    f"{name}={_OMEGA_M!r}" for name in ("omega_m_rad_per_s", "omega_a_rad_per_s", "omega_b_rad_per_s")
) + ("window_scaled=2000.0",)


def test_fig4a_default_amplitudes_are_the_first_benchmark_ones():
    from optomech.cli import FIELDS

    assert (FIELDS["fig4a"]["alpha"][0], FIELDS["fig4a"]["beta"][0]) == _FIG4A_AMPLITUDES[0]


@pytest.mark.parametrize("mode", ["envelope", "direct"])
@pytest.mark.parametrize("seed", range(len(_FIG4A_AMPLITUDES)))
def test_per_cell_scan_is_bitwise_the_reference_on_fig4a(monkeypatch, seed, mode):
    # 60 k values times 3 temperatures: each k class is 3 cells
    alpha, beta = _FIG4A_AMPLITUDES[seed]
    overrides = (f"alpha={alpha!r}", f"beta={beta!r}") + (_FIG4A_DIRECT if mode == "direct" else ())
    window, r_a, r_b, cells = _fig4a_cells(*overrides)
    res, ref, scan, ref_scan = _scan_against_reference(monkeypatch, "AB", window, r_a, r_b, **cells)
    assert res.mode == mode and res.scanned_cells == 180
    assert _assert_scan_is_exact(res, ref, scan, ref_scan) == (mode == "envelope")
    assert res.refined.any()
    if mode == "envelope":
        # 3.6-5.5% of the grid at these seeds, against every value without
        # block floors
        assert res.evaluated_points <= 0.1 * 180 * 4001


_PER_CELL_K = {
    # one k class of 20 cells, more than a group of 8
    "large-class": dict(
        alpha=0.5, beta=0.6, nbar=np.tile(np.linspace(0.0, 0.5, 20), 3), k=np.repeat([0.3, 0.74, 1.2], 20)
    ),
    # k values one ulp apart, and 0.0 beside -0.0, each at two nbar
    "ulp-and-signed-zero": dict(
        alpha=0.5, beta=0.6, nbar=np.tile([0.0, 0.2], 6),
        k=np.repeat([0.74, math.nextafter(0.74, 1.0), math.nextafter(0.74, 0.0), 0.0, -0.0, 0.3], 2),
    ),
}


@pytest.mark.parametrize("budget", [2 ** 9, 2 ** 13])
@pytest.mark.parametrize("case", sorted(_PER_CELL_K))
@pytest.mark.parametrize("mode", sorted(_WINDOWS))
@pytest.mark.parametrize("bipartition", ["AB", "AC", "BC"])
def test_per_cell_k_scan_is_bitwise_the_reference(monkeypatch, bipartition, mode, case, budget):
    # at 2**9 the slabs hold 64 points, so slab edges fall inside the grid
    monkeypatch.setattr(duan_module, "_TEMP_ELEMENTS", budget)
    window, r_a, r_b = _WINDOWS[mode]
    cells = _PER_CELL_K[case]
    res, ref, scan, ref_scan = _scan_against_reference(monkeypatch, bipartition, window, r_a, r_b, **cells)
    assert res.mode == mode and res.scanned_cells == cells["k"].size
    assert _assert_scan_is_exact(res, ref, scan, ref_scan) == (bipartition == "AB" and mode == "envelope")


def test_k_batches_keep_bitwise_distinct_k_apart():
    # 0.0 and -0.0 interleaved, and the other classes out of order
    k = _PER_CELL_K["ulp-and-signed-zero"]["k"][[6, 8, 7, 9, 11, 0, 3, 10, 1, 4, 2, 5]]
    batches = duan_module._k_batches(k, k.size, 8)
    # each distinct k once, in order of k; 0.0 and -0.0 compare equal, so
    # their bits order them
    below, above = math.nextafter(0.74, 0.0), math.nextafter(0.74, 1.0)
    rows = [[float(x).hex() for x in np.ravel(k_rows)] for k_rows, _ in batches]
    assert rows == [[x.hex() for x in batch] for batch in ([0.0, -0.0, 0.3, below], [0.74, above])]
    for k_rows, groups in batches:
        for cells, local in groups:
            assert cells.size <= 8
            # local picks each cell's row, or the rows need no gather
            got = np.broadcast_to(np.ravel(k_rows), cells.shape) if local is None else np.ravel(k_rows)[local]
            assert got.tobytes() == k[cells].tobytes()


def test_near_switch_direct_scan_memory():
    # one cell on the direct grid just below the 1e5-cycle switch: 1,599,937
    # points, which the scan builds and walks slab by slab; the peak was
    # 1.13 MiB, against 13.0 MiB while the grid was built whole
    tracemalloc.start()
    try:
        res = window_minima("AB", 4.0 * math.pi, 24_999.0, 24_999.0, alpha=0.5, beta=0.5, nbar=0.01, k=0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.mode == "direct" and res.evaluated_points == 1_599_937
    assert float(res.t_star).hex() == "0x1.921ec4e36c718p+2"
    assert float(res.d_star).hex() == "0x1.989fc5b049eb5p-1"
    assert peak <= 4 * 2 ** 20


def _synthetic_grid(monkeypatch, cos, theta):
    """A grid on [0, 1] whose kernels at k = 0.5 and nbar = 0 have the given cos 2B and theta.

    `_time_kernels` is replaced by a lookup of each grid point's entries:
    2B = 2 (0.25 unit_b) = arccos(cos) and theta = 0.25 |eta|^2 exactly.
    """
    unit_b, eta_sq = 2.0 * np.arccos(cos), 4.0 * theta

    def lookup(t):
        t = np.asarray(t, dtype=float)
        i = np.rint(t * (cos.size - 1)).astype(int)
        return t, unit_b[i], t.astype(complex), eta_sq[i]

    monkeypatch.setattr(duan_module, "_time_kernels", lookup)
    return duan_module._Grid(1.0, cos.size)


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


def _tie_among_survivors():
    # points 5 and 40 share the minimum, in blocks 0 and 1, while block 3's
    # wide ranges give it the lowest floor; both other blocks survive, and
    # their first minimum is the answer
    cos, theta = np.full(128, 0.2), np.full(128, 0.3)
    cos[[5, 40]], theta[[5, 40]] = 0.9, 0.1
    cos[96:], theta[96:] = 0.5, 2.0
    cos[98], theta[98] = 1.0, 5.0
    cos[99], theta[99] = 0.0, 0.0
    return cos, theta, [5, 5], [True, True]


def _tie_across_sub_blocks():
    # points 3 and 13 share the minimum, in sub-blocks 0 and 1 of block 0,
    # while block 2's wide ranges give it the lowest floor; the first is
    # the answer, and with k shared block 1 falls to its sub-floors once
    # block 0's minimum is known
    cos, theta = np.full(96, 0.2), np.full(96, 0.3)
    cos[[3, 13]], theta[[3, 13]] = 0.9, 0.1
    cos[64:], theta[64:] = 0.5, 2.0
    cos[66], theta[66] = 1.0, 5.0
    cos[67], theta[67] = 0.0, 0.0
    return cos, theta, [3, 3], [True, True]


def _plateau():
    # points 40 and 41 share the minimum: 40 is the answer, and not a strict one
    cos, theta = np.full(96, 0.2), np.full(96, 0.3)
    cos[40:42] = 0.5
    return cos, theta, [40, 40], [False, False]


@pytest.mark.parametrize(
    "layout",
    [_tie_across_blocks, _plateau, _tie_among_survivors, _tie_across_sub_blocks],
    ids=lambda f: f.__name__[1:],
)
def test_bounded_scan_on_equal_grid_values(monkeypatch, layout):
    # with beta = 0, D_AB = 1 + alpha**2 (1 - env) falls as env rises, so
    # equal (cos 2B, theta) give bitwise equal values
    cos, theta, best, strict = layout()
    grid = _synthetic_grid(monkeypatch, cos, theta)
    if layout is _tie_across_blocks:
        time = duan_module._time_kernels(np.linspace(0.0, 1.0, grid.size))
        bounds = _block_bounds(time, _per_cell_kernels(time, 0.5, 0.0, 2.0))
        assert np.argmin(duan_module._block_floor(np.array([[1.0]]), np.array([[0.0]]), bounds)) == 2
    # k shared, read from the kernels of the whole grid, or one per cell,
    # built at the points of each evaluated (cell, block) pair
    for k in (0.5, np.array([0.5, 0.5])):
        params = (np.array([1.0, 0.6]), np.array([0.0, 0.0]), 0.0, k)
        args = (duan_module._ab_lower, grid, params, 2, 1.0, 1.0)
        scan = duan_module._scan(*args)
        ref = _reference_scan(*args)
        assert list(ref[0]) == best and list(ref[2]) == strict
        for got, want in zip(scan[:3], ref[:3]):
            assert _same_bits(got, want)
        lower, upper = ref[4]
        assert lower <= scan[3] <= upper
        if np.ndim(k):
            # the second level runs only where k and nbar are shared
            assert scan[3] == lower == upper
        elif layout is _tie_across_sub_blocks:
            # block 0 then block 2 per cell, and the neighbours; block 1
            # survives the first level for the cell at alpha = 1.0
            assert scan[3] == lower == 2 * (64 + 2) < upper


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_cell", [False, True], ids=["one-first", "first-per-cell"])
def test_running_minimum_is_argmin_over_its_folds(seed, per_cell):
    # three levels and NaN, so ties and NaNs meet across chunk edges; cell 0
    # is one tie, cell 1 all NaN, and cell 2 has its one NaN at the end
    rng = np.random.default_rng(seed)
    m, n = 9, 48
    values = rng.choice([0.0, 0.5, 1.0, np.nan], size=(m, n), p=[0.3, 0.3, 0.3, 0.1])
    values[0], values[1], values[2, :-1], values[2, -1] = 0.5, np.nan, 1.0, np.nan
    minima = duan_module._Minima(m, n)
    if per_cell:
        # every cell folds 8-point chunks at once, each cell in its own order
        starts = np.array([rng.permutation(np.arange(0, n, 8)) for _ in range(m)]).T
        for first in starts:
            v = values[np.arange(m), first + np.arange(8)[:, None]]
            minima.fold(v, np.arange(m), first)
    else:
        # uneven chunks in random order, each folded for the cells in two groups
        edges = np.concatenate([[0], np.sort(rng.choice(np.arange(1, n), 5, replace=False)), [n]])
        for lo, hi in rng.permutation(np.stack([edges[:-1], edges[1:]], axis=1)):
            for cells in np.array_split(rng.permutation(m), 2):
                minima.fold(values[cells, lo:hi].T, cells, lo)
    want = np.argmin(values, axis=1)
    assert _same_bits(minima.best, want.astype(np.intp))
    assert _same_bits(minima.d, values[np.arange(m), want])
    assert list(want[:3]) == [0, 0, n - 1]


def test_strict_interior_on_a_hand_built_grid(monkeypatch):
    # with beta = 0, D_AB falls as cos 2B rises: an edge minimum at each end,
    # a plateau at 40-41, a strict dip at 70 and its higher neighbour 69
    cos, theta = np.full(96, 0.2), np.full(96, 0.3)
    cos[[0, 95]], cos[40:42], cos[70] = 0.9, 0.5, 0.7
    grid = _synthetic_grid(monkeypatch, cos, theta)
    points = np.array([0, 95, 40, 41, 70, 69])
    w = duan_module._Witness(duan_module._ab_lower, 1.0, 0.0, 0.0, 0.5, points.size, 1.0, 1.0)
    time = duan_module._time_kernels(np.linspace(0.0, 1.0, grid.size))
    values = w.values(w.kernels(time, None), None)
    assert values[40] == values[41] and values[70] < values[69] == values[71]
    minima = duan_module._Minima(points.size, grid.size)
    minima.fold(values[points][None, :], np.arange(points.size), points)
    assert list(minima.best) == list(points)
    strict = duan_module._strict_interior(w, grid, minima)
    assert list(strict) == [False, False, False, False, True, False]


@pytest.mark.parametrize(
    "cells",
    [
        # every value is exactly 1, so every block and sub-block survives
        dict(alpha=np.linspace(0.05, 2.0, 12), beta=np.linspace(0.05, 2.0, 12), nbar=0.05, k=0.0),
        dict(**_RANDOM_AMPLITUDES, nbar=0.01, k=0.74),
    ],
    ids=["k-0-equal", "random"],
)
def test_second_level_reads_only_the_sub_blocks_of_the_grid(monkeypatch, cells):
    # 4,001 points: the last block holds 1 point, so 1 sub-block, and its
    # three missing sub-blocks must keep no cell
    sub_blocks = []
    real = duan_module._block_floor

    def spy(*args):
        if np.size(args[2][0]) <= duan_module._SCAN_BLOCK // duan_module._SUB_BLOCK:
            sub_blocks.append(np.size(args[2][0]))
        return real(*args)

    monkeypatch.setattr(duan_module, "_block_floor", spy)
    res, ref, scan, ref_scan = _scan_against_reference(monkeypatch, "AB", _ENVELOPE, *_OPTICAL_R, **cells)
    assert _assert_scan_is_exact(res, ref, scan, ref_scan)
    n = duan_module._scan_grid(_ENVELOPE, sum(_OPTICAL_R))[0].size
    assert n == 125 * duan_module._SCAN_BLOCK + 1
    assert set(sub_blocks) <= {1, 4}
    if cells["k"] == 0.0:
        assert np.all(res.d_star == 1.0) and not res.refined.any()
        # each cell keeps every block, the 1-point one through its one
        # sub-block, and the bounds meet
        assert 1 in sub_blocks
        assert res.evaluated_points == ref_scan[4][0] == ref_scan[4][1] == res.scanned_cells * (n + 2)


def _assert_keeps_every_block(monkeypatch, large, k):
    """window_minima of the cells (0.5, 0.5) and (large, 0.5), with every grid value evaluated."""
    if large > duan_module._MAX_AMPLITUDE:
        # window_minima refuses such a cell; the scan's own guard is pinned behind that check
        monkeypatch.setattr(duan_module, "_check_cell", lambda *args: None)
    floors = []
    real = duan_module._block_floor
    monkeypatch.setattr(duan_module, "_block_floor", lambda *args: floors.append(args) or real(*args))
    with np.errstate(all="ignore"):
        res, ref, scan, ref_scan = _scan_against_reference(
            monkeypatch, "AB", _ENVELOPE, *_OPTICAL_R,
            alpha=[0.5, large], beta=0.5, nbar=0.0, k=k,
        )
        assert not _assert_scan_is_exact(res, ref, scan, ref_scan)
    assert floors == []
    assert res.evaluated_points == 2 * 4001
    return res


def test_bounded_scan_skips_overflowing_inputs(monkeypatch):
    # amplitudes whose squares overflow (the cell check refuses them; the
    # helper goes round it) keep the full scan, whose argmin meets the NaN
    # at t = 0 first
    res = _assert_keeps_every_block(monkeypatch, 1e200, 0.74)
    assert np.isnan(res.d_star[1]) and np.isfinite(res.d_star[0])


@pytest.mark.parametrize("large, k", [(1e200, [0.6, 0.74]), (2e7, 0.74), (2e7, [0.6, 0.74])])
def test_bounded_scan_keeps_every_block_of_large_amplitudes(monkeypatch, large, k):
    # with k per cell too; and amplitudes of 2e7, whose D_AB is finite but
    # above which exp(2 T _TRIG_ERROR) could overflow a floor
    res = _assert_keeps_every_block(monkeypatch, large, k)
    assert np.isfinite(res.d_star[0]) and np.isnan(res.d_star[1]) == (large == 1e200)


def _oracle_envelope(pair, state, k, t):
    """A pair's lower envelope over the carrier phase from the Fock oracle.

    In the interaction picture the carrier and mechanical phases drop out of
    every moment; they would rotate <a1 a2> - <a1><a2>, so its real part is
    replaced by minus its modulus.
    """
    from optomech.oracle import apply_evolution, moments

    m = moments(apply_evolution(state, t, k, 1.0, 1.0, interaction_picture=True))[pair]
    return m.occ1 + m.occ2 - 2.0 * abs(m.corr - m.mean1 * m.mean2) - abs(m.mean1) ** 2 - abs(m.mean2) ** 2 + 1.0


def _oracle_state(alpha, beta, nbar, k):
    from optomech.oracle import FockConfig, coherent_thermal_state

    return coherent_thermal_state(
        alpha, beta, nbar, FockConfig.for_coherent_thermal(alpha, beta, nbar, k, 1e-10)
    )


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
        state = _oracle_state(float(a), float(b), cells["nbar"], cells["k"])
        oracle = _oracle_envelope("AB", state, cells["k"], float(t))
        assert d == pytest.approx(oracle, rel=1e-6), (a, b, t)


def test_fig3_lower_envelopes_agree_with_the_oracle():
    # the three _lower columns of `optomech fig3` at its defaults (k = 0.74,
    # optical carriers, one photon lifetime) at 12 of its 2,000 times; the
    # largest deviations read 2.9e-10 (AB) and 2.3e-9 (AC, BC) relative
    from optomech import cli

    cfg = cli.resolve_config("fig3")
    v = cfg.values
    table = cli.run_fig3(cfg)
    assert v["k"] == 0.74 and v["omega_a_rad_per_s"] / v["omega_m_rad_per_s"] > 1e9
    nbar = thermal_occupation(v["temperature_K"], v["omega_m_rad_per_s"])
    state = _oracle_state(v["alpha"], v["beta"], nbar, v["k"])
    rows = np.linspace(0, len(table.rows) - 1, 12).round().astype(int)
    for pair in ("AB", "AC", "BC"):
        t_col, d_col = table.columns.index("t"), table.columns.index(f"duan_{pair.lower()}_lower")
        for row in rows:
            t, d = table.rows[row][t_col], table.rows[row][d_col]
            assert d == pytest.approx(_oracle_envelope(pair, state, v["k"], t), rel=1e-6), (pair, t)


def test_envelope_mean_grows_with_temperature():
    # thermal dephasing exp(-k^2 |eta|^2 (2 nbar + 1)) weakens the dip
    # everywhere except the eta = 0 nodes, so the window-averaged envelope
    # rises with temperature even though the global minimum does not move
    t = np.linspace(0.0, 9.353966, 2001)
    means = []
    for T in (0.1e-6, 0.4e-6, 0.8e-6):
        cell = dict(alpha=0.5, beta=0.5, nbar=thermal_occupation(T, TABLE_OMEGA_M), k=TABLE_K)
        means.append(float(np.mean(duan_values(t, "AB", TABLE_R, TABLE_R, **cell, lower=True))))
    assert means[0] < means[1] < means[2]


class TestRegimeReport:
    def test_boundary_constant(self):
        assert K_REGIME_BOUNDARY == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_high_coupling_operating_point(self):
        rr = regime_report(0.74, TABLE_OMEGA_M, 63812.78373776075)
        assert rr.regime == "high"
        assert rr.feasibility_condition == "resolved_sideband"
        assert rr.envelope_period == pytest.approx(2.0 * math.pi, rel=1e-12)
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
        # the period is in scaled time, whatever omega_m
        rr = regime_report(k, omega_m, 63812.78373776075)
        assert rr.envelope_period == entanglement_period(k, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            regime_report(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            regime_report(0.5, 1.0, -1.0)
        with pytest.raises(ValueError, match="omega_m"):
            regime_report(0.5, 0.0, 1.0)

    def test_report_holds_what_a_command_writes(self):
        assert [f.name for f in dataclasses.fields(RegimeReport)] == [
            "regime", "feasibility_condition", "feasibility_ratio", "envelope_period",
        ]

    def test_ratio_is_bitwise_the_python_float_arithmetic(self):
        # g0 is a numpy float, which squares through pow() as a Python float
        # does; a 0-d array squares as g0 * g0, which differs for some doubles
        def python_ratio(k, omega_m, kappa):
            kappa_angular = 2.0 * math.pi * kappa
            if k < K_REGIME_BOUNDARY:
                g0 = k * omega_m
                return g0 ** 2 / (omega_m * kappa_angular)
            return omega_m / kappa_angular

        rng = np.random.default_rng(7)
        n = 20_000
        # three in four below the regime boundary, where the ratio squares g0
        ks = rng.uniform(1e-3, 0.95, n)
        omegas = 10.0 ** rng.uniform(-3.0, 12.0, n)
        kappas = 10.0 ** rng.uniform(-3.0, 12.0, n)
        points = list(zip(ks.tolist(), omegas.tolist(), kappas.tolist()))
        uneven = [k * w for k, w, _ in points if k < K_REGIME_BOUNDARY and (k * w) ** 2 != (k * w) * (k * w)]
        assert len(uneven) >= 5, uneven
        got = [repr(regime_report(*point).feasibility_ratio) for point in points]
        assert got == [repr(python_ratio(*point)) for point in points]

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert regime_report(0.5, 1e300, 1.0).feasibility_ratio == math.inf
            assert regime_report(1e-300, 1.0, 1.0).envelope_period == math.inf
            high = regime_report(0.74, 1e300, 1e-300)
        assert high.regime == "high" and high.feasibility_ratio == math.inf
