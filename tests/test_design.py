import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from optomech import duan
from optomech.core import CODATA2018
from optomech.design import (
    CALIBRATION_REFERENCE,
    DEFAULT_DETUNING_RAD_S,
    RB87_D2_WAVELENGTH_M,
    AtomEnsembleSpec,
    CavityGeometry,
    DesignSearchSpace,
    NanoparticleSpec,
    atom_coupling,
    cavity_linewidth,
    design_report,
    entanglement_period,
    heating_budget,
    nanoparticle_coupling,
    optimize_design,
    proposed_atom_spec,
    proposed_geometry,
    _band_run,
)

OMEGA_M = 2.0 * math.pi * 95e3


class TestCavityGeometry:
    def test_free_spectral_range(self):
        g = proposed_geometry()
        assert g.nu_fsr == pytest.approx(299792458.0 / (2.0 * 783e-6), rel=1e-12)

    def test_waist_and_mode_volume(self):
        g = proposed_geometry()
        assert g.waist == pytest.approx(3.307838750104261e-05, rel=1e-10)
        assert g.mode_volume == pytest.approx(math.pi * g.waist**2 * g.L, rel=1e-12)

    def test_rejects_unstable_length(self):
        with pytest.raises(ValueError):
            CavityGeometry(L=0.11, R_mirror=0.05, finesse=1e5)
        with pytest.raises(ValueError):
            CavityGeometry(L=0.0, R_mirror=0.05, finesse=1e5)

    def test_rejects_low_finesse(self):
        with pytest.raises(ValueError):
            CavityGeometry(L=1e-4, R_mirror=0.05, finesse=0.5)


def test_cavity_linewidth_frozen():
    kappa, tau_p = cavity_linewidth(proposed_geometry())
    assert kappa == pytest.approx(63812.78373776075, rel=1e-10)
    assert tau_p == pytest.approx(1.5670841192409183e-05, rel=1e-10)
    assert tau_p == pytest.approx(1.0 / kappa, rel=1e-14)
    # the proposed cavity decays at 64 kHz to within a few permille
    assert abs(kappa - 64e3) / 64e3 < 0.02
    assert 15.6e-6 < tau_p < 15.7e-6


def test_calibration_point_recovers_published_coupling():
    cal = CALIBRATION_REFERENCE
    geom = CavityGeometry(L=cal["L_m"], R_mirror=cal["R_mirror_m"], finesse=2.0)
    spec = AtomEnsembleSpec(N=cal["N"], omega_m=cal["omega_m_rad_per_s"])
    k = atom_coupling(spec, geom) / cal["omega_m_rad_per_s"]
    assert k == pytest.approx(9.499506025822793, rel=1e-10)
    assert abs(k - cal["k_expected"]) / cal["k_expected"] < 0.10


def test_proposed_operating_point_frozen():
    g0 = atom_coupling(proposed_atom_spec(), proposed_geometry())
    assert g0 == pytest.approx(446533.6801424146, rel=1e-10)
    assert g0 / OMEGA_M == pytest.approx(0.7480846573861115, rel=1e-10)


def test_atom_coupling_scaling_laws():
    geom = proposed_geometry()
    spec = proposed_atom_spec()
    base = atom_coupling(spec, geom)
    quadrupled = AtomEnsembleSpec(N=4.0 * spec.N, omega_m=spec.omega_m)
    assert atom_coupling(quadrupled, geom) == pytest.approx(2.0 * base, rel=1e-12)
    detuned = AtomEnsembleSpec(N=spec.N, omega_m=spec.omega_m, Delta_ca=2.0 * DEFAULT_DETUNING_RAD_S)
    assert atom_coupling(detuned, geom) == pytest.approx(base / 2.0, rel=1e-12)


def test_entanglement_period_by_regime():
    assert entanglement_period(0.5, 1.0) == pytest.approx(math.pi / 0.25, rel=1e-12)
    assert entanglement_period(1.0, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    # the boundary coupling already belongs to the fast-period branch
    assert entanglement_period(1.0 / math.sqrt(2.0), 1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert entanglement_period(0.5, 2.0) == pytest.approx(math.pi / 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        entanglement_period(0.0, 1.0)


def test_entanglement_period_is_the_duan_rule():
    # one regime rule: design re-exports the duan function itself
    assert entanglement_period is duan.entanglement_period
    assert isinstance(entanglement_period(0.5, 1.0), float)


def test_entanglement_period_on_arrays_matches_each_element():
    boundary = duan.K_REGIME_BOUNDARY
    k = np.concatenate([
        np.linspace(0.05, 2.0, 101),
        [boundary, np.nextafter(boundary, 0.0), np.nextafter(boundary, 1.0)],
    ])
    omega_m = np.array([1.0, OMEGA_M, 2.0 * math.pi * 40e3])
    grid = entanglement_period(k[None, :], omega_m[:, None])
    assert grid.shape == (3, k.size)
    for i, w in enumerate(omega_m):
        for j, kj in enumerate(k):
            assert grid[i, j] == entanglement_period(float(kj), float(w)), (w, kj)
    with pytest.raises(ValueError, match="k must"):
        entanglement_period(np.array([0.5, 0.0]), 1.0)
    with pytest.raises(ValueError, match="omega_m"):
        entanglement_period(0.5, np.array([1.0, -1.0]))


class TestDesignReport:
    def test_ratio_at_eval_finesse_frozen(self):
        rep = design_report(proposed_atom_spec(), proposed_geometry(finesse=5.8e5))
        assert rep.ratio == pytest.approx(3.4743802398054853, rel=1e-9)
        assert abs(rep.ratio - 3.46) / 3.46 < 0.05

    def test_minimum_finesse_frozen(self):
        rep = design_report(proposed_atom_spec(), proposed_geometry(finesse=5.8e5))
        assert rep.min_finesse_for_unity_ratio == pytest.approx(2015140.5390871814, rel=1e-9)
        assert abs(rep.min_finesse_for_unity_ratio - 2.01e6) / 2.01e6 < 0.05

    def test_minimum_finesse_independent_of_eval_finesse(self):
        low = design_report(proposed_atom_spec(), proposed_geometry(finesse=5.8e5))
        high = design_report(proposed_atom_spec(), proposed_geometry(finesse=3.0e6))
        assert low.min_finesse_for_unity_ratio == pytest.approx(
            high.min_finesse_for_unity_ratio, rel=1e-12
        )

    def test_ratio_at_proposed_finesse_frozen(self):
        rep = design_report(proposed_atom_spec(), proposed_geometry(finesse=3.0e6))
        assert rep.ratio == pytest.approx(0.6717135130290606, rel=1e-9)
        assert abs(rep.ratio - 0.669) / 0.669 < 0.02

    def test_report_is_self_consistent(self):
        rep = design_report(proposed_atom_spec(), proposed_geometry(finesse=3.0e6))
        assert rep.k == pytest.approx(rep.g0 / OMEGA_M, rel=1e-12)
        assert rep.ratio == pytest.approx(rep.tau_e / rep.tau_p, rel=1e-12)
        assert rep.tau_e == pytest.approx(entanglement_period(rep.k, OMEGA_M), rel=1e-12)


class TestHeatingBudget:
    def test_cavity_heating_dwarfs_free_space(self):
        hb = heating_budget(proposed_atom_spec(), proposed_geometry())
        assert hb.r_fs == pytest.approx(7.716224204485233e-27, rel=1e-9)
        assert hb.r_c == pytest.approx(8.29059484608232e-20, rel=1e-9)
        assert hb.r_c / hb.r_fs == pytest.approx(10744367.486449163, rel=1e-9)
        assert hb.backaction_dominates

    def test_rate_ratio_does_not_depend_on_prefactor_grouping(self):
        hb = heating_budget(proposed_atom_spec(), proposed_geometry())
        assert hb.r_c / hb.r_fs == pytest.approx(hb.r_c_alt / hb.r_fs_alt, rel=1e-12)

    def test_energy_ratio_frozen(self):
        hb = heating_budget(proposed_atom_spec(), proposed_geometry())
        assert hb.energy_ratio == pytest.approx(117626.38007882715, rel=1e-9)
        assert hb.energy_ratio_alt == pytest.approx(5.795259401824266e-07, rel=1e-9)

    def test_empty_cavity_does_not_heat(self):
        hb = heating_budget(proposed_atom_spec(), proposed_geometry(), nbar_cav=0.0)
        assert hb.r_c == 0.0
        assert hb.r_fs == 0.0
        assert hb.energy_ratio == 0.0


class TestNanoparticle:
    def test_coupling_frozen(self):
        spec = NanoparticleSpec(r=50e-9, n_p=1.45, m=1.1e-18, V_i=1e-15, k_i=2 * math.pi / 1064e-9)
        assert nanoparticle_coupling(spec, 2.0 * math.pi * 1e5) == pytest.approx(
            19273.202271052534, rel=1e-10
        )

    def test_index_matched_particle_does_not_couple(self):
        spec = NanoparticleSpec(
            r=50e-9, n_p=1.0 + 1e-12, m=1.1e-18, V_i=1e-15, k_i=2 * math.pi / 1064e-9
        )
        assert nanoparticle_coupling(spec, 2.0 * math.pi * 1e5) < 1e-6

    def test_polarizability_scales_with_volume(self):
        small = NanoparticleSpec(r=50e-9, n_p=1.45, m=1.1e-18, V_i=1e-15, k_i=2 * math.pi / 1064e-9)
        large = NanoparticleSpec(r=100e-9, n_p=1.45, m=1.1e-18, V_i=1e-15, k_i=2 * math.pi / 1064e-9)
        assert large.polarizability == pytest.approx(8.0 * small.polarizability, rel=1e-12)

    def test_rejects_nonphysical_index(self):
        with pytest.raises(ValueError):
            NanoparticleSpec(r=50e-9, n_p=0.9, m=1.1e-18, V_i=1e-15, k_i=2 * math.pi / 1064e-9)


class TestOptimizeDesign:
    @pytest.mark.parametrize(
        "R_mirror, L_expect, N_expect, min_finesse_expect",
        [
            (0.01, 1238e-6, 384000.0, 1274519.4201173398),
            (0.025, 1024e-6, 567000.0, 1540874.0645559244),
            (0.05, 810e-6, 568000.0, 1947969.1877842797),
            (0.10, 642e-6, 569000.0, 2457718.1341203526),
        ],
    )
    def test_optimum_per_mirror_radius_frozen(self, R_mirror, L_expect, N_expect, min_finesse_expect):
        res = optimize_design(DesignSearchSpace(R_mirror=R_mirror))
        assert res.L == pytest.approx(L_expect, rel=1e-9)
        assert res.N == N_expect
        assert res.omega_m == pytest.approx(OMEGA_M, rel=1e-12)
        assert res.report.min_finesse_for_unity_ratio == pytest.approx(min_finesse_expect, rel=1e-9)

    def test_winning_coupling_avoids_exclusion_bands(self):
        res = optimize_design(DesignSearchSpace(R_mirror=0.05))
        gaps = [abs(res.report.k - math.sqrt(n / 2.0)) for n in range(1, 9)]
        assert min(gaps) > 0.02

    def test_single_point_grid_returns_that_point(self):
        space = DesignSearchSpace(
            R_mirror=0.05,
            L_min=810e-6,
            L_max=810e-6,
            N_min=568000.0,
            N_max=568000.0,
            trap_frequencies_Hz=(95e3,),
        )
        res = optimize_design(space)
        assert res.n_evaluated == 1
        assert res.L == pytest.approx(810e-6, rel=1e-12)
        assert res.omega_m == OMEGA_M
        assert res.report.k == pytest.approx(0.7272759329667948, rel=1e-9)

    def test_everything_excluded_reports_infeasible(self):
        # bands wide enough to swallow every coupling the grid can produce
        space = DesignSearchSpace(R_mirror=0.05, exclusion_halfwidth=50.0)
        with pytest.raises(ValueError, match="exclusion band"):
            optimize_design(space)

    def test_empty_grid_raises_naming_the_radius(self):
        # every length at or above 2 R_mirror leaves no cavity to search
        space = DesignSearchSpace(R_mirror=1.0e-4, L_min=200e-6)
        with pytest.raises(ValueError, match=r"^design search at mirror radius 0\.0001 m: empty search grid$"):
            optimize_design(space)


def test_optimizer_holds_no_grid_in_memory():
    # one float (L, N) block of the default grid alone is 526 x 481 x 8 bytes,
    # 1.9 MiB; the row reduction keeps a few arrays of one value per row
    tracemalloc.start()
    try:
        optimize_design(DesignSearchSpace(R_mirror=0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"


_BAD_SEARCH_FIELDS = [
    ("R_mirror", 0.0), ("R_mirror", -0.05), ("R_mirror", math.nan), ("R_mirror", math.inf),
    ("L_min", 0.0), ("L_min", math.nan),
    ("L_max", 100e-6), ("L_max", math.inf),
    ("L_step", 0.0), ("L_step", -1e-6),
    ("N_min", 0.5), ("N_min", math.nan),
    ("N_max", 5.0e4), ("N_max", math.inf),
    ("N_step", 0.0), ("N_step", math.nan),
    ("trap_frequencies_Hz", ()), ("trap_frequencies_Hz", (OMEGA_M, 0.0)),
    ("trap_frequencies_Hz", (-OMEGA_M,)), ("trap_frequencies_Hz", (math.nan,)),
    ("trap_frequencies_Hz", (math.inf,)),
    ("finesse_eval", 1.0), ("finesse_eval", 0.0), ("finesse_eval", math.inf),
    ("exclusion_halfwidth", -0.01), ("exclusion_halfwidth", math.nan),
    ("exclusion_n_max", -1), ("exclusion_n_max", 2.5),
    ("plateau_rtol", -0.01), ("plateau_rtol", math.inf),
    ("atom_template", AtomEnsembleSpec(N=1.0e5, Delta_ca=-DEFAULT_DETUNING_RAD_S)),
    ("trap_frequencies_Hz", (1e308,)),  # finite in Hz, but 2 pi f overflows
]


@pytest.mark.parametrize("name, value", _BAD_SEARCH_FIELDS)
def test_search_space_rejects_bad_field_by_name(name, value):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        DesignSearchSpace(**{"R_mirror": 0.05, name: value})


def test_search_space_accepts_its_boundary_values():
    space = DesignSearchSpace(
        R_mirror=0.05, L_max=200e-6, N_min=1.0, N_max=1.0, exclusion_halfwidth=0.0,
        exclusion_n_max=0, plateau_rtol=0.0, trap_frequencies_Hz=(1,),
    )
    assert optimize_design(space).n_evaluated == 1


def _k_excluded_by_band_loop(k, halfwidth, n_max):
    """The per-band scan: True where k lies in some band |k - sqrt(n/2)| <= halfwidth."""
    bad = np.zeros(np.shape(k), dtype=bool)
    for n in range(1, n_max + 1):
        bad |= np.abs(k - math.sqrt(n / 2.0)) <= halfwidth
    return bad


def _inline_k_grids(search):
    """(L_values, N_values, kappa, [(omega_m, k_grid), ...]) of the full search grid.

    Its own copies of the mode volume, coupling and linewidth formulas, in
    their own operation order.
    """
    L_values = np.arange(search.L_min, search.L_max + 0.5 * search.L_step, search.L_step)
    L_values = L_values[L_values < 2.0 * search.R_mirror]
    N_values = np.arange(search.N_min, search.N_max + 0.5 * search.N_step, search.N_step)
    tmpl = search.atom_template
    hbar = CODATA2018.hbar
    lam = RB87_D2_WAVELENGTH_M
    k_a = 2.0 * math.pi / lam
    omega_c = 2.0 * math.pi * CODATA2018.c / lam
    vol = (lam / 2.0) * L_values * np.sqrt(L_values * (2.0 * search.R_mirror - L_values))
    alpha0_sq = tmpl.d ** 2 * omega_c / (2.0 * hbar * CODATA2018.epsilon_0 * vol)
    kappa = CODATA2018.c / (2.0 * L_values) / search.finesse_eval
    grids = []
    for omega_m in (2.0 * math.pi * f for f in search.trap_frequencies_Hz):
        g0_per_sqrt_n = (
            k_a * (alpha0_sq / tmpl.Delta_ca) * math.sqrt(hbar / (2.0 * tmpl.m_atom * omega_m))
        )
        grids.append((omega_m, np.sqrt(N_values)[None, :] * (g0_per_sqrt_n / omega_m)[:, None]))
    return L_values, N_values, kappa, grids


def _inline_plateau(search):
    """(n_evaluated, plateau hits (L, N, omega_m)) of an exhaustive scan of every grid point."""
    L_values, N_values, kappa, grids = _inline_k_grids(search)
    best = None
    candidates = []
    n_evaluated = 0
    for omega_m, k_grid in grids:
        feasible = ~_k_excluded_by_band_loop(k_grid, search.exclusion_halfwidth, search.exclusion_n_max)
        n_evaluated += k_grid.size
        if not feasible.any():
            continue
        tau_e = np.where(
            k_grid < 1.0 / math.sqrt(2.0),
            math.pi / (omega_m * k_grid ** 2),
            2.0 * math.pi / omega_m,
        )
        ratio_masked = np.where(feasible, tau_e * kappa[:, None], np.inf)
        candidates.append((omega_m, ratio_masked))
        if best is None or ratio_masked.min() < best:
            best = float(ratio_masked.min())
    hits = []
    for omega_m, ratio_masked in candidates:
        for iL, iN in zip(*np.nonzero(ratio_masked <= best * (1.0 + search.plateau_rtol))):
            hits.append((float(L_values[iL]), float(N_values[iN]), float(omega_m)))
    return n_evaluated, hits


def _inline_grid_search(search):
    """(L, N, omega_m, n_evaluated) as the exhaustive scan finds them, or why it finds none."""
    n_evaluated, hits = _inline_plateau(search)
    where = f"design search at mirror radius {search.R_mirror} m"
    if n_evaluated == 0:
        return f"{where}: empty search grid"
    if not hits:
        return f"{where}: no feasible design: every coupling lands in an exclusion band"
    return (*min(hits), n_evaluated)


def _outcome(search):
    """optimize_design's (L, N, omega_m, n_evaluated), or the message of the ValueError it raises."""
    try:
        result = optimize_design(search)
    except ValueError as exc:
        return str(exc)
    return (result.L, result.N, result.omega_m, result.n_evaluated)


# the default radii, then the design-search benchmark's radii and finesse
# at its seeds 1-3
_PINNED_SEARCHES = [(R, 5.8e5) for R in (0.01, 0.025, 0.05, 0.10)] + [
    (R, F)
    for radii, F in (
        ((0.008605, 0.029534, 0.057185, 0.091478), 598174.0),
        ((0.012302, 0.030663, 0.041272, 0.083819), 734200.0),
        ((0.009071, 0.026123, 0.048324, 0.107176), 650288.0),
    )
    for R in radii
]


@pytest.mark.parametrize("R_mirror, finesse", _PINNED_SEARCHES)
def test_optimizer_picks_what_the_inline_grid_search_picked(R_mirror, finesse):
    search = DesignSearchSpace(R_mirror=R_mirror, finesse_eval=finesse)
    assert _outcome(search) == _inline_grid_search(search)


# two trap frequencies and N >= 2e5 keep every coupling above the regime
# boundary, so the ratio is flat along every row and rows tie in blocks
_FLAT_ROWS = dict(trap_frequencies_Hz=(40.0e3, 42.0e3), N_min=2.0e5)

_EDGE_SEARCHES = {
    "halfwidth-0": dict(exclusion_halfwidth=0.0),
    "halfwidth-0.2-overlapping": dict(exclusion_halfwidth=0.2, exclusion_n_max=11),
    "n_max-0": dict(exclusion_n_max=0),
    "n_max-1": dict(exclusion_n_max=1),
    "n_max-11": dict(exclusion_n_max=11),
    "rtol-0": dict(plateau_rtol=0.0),
    "rtol-0.05": dict(plateau_rtol=0.05),
    "omega-unsorted-duplicated": dict(
        trap_frequencies_Hz=(95.0e3, 60.0e3, 95.0e3, 40.0e3, 75.0e3, 60.0e3)
    ),
    "flat-rows": dict(_FLAT_ROWS, exclusion_halfwidth=0.1),
    "flat-rows-rtol-0": dict(_FLAT_ROWS, plateau_rtol=0.0),
    "flat-rows-overlapping": dict(_FLAT_ROWS, exclusion_halfwidth=0.2, exclusion_n_max=11),
    "single-point": dict(
        L_min=810e-6, L_max=810e-6, N_min=568000.0, N_max=568000.0, trap_frequencies_Hz=(95.0e3,)
    ),
    "single-point-excluded": dict(
        L_min=810e-6, L_max=810e-6, N_min=568000.0, N_max=568000.0,
        trap_frequencies_Hz=(95.0e3,), exclusion_halfwidth=0.05,
    ),
    "all-excluded": dict(exclusion_halfwidth=50.0),
    "empty-grid": dict(L_min=0.2, L_max=0.3),  # every length above 2 R_mirror
}


@pytest.mark.parametrize("settings", _EDGE_SEARCHES.values(), ids=_EDGE_SEARCHES.keys())
def test_optimizer_matches_the_exhaustive_scan_on_edge_cases(settings):
    search = DesignSearchSpace(**{"R_mirror": 0.05, **settings})
    assert _outcome(search) == _inline_grid_search(search)


def test_edge_cases_are_what_their_names_claim():
    flat = DesignSearchSpace(R_mirror=0.05, **_FLAT_ROWS)
    _, _, _, grids = _inline_k_grids(flat)
    assert min(k_grid.min() for _, k_grid in grids) > 1.0 / math.sqrt(2.0)
    _, hits = _inline_plateau(replace(flat, exclusion_halfwidth=0.1))
    rows = {(L, omega_m) for L, _, omega_m in hits}
    assert len(rows) > 5 and len(hits) > 50 * len(rows)  # ties across and along rows
    for name, feasible in (("single-point", True), ("single-point-excluded", False)):
        point = DesignSearchSpace(R_mirror=0.05, **_EDGE_SEARCHES[name])
        assert isinstance(_inline_grid_search(point), tuple) is feasible


@pytest.mark.parametrize("halfwidth", [0.0, 0.02, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 8, 11])
def test_k_excluded_matches_band_loop(halfwidth, n_max):
    # the optimizer's per-band index runs mark exactly the couplings the
    # band loop marks, on band centres and edges and one ulp either side
    rng = np.random.default_rng(1000 * n_max + int(100 * halfwidth))
    centres = np.sqrt(np.arange(0, 14) / 2.0)
    k = np.unique(np.concatenate([
        rng.uniform(0.0, 3.0, 300),
        centres, centres + halfwidth, np.abs(centres - halfwidth),
        np.nextafter(centres + halfwidth, np.inf), np.nextafter(centres + halfwidth, 0.0),
        np.nextafter(np.abs(centres - halfwidth), np.inf),
        np.nextafter(np.abs(centres - halfwidth), 0.0),
    ]))
    k = k[k > 0]
    c = np.array([1.0, 0.75, 1.3])
    want = _k_excluded_by_band_loop(k[None, :] * c[:, None], halfwidth, n_max)
    got = np.zeros(want.shape, dtype=bool)
    index = np.arange(k.size)
    for n in range(1, n_max + 1):
        lo, hi = _band_run(k, c, math.sqrt(n / 2.0), halfwidth)
        got |= (lo[:, None] <= index) & (index < hi[:, None])
    assert np.array_equal(got, want)
    # and the band loop itself is the scalar definition
    for kj in k[::7]:
        scalar = any(abs(kj - math.sqrt(n / 2.0)) <= halfwidth for n in range(1, n_max + 1))
        assert _k_excluded_by_band_loop(kj, halfwidth, n_max) == scalar
