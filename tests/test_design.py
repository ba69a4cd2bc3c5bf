import math

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
    _k_excluded,
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
        assert res.feasible
        assert res.L == pytest.approx(L_expect, rel=1e-9)
        assert res.N == N_expect
        assert res.omega_m == pytest.approx(OMEGA_M, rel=1e-12)
        assert res.report.min_finesse_for_unity_ratio == pytest.approx(min_finesse_expect, rel=1e-9)

    def test_winning_coupling_avoids_exclusion_bands(self):
        res = optimize_design(DesignSearchSpace(R_mirror=0.05))
        gaps = [abs(res.k - math.sqrt(n / 2.0)) for n in range(1, 9)]
        assert min(gaps) > 0.02

    def test_single_point_grid_returns_that_point(self):
        space = DesignSearchSpace(
            R_mirror=0.05,
            L_min=810e-6,
            L_max=810e-6,
            N_min=568000.0,
            N_max=568000.0,
            omega_m_values=(OMEGA_M,),
        )
        res = optimize_design(space)
        assert res.feasible
        assert res.n_evaluated == 1
        assert res.L == pytest.approx(810e-6, rel=1e-12)
        assert res.k == pytest.approx(0.7272759329667948, rel=1e-9)

    def test_everything_excluded_reports_infeasible(self):
        # bands wide enough to swallow every coupling the grid can produce
        space = DesignSearchSpace(R_mirror=0.05, exclusion_halfwidth=50.0)
        res = optimize_design(space)
        assert not res.feasible
        assert "exclusion band" in res.message


def _inline_grid_search(search):
    """(L, N, omega_m, n_evaluated) by the grid search optimize_design used to inline.

    Its own copies of the mode volume, coupling, linewidth and period
    formulas, in their own operation order.
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
    best = None
    candidates = []
    n_evaluated = 0
    for omega_m in search.omega_m_values:
        g0_per_sqrt_n = (
            k_a * (alpha0_sq / tmpl.Delta_ca) * math.sqrt(hbar / (2.0 * tmpl.m_atom * omega_m))
        )
        k_grid = np.sqrt(N_values)[None, :] * (g0_per_sqrt_n / omega_m)[:, None]
        feasible = ~_k_excluded(k_grid, search.exclusion_halfwidth, search.exclusion_n_max)
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
    cutoff = best * (1.0 + search.plateau_rtol)
    rows = []
    for omega_m, ratio_masked in candidates:
        for iL, iN in zip(*np.nonzero(ratio_masked <= cutoff)):
            rows.append((float(L_values[iL]), float(N_values[iN]), float(omega_m)))
    return (*min(rows), n_evaluated)


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
    res = optimize_design(search)
    assert (res.L, res.N, res.omega_m, res.n_evaluated) == _inline_grid_search(search)


def _k_excluded_by_band_loop(k, halfwidth, n_max):
    """The per-band scan that the nearest-band arithmetic replaced."""
    bad = np.zeros(np.shape(k), dtype=bool)
    for n in range(1, n_max + 1):
        bad |= np.abs(k - math.sqrt(n / 2.0)) <= halfwidth
    return bad


@pytest.mark.parametrize("halfwidth", [0.0, 0.02, 0.3, 1.0])
@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 8, 11])
def test_k_excluded_matches_band_loop(halfwidth, n_max):
    rng = np.random.default_rng(1000 * n_max + int(100 * halfwidth))
    centres = np.sqrt(np.arange(0, 14) / 2.0)
    k = np.concatenate([
        rng.uniform(0.0, 3.0, 300),
        # on every band centre and edge, and one ulp either side of each edge
        centres, centres + halfwidth, np.abs(centres - halfwidth),
        np.nextafter(centres + halfwidth, np.inf), np.nextafter(centres + halfwidth, 0.0),
        np.nextafter(np.abs(centres - halfwidth), np.inf),
        np.nextafter(np.abs(centres - halfwidth), 0.0),
    ])
    for ks in (k, k[:300].reshape(20, 15)):
        want = _k_excluded_by_band_loop(ks, halfwidth, n_max)
        assert np.array_equal(_k_excluded(ks, halfwidth, n_max), want)
