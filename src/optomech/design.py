"""SI-unit feasibility calculators and a grid-search design optimizer.

The bare coupling g0 comes from a trapped ultracold atomic ensemble
dispersively coupled to the two cavity modes. On top of it sit the cavity
linewidth/photon-lifetime calculator, the entanglement-period estimate,
a heating budget, and a grid search that minimizes the ratio of
entanglement period to photon lifetime over cavity length, atom number and
trap frequency.

An ensemble is its atom number and trap frequency; every other atomic
input is a module constant for the 87Rb D2 line. The cavity-atom detuning
is calibrated once against CALIBRATION_REFERENCE below so that the
reference configuration reproduces its known coupling; everything
downstream of that single anchor is prediction, not fit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import C_LIGHT, EPSILON_0, HBAR, K_B, entanglement_period

__all__ = [
    "CavityGeometry",
    "AtomEnsembleSpec",
    "HeatingBudget",
    "DesignReport",
    "DesignSearchSpace",
    "OptimizeResult",
    "RB87_MASS_KG",
    "RB87_D2_WAVELENGTH_M",
    "RB87_D2_DIPOLE_CM",
    "DETUNING_RAD_S",
    "GAMMA_RAD_S",
    "TEMPERATURE_K",
    "CALIBRATION_REFERENCE",
    "cavity_linewidth",
    "atom_coupling",
    "heating_budget",
    "design_report",
    "optimize_design",
    "proposed_atom_spec",
    "proposed_geometry",
]

# ---------------------------------------------------------------------------
# BLOCK: atomic constants (87Rb D2 line)
# ---------------------------------------------------------------------------
RB87_MASS_KG = 1.44316e-25          # 86.909 u
RB87_D2_WAVELENGTH_M = 780.0e-9
RB87_D2_DIPOLE_CM = 3.584e-29       # reduced dipole matrix element, 4.227 e*a0
# Cavity-atom detuning, order 2*pi x 32 GHz. Fixed by requiring that
# CALIBRATION_REFERENCE below reproduce k = 9.50; see that constant.
DETUNING_RAD_S = 2.0297e11
#: atomic decay rate Gamma of the heating budget
GAMMA_RAD_S = 2.0 * math.pi * 1.0e3
#: ensemble temperature T: the thermal energy of the heating budget, and
#: the CLI's default temperature_K
TEMPERATURE_K = 0.8e-6
#: probe and cavity wavenumber 2 pi / lambda
_WAVENUMBER = 2.0 * math.pi / RB87_D2_WAVELENGTH_M

#: Reference ultracold-atom configuration used to pin the detuning.
#: With the constants above, atom_coupling reproduces k = g0/omega_m = 9.50
#: here to better than 0.1%.
CALIBRATION_REFERENCE = {
    "N": 1.0e5,
    "omega_m_rad_per_s": 2.0 * math.pi * 40.0e3,
    "L_m": 194.0e-6,
    "R_mirror_m": 5.0e-2,
    "k_expected": 9.50,
}


@dataclass(frozen=True)
class CavityGeometry:
    """Symmetric two-mirror cavity at the Rb-87 D2 wavelength: length, mirror curvature radius, finesse."""

    L: float
    R_mirror: float
    finesse: float

    def __post_init__(self) -> None:
        if not (0.0 < self.L < 2.0 * self.R_mirror):
            raise ValueError(
                f"need 0 < L < 2 R_mirror for a real waist, got L={self.L!r}, "
                f"R_mirror={self.R_mirror!r}"
            )
        if not (self.finesse > 1.0):
            raise ValueError(f"finesse must exceed 1, got {self.finesse!r}")


@dataclass(frozen=True)
class AtomEnsembleSpec:
    """Trapped 87Rb ensemble: atom count and trap frequency omega_m in rad/s."""

    N: float
    omega_m: float = 2.0 * math.pi * 95.0e3

    def __post_init__(self) -> None:
        # chained comparisons with math.inf also turn NaN away
        if not 1 <= self.N < math.inf:
            raise ValueError(f"N must be finite and >= 1, got {self.N!r}")
        if not 0 < self.omega_m < math.inf:
            raise ValueError(f"omega_m must be positive and finite, got {self.omega_m!r}")


@dataclass(frozen=True)
class HeatingBudget:
    """Backaction (r_c) and spontaneous-emission (r_fs) heating figures.

    The primary fields use the literal product grouping of the published
    symbol string (hbar k_p)^2/m * g0^2 * nbar_cav * Gamma/Delta_ca, which
    is dimensionally an energy times squared frequency and is reported
    as-is. The *_alt fields use the recoil-power grouping
    (hbar k_p)^2/m * (g0/Delta_ca)^2 * nbar_cav * Gamma, which is a power
    and yields a dimensionless energy_ratio. The ratio r_c/r_fs is the same
    dimensionless number under both groupings.
    """

    r_fs: float
    r_c: float
    energy_ratio: float
    r_fs_alt: float
    r_c_alt: float
    energy_ratio_alt: float

    @property
    def backaction_dominates(self) -> bool:
        return self.r_c > self.r_fs


@dataclass(frozen=True)
class DesignReport:
    """Derived feasibility quantities for one physical design."""

    g0: float
    k: float
    kappa: float
    tau_p: float
    tau_e: float
    ratio: float
    min_finesse_for_unity_ratio: float
    heating: HeatingBudget


# The design formulas below are each written once. They take numpy arrays
# of cavity lengths, so the optimizer's grid and the one-design report
# evaluate the same expressions in the same order.

def _waist(L, R_mirror):
    """Gaussian mode waist sqrt((lambda/2pi) sqrt(L (2R - L)))."""
    return np.sqrt((RB87_D2_WAVELENGTH_M / (2.0 * math.pi)) * np.sqrt(L * (2.0 * R_mirror - L)))


def _mode_volume(L, R_mirror):
    """V_c = pi w**2 L."""
    return math.pi * _waist(L, R_mirror) ** 2 * L


def _linewidth(L, finesse):
    """kappa = nu_FSR / finesse = c / (2 L finesse) in 1/s."""
    return C_LIGHT / (2.0 * L) / finesse


def _coupling(spec: AtomEnsembleSpec, L, R_mirror):
    """Collective coupling g0 in rad/s of spec's ensemble in the cavity of each length L."""
    omega_c = 2.0 * math.pi * C_LIGHT / RB87_D2_WAVELENGTH_M
    volume = _mode_volume(L, R_mirror)
    alpha0_sq = RB87_D2_DIPOLE_CM ** 2 * omega_c / (2.0 * HBAR * EPSILON_0 * volume)
    x_zpf_collective = math.sqrt(HBAR / (2.0 * spec.N * RB87_MASS_KG * spec.omega_m))
    return _WAVENUMBER * spec.N * (alpha0_sq / DETUNING_RAD_S) * x_zpf_collective


def cavity_linewidth(geom: CavityGeometry) -> tuple[float, float]:
    """(kappa, photon lifetime): kappa = nu_FSR / finesse in 1/s, tau_p = 1/kappa."""
    kappa = float(_linewidth(geom.L, geom.finesse))
    return kappa, 1.0 / kappa


def atom_coupling(spec: AtomEnsembleSpec, geom: CavityGeometry) -> float:
    """Collective dispersive coupling g0 in rad/s.

    g0 = k_a N (alpha0**2 / Delta_ca) sin(2 k_a z0) sqrt(hbar / 2 N m omega_m)
    with alpha0**2 = d**2 omega_c / (2 hbar eps0 V_c) and the ensemble placed
    at the maximal-gradient point, sin(2 k_a z0) = 1.
    """
    return float(_coupling(spec, geom.L, geom.R_mirror))


#: mean intracavity photon number nbar_cav of the heating budget
_NBAR_CAV = 0.25


def heating_budget(spec: AtomEnsembleSpec, geom: CavityGeometry) -> HeatingBudget:
    """Heating figures for the atomic ensemble; see HeatingBudget for the two groupings."""
    g0 = atom_coupling(spec, geom)
    kappa, tau_p = cavity_linewidth(geom)
    kappa_angular = 2.0 * math.pi * kappa
    recoil_like = (HBAR * _WAVENUMBER) ** 2 / RB87_MASS_KG
    r_fs = recoil_like * g0 ** 2 * _NBAR_CAV * GAMMA_RAD_S / DETUNING_RAD_S
    backaction_gain = spec.N * g0 ** 2 / (4.0 * GAMMA_RAD_S * kappa_angular)
    r_c = backaction_gain * r_fs
    thermal_energy = K_B * TEMPERATURE_K
    r_fs_alt = recoil_like * (g0 / DETUNING_RAD_S) ** 2 * _NBAR_CAV * GAMMA_RAD_S
    r_c_alt = backaction_gain * r_fs_alt
    return HeatingBudget(
        r_fs=r_fs,
        r_c=r_c,
        energy_ratio=r_c * tau_p / thermal_energy,
        r_fs_alt=r_fs_alt,
        r_c_alt=r_c_alt,
        energy_ratio_alt=r_c_alt * tau_p / thermal_energy,
    )


def design_report(spec: AtomEnsembleSpec, geom: CavityGeometry) -> DesignReport:
    """Assemble the derived feasibility quantities for one atom-ensemble design."""
    g0 = atom_coupling(spec, geom)
    k = g0 / spec.omega_m
    kappa, tau_p = cavity_linewidth(geom)
    tau_e = entanglement_period(k, spec.omega_m)
    ratio = tau_e / tau_p
    heating = heating_budget(spec, geom)
    return DesignReport(
        g0=g0,
        k=k,
        kappa=kappa,
        tau_p=tau_p,
        tau_e=tau_e,
        ratio=ratio,
        # ratio scales as 1/finesse at fixed geometry and tau_e never depends
        # on finesse, so the unity-ratio finesse follows exactly
        min_finesse_for_unity_ratio=geom.finesse * ratio,
        heating=heating,
    )


def proposed_atom_spec() -> AtomEnsembleSpec:
    """The proposed ultracold-atom operating point."""
    return AtomEnsembleSpec(N=5.43e5)


def proposed_geometry(finesse: float = 3.0e6) -> CavityGeometry:
    """The proposed cavity: L = 783 um, R = 5 cm, 780 nm."""
    return CavityGeometry(L=783.0e-6, R_mirror=5.0e-2, finesse=finesse)


#: the trap frequencies in Hz a design search may hold. The coupling scales
#: as f**-1.5 and the heating figures as f**-2: at the default search every
#: figure stays finite and nonzero from 1e-80 to 1e100 Hz, while 1e-300
#: overflowed the heating budget and 1e150 divided by zero
_TRAP_FREQUENCY_RANGE_HZ = (1e-50, 1e50)

#: most points of a design search's L or N axis, about 200 times the
#: defaults' 526 and 481; the search keeps a few arrays of one value per N
#: and per (trap frequency, L) row, which peak at 121 MiB for an L axis
#: this long at the 12 default trap frequencies
_MAX_AXIS_POINTS = 100_000


@dataclass(frozen=True)
class DesignSearchSpace:
    """Grid-search domain for optimize_design. R_mirror is fixed per run.

    Trap frequencies are ordinary frequencies in Hz, each from 1e-50 to
    1e50; optimize_design searches the angular frequencies 2 pi f.

    The coupling must avoid the bands |k - sqrt(n/2)| <= exclusion_halfwidth
    (n = 1..exclusion_n_max), where the optical witness becomes inconclusive.
    Because the objective is nearly flat along the feasibility frontier, all
    candidates within plateau_rtol of the best ratio are treated as ties and
    the lexicographically smallest (L, N, omega_m) wins. The L and N axes
    may hold at most 100,000 points each.
    """

    R_mirror: float
    L_min_m: float = 200.0e-6
    L_max_m: float = 1250.0e-6
    L_step_m: float = 2.0e-6
    N_min: float = 1.0e5
    N_max: float = 5.8e5
    N_step: float = 1.0e3
    trap_frequencies_Hz: tuple = tuple(40.0e3 + 5.0e3 * i for i in range(12))
    finesse_eval: float = 5.8e5
    exclusion_halfwidth: float = 0.02
    exclusion_n_max: int = 8
    plateau_rtol: float = 0.01

    def __post_init__(self) -> None:
        def need(name, ok, want):
            if not ok:
                raise ValueError(f"field {name!r}: must be {want}, got {getattr(self, name)!r}")

        # chained comparisons with math.inf also turn NaN away
        for name in ("R_mirror", "L_min_m", "L_step_m", "N_step"):
            need(name, 0 < getattr(self, name) < math.inf, "positive and finite")
        for name in ("exclusion_halfwidth", "plateau_rtol"):
            need(name, 0 <= getattr(self, name) < math.inf, "non-negative and finite")
        # the mode formulas hold for a standing wave; at 1e-300 m the mode volume underflowed to 0
        need("L_min_m", self.L_min_m >= 0.5 * RB87_D2_WAVELENGTH_M, "at least half the D2 wavelength")
        need("L_max_m", self.L_min_m <= self.L_max_m < math.inf, "finite and >= L_min_m")
        need("N_min", 1 <= self.N_min < math.inf, "finite and >= 1")
        need("N_max", self.N_min <= self.N_max < math.inf, "finite and >= N_min")
        need("finesse_eval", 1 < self.finesse_eval < math.inf, "finite and > 1")
        # the length of optimize_design's np.arange, refused before it is built
        for lo, hi, step in (("L_min_m", "L_max_m", "L_step_m"), ("N_min", "N_max", "N_step")):
            points = (getattr(self, hi) + 0.5 * getattr(self, step) - getattr(self, lo)) / getattr(self, step)
            want = f"large enough for at most {_MAX_AXIS_POINTS} points from {lo} to {hi}"
            need(step, points <= _MAX_AXIS_POINTS, want)
        freqs = np.asarray(self.trap_frequencies_Hz, dtype=float)
        low, high = _TRAP_FREQUENCY_RANGE_HZ
        need(
            "trap_frequencies_Hz",
            freqs.ndim == 1 and freqs.size > 0 and all(low <= f <= high for f in freqs.tolist()),
            f"a non-empty sequence of numbers from {low:g} to {high:g}",
        )
        need(
            "exclusion_n_max",
            isinstance(self.exclusion_n_max, numbers.Integral) and self.exclusion_n_max >= 0,
            "a non-negative integer",
        )


@dataclass(frozen=True)
class OptimizeResult:
    """The design optimize_design found, its report, and the grid points the search covered."""

    L: float
    N: float
    omega_m: float
    report: DesignReport
    n_evaluated: int


def _first_index(sqrt_n: np.ndarray, c: np.ndarray, k_turn, test) -> np.ndarray:
    """Per row r, the first index j at which test holds for k = sqrt_n[j] * c[r].

    test(k, rows) gets the couplings of the rows selected by the boolean mask
    rows and must turn from False to True once as k grows along each row;
    k_turn is where it turns in real arithmetic. np.searchsorted on k_turn / c
    puts each row within an index or two of the answer, and each row then
    steps with test itself, so the result is the first index test accepts
    bit for bit, or sqrt_n.size where it accepts none.
    """
    j = np.searchsorted(sqrt_n, k_turn / c)
    while True:  # back while the index below still passes
        rows = j > 0
        rows[rows] = test(sqrt_n[j[rows] - 1] * c[rows], rows)
        if not rows.any():
            break
        j[rows] -= 1
    while True:  # ahead while this index fails
        rows = j < sqrt_n.size
        rows[rows] = ~test(sqrt_n[j[rows]] * c[rows], rows)
        if not rows.any():
            break
        j[rows] += 1
    return j


def _in_band(k, centre: float, halfwidth: float):
    """Where |k - centre| <= halfwidth, by the two comparisons that settle a band's run.

    Along a row, where k never falls, it holds on exactly the run [lo, hi).
    """
    return (k - centre >= -halfwidth) & ~(k - centre > halfwidth)


def optimize_design(search: DesignSearchSpace) -> OptimizeResult:
    """Minimize tau_e/tau_p over (L, N, omega_m) at fixed mirror radius.

    Returns the optimum of the full (omega_m, L, N) grid without visiting
    it. Along each (omega_m, L) row the coupling k = sqrt(N) c with c > 0
    never falls as N grows, so each exclusion band |k - sqrt(n/2)| <=
    exclusion_halfwidth removes one contiguous run of N indices, and the
    ratio entanglement_period(k, omega_m) * kappa never rises: pi/(omega_m
    k**2) below the regime boundary, the constant 2 pi/omega_m at and above
    it. A row's minimum is therefore its ratio at its last feasible N, and
    its plateau hits start at the first feasible N at or after the first N
    whose ratio is within the cutoff. Only the rows whose current last (then
    first) N lies inside a band look up its run's bound. Those bounds and
    that first N come from np.searchsorted and are then settled with the
    grid's own predicates, evaluated by the grid's own expressions at the
    same indices, so the result equals the exhaustive scan's bit for bit.
    n_evaluated counts the grid points covered. The argmin does not depend
    on finesse_eval because the objective scales as 1/finesse uniformly.

    Raises ValueError naming the mirror radius when no length fits below
    2 R_mirror or every coupling lands in an exclusion band.
    """
    where = f"design search at mirror radius {search.R_mirror} m"
    L_values = np.arange(search.L_min_m, search.L_max_m + 0.5 * search.L_step_m, search.L_step_m)
    L_values = L_values[L_values < 2.0 * search.R_mirror]
    N_values = np.arange(search.N_min, search.N_max + 0.5 * search.N_step, search.N_step)
    if L_values.size == 0:
        raise ValueError(f"{where}: empty search grid")

    halfwidth = search.exclusion_halfwidth
    omegas = 2.0 * math.pi * np.asarray(search.trap_frequencies_Hz, dtype=float)
    n_evaluated = omegas.size * L_values.size * N_values.size
    sqrt_n = np.sqrt(N_values)
    # one row per (omega_m, L), omega-major. g0 is N atoms times a collective
    # zero-point spread that falls as 1/sqrt(N), so k = sqrt(N) c along a row,
    # with c the coupling over omega_m at N = 1
    c = np.concatenate([
        _coupling(AtomEnsembleSpec(N=1.0, omega_m=omega_m), L_values, search.R_mirror) / omega_m
        for omega_m in omegas
    ])
    omega = np.repeat(omegas, L_values.size)
    L_index = np.tile(np.arange(L_values.size), omegas.size)
    kappa = _linewidth(L_values, search.finesse_eval)[L_index]

    # bands above n_top lie beyond the largest coupling and exclude nothing
    k_max = float(sqrt_n[-1] * c.max())
    n_top = 0
    while n_top < search.exclusion_n_max and k_max - math.sqrt((n_top + 1) / 2.0) >= -halfwidth:
        n_top += 1

    # the last feasible index of each row. lo and hi of the runs never fall
    # as the band grows, so one pass from the top band down steps each row
    # below every run it lands in; -1 marks a row with no feasible point
    last = np.full(c.size, N_values.size - 1)
    for n in range(n_top, 0, -1):
        centre = math.sqrt(n / 2.0)
        rows = np.flatnonzero(last >= 0)
        k = sqrt_n[last[rows]] * c[rows]
        if (k - centre > halfwidth).all():
            break  # every row ends above this band, and lower bands end lower still
        inside = rows[_in_band(k, centre, halfwidth)]
        lo = _first_index(sqrt_n, c[inside], centre - halfwidth, lambda k, sel: k - centre >= -halfwidth)
        last[inside] = lo - 1
    rows = np.flatnonzero(last >= 0)
    row_min = entanglement_period(sqrt_n[last[rows]] * c[rows], omega[rows]) * kappa[rows]
    best = float(row_min.min()) if rows.size else math.inf
    if not math.isfinite(best):
        raise ValueError(f"{where}: no feasible design: every coupling lands in an exclusion band")

    # near-ties across all rows, then the lexicographic minimum of (L, N, omega)
    cutoff = best * (1.0 + search.plateau_rtol)
    rows = rows[row_min <= cutoff]
    c, omega, kappa, L_index = c[rows], omega[rows], kappa[rows], L_index[rows]
    first = _first_index(
        sqrt_n, c, np.sqrt(math.pi * kappa / (omega * cutoff)),
        lambda k, sel: entanglement_period(k, omega[sel]) * kappa[sel] <= cutoff,
    )
    # then up past every run it lands in, from the lowest band. first never
    # passes the row's last feasible index, so it stays on the grid
    for n in range(1, n_top + 1):
        centre = math.sqrt(n / 2.0)
        k = sqrt_n[first] * c
        if not (k - centre >= -halfwidth).any():
            break  # every row starts below this band, and higher bands start higher still
        inside = np.flatnonzero(_in_band(k, centre, halfwidth))
        hi = _first_index(sqrt_n, c[inside], centre + halfwidth, lambda k, sel: k - centre > halfwidth)
        first[inside] = hi
    pick = np.lexsort((omega, N_values[first], L_values[L_index]))[0]
    L_opt, N_opt, omega_opt = float(L_values[L_index[pick]]), float(N_values[first[pick]]), float(omega[pick])

    spec = AtomEnsembleSpec(N=N_opt, omega_m=omega_opt)
    geom = CavityGeometry(L=L_opt, R_mirror=search.R_mirror, finesse=search.finesse_eval)
    report = design_report(spec, geom)
    return OptimizeResult(L=L_opt, N=N_opt, omega_m=omega_opt, report=report, n_evaluated=n_evaluated)
