"""SI-unit feasibility calculators and a grid-search design optimizer.

Two physical backends produce the bare coupling g0: a trapped ultracold
atomic ensemble dispersively coupled to the two cavity modes, and a
levitated dielectric nanoparticle. On top of those sit the cavity
linewidth/photon-lifetime calculator, the entanglement-period estimate,
a heating budget, and a grid search that minimizes the ratio of
entanglement period to photon lifetime over cavity length, atom number and
trap frequency.

Atomic constants that the coupling formula needs but that are not uniquely
fixed by the physics (dipole moment, detuning) are explicit configuration
inputs. Their defaults are for the 87Rb D2 line, with the detuning
calibrated once against CALIBRATION_REFERENCE below so that the reference
configuration reproduces its known coupling; everything downstream of that
single anchor is prediction, not fit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import CODATA2018, x_zpf
from .duan import entanglement_period

__all__ = [
    "CavityGeometry",
    "AtomEnsembleSpec",
    "NanoparticleSpec",
    "HeatingBudget",
    "DesignReport",
    "DesignSearchSpace",
    "OptimizeResult",
    "RB87_MASS_KG",
    "RB87_D2_WAVELENGTH_M",
    "RB87_D2_DIPOLE_CM",
    "DEFAULT_DETUNING_RAD_S",
    "CALIBRATION_REFERENCE",
    "cavity_linewidth",
    "atom_coupling",
    "nanoparticle_coupling",
    "entanglement_period",
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
DEFAULT_DETUNING_RAD_S = 2.0297e11

#: Reference ultracold-atom configuration used to pin the detuning default.
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
    """Symmetric two-mirror cavity: length, mirror curvature radius, finesse, wavelength."""

    L: float
    R_mirror: float
    finesse: float
    lambda_a: float = RB87_D2_WAVELENGTH_M

    def __post_init__(self) -> None:
        if not (0.0 < self.L < 2.0 * self.R_mirror):
            raise ValueError(
                f"need 0 < L < 2 R_mirror for a real waist, got L={self.L!r}, "
                f"R_mirror={self.R_mirror!r}"
            )
        if not (self.finesse > 1.0):
            raise ValueError(f"finesse must exceed 1, got {self.finesse!r}")
        if not (self.lambda_a > 0.0):
            raise ValueError(f"lambda_a must be positive, got {self.lambda_a!r}")

    @property
    def nu_fsr(self) -> float:
        """Free spectral range c/2L in Hz."""
        return _free_spectral_range(self.L)

    @property
    def waist(self) -> float:
        """Gaussian mode waist sqrt((lambda/2pi) sqrt(L (2R - L)))."""
        return float(_waist(self.L, self.R_mirror, self.lambda_a))

    @property
    def mode_volume(self) -> float:
        """V_c = pi w**2 L."""
        return float(_mode_volume(self.L, self.R_mirror, self.lambda_a))


@dataclass(frozen=True)
class AtomEnsembleSpec:
    """Trapped atomic ensemble: count, single-atom mass, trap frequency, optical constants."""

    N: float
    m_atom: float = RB87_MASS_KG
    omega_m: float = 2.0 * math.pi * 95.0e3
    Delta_ca: float = DEFAULT_DETUNING_RAD_S
    d: float = RB87_D2_DIPOLE_CM
    Gamma: float = 2.0 * math.pi * 1.0e3
    T: float = 0.8e-6

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"need at least one atom, got N={self.N!r}")
        for name in ("m_atom", "omega_m", "d", "Gamma", "T"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.Delta_ca == 0:
            raise ValueError("Delta_ca must be non-zero")


@dataclass(frozen=True)
class NanoparticleSpec:
    """Levitated dielectric sphere: radius, refractive index, mass, cavity mode volume, wavenumber."""

    r: float
    n_p: float
    m: float
    V_i: float
    k_i: float

    def __post_init__(self) -> None:
        if not (self.r > 0):
            raise ValueError(f"radius must be positive, got {self.r!r}")
        if not (self.n_p > 1):
            raise ValueError(f"refractive index must exceed 1, got {self.n_p!r}")
        for name in ("m", "V_i", "k_i"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    @property
    def polarizability(self) -> float:
        """Clausius-Mossotti polarizability 4 pi eps0 r**3 (n**2-1)/(n**2+2)."""
        n2 = self.n_p ** 2
        return 4.0 * math.pi * CODATA2018.epsilon_0 * self.r ** 3 * (n2 - 1.0) / (n2 + 2.0)


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

def _waist(L, R_mirror, lambda_a):
    return np.sqrt((lambda_a / (2.0 * math.pi)) * np.sqrt(L * (2.0 * R_mirror - L)))


def _mode_volume(L, R_mirror, lambda_a):
    return math.pi * _waist(L, R_mirror, lambda_a) ** 2 * L


def _free_spectral_range(L):
    """nu_FSR = c / (2 L) in Hz."""
    return CODATA2018.c / (2.0 * L)


def _linewidth(L, finesse):
    """kappa = nu_FSR / finesse = c / (2 L finesse) in 1/s."""
    return _free_spectral_range(L) / finesse


def _coupling(spec: AtomEnsembleSpec, L, R_mirror, lambda_a):
    """Collective coupling g0 in rad/s of spec's ensemble in the cavity of each length L."""
    hbar = CODATA2018.hbar
    k_a = 2.0 * math.pi / lambda_a
    omega_c = 2.0 * math.pi * CODATA2018.c / lambda_a
    volume = _mode_volume(L, R_mirror, lambda_a)
    alpha0_sq = spec.d ** 2 * omega_c / (2.0 * hbar * CODATA2018.epsilon_0 * volume)
    x_zpf_collective = math.sqrt(hbar / (2.0 * spec.N * spec.m_atom * spec.omega_m))
    return k_a * spec.N * (alpha0_sq / spec.Delta_ca) * x_zpf_collective


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
    return float(_coupling(spec, geom.L, geom.R_mirror, geom.lambda_a))


def nanoparticle_coupling(spec: NanoparticleSpec, omega_m: float) -> float:
    """Dispersive coupling g0 = U_0 k_i x_zpf for a levitated sphere, in rad/s.

    U_0 = omega alpha_pol / (2 eps0 V_i) is the single-photon optical
    potential depth, with omega = c k_i the optical frequency.
    """
    if not (omega_m > 0):
        raise ValueError(f"omega_m must be positive, got {omega_m!r}")
    omega_opt = CODATA2018.c * spec.k_i
    u0 = omega_opt * spec.polarizability / (2.0 * CODATA2018.epsilon_0 * spec.V_i)
    return u0 * spec.k_i * x_zpf(spec.m, omega_m)


def heating_budget(
    spec: AtomEnsembleSpec,
    geom: CavityGeometry,
    nbar_cav: float = 0.25,
) -> HeatingBudget:
    """Heating figures for the atomic ensemble; see HeatingBudget for the two groupings."""
    if nbar_cav < 0:
        raise ValueError(f"nbar_cav must be non-negative, got {nbar_cav!r}")
    k_p = 2.0 * math.pi / geom.lambda_a
    g0 = atom_coupling(spec, geom)
    kappa, tau_p = cavity_linewidth(geom)
    kappa_angular = 2.0 * math.pi * kappa
    recoil_like = (CODATA2018.hbar * k_p) ** 2 / spec.m_atom
    r_fs = recoil_like * g0 ** 2 * nbar_cav * spec.Gamma / spec.Delta_ca
    backaction_gain = spec.N * g0 ** 2 / (4.0 * spec.Gamma * kappa_angular)
    r_c = backaction_gain * r_fs
    thermal_energy = CODATA2018.k_B * spec.T
    r_fs_alt = recoil_like * (g0 / spec.Delta_ca) ** 2 * nbar_cav * spec.Gamma
    r_c_alt = backaction_gain * r_fs_alt
    return HeatingBudget(
        r_fs=r_fs,
        r_c=r_c,
        energy_ratio=r_c * tau_p / thermal_energy,
        r_fs_alt=r_fs_alt,
        r_c_alt=r_c_alt,
        energy_ratio_alt=r_c_alt * tau_p / thermal_energy,
    )


def design_report(
    spec: AtomEnsembleSpec,
    geom: CavityGeometry,
    *,
    nbar_cav: float = 0.25,
) -> DesignReport:
    """Assemble the derived feasibility quantities for one atom-ensemble design."""
    g0 = atom_coupling(spec, geom)
    k = g0 / spec.omega_m
    kappa, tau_p = cavity_linewidth(geom)
    tau_e = entanglement_period(k, spec.omega_m)
    ratio = tau_e / tau_p
    heating = heating_budget(spec, geom, nbar_cav)
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


@dataclass(frozen=True)
class DesignSearchSpace:
    """Grid-search domain for optimize_design. R_mirror is fixed per run.

    Trap frequencies are ordinary frequencies in Hz; optimize_design searches
    the angular frequencies 2 pi f.

    The coupling must avoid the bands |k - sqrt(n/2)| <= exclusion_halfwidth
    (n = 1..exclusion_n_max), where the optical witness becomes inconclusive.
    Because the objective is nearly flat along the feasibility frontier, all
    candidates within plateau_rtol of the best ratio are treated as ties and
    the lexicographically smallest (L, N, omega_m) wins.
    """

    R_mirror: float
    L_min: float = 200.0e-6
    L_max: float = 1250.0e-6
    L_step: float = 2.0e-6
    N_min: float = 1.0e5
    N_max: float = 5.8e5
    N_step: float = 1.0e3
    trap_frequencies_Hz: tuple = tuple(40.0e3 + 5.0e3 * i for i in range(12))
    finesse_eval: float = 5.8e5
    exclusion_halfwidth: float = 0.02
    exclusion_n_max: int = 8
    plateau_rtol: float = 0.01
    atom_template: AtomEnsembleSpec = field(
        default_factory=lambda: AtomEnsembleSpec(N=1.0e5)
    )

    def __post_init__(self) -> None:
        def need(name, ok, want):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")

        # chained comparisons with math.inf also turn NaN away
        for name in ("R_mirror", "L_min", "L_step", "N_step"):
            need(name, 0 < getattr(self, name) < math.inf, "positive and finite")
        for name in ("exclusion_halfwidth", "plateau_rtol"):
            need(name, 0 <= getattr(self, name) < math.inf, "non-negative and finite")
        need("L_max", self.L_min <= self.L_max < math.inf, "finite and >= L_min")
        need("N_min", 1 <= self.N_min < math.inf, "finite and >= 1")
        need("N_max", self.N_min <= self.N_max < math.inf, "finite and >= N_min")
        need("finesse_eval", 1 < self.finesse_eval < math.inf, "finite and > 1")
        # the search runs on 2 pi f, which must stay finite too
        freqs = np.asarray(self.trap_frequencies_Hz, dtype=float)
        need(
            "trap_frequencies_Hz",
            freqs.ndim == 1 and freqs.size > 0
            and all(0 < 2.0 * math.pi * f < math.inf for f in freqs.tolist()),
            "a non-empty sequence of positive finite numbers",
        )
        need(
            "exclusion_n_max",
            isinstance(self.exclusion_n_max, numbers.Integral) and self.exclusion_n_max >= 0,
            "a non-negative integer",
        )
        # the search takes the coupling k = g0/omega_m to be positive, which
        # needs a positive detuning
        if not self.atom_template.Delta_ca > 0:
            raise ValueError(
                f"atom_template.Delta_ca must be positive for the design search, "
                f"got {self.atom_template.Delta_ca!r}"
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


def _band_run(sqrt_n: np.ndarray, c: np.ndarray, centre: float, halfwidth: float):
    """Per row, the index run [lo, hi) where |sqrt_n[j] * c - centre| <= halfwidth."""
    lo = _first_index(sqrt_n, c, centre - halfwidth, lambda k, rows: k - centre >= -halfwidth)
    hi = _first_index(sqrt_n, c, centre + halfwidth, lambda k, rows: k - centre > halfwidth)
    return lo, hi


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
    whose ratio is within the cutoff. Run bounds and that first N come from
    np.searchsorted and are then settled with the grid's own predicates,
    evaluated by the grid's own expressions at the same indices, so the
    result equals the exhaustive scan's bit for bit. n_evaluated counts the
    grid points covered. The argmin does not depend on finesse_eval because
    the objective scales as 1/finesse uniformly.

    Raises ValueError naming the mirror radius when no length fits below
    2 R_mirror or every coupling lands in an exclusion band.
    """
    where = f"design search at mirror radius {search.R_mirror} m"
    L_values = np.arange(search.L_min, search.L_max + 0.5 * search.L_step, search.L_step)
    L_values = L_values[L_values < 2.0 * search.R_mirror]
    N_values = np.arange(search.N_min, search.N_max + 0.5 * search.N_step, search.N_step)
    if L_values.size == 0:
        raise ValueError(f"{where}: empty search grid")

    tmpl = search.atom_template
    lam = RB87_D2_WAVELENGTH_M
    halfwidth = search.exclusion_halfwidth
    omegas = 2.0 * math.pi * np.asarray(search.trap_frequencies_Hz, dtype=float)
    n_evaluated = omegas.size * L_values.size * N_values.size
    sqrt_n = np.sqrt(N_values)
    # one row per (omega_m, L), omega-major. g0 is N atoms times a collective
    # zero-point spread that falls as 1/sqrt(N), so k = sqrt(N) c along a row,
    # with c the coupling over omega_m at N = 1
    c = np.concatenate([
        _coupling(replace(tmpl, N=1.0, omega_m=omega_m), L_values, search.R_mirror, lam) / omega_m
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
        lo, hi = _band_run(sqrt_n, c, math.sqrt(n / 2.0), halfwidth)
        inside = (lo <= last) & (last < hi)
        last[inside] = lo[inside] - 1
        if ((last < 0) | (last >= hi)).all():
            break  # lower bands end lower still
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
    # then up past every run it lands in, from the lowest band
    for n in range(1, n_top + 1):
        lo, hi = _band_run(sqrt_n, c, math.sqrt(n / 2.0), halfwidth)
        inside = (lo <= first) & (first < hi)
        first[inside] = hi[inside]
        if (first < lo).all():
            break  # higher bands start higher still
    pick = np.lexsort((omega, N_values[first], L_values[L_index]))[0]
    L_opt, N_opt, omega_opt = float(L_values[L_index[pick]]), float(N_values[first[pick]]), float(omega[pick])

    spec = replace(tmpl, N=N_opt, omega_m=omega_opt)
    geom = CavityGeometry(L=L_opt, R_mirror=search.R_mirror, finesse=search.finesse_eval, lambda_a=lam)
    report = design_report(spec, geom)
    return OptimizeResult(L=L_opt, N=N_opt, omega_m=omega_opt, report=report, n_evaluated=n_evaluated)
