"""Acceptance gate: one test per release criterion, each printing a
[ACCEPTANCE n] PASS/FAIL line (run with -s to see them on success).

Every tolerance below is part of the external contract; do not loosen
any of them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from optomech.cli import resolve_config, run_fig4a, run_fig4b, run_oracle_check
from optomech.core import big_b, eta, thermal_occupation, xi
from optomech.design import (
    CALIBRATION_REFERENCE,
    AtomEnsembleSpec,
    CavityGeometry,
    DesignSearchSpace,
    atom_coupling,
    cavity_linewidth,
    design_report,
    heating_budget,
    optimize_design,
    proposed_atom_spec,
    proposed_geometry,
)
from optomech.duan import duan_from_moments, duan_values, window_minima
from optomech.oracle import (
    FockConfig, apply_evolution, coherent_thermal_state, moments, partial_trace, qubit_state,
)
from optomech.qubit import concurrence, reduced_rho_ab, von_neumann_entropy

OMEGA_M = 2.0 * math.pi * 95e3


def _report(criterion, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[ACCEPTANCE {criterion}] {status}")
    assert not failures, "; ".join(failures)


def _local_maxima(y):
    return [i for i in range(1, len(y) - 1) if y[i] >= y[i - 1] and y[i] >= y[i + 1]]


def _local_minima(y):
    return [i for i in range(1, len(y) - 1) if y[i] <= y[i - 1] and y[i] <= y[i + 1]]


def test_acceptance_1_qubit_death_and_revival():
    failures = []
    start = time.perf_counter()

    grid = np.linspace(0.0, 8.0 * math.pi, 4000)
    # one stack of reduced states serves both measures
    rhos = reduced_rho_ab(grid, 0.5)
    conc = concurrence(rhos)
    ent = von_neumann_entropy(rhos)

    # death: a run of exact zeros strictly between positive lobes
    zero_runs = []
    i = 0
    while i < len(conc):
        if conc[i] == 0.0:
            j = i
            while j + 1 < len(conc) and conc[j + 1] == 0.0:
                j += 1
            zero_runs.append((i, j))
            i = j + 1
        else:
            i += 1
    interior = [
        (i, j)
        for i, j in zero_runs
        if 0 < i and j < len(conc) - 1 and conc[:i].max() > 0.05 and conc[j + 1 :].max() > 0.05
    ]
    if not interior:
        failures.append("no exact-zero interval between positive concurrence lobes")

    rho = reduced_rho_ab(2.0 * math.pi, 0.5)
    c_2pi = concurrence(rho)
    s_2pi = von_neumann_entropy(rho)
    if abs(c_2pi - 1.0) > 1e-9:
        failures.append(f"concurrence at 2*pi is {c_2pi!r}, not 1 within 1e-9")
    if abs(s_2pi) > 1e-9:
        failures.append(f"entropy at 2*pi is {s_2pi!r}, not 0 within 1e-9")

    cmax = [i for i in _local_maxima(conc) if conc[i] > 0.05]
    emin = _local_minima(ent)
    if not cmax:
        failures.append("no concurrence maxima found")
    for i in cmax:
        if min(abs(i - j) for j in emin) > 1:
            failures.append(f"concurrence maximum at t={grid[i]:.4f} has no adjacent entropy minimum")

    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _report(1, failures)


def test_acceptance_2_qubit_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in (0.1, 0.5, 1.0):
        state = qubit_state(FockConfig.for_qubit(k))
        for t in rng.uniform(0.0, 4.0 * math.pi, size=50):
            evolved = apply_evolution(state, float(t), k, 0.0, 0.0)
            dev = np.abs(partial_trace(evolved, "AB") - reduced_rho_ab(float(t), k)).max()
            worst = max(worst, float(dev))
    if worst > 1e-8:
        failures.append(f"max entrywise deviation {worst:.3e} exceeds 1e-8")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 30 s")
    _report(2, failures)


def test_acceptance_3_cv_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(0.1, 1.0))
        nbar = float(rng.uniform(0.0, 0.5))
        k = float(rng.uniform(0.1, 1.0))
        r_a = float(rng.uniform(0.2, 3.0))
        r_b = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.3, 4.0 * math.pi))
        config = FockConfig.for_coherent_thermal(alpha, beta, nbar, k, 1e-8)
        state = coherent_thermal_state(alpha, beta, nbar, config)
        evolved = apply_evolution(state, t, k, r_a, r_b)
        oracle = moments(evolved)
        for pair in ("AB", "AC", "BC"):
            reference = duan_from_moments(oracle[pair])
            got = float(duan_values(t, pair, r_a, r_b, alpha=alpha, beta=beta, nbar=nbar, k=k))
            rel = abs(got - reference) / max(abs(reference), 1e-12)
            worst = max(worst, rel)
    if worst > 1e-6:
        failures.append(f"max relative deviation {worst:.3e} exceeds 1e-6")
    elapsed = time.perf_counter() - start
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.0f} s exceeds 5 min")
    _report(3, failures)


def test_acceptance_4_cavity_numbers_and_minimum():
    failures = []
    kappa, tau_p = cavity_linewidth(proposed_geometry())
    if abs(kappa - 64e3) / 64e3 > 0.02:
        failures.append(f"kappa {kappa:.1f}/s outside 64 kHz +- 2%")
    if not (15.6e-6 <= tau_p <= 15.7e-6):
        failures.append(f"photon lifetime {tau_p:.4e} s outside [15.6, 15.7] us")

    # carriers of 1e15 rad/s, and k = 0.74 through g0 = k omega_m, as fig3 scales them
    r = 1e15 / OMEGA_M
    res = window_minima(
        "AB", OMEGA_M * tau_p, r, r,
        alpha=0.5, beta=0.5, nbar=thermal_occupation(0.8e-6, OMEGA_M), k=(0.74 * OMEGA_M) / OMEGA_M,
    )
    d_min = float(res.d_star)
    if abs(d_min - 0.8) > 0.05:
        failures.append(f"min D_AB over the photon lifetime is {d_min:.4f}, outside 0.8 +- 0.05")
    _report(4, failures)


def test_acceptance_5_feasibility_numbers():
    failures = []
    cal = CALIBRATION_REFERENCE
    geom_cal = CavityGeometry(L=cal["L_m"], R_mirror=cal["R_mirror_m"], finesse=2.0)
    spec_cal = AtomEnsembleSpec(N=cal["N"], omega_m=cal["omega_m_rad_per_s"])
    k_cal = atom_coupling(spec_cal, geom_cal) / cal["omega_m_rad_per_s"]
    if abs(k_cal - 9.50) / 9.50 > 0.10:
        failures.append(f"calibration coupling {k_cal:.4f} outside 9.50 +- 10%")

    k = atom_coupling(proposed_atom_spec(), proposed_geometry()) / OMEGA_M
    if abs(k - 0.743) / 0.743 > 0.10:
        failures.append(f"proposed coupling {k:.4f} outside 0.743 +- 10%")

    rep_low = design_report(proposed_atom_spec(), proposed_geometry(finesse=5.8e5))
    if abs(rep_low.ratio - 3.46) / 3.46 > 0.05:
        failures.append(f"tau_e/tau_p {rep_low.ratio:.4f} at finesse 5.8e5 outside 3.46 +- 5%")
    if abs(rep_low.min_finesse_for_unity_ratio - 2.01e6) / 2.01e6 > 0.05:
        failures.append(
            f"minimum finesse {rep_low.min_finesse_for_unity_ratio:.4e} outside 2.01e6 +- 5%"
        )

    rep_high = design_report(proposed_atom_spec(), proposed_geometry(finesse=3.0e6))
    if abs(rep_high.ratio - 0.669) / 0.669 > 0.02:
        failures.append(f"tau_e/tau_p {rep_high.ratio:.4f} at finesse 3e6 outside 0.669 +- 2%")
    _report(5, failures)


def test_acceptance_6_optimizer_reproduces_reference_rows():
    failures = []
    targets = {
        0.01: (1211e-6, 3.85e5, 1.30e6),
        0.025: (1035e-6, 5.64e5, 1.57e6),
        0.05: (783e-6, 5.43e5, 2.01e6),
        0.10: (669e-6, 5.80e5, 2.47e6),
    }
    for radius, (L_ref, N_ref, F_ref) in targets.items():
        try:
            res = optimize_design(DesignSearchSpace(R_mirror=radius))
        except ValueError as exc:
            failures.append(f"R={radius}: {exc}")
            continue
        for got, ref, label in (
            (res.L, L_ref, "L"),
            (res.N, N_ref, "N"),
            (res.report.min_finesse_for_unity_ratio, F_ref, "finesse"),
        ):
            if abs(got - ref) / ref > 0.10:
                failures.append(f"R={radius}: {label}={got:.4g} is off {ref:.4g} by >10%")
    _report(6, failures)


def test_acceptance_7_witness_landscape():
    failures = []

    table_b = run_fig4b(resolve_config("fig4b"))
    rows = np.array(table_b.rows, dtype=float)
    best = rows[np.argmin(rows[:, 2])]
    if abs(best[0] - 0.91) > 0.05 or abs(best[1] - 0.91) > 0.05:
        failures.append(f"amplitude argmin ({best[0]:.2f}, {best[1]:.2f}) outside 0.91 +- 0.05")

    table_a = run_fig4a(resolve_config("fig4a"))
    rows_a = np.array(table_a.rows, dtype=float)
    warm = rows_a[np.isclose(rows_a[:, 1], 8e-7)]
    order = np.argsort(warm[:, 0])
    k_axis, min_d = warm[order, 0], warm[order, 2]
    step = float(np.diff(k_axis).max())
    ridge_k = [k_axis[i] for i in _local_maxima(min_d)]
    for target in (math.sqrt(0.5), 1.0):  # 2 k^2 = 1 and 2
        if not any(abs(rk - target) <= step + 1e-12 for rk in ridge_k):
            failures.append(f"no ridge of min D_AB within one grid step of k={target:.4f}")
    if not np.any(min_d < 1.0):
        failures.append("no entanglement window survives at 0.8 uK")
    _report(7, failures)


def test_acceptance_8_property_suite():
    failures = []

    t = np.linspace(0.0, 6.0 * math.pi, 601)
    if np.abs(np.abs(eta(t)) ** 2 - 2.0 * (1.0 - np.cos(t))).max() > 1e-12:
        failures.append("eta modulus identity broken")
    if np.abs(xi(t) + np.conj(eta(t))).max() > 1e-12:
        failures.append("xi reflection identity broken")
    if np.abs(big_b(t, 0.8) - (-0.64 * (t - np.sin(t)))).max() > 1e-12:
        failures.append("phase kernel identity broken")

    for tt in (0.7, 2.0, math.pi, 9.4):
        for k in (0.3, 0.74, 1.1):
            rho = reduced_rho_ab(tt, k)
            if abs(np.trace(rho) - 1.0) > 1e-12 or np.abs(rho - rho.conj().T).max() > 1e-12:
                failures.append(f"density-matrix invariants broken at t={tt}, k={k}")
            elif np.linalg.eigvalsh(rho).min() < -1e-12:
                failures.append(f"negative eigenvalue at t={tt}, k={k}")

    # norm drift, energy conservation, stationarity, truncation doubling and
    # k=0 floors all run inside the certification command at the contract
    # tolerances (1e-10, 1e-8, 1e-8, 1e-8, 1e-12 respectively)
    table, exit_code = run_oracle_check(resolve_config("oracle-check"))
    if exit_code != 0:
        bad = [row for row in table.rows if row[-1] != "PASS"]
        failures.append(f"certification checks failed: {bad}")
    _report(8, failures)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published free-space-to-cavity energy ratio 1.6e-16 is out of reach: "
        "with the calibrated detuning 2.03e11 rad/s and the lattice recoil "
        "momentum, the stated rate grouping gives 1.2e5 and the recoil-energy "
        "grouping 5.8e-7, both orders of magnitude away; the inputs needed to "
        "reproduce the printed figure are not published"
    ),
)
def test_acceptance_heating_budget_order_of_magnitude():
    hb = heating_budget(proposed_atom_spec(), proposed_geometry())
    assert 1.6e-17 <= hb.energy_ratio <= 1.6e-15 or 1.6e-17 <= hb.energy_ratio_alt <= 1.6e-15
