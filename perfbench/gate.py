"""Correctness gate: every output of every pass is checked before it counts.

An output is compared with the reference recorded for its workload and
seed (perfbench/ref/<workload>/seed<N>.npz, written by record_refs.py) at
tolerances no looser than the package's own contract:

- concurrence and entropy to 1e-9 absolute, with the same exact zeros;
- witness minima (fig4a, fig4b) to 1e-6 absolute;
- fig3 curves to 1e-9 relative;
- design rows with identical (L, N, trap frequency) and the other fields to
  1e-12 relative;
- oracle-check with every row PASS.

Seeds without a reference fall back to invariants the test suite states:
value ranges, the t = 0 floors, lower envelopes below pointwise values,
minima of 1 where one amplitude is zero, and the design report's
finesse-ratio identity. Every output is also checked against the config it
was asked for, through the `config_json` line the CLI writes.
"""

from __future__ import annotations

import csv
import json

import numpy as np

TOL_QUBIT_ABS = 1e-9
TOL_WITNESS_ABS = 1e-6
TOL_FIG3_REL = 1e-9
TOL_DESIGN_REL = 1e-12
TOL_GRID_ABS = 1e-12


class Output:
    """A parsed CSV: `#` metadata, header and rows as strings."""

    def __init__(self, data: bytes):
        meta, body = {}, []
        for line in data.decode("utf-8").splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif line:
                body.append(line)
        rows = list(csv.reader(body))
        if not rows:
            raise ValueError("no header row")
        self.meta = meta
        self.header = rows[0]
        self.rows = rows[1:]
        if any(len(row) != len(self.header) for row in self.rows):
            raise ValueError("ragged rows")
        self.config = json.loads(meta["config_json"])

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([float(row[i]) for row in self.rows])


def _check(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _close(got, want, *, abs_tol=0.0, rel_tol=0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= abs_tol + rel_tol * np.abs(want)))


def _compare(problems, out, ref, label, columns, **tol) -> None:
    for name in columns:
        want = ref.get(f"{label}/{name}")
        if want is None:
            problems.append(f"reference has no column {name}")
        elif not _close(out.column(name), want, **tol):
            problems.append(f"column {name} differs from the reference beyond {tol}")


def _grid(lo, hi, step) -> np.ndarray:
    return np.arange(lo, hi + 0.5 * step, step)


def _check_qubit_measure(problems, name, values) -> None:
    _check(problems, bool(np.all(np.isfinite(values))), f"{name}: non-finite value")
    upper = 1.0 if name == "concurrence" else 2.0
    _check(problems, bool(np.all((values >= 0.0) & (values <= upper + 1e-12))),
           f"{name}: value outside [0, {upper}]")


def _check_zeros(problems, values, ref_values) -> None:
    if not np.array_equal(np.flatnonzero(values == 0.0), np.flatnonzero(ref_values == 0.0)):
        problems.append("concurrence: exact zeros differ from the reference")


def check_fig2(out, ref, label) -> list:
    problems = []
    v = out.config
    t = out.column("t")
    _check(problems, _close(t, np.linspace(v["t_min"], v["t_max"], v["n_points"]), abs_tol=TOL_GRID_ABS),
           "t grid differs from linspace(t_min, t_max, n_points)")
    for name in ("concurrence", "entropy"):
        _check_qubit_measure(problems, name, out.column(name))
    if v["t_min"] == 0.0:
        _check(problems, abs(out.column("concurrence")[0]) <= TOL_QUBIT_ABS
               and abs(out.column("entropy")[0]) <= TOL_QUBIT_ABS, "t = 0 is not a product state")
    if ref is not None:
        _compare(problems, out, ref, label, ("concurrence", "entropy"), abs_tol=TOL_QUBIT_ABS)
        _check_zeros(problems, out.column("concurrence"), ref[f"{label}/concurrence"])
    return problems


def check_sweep(out, ref, label) -> list:
    problems = []
    v = out.config
    x = out.column(v["variable"])
    _check(problems, _close(x, np.linspace(v["start"], v["stop"], v["n_points"]), abs_tol=TOL_GRID_ABS),
           "sweep grid differs from linspace(start, stop, n_points)")
    quantity = v["quantity"]
    values = out.column(quantity)
    if quantity in ("concurrence", "entropy"):
        _check_qubit_measure(problems, quantity, values)
    if ref is not None:
        _compare(problems, out, ref, label, (quantity,), abs_tol=TOL_QUBIT_ABS)
        if quantity == "concurrence":
            _check_zeros(problems, values, ref[f"{label}/{quantity}"])
    return problems


_FIG3_CURVES = ("duan_ab", "duan_ac", "duan_bc", "duan_ab_lower", "duan_ac_lower", "duan_bc_lower")


def check_fig3(out, ref, label) -> list:
    problems = []
    v = out.config
    t = out.column("t")
    curves = {name: out.column(name) for name in _FIG3_CURVES}
    _check(problems, all(np.all(np.isfinite(c)) for c in curves.values()), "non-finite witness value")
    _check(problems, bool(np.all(out.column("threshold") == 1.0)), "threshold column is not 1")
    # D_AB takes cos((r_a + r_b) t + 2B) of a carrier phase near 1e10 rad,
    # rounded to its ulp, so it sits within 2 alpha beta |phase| eps of exact
    carrier = (v["omega_a_rad_per_s"] + v["omega_b_rad_per_s"]) / v["omega_m_rad_per_s"] * np.abs(t)
    phase_error = 4.0 * abs(v["alpha"] * v["beta"]) * carrier * np.finfo(float).eps
    for pair in ("ab", "ac", "bc"):
        value, lower = curves[f"duan_{pair}"], curves[f"duan_{pair}_lower"]
        slack = 1e-9 * np.maximum(1.0, np.abs(value)) + (phase_error if pair == "ab" else 0.0)
        _check(problems, bool(np.all(lower <= value + slack)), f"duan_{pair}_lower exceeds duan_{pair}")
    if t[0] == 0.0:
        nbar = float(out.meta["nbar"])
        _check(problems, abs(curves["duan_ab"][0] - 1.0) <= 1e-12, "D_AB(0) is not 1")
        for pair in ("ac", "bc"):
            _check(problems, abs(curves[f"duan_{pair}"][0] - (1.0 + nbar)) <= 1e-12 * (1.0 + nbar),
                   f"D_{pair.upper()}(0) is not 1 + nbar")
    t_max = v["t_max"] if v["t_max"] is not None else float(out.meta["window_scaled"])
    _check(problems, _close(t, np.linspace(v["t_min"], t_max, v["n_points"]), abs_tol=TOL_GRID_ABS),
           "t grid differs from linspace(t_min, t_max, n_points)")
    if ref is not None:
        _compare(problems, out, ref, label, _FIG3_CURVES, rel_tol=TOL_FIG3_REL)
    return problems


def _check_cells(problems, out, outer, inner) -> None:
    """Rows run over the outer axis, then the inner one, as the CLI writes them."""
    (outer_name, outer_values), (inner_name, inner_values) = outer, inner
    if len(out.rows) != outer_values.size * inner_values.size:
        problems.append("row count differs from the grid")
        return
    _check(problems, _close(out.column(outer_name), np.repeat(outer_values, inner_values.size), abs_tol=TOL_GRID_ABS)
           and _close(out.column(inner_name), np.tile(inner_values, outer_values.size), abs_tol=TOL_GRID_ABS),
           f"({outer_name}, {inner_name}) cells differ from the grid")


def _check_minima(problems, minima) -> None:
    _check(problems, bool(np.all(np.isfinite(minima))), "non-finite witness minimum")
    # every window starts at t = 0, where D_AB = 1 exactly
    _check(problems, bool(np.all((minima >= 0.0) & (minima <= 1.0 + 1e-12))),
           "witness minimum outside [0, 1]")


def check_fig4a(out, ref, label) -> list:
    problems = []
    v = out.config
    _check_cells(problems, out, ("k", _grid(v["k_min"], v["k_max"], v["k_step"])),
                 ("temperature_K", np.array(v["temperatures_K"])))
    _check_minima(problems, out.column("min_duan_ab"))
    if ref is not None:
        _compare(problems, out, ref, label, ("min_duan_ab",), abs_tol=TOL_WITNESS_ABS)
    return problems


def check_fig4b(out, ref, label) -> list:
    problems = []
    v = out.config
    _check_cells(problems, out, ("alpha", _grid(v["alpha_min"], v["alpha_max"], v["alpha_step"])),
                 ("beta", _grid(v["beta_min"], v["beta_max"], v["beta_step"])))
    minima = out.column("min_duan_ab")
    _check_minima(problems, minima)
    # with one amplitude at zero the AB witness never dips below 1
    edge = (out.column("alpha") == 0.0) | (out.column("beta") == 0.0)
    _check(problems, bool(np.all(np.abs(minima[edge] - 1.0) <= 1e-12)),
           "minimum with a zero amplitude is not 1")
    if ref is not None:
        _compare(problems, out, ref, label, ("min_duan_ab",), abs_tol=TOL_WITNESS_ABS)
    return problems


_DESIGN_EXACT = ("mirror_radius_m", "cavity_length_m", "atom_number", "trap_frequency_Hz")
_DESIGN_CLOSE = ("k", "ratio_at_eval_finesse", "min_finesse_for_unity_ratio")


def design_grid_points(v: dict) -> list:
    """Grid points optimize_design scans per mirror radius, from the config."""
    n_n = _grid(v["N_min"], v["N_max"], v["N_step"]).size
    points = []
    for radius in v["radii_m"]:
        ls = _grid(v["L_min_m"], v["L_max_m"], v["L_step_m"])
        points.append(len(v["trap_frequencies_Hz"]) * int((ls < 2.0 * radius).sum()) * n_n)
    return points


def check_design(out, ref, label, sidecar: bytes) -> list:
    problems = []
    v = out.config
    cols = {name: out.column(name) for name in _DESIGN_EXACT + _DESIGN_CLOSE}
    _check(problems, list(cols["mirror_radius_m"]) == list(v["radii_m"]), "one row per mirror radius expected")
    ratio, finesse = cols["ratio_at_eval_finesse"], cols["min_finesse_for_unity_ratio"]
    _check(problems, _close(finesse, v["finesse_eval"] * ratio, rel_tol=TOL_DESIGN_REL),
           "min finesse is not finesse_eval x ratio")
    _check(problems, bool(np.all(ratio > 0.0)), "non-positive ratio")
    length = cols["cavity_length_m"]
    _check(problems, bool(np.all((length >= v["L_min_m"]) & (length <= v["L_max_m"] * (1 + 1e-12))
                                 & (length < 2.0 * cols["mirror_radius_m"]))), "cavity length outside the grid")
    atoms = cols["atom_number"]
    _check(problems, bool(np.all((atoms >= v["N_min"]) & (atoms <= v["N_max"]))), "atom number outside the grid")
    traps = np.array(v["trap_frequencies_Hz"])
    _check(problems, all(np.any(np.abs(traps - f) <= 1e-12 * f) for f in cols["trap_frequency_Hz"]),
           "trap frequency not in the grid")
    bands = np.sqrt(np.arange(1, v["exclusion_n_max"] + 1) / 2.0)
    _check(problems, all(np.all(np.abs(k - bands) > v["exclusion_halfwidth"] - 1e-9) for k in cols["k"]),
           "optimum inside an exclusion band")
    report = json.loads(sidecar)
    n_evaluated = [row["n_evaluated"] for row in report["report"]["optimized"]]
    _check(problems, n_evaluated == design_grid_points(v), "n_evaluated differs from the search grid")
    if ref is not None:
        _compare(problems, out, ref, label, _DESIGN_EXACT)
        _compare(problems, out, ref, label, _DESIGN_CLOSE, rel_tol=TOL_DESIGN_REL)
    return problems


def check_oracle(out) -> list:
    problems = []
    status = [row[out.header.index("status")] for row in out.rows]
    deviation, tolerance = out.column("max_deviation"), out.column("tolerance")
    _check(problems, len(out.rows) == 9, f"{len(out.rows)} certification rows, expected 9")
    _check(problems, all(s == "PASS" for s in status), "a certification check did not pass")
    _check(problems, bool(np.all(deviation < tolerance)), "a deviation is not below its tolerance")
    return problems


def oracle_margins(out) -> dict:
    """tolerance / max deviation per check. A deviation below tolerance x eps,
    exactly 0 included, counts as tolerance x eps: the margin is at most
    1 / eps = 2**52, a moderate finite number even where a check is exact."""
    names = [row[out.header.index("check")] for row in out.rows]
    tolerance = out.column("tolerance")
    deviation = np.maximum(out.column("max_deviation"), tolerance * np.finfo(float).eps)
    return {name: float(tol / dev) for name, tol, dev in zip(names, tolerance, deviation)}


def check(command, files: dict, ref) -> list:
    """Problems with the outputs of one command that exited 0; empty if correct."""
    try:
        out = Output(files["csv"])
        problems = []
        for key, value in command.settings:
            _check(problems, out.config.get(key) == value, f"config field {key} is not {value!r}")
        name = command.command
        if name == "oracle-check":
            return problems + check_oracle(out)
        if name == "design":
            return problems + check_design(out, ref, command.label, files["json"])
        checker = {"fig2": check_fig2, "sweep": check_sweep, "fig3": check_fig3,
                   "fig4a": check_fig4a, "fig4b": check_fig4b}[name]
        return problems + checker(out, ref, command.label)
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return [f"malformed output: {exc!r}"]


#: the output columns a reference stores; grids are checked against the config
REFERENCE_COLUMNS = {
    "fig2": ("concurrence", "entropy"),
    "sweep": ("concurrence", "entropy"),
    "fig3": _FIG3_CURVES,
    "fig4a": ("min_duan_ab",),
    "fig4b": ("min_duan_ab",),
    "design": _DESIGN_EXACT + _DESIGN_CLOSE,
    "oracle-check": (),
}


def reference_columns(command, out: Output) -> dict:
    """The stored columns of one output, keyed as the reference files keep them."""
    return {
        f"{command.label}/{name}": out.column(name)
        for name in REFERENCE_COLUMNS[command.command] if name in out.header
    }


def format_problems(problems: list) -> str:
    return "; ".join(problems[:5]) + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
