"""Command line front end: figure/table data as CSV, design reports as JSON.

Every command resolves its parameters as defaults < config file < --set
overrides, validates each against its entry in the per-command `FIELDS`
table, and emits an RFC-4180-style CSV whose leading `#` metadata lines
include the fully resolved configuration as canonical JSON. Re-running
with that JSON as the config file reproduces the output byte for byte.
Dimensional parameters carry the unit in the field name
(omega_m_rad_per_s, temperature_K, ...); bare names are dimensionless or
in scaled time units.

Exit codes: 0 success, 1 configuration/usage error, 2 oracle-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, certify
from .core import thermal_occupation
from .design import (
    TEMPERATURE_K,
    CavityGeometry,
    DesignSearchSpace,
    cavity_linewidth,
    design_report,
    optimize_design,
    proposed_atom_spec,
    proposed_geometry,
)
from .duan import (
    _MAX_AMPLITUDE,
    _MAX_COUPLING,
    _scan_grid,
    duan_values,
    entanglement_period,
    regime_report,
    window_minima,
)
from .qubit import concurrence, reduced_rho_ab, von_neumann_entropy

__all__ = ["main", "RunConfig", "ResultTable"]

_OPTICAL_OMEGA = 1.0e15
#: the bipartitions whose EPR witness the CLI reports
_PAIRS = ("AB", "AC", "BC")
#: the proposed cavity and atom ensemble, the source of the operating-point defaults
_GEOMETRY = proposed_geometry()
_ATOMS = proposed_atom_spec()


# ---------------------------------------------------------------------------
# fields: default and validator of every configurable value
# ---------------------------------------------------------------------------

def _number(*, minimum=None, exclusive_min=None, maximum=None):
    def check(value, label):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"field {label}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"field {label}: must be finite, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"field {label}: must be >= {minimum}, got {value!r}")
        if exclusive_min is not None and value <= exclusive_min:
            raise ValueError(f"field {label}: must be > {exclusive_min}, got {value!r}")
        if maximum is not None and value > maximum:
            raise ValueError(f"field {label}: must be <= {maximum:g}, got {value!r}")
        return value

    return check


def _integer(minimum, maximum=None):
    def check(value, label):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"field {label}: expected an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"field {label}: must be >= {minimum}, got {value!r}")
        if maximum is not None and value > maximum:
            raise ValueError(f"field {label}: must be <= {maximum}, got {value!r}")
        return value

    return check


def _number_list(*, exclusive_min=None):
    item = _number(exclusive_min=exclusive_min)

    def check(value, label):
        if not isinstance(value, (list, tuple)) or len(value) == 0:
            raise ValueError(f"field {label}: expected a non-empty list, got {value!r}")
        return [item(v, f"{label}[{i}]") for i, v in enumerate(value)]

    return check


def _optional(inner):
    def check(value, label):
        return None if value is None else inner(value, label)

    return check


def _choice(*options):
    def check(value, label):
        if value not in options:
            raise ValueError(f"field {label}: must be one of {sorted(options)}, got {value!r}")
        return value

    return check


_POS = _number(exclusive_min=0.0)
_NONNEG = _number(minimum=0.0)
#: the witness cell's domain (`duan._check_cell`), checked by field name
_AMPLITUDE = _number(minimum=-_MAX_AMPLITUDE, maximum=_MAX_AMPLITUDE)
_COUPLING = _number(minimum=0.0, maximum=_MAX_COUPLING)
#: largest k of fig2 and the qubit sweeps. The diagonal overlaps of
#: `reduced_rho_ab` round away from 1 by about eps |k xi|**2, so the trace
#: error grows like k**2: at most 4.5e-13 at k = 20 (measured up to 100,000
#: points and t = 1e6), and past the density-matrix checks' 1e-12 from
#: about k = 32.5
_MAX_QUBIT_COUPLING = 20.0
#: most points of a fig2, fig3 or sweep grid, 25 times fig2's default 4000
_MAX_POINTS = 100_000
_N_POINTS = _integer(2, _MAX_POINTS)

# the operating-point fields shared by fig3, fig4a and fig4b
_OPERATING_POINT = {
    "omega_m_rad_per_s": (_ATOMS.omega_m, _POS),
    "omega_a_rad_per_s": (_OPTICAL_OMEGA, _POS),
    "omega_b_rad_per_s": (_OPTICAL_OMEGA, _POS),
    "cavity_length_m": (_GEOMETRY.L, _POS),
    "mirror_radius_m": (_GEOMETRY.R_mirror, _POS),
    "finesse": (_GEOMETRY.finesse, _number(exclusive_min=1.0)),
}

#: DesignSearchSpace field -> validator of the search domain
_SEARCH_FIELDS = {
    "finesse_eval": _number(exclusive_min=1.0),
    "L_min_m": _POS,
    "L_max_m": _POS,
    "L_step_m": _POS,
    "N_min": _number(minimum=1.0),
    "N_max": _number(minimum=1.0),
    "N_step": _POS,
    "trap_frequencies_Hz": _number_list(exclusive_min=0.0),
    "exclusion_halfwidth": _NONNEG,
    "exclusion_n_max": _integer(0),
    "plateau_rtol": _NONNEG,
}

#: command -> field -> (default, validator)
FIELDS: dict[str, dict[str, tuple]] = {
    "fig2": {
        "k": (0.5, _COUPLING),
        "t_min": (0.0, _NONNEG),
        "t_max": (8.0 * math.pi, _POS),
        "n_points": (4000, _N_POINTS),
    },
    "fig3": {
        "k": (0.74, _COUPLING),
        "alpha": (0.5, _AMPLITUDE),
        "beta": (0.5, _AMPLITUDE),
        "temperature_K": (TEMPERATURE_K, _POS),
        **_OPERATING_POINT,
        "t_min": (0.0, _NONNEG),
        "t_max": (None, _optional(_POS)),
        "n_points": (2000, _N_POINTS),
    },
    "fig4a": {
        "k_min": (0.025, _NONNEG),
        "k_max": (1.5, _POS),
        "k_step": (0.025, _POS),
        "temperatures_K": ([1.0e-7, 4.0e-7, 8.0e-7], _number_list(exclusive_min=0.0)),
        "alpha": (0.5, _AMPLITUDE),
        "beta": (0.5, _AMPLITUDE),
        **_OPERATING_POINT,
        "window_scaled": (None, _optional(_POS)),
    },
    "fig4b": {
        "alpha_min": (0.0, _NONNEG),
        "alpha_max": (2.0, _POS),
        "alpha_step": (0.02, _POS),
        "beta_min": (0.0, _NONNEG),
        "beta_max": (2.0, _POS),
        "beta_step": (0.02, _POS),
        "k": (0.74, _COUPLING),
        "temperature_K": (TEMPERATURE_K, _POS),
        **_OPERATING_POINT,
        "window_scaled": (None, _optional(_POS)),
    },
    "design": {
        "radii_m": ([1.0e-2, 2.5e-2, 5.0e-2, 10.0e-2], _number_list(exclusive_min=0.0)),
        "report_finesse": (_GEOMETRY.finesse, _number(exclusive_min=1.0)),
        # the search defaults are DesignSearchSpace's own
        **{
            name: (getattr(DesignSearchSpace, name), check)
            for name, check in _SEARCH_FIELDS.items()
        },
    },
    "oracle-check": {
        "seed": (1234, _integer(0)),
    },
    "sweep": {
        "quantity": (
            "concurrence", _choice("concurrence", "entropy", "duan_ab", "duan_ac", "duan_bc")
        ),
        "variable": ("t", _choice("t", "k")),
        "start": (0.0, _NONNEG),
        "stop": (4.0 * math.pi, _POS),
        "n_points": (500, _N_POINTS),
        "k": (0.5, _COUPLING),
        "alpha": (0.5, _AMPLITUDE),
        "beta": (0.5, _AMPLITUDE),
        "nbar": (0.0, _NONNEG),
        "r_a": (1.0, _NONNEG),
        "r_b": (1.0, _NONNEG),
        "t_fixed": (math.pi, _NONNEG),
    },
}

COMMANDS = tuple(FIELDS)


@dataclass(frozen=True)
class RunConfig:
    """A validated command plus its fully resolved parameter set."""

    command: str
    values: dict
    out: str | None = None


class ResultTable:
    """Named columns of equal length plus the metadata needed to reproduce them.

    Each column (an array or a list) is converted once to a list of Python
    scalars, so `cells` and `rows` hold floats, ints, bools and strings only
    and a numpy scalar's repr never reaches the CSV.
    """

    def __init__(self, columns: dict, metadata: dict):
        cells = [np.asarray(column).tolist() for column in columns.values()]
        lengths = dict(zip(columns, map(len, cells)))
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")
        self.columns = list(columns)
        self.cells = cells
        self.metadata = metadata

    @functools.cached_property
    def rows(self) -> list:
        """The table as one tuple per row, built on first use."""
        return list(zip(*self.cells))


def _parse_set_item(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ValueError(f"--set {item!r}: expected KEY=VALUE")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ValueError(f"--set {item!r}: empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"config file {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}, line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: top level must be a JSON object")
    return data


def resolve_config(command, config_path=None, overrides=(), out=None) -> RunConfig:
    """Merge defaults, config file and --set overrides, then validate."""
    if command not in FIELDS:
        raise ValueError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    fields = FIELDS[command]
    values = {key: default for key, (default, _) in fields.items()}

    def assign(key, value, source):
        if key not in fields:
            raise ValueError(
                f"{source}: unknown field {key!r} for command {command!r} "
                f"(known: {', '.join(sorted(fields))})"
            )
        values[key] = value

    if config_path is not None:
        for key, value in _load_config_file(config_path).items():
            assign(key, value, f"config file {config_path}")
    for item in overrides:
        assign(*_parse_set_item(item), f"--set {item!r}")

    validated = {key: fields[key][1](values[key], repr(key)) for key in sorted(fields)}
    return RunConfig(command=command, values=validated, out=out)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

#: rows of a table of floats formatted and written at a time; formatting
#: whole columns at once held every field's string and raised the peak RSS
#: of a fig3/fig4a/fig4b run by 1.5 MiB
_CSV_ROWS = 1024


def _write_csv(stream, table: ResultTable) -> None:
    for key, value in table.metadata.items():
        stream.write(f"# {key}: {value}\r\n")
    writer = csv.writer(stream)
    writer.writerow(table.columns)
    # csv writes a float as its repr, the shortest string that reads back the
    # same double, and never quotes it; so a table of floats alone is
    # formatted a column at a time, in chunks of rows, in the bytes csv
    # writes, and any other table goes through csv, which quotes a string
    # field where it must
    if all(set(map(type, column)) <= {float} for column in table.cells):
        for lo in range(0, len(table.cells[0]) if table.cells else 0, _CSV_ROWS):
            fields = [map(float.__repr__, column[lo:lo + _CSV_ROWS]) for column in table.cells]
            stream.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
    else:
        writer.writerows(table.rows)


def _emit(table: ResultTable, out: str | None) -> None:
    if out is None:
        _write_csv(sys.stdout, table)
        return
    try:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            _write_csv(fh, table)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}")


def _metadata(cfg: RunConfig, extra: dict | None = None) -> dict:
    md = {
        "generator": f"optomech {__version__} (numpy {np.__version__})",
        "command": cfg.command,
        "entropy_base": "2",
        "frequency_interpretation": (
            "keys suffixed _rad_per_s are angular frequencies; keys suffixed _Hz are "
            "ordinary frequencies; bare t/window values are in scaled time omega_m*t"
        ),
    }
    if extra:
        md.update(extra)
    md["config_json"] = json.dumps(cfg.values, sort_keys=True, separators=(",", ":"))
    return md


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _scaled_window(values: dict) -> tuple[float, float]:
    """(window in scaled time, kappa in 1/s) from the cavity geometry fields."""
    try:
        geom = CavityGeometry(
            L=values["cavity_length_m"],
            R_mirror=values["mirror_radius_m"],
            finesse=values["finesse"],
        )
    except ValueError as exc:
        # the finesse field is checked by its validator, so only L < 2 R_mirror fails here
        raise ValueError(f"fields 'cavity_length_m' and 'mirror_radius_m': {exc}") from None
    kappa, tau_p = cavity_linewidth(geom)
    return values["omega_m_rad_per_s"] * tau_p, kappa


def _fields(names: tuple[str, ...]) -> str:
    """"field 'a'" for one name, "fields 'a', 'b' and 'c'" for more."""
    quoted = [repr(name) for name in names]
    if len(quoted) == 1:
        return f"field {quoted[0]}"
    return f"fields {', '.join(quoted[:-1])} and {quoted[-1]}"


def _check_phases(
    t: float, k: float, fast: float | None, t_fields: tuple[str, ...], k_field: str | None = None
) -> None:
    """Refuse, by field name, a largest time t at which a phase of the witness overflows.

    The carrier phase fast t, fast = r_a + r_b, is refused under t_fields
    (unless fast is None: the witness never forms it), and 2 k**2 t, formed
    in `duan._coupling`'s order, under t_fields and, where k is swept,
    k_field. Where both are finite, every phase of the closed forms is.
    """
    if fast is not None and not math.isfinite(fast * t):
        raise ValueError(
            f"{_fields(t_fields)}: the carrier phase (r_a + r_b) t overflows at t = {t!r}, "
            f"r_a + r_b = {fast!r}"
        )
    if not math.isfinite(2.0 * (k ** 2 * t)):
        fields = _fields(t_fields + (() if k_field is None else (k_field,)))
        raise ValueError(f"{fields}: the coupling phase 2 k**2 t overflows at t = {t!r}, k = {k!r}")


def _check_qubit_coupling(k: float, field: str) -> None:
    """Refuse, under field, a k above `_MAX_QUBIT_COUPLING`."""
    if k > _MAX_QUBIT_COUPLING:
        raise ValueError(
            f"field {field!r}: the qubit measures need k <= {_MAX_QUBIT_COUPLING:g}, got {k!r}"
        )


def _check_regime_period(k: float, omega_m: float) -> None:
    """Refuse a positive k whose regime period overflows, scaled or in seconds, by field."""
    if k > 0:
        # the periods regime_report takes, whose k**2 may underflow to 0
        with np.errstate(divide="ignore", over="ignore"):
            period, seconds = entanglement_period(k, 1.0), entanglement_period(k, omega_m)
        if not math.isfinite(period):
            raise ValueError(f"field 'k': the regime period pi / k**2 overflows at k = {k!r}")
        if not math.isfinite(seconds):
            raise ValueError(
                "fields 'k' and 'omega_m_rad_per_s': the regime period in seconds overflows "
                f"at k = {k!r}, omega_m_rad_per_s = {omega_m!r}"
            )


def run_fig2(cfg: RunConfig) -> ResultTable:
    v = cfg.values
    _check_qubit_coupling(v["k"], "k")
    if not v["t_max"] > v["t_min"]:
        raise ValueError(f"field 't_max': must exceed t_min={v['t_min']}")
    grid = np.linspace(v["t_min"], v["t_max"], v["n_points"])
    # one stack of states serves both measures
    rhos = reduced_rho_ab(grid, v["k"])
    columns = {"t": grid, "concurrence": concurrence(rhos), "entropy": von_neumann_entropy(rhos)}
    return ResultTable(columns, _metadata(cfg))


def run_fig3(cfg: RunConfig) -> ResultTable:
    v = cfg.values
    _check_regime_period(v["k"], v["omega_m_rad_per_s"])
    window, kappa = _scaled_window(v)
    t_max = v["t_max"] if v["t_max"] is not None else window
    if not t_max > v["t_min"]:
        raise ValueError(f"field 't_max': must exceed t_min={v['t_min']}")
    omega_m = v["omega_m_rad_per_s"]
    r_a, r_b = _carrier_ratios(v)
    nbar = _thermal_occupation(v["temperature_K"], omega_m, "temperature_K")
    # k through g0 = k omega_m and back, as fig3 has always scaled it: the
    # quotient differs from k in the last bit for some k (0.8992 among them)
    cell = dict(alpha=v["alpha"], beta=v["beta"], nbar=nbar, k=(v["k"] * omega_m) / omega_m)
    _check_phases(t_max, cell["k"], r_a + r_b, ("t_max",))
    grid = np.linspace(v["t_min"], t_max, v["n_points"])
    columns = {
        "t": grid,
        **{f"duan_{pair.lower()}": duan_values(grid, pair, r_a, r_b, **cell) for pair in _PAIRS},
        "threshold": np.ones_like(grid),  # the separability threshold
        **{
            f"duan_{pair.lower()}_lower": duan_values(grid, pair, r_a, r_b, **cell, lower=True)
            for pair in _PAIRS
        },
    }
    extra = {"nbar": repr(nbar), "window_scaled": repr(window)}
    if v["k"] > 0:
        rep = regime_report(v["k"], omega_m, kappa)
        extra.update(
            regime=rep.regime,
            feasibility_condition=rep.feasibility_condition,
            feasibility_ratio=repr(rep.feasibility_ratio),
            envelope_period_scaled=repr(rep.envelope_period),
        )
    return ResultTable(columns, _metadata(cfg, extra))


def _minima_metadata(res) -> dict:
    """Deterministic facts about a window_minima call, for the CSV metadata."""
    return {
        "minimization_mode": res.mode,
        "refined_cells": str(int(res.refined.sum())),
        "scanned_cells": str(res.scanned_cells),
        "evaluated_points": str(res.evaluated_points),
    }


def _carrier_ratios(values: dict) -> tuple[float, float]:
    """(r_a, r_b): the optical carriers over omega_m, the only place they are scaled.

    A ratio that overflows or underflows to 0 is refused under its carrier's field.
    """
    omega_m = values["omega_m_rad_per_s"]
    ratios = []
    for field in ("omega_a_rad_per_s", "omega_b_rad_per_s"):
        ratio = values[field] / omega_m
        if not 0.0 < ratio < math.inf:
            raise ValueError(
                f"field {field!r}: {field} / omega_m_rad_per_s = {ratio!r} "
                "must be positive and finite"
            )
        ratios.append(ratio)
    return tuple(ratios)


def _thermal_occupation(temperature: float, omega_m: float, field: str) -> float:
    """`thermal_occupation`, with its refusal named by the temperature's field."""
    try:
        return thermal_occupation(temperature, omega_m)
    except ValueError as exc:
        raise ValueError(f"field {field!r}: {exc}") from None


def _witness_window(values: dict) -> tuple[float, float, float, float]:
    """(window, kappa, r_a, r_b) for a witness-minimum grid.

    The window is the photon lifetime in scaled time unless window_scaled
    overrides it; r_a and r_b are `_carrier_ratios`.
    """
    window, kappa = _scaled_window(values)
    if values["window_scaled"] is not None:
        window = values["window_scaled"]
    return window, kappa, *_carrier_ratios(values)


def _check_window_phases(values: dict, window: float, fast: float, k: float, k_field: str) -> None:
    """`_check_phases` on a witness-minimum window at its largest k.

    The window is named by window_scaled, or where it defaults by the
    fields of omega_m times the photon lifetime. An envelope scan never
    forms the carrier phase (r_a + r_b) t, so that phase is checked only
    where the window selects direct mode.
    """
    if values["window_scaled"] is not None:
        t_fields = ("window_scaled",)
    else:
        t_fields = ("omega_m_rad_per_s", "cavity_length_m", "finesse")
    direct = _scan_grid(window, fast)[1] == "direct"
    _check_phases(window, k, fast if direct else None, t_fields, k_field)


#: most points one fig4a or fig4b axis may hold, ten times fig4b's default
#: 101; the largest fig4b grid is then 1001 x 1001 cells
_MAX_AXIS_POINTS = 1001


#: the largest value of each fig4a or fig4b axis, the witness cell's domain
_AXIS_MAXIMA = {"alpha": _MAX_AMPLITUDE, "beta": _MAX_AMPLITUDE, "k": _MAX_COUPLING}


def _axis(values: dict, name: str) -> np.ndarray:
    """The name_min .. name_max grid in name_step steps, refused before it is allocated if too long.

    A grid that passes the axis's maximum in `_AXIS_MAXIMA` is refused too,
    also where name_max does not but the last point, up to half a step
    beyond it, does.
    """
    lo, hi, step = (values[f"{name}_{end}"] for end in ("min", "max", "step"))
    # floor(span) + 1 points, which exceeds the cap exactly when span does not
    # fall below it; a span that overflows to inf is refused the same way
    span = (hi - lo) / step
    if not span < _MAX_AXIS_POINTS:
        raise ValueError(
            f"fields '{name}_max' and '{name}_step': the {name} axis would hold {span + 1:.6g} "
            f"points, more than {_MAX_AXIS_POINTS}"
        )
    maximum = _AXIS_MAXIMA[name]
    if hi > maximum:
        raise ValueError(f"field '{name}_max': must be <= {maximum:g}, got {hi!r}")
    axis = np.arange(lo, hi + 0.5 * step, step)
    if axis[-1] > maximum:
        raise ValueError(
            f"fields '{name}_max' and '{name}_step': the {name} axis reaches {float(axis[-1])!r}, "
            f"above {maximum:g}"
        )
    return axis


def run_fig4a(cfg: RunConfig) -> ResultTable:
    v = cfg.values
    if not v["k_max"] > v["k_min"]:
        raise ValueError("field 'k_max': must exceed k_min")
    window, _, r_a, r_b = _witness_window(v)
    omega_m = v["omega_m_rad_per_s"]
    ks = _axis(v, "k")
    _check_window_phases(v, window, r_a + r_b, float(ks[-1]), "k_max")
    temps = v["temperatures_K"]
    nbars = [_thermal_occupation(T, omega_m, "temperatures_K") for T in temps]
    k_cells, t_cells = np.repeat(ks, len(temps)), np.tile(temps, ks.size)
    res = window_minima(
        "AB", window, r_a, r_b, alpha=v["alpha"], beta=v["beta"],
        nbar=np.tile(nbars, ks.size), k=k_cells,
    )
    columns = {"k": k_cells, "temperature_K": t_cells, "min_duan_ab": res.d_star}
    extra = {"window_scaled": repr(window), **_minima_metadata(res)}
    return ResultTable(columns, _metadata(cfg, extra))


def run_fig4b(cfg: RunConfig) -> ResultTable:
    v = cfg.values
    for lo, hi in (("alpha_min", "alpha_max"), ("beta_min", "beta_max")):
        if not v[hi] > v[lo]:
            raise ValueError(f"field {hi!r}: must exceed {lo}")
    _check_regime_period(v["k"], v["omega_m_rad_per_s"])
    window, kappa, r_a, r_b = _witness_window(v)
    _check_window_phases(v, window, r_a + r_b, v["k"], "k")
    omega_m = v["omega_m_rad_per_s"]
    nbar = _thermal_occupation(v["temperature_K"], omega_m, "temperature_K")
    alphas, betas = _axis(v, "alpha"), _axis(v, "beta")
    a_cells, b_cells = np.repeat(alphas, betas.size), np.tile(betas, alphas.size)
    res = window_minima("AB", window, r_a, r_b, alpha=a_cells, beta=b_cells, nbar=nbar, k=v["k"])
    columns = {"alpha": a_cells, "beta": b_cells, "min_duan_ab": res.d_star}
    extra = {"nbar": repr(nbar), "window_scaled": repr(window), **_minima_metadata(res)}
    if v["k"] > 0:
        rep = regime_report(v["k"], omega_m, kappa)
        extra.update(regime=rep.regime, feasibility_condition=rep.feasibility_condition)
    return ResultTable(columns, _metadata(cfg, extra))


def run_design(cfg: RunConfig) -> tuple[ResultTable, dict]:
    v = cfg.values
    names = [
        "mirror_radius_m", "cavity_length_m", "atom_number", "trap_frequency_Hz",
        "k", "ratio_at_eval_finesse", "min_finesse_for_unity_ratio",
    ]
    search = {name: v[name] for name in _SEARCH_FIELDS}
    optimized = []
    for radius in v["radii_m"]:
        result = optimize_design(DesignSearchSpace(R_mirror=radius, **search))
        entry = {
            "mirror_radius_m": radius,
            "cavity_length_m": result.L,
            "atom_number": result.N,
            "trap_frequency_Hz": result.omega_m / (2.0 * math.pi),
            "k": result.report.k,
            "g0_rad_per_s": result.report.g0,
            "ratio_at_eval_finesse": result.report.ratio,
            "min_finesse_for_unity_ratio": result.report.min_finesse_for_unity_ratio,
            "n_evaluated": result.n_evaluated,
        }
        optimized.append(entry)

    prop = design_report(proposed_atom_spec(), proposed_geometry(v["report_finesse"]))
    heating = prop.heating
    report_json = {
        "proposed": {
            "finesse": v["report_finesse"],
            "g0_rad_per_s": prop.g0,
            "k": prop.k,
            "kappa_per_s": prop.kappa,
            "tau_p_s": prop.tau_p,
            "tau_e_s": prop.tau_e,
            "ratio": prop.ratio,
            "min_finesse_for_unity_ratio": prop.min_finesse_for_unity_ratio,
            "heating": {
                "r_fs": heating.r_fs,
                "r_c": heating.r_c,
                "energy_ratio": heating.energy_ratio,
                "r_fs_alt": heating.r_fs_alt,
                "r_c_alt": heating.r_c_alt,
                "energy_ratio_alt": heating.energy_ratio_alt,
                "backaction_dominates": heating.backaction_dominates,
            },
        },
        "optimized": optimized,
    }
    # grid points each radius's search covered, as in the sidecar
    n_evaluated = json.dumps([entry["n_evaluated"] for entry in optimized])
    columns = {name: [entry[name] for entry in optimized] for name in names}
    table = ResultTable(columns, _metadata(cfg, {"n_evaluated": n_evaluated}))
    return table, report_json


def _cmd_design(cfg: RunConfig) -> int:
    table, report_json = run_design(cfg)
    _emit(table, cfg.out)
    if cfg.out is not None:
        json_path = os.path.splitext(cfg.out)[0] + ".json"
        payload = {"metadata": dict(table.metadata), "report": report_json}
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write {json_path}: {exc}")
    return 0


# ---------------------------------------------------------------------------
# oracle certification
# ---------------------------------------------------------------------------

def run_oracle_check(cfg: RunConfig) -> tuple[ResultTable, int]:
    names, deviations, tols = zip(*certify.run(cfg.values["seed"]))
    passed = np.less(deviations, tols)
    failures = np.count_nonzero(~passed)
    extra = {"checks_failed": str(failures), "checks_total": str(len(names))}
    status = np.where(passed, "PASS", "FAIL")
    columns = {"check": names, "max_deviation": deviations, "tolerance": tols, "status": status}
    return ResultTable(columns, _metadata(cfg, extra)), (0 if failures == 0 else 2)


def _cmd_oracle_check(cfg: RunConfig) -> int:
    table, code = run_oracle_check(cfg)
    for name, deviation, tol, status in table.rows:
        print(f"[{status}] {name}: max deviation {deviation:.3e} (tolerance {tol:.1e})")
    failed = int(table.metadata["checks_failed"])
    print(f"oracle-check: {len(table.rows) - failed}/{len(table.rows)} checks passed")
    if cfg.out is not None:
        _emit(table, cfg.out)
    return code


# ---------------------------------------------------------------------------
# generic sweep
# ---------------------------------------------------------------------------

def run_sweep(cfg: RunConfig) -> ResultTable:
    v = cfg.values
    quantity = v["quantity"]
    if not v["stop"] > v["start"]:
        raise ValueError("field 'stop': must exceed start")
    if v["variable"] == "k" and v["stop"] > _MAX_COUPLING:
        raise ValueError(f"field 'stop': a k sweep must stop at most {_MAX_COUPLING:g}, got {v['stop']!r}")
    if quantity.startswith("duan"):
        if not (v["r_a"] > 0 and v["r_b"] > 0):
            raise ValueError("fields 'r_a' and 'r_b': must be positive for Duan sweeps")
        if v["variable"] == "t":
            _check_phases(v["stop"], v["k"], v["r_a"] + v["r_b"], ("stop",))
        else:
            _check_phases(v["t_fixed"], v["stop"], v["r_a"] + v["r_b"], ("t_fixed",), "stop")
    elif v["variable"] == "k":
        _check_qubit_coupling(v["stop"], "stop")
    else:
        _check_qubit_coupling(v["k"], "k")
    xs = np.linspace(v["start"], v["stop"], v["n_points"])
    ks = xs if v["variable"] == "k" else v["k"]
    ts = xs if v["variable"] == "t" else v["t_fixed"]
    if quantity in ("concurrence", "entropy"):
        measure = concurrence if quantity == "concurrence" else von_neumann_entropy
        values = measure(reduced_rho_ab(ts, ks))
    else:
        pair = quantity.removeprefix("duan_").upper()
        state = dict(alpha=v["alpha"], beta=v["beta"], nbar=v["nbar"])
        points = zip(*(axis.tolist() for axis in np.broadcast_arrays(ts, ks)))
        values = [duan_values(t, pair, v["r_a"], v["r_b"], **state, k=k) for t, k in points]
    return ResultTable({v["variable"]: xs, quantity: values}, _metadata(cfg))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="optomech",
        description="Tripartite optomechanical entanglement: figure data, design reports, oracle certification.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE", help="JSON file with parameter overrides")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a single config field (repeatable; wins over --config)",
    )
    parser.add_argument("--out", metavar="PATH", help="output CSV path (default: stdout)")
    return parser


_TABLE_COMMANDS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4a": run_fig4a,
    "fig4b": run_fig4b,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    # what a closed stdout returns: a table command fails, if at all, before
    # it writes, and oracle-check's status is set before the flush that
    # sends its buffered report
    code = 0
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(
            args.command, config_path=args.config, overrides=args.overrides, out=args.out
        )
        if cfg.command == "design":
            code = _cmd_design(cfg)
        elif cfg.command == "oracle-check":
            code = _cmd_oracle_check(cfg)
        else:
            _emit(_TABLE_COMMANDS[cfg.command](cfg), cfg.out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`optomech fig4b | head -1`); what is
        # still buffered goes to devnull, so the flush at exit raises nothing
        # (the recipe of Python's signal module documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
