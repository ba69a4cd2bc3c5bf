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
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

# the modules every command needs; duan and certify are imported in the functions that run them, so
# the qubit and design commands never load the witness, the oracle or the certification
from . import __version__
from .core import _MAX_AMPLITUDE, _MAX_COUPLING, regime_report, thermal_occupation
from .design import (
    TEMPERATURE_K,
    CavityGeometry,
    DesignSearchSpace,
    _linewidth,
    cavity_linewidth,
    design_report,
    optimize_design,
    proposed_atom_spec,
    proposed_geometry,
)
from .qubit import _measures

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
# input domains: what each command forms from its fields, refused by field name
# ---------------------------------------------------------------------------

def _fields(names: str) -> str:
    """"field 'a'" for one space-separated name, "fields 'a', 'b' and 'c'" for more."""
    *rest, last = map(repr, names.split())
    return f"fields {', '.join(rest)} and {last}" if rest else f"field {last}"


class _Row(NamedTuple):
    """A condition "fields: text" on form(d), a quantity the command forms in its own float order from
    the values and earlier rows' scalars d; key keeps it in d (a tuple of keys takes each item)."""

    spec: str
    form: object
    holds: object = math.isfinite
    key: str | tuple | None = None
    when: object = None


def _domain(command: str, values: dict) -> SimpleNamespace:
    """values plus the scalars the command's rows derive, once each row that applies (when(d)) holds.

    A row whose holds fails on its quantity q refuses with its fields and text, formatted with q and d.
    A row with no text puts its fields in front of the refusal of the library its form calls, which
    owns the condition; a row with no fields either only derives.
    """
    d = SimpleNamespace(**values)
    for row in _DOMAINS[command]:
        if row.when is not None and not row.when(d):
            continue
        fields, _, text = row.spec.partition(": ")
        if fields and not text:
            try:
                q = row.form(d)
            except ValueError as exc:
                raise ValueError(f"{_fields(fields)}: {exc}") from None
        else:
            q = row.form(d)
            if text and not row.holds(q):
                raise ValueError(f"{_fields(fields)}: {text.format(q=q, **vars(d))}")
        if row.key is not None:
            vars(d).update(zip(row.key, q) if isinstance(row.key, tuple) else {row.key: q})
    return d


#: above every |eta(t)|**2 the kernels form: 2 (1 - cos t) <= 4, rounded up by a few ulps at most
_MAX_ETA_SQ = 4.0 + 1e-12


def _phases(t: str, k: str, when=None, direct=None) -> tuple:
    """The carrier phase (r_a + r_b) t, where direct(d) too (an envelope scan never forms it), and
    2 k**2 t in `duan._coupling`'s order at the largest t and k, under the fields t and k name:
    where both are finite, every phase is."""
    return (
        _Row(f"{t}: the carrier phase (r_a + r_b) t overflows at t = {{t_last!r}}, r_a + r_b = {{fast!r}}",
             lambda d: d.fast * d.t_last, when=when if direct is None else lambda d: when(d) and direct(d)),
        _Row(f"{t} {k}: the coupling phase 2 k**2 t overflows at t = {{t_last!r}}, k = {{k_last!r}}",
             lambda d: 2.0 * (d.k_last ** 2 * d.t_last), when=when),
    )


def _thermal(nbar: str, k: str, when=None) -> tuple:
    """2 nbar + 1, and k**2 |eta|**2 (2 nbar + 1) in `duan._couple`'s order at the largest k, nbar and
    |eta|**2, which bounds every thermal exponent as non-negative factors round monotonically."""
    return (
        _Row(f"{nbar}: 2 nbar + 1 overflows at nbar = {{nbar!r}}", lambda d: 2.0 * d.nbar + 1.0, when=when),
        _Row(f"{nbar} {k}: the thermal exponent k**2 |eta|**2 (2 nbar + 1) overflows at k = {{k_last!r}}, "
             "nbar = {nbar!r}", lambda d: d.k_last ** 2 * _MAX_ETA_SQ * (2.0 * d.nbar + 1.0), when=when),
    )


def _correlation(k: str, when=None) -> _Row:
    """k**2 |eta|**2 (alpha**2 + beta**2) in `duan._c_curve`'s order at the largest k and |eta|**2, under
    the field k names, alpha and beta: where it is finite, that term of every D_AC and D_BC is, as its
    non-negative factors round monotonically."""
    return _Row(f"{k} alpha beta: k**2 |eta|**2 (alpha**2 + beta**2) overflows at k = {{k_last!r}}, alpha = "
                "{alpha!r}, beta = {beta!r}", lambda d: d.k_last ** 2 * _MAX_ETA_SQ * (d.alpha ** 2 + d.beta ** 2),
                when=when)


#: most points one fig4a or fig4b axis may hold, ten times fig4b's default
#: 101; the largest fig4b grid is then 1001 x 1001 cells
_MAX_AXIS_POINTS = 1001


def _axis(name: str, maximum: float) -> tuple:
    """The name_min .. name_max axis in name_step steps, refused before it is built if too long or where
    name_max passes maximum, then built as name_axis and refused where its last point passes maximum."""
    ends = lambda d: [getattr(d, f"{name}_{end}") for end in ("min", "max", "step")]  # noqa: E731
    axis = f"{name}_max {name}_step: the {name} axis"
    return (
        # floor(span) + 1 points exceed the cap exactly when span does not fall below it (adding 1 is
        # exact near the cap); a span that overflows to inf is refused the same way
        _Row(f"{axis} would hold {{q:.6g}} points, more than {_MAX_AXIS_POINTS}",
             lambda d: (ends(d)[1] - ends(d)[0]) / ends(d)[2] + 1.0, lambda q: q < _MAX_AXIS_POINTS + 1),
        _Row(f"{name}_max: must be <= {maximum:g}, got {{q!r}}", lambda d: ends(d)[1], lambda q: q <= maximum),
        # the last point lies up to half a step beyond name_max
        _Row("", lambda d: np.arange(ends(d)[0], ends(d)[1] + 0.5 * ends(d)[2], ends(d)[2]), key=f"{name}_axis"),
        _Row(f"{axis} reaches {{q!r}}, above {maximum:g}",
             lambda d: float(getattr(d, f"{name}_axis")[-1]), lambda q: q <= maximum, key=f"{name}_last"),
    )


def _direct(d) -> bool:
    """Whether `window_minima` scans d.window at the carrier phase itself, not through the envelope."""
    from .duan import _scan_grid

    return _scan_grid(d.window, d.fast)[1] == "direct"


def _window_phases(k_field: str) -> tuple:
    """fig4a's and fig4b's phases, named by window_scaled or by the fields the window defaults from."""
    return (*_phases("window_scaled", k_field, lambda d: d.window_scaled is not None, _direct),
            *_phases(_WINDOW, k_field, lambda d: d.window_scaled is None, _direct))


_WINDOW = "omega_m_rad_per_s cavity_length_m finesse"
_QUBIT = f"the qubit measures need k <= {_MAX_QUBIT_COUPLING:g}, got {{q!r}}"
_QUBIT_HOLDS = lambda q: q <= _MAX_QUBIT_COUPLING  # noqa: E731
_CELL_HOLDS = lambda q: q <= _MAX_COUPLING  # noqa: E731
#: kappa in 1/s and tau_p in s; the window, the photon lifetime in scaled time unless window_scaled
#: overrides it (fig3 has no window_scaled); r_a and r_b, the carriers over omega_m, scaled only here
_OPERATING_ROWS = (
    # cavity_linewidth's kappa: its 1 / kappa divides by zero where kappa underflows
    _Row("cavity_length_m finesse: the linewidth c / (2 L) / finesse underflows to {q!r} 1/s",
         lambda d: _linewidth(d.cavity_length_m, d.finesse), lambda q: q > 0.0),
    _Row("cavity_length_m mirror_radius_m", key=("kappa", "tau_p"),
         form=lambda d: cavity_linewidth(CavityGeometry(d.cavity_length_m, d.mirror_radius_m, d.finesse))),
    _Row(f"{_WINDOW}: the window omega_m tau_p overflows at tau_p = {{tau_p!r}} s",
         lambda d: getattr(d, "window_scaled", None) or d.omega_m_rad_per_s * d.tau_p, key="window"),
    _Row("omega_a_rad_per_s: omega_a_rad_per_s / omega_m_rad_per_s = {q!r} must be positive and finite",
         lambda d: d.omega_a_rad_per_s / d.omega_m_rad_per_s, lambda q: 0.0 < q < math.inf, key="r_a"),
    _Row("omega_b_rad_per_s: omega_b_rad_per_s / omega_m_rad_per_s = {q!r} must be positive and finite",
         lambda d: d.omega_b_rad_per_s / d.omega_m_rad_per_s, lambda q: 0.0 < q < math.inf, key="r_b"),
    _Row("", lambda d: d.r_a + d.r_b, key="fast"),
)
#: the regime report fig3 and fig4b write, built once where k > 0 (else None); it follows kappa
_REGIME = _Row("", lambda d: regime_report(d.k, d.omega_m_rad_per_s, d.kappa) if d.k > 0 else None, key="regime")
_REPORTED = lambda d: d.regime is not None  # noqa: E731
_NBAR = _Row("temperature_K", lambda d: thermal_occupation(d.temperature_K, d.omega_m_rad_per_s), key="nbar")

#: command -> the rows of its input domain, in the order they are checked
_DOMAINS = {
    "fig2": (
        _Row(f"k: {_QUBIT}", lambda d: d.k, _QUBIT_HOLDS),
        _Row("t_max: must exceed t_min={t_min}", lambda d: d.t_max > d.t_min, bool),
    ),
    "fig3": (
        *_OPERATING_ROWS[:2],
        _REGIME,
        _Row("k: the regime period pi / k**2 overflows at k = {k!r}", lambda d: d.regime.envelope_period,
             when=_REPORTED),
        _OPERATING_ROWS[2],
        _Row("", lambda d: d.window if d.t_max is None else d.t_max, key="t_last"),
        _Row("t_max: must exceed t_min={t_min}", lambda d: d.t_last > d.t_min, bool),
        *_OPERATING_ROWS[3:],
        _NBAR,
        # k through g0 = k omega_m and back, as fig3 has always scaled it: the
        # quotient differs from k in the last bit for some k (0.8992 among them)
        _Row(f"k omega_m_rad_per_s: the coupling k omega_m / omega_m is {{q!r}}, above {_MAX_COUPLING:g}",
             lambda d: (d.k * d.omega_m_rad_per_s) / d.omega_m_rad_per_s, _CELL_HOLDS, key="k_last"),
        *_phases("t_max", ""),
        *_thermal("temperature_K omega_m_rad_per_s", "k"),
        _correlation("k"),
        _Row("k omega_m_rad_per_s cavity_length_m finesse: the feasibility ratio g0**2 / (omega_m 2 pi kappa) is "
             "{q!r} at kappa = {kappa!r} 1/s", lambda d: d.regime.feasibility_ratio,
             when=lambda d: _REPORTED(d) and d.regime.regime == "low"),
    ),
    "fig4a": (
        _Row("k_max: must exceed k_min", lambda d: d.k_max > d.k_min, bool),
        *_OPERATING_ROWS,
        *_axis("k", _MAX_COUPLING),
        _Row("", lambda d: d.window, key="t_last"),
        *_window_phases("k_max"),
        _Row("temperatures_K", lambda d: [thermal_occupation(T, d.omega_m_rad_per_s) for T in d.temperatures_K],
             key="nbars"),
        _Row("", lambda d: max(d.nbars), key="nbar"),
        *_thermal("temperatures_K omega_m_rad_per_s", "k_max"),
    ),
    "fig4b": (
        _Row("alpha_max: must exceed alpha_min", lambda d: d.alpha_max > d.alpha_min, bool),
        _Row("beta_max: must exceed beta_min", lambda d: d.beta_max > d.beta_min, bool),
        *_OPERATING_ROWS[:2],
        _REGIME,
        *_OPERATING_ROWS[2:],
        _Row("", lambda d: (d.window, d.k), key=("t_last", "k_last")),
        *_window_phases("k"),
        _NBAR,
        *_thermal("temperature_K omega_m_rad_per_s", "k"),
        *_axis("alpha", _MAX_AMPLITUDE),
        *_axis("beta", _MAX_AMPLITUDE),
    ),
    "design": (
        # the proposed design's report, built once; its heating energy ratios grow like finesse**2
        _Row("report_finesse", lambda d: design_report(proposed_atom_spec(), proposed_geometry(d.report_finesse)),
             key="proposed"),
        _Row("report_finesse: the proposed design's {q[0]} is {q[1]!r}", lambda d: next((
            (name, x) for name, x in [*vars(d.proposed).items(), *vars(d.proposed.heating).items()]
            if isinstance(x, float) and not math.isfinite(x)), None), lambda q: q is None),
        # DesignSearchSpace names each field it refuses itself; optimize_design's lengths start at
        # L_min_m and lie below 2 R_mirror; and only the search tells if every coupling lands in a band
        _Row("", key="searches", form=lambda d: [
            DesignSearchSpace(r, **{f: getattr(d, f) for f in _SEARCH_FIELDS}) for r in d.radii_m]),
        _Row("radii_m L_min_m: design search at mirror radius {q} m: empty search grid",
             lambda d: next((r for r in d.radii_m if not d.L_min_m < 2.0 * r), None), lambda q: q is None),
        _Row("exclusion_halfwidth exclusion_n_max", lambda d: [*map(optimize_design, d.searches)],
             key="results"),
    ),
    "sweep": (
        _Row("stop: must exceed start", lambda d: d.stop > d.start, bool),
        _Row(f"stop: a k sweep must stop at most {_MAX_COUPLING:g}, got {{q!r}}", lambda d: d.stop, _CELL_HOLDS,
             when=lambda d: d.variable == "k"),
        # the largest t and k: stop, and t_fixed or k
        _Row("", key=("duan", "fast", "t_last", "k_last"), form=lambda d: (
            d.quantity.startswith("duan"), d.r_a + d.r_b,
            *((d.stop, d.k) if d.variable == "t" else (d.t_fixed, d.stop)))),
        _Row("r_a r_b: must be positive for Duan sweeps", lambda d: d.r_a > 0 and d.r_b > 0, bool,
             when=lambda d: d.duan),
        *_phases("stop", "", lambda d: d.duan and d.variable == "t"),
        *_phases("t_fixed", "stop", lambda d: d.duan and d.variable == "k"),
        *_thermal("nbar", "k", lambda d: d.duan and d.variable == "t"),
        *_thermal("nbar", "stop", lambda d: d.duan and d.variable == "k"),
        _correlation("k", lambda d: d.duan and d.quantity != "duan_ab" and d.variable == "t"),
        _correlation("stop", lambda d: d.duan and d.quantity != "duan_ab" and d.variable == "k"),
        _Row(f"stop: {_QUBIT}", lambda d: d.stop, _QUBIT_HOLDS, when=lambda d: not d.duan and d.variable == "k"),
        _Row(f"k: {_QUBIT}", lambda d: d.k, _QUBIT_HOLDS, when=lambda d: not d.duan and d.variable == "t"),
    ),
}


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def run_fig2(cfg: RunConfig) -> ResultTable:
    d = _domain("fig2", cfg.values)
    grid = np.linspace(d.t_min, d.t_max, d.n_points)
    columns = {"t": grid, **_measures(grid, d.k, ("concurrence", "entropy"))}
    return ResultTable(columns, _metadata(cfg))


def run_fig3(cfg: RunConfig) -> ResultTable:
    from .duan import duan_values

    d = _domain("fig3", cfg.values)
    grid = np.linspace(d.t_min, d.t_last, d.n_points)
    cell = dict(alpha=d.alpha, beta=d.beta, nbar=d.nbar, k=d.k_last)
    columns = {
        "t": grid,
        **{f"duan_{pair.lower()}": duan_values(grid, pair, d.r_a, d.r_b, **cell) for pair in _PAIRS},
        "threshold": np.ones_like(grid),  # the separability threshold
        **{
            f"duan_{pair.lower()}_lower": duan_values(grid, pair, d.r_a, d.r_b, **cell, lower=True)
            for pair in _PAIRS
        },
    }
    extra = {"nbar": repr(d.nbar), "window_scaled": repr(d.window)}
    rep = d.regime
    if rep is not None:
        extra.update(
            regime=rep.regime, feasibility_condition=rep.feasibility_condition,
            feasibility_ratio=repr(rep.feasibility_ratio), envelope_period_scaled=repr(rep.envelope_period),
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


def run_fig4a(cfg: RunConfig) -> ResultTable:
    from .duan import window_minima

    d = _domain("fig4a", cfg.values)
    ks, temps = d.k_axis, d.temperatures_K
    k_cells, t_cells = np.repeat(ks, len(temps)), np.tile(temps, ks.size)
    res = window_minima("AB", d.window, d.r_a, d.r_b, alpha=d.alpha, beta=d.beta,
                        nbar=np.tile(d.nbars, ks.size), k=k_cells)
    columns = {"k": k_cells, "temperature_K": t_cells, "min_duan_ab": res.d_star}
    extra = {"window_scaled": repr(d.window), **_minima_metadata(res)}
    return ResultTable(columns, _metadata(cfg, extra))


def run_fig4b(cfg: RunConfig) -> ResultTable:
    from .duan import window_minima

    d = _domain("fig4b", cfg.values)
    alphas, betas = d.alpha_axis, d.beta_axis
    a_cells, b_cells = np.repeat(alphas, betas.size), np.tile(betas, alphas.size)
    res = window_minima("AB", d.window, d.r_a, d.r_b, alpha=a_cells, beta=b_cells, nbar=d.nbar, k=d.k)
    columns = {"alpha": a_cells, "beta": b_cells, "min_duan_ab": res.d_star}
    extra = {"nbar": repr(d.nbar), "window_scaled": repr(d.window), **_minima_metadata(res)}
    rep = d.regime
    if rep is not None:
        extra.update(regime=rep.regime, feasibility_condition=rep.feasibility_condition)
    return ResultTable(columns, _metadata(cfg, extra))


def run_design(cfg: RunConfig) -> tuple[ResultTable, dict]:
    v = cfg.values
    d = _domain("design", v)
    names = [
        "mirror_radius_m", "cavity_length_m", "atom_number", "trap_frequency_Hz",
        "k", "ratio_at_eval_finesse", "min_finesse_for_unity_ratio",
    ]
    optimized = [
        {
            "mirror_radius_m": radius, "cavity_length_m": result.L, "atom_number": result.N,
            "trap_frequency_Hz": result.omega_m / (2.0 * math.pi), "k": result.report.k,
            "g0_rad_per_s": result.report.g0, "ratio_at_eval_finesse": result.report.ratio,
            "min_finesse_for_unity_ratio": result.report.min_finesse_for_unity_ratio,
            "n_evaluated": result.n_evaluated,
        }
        for radius, result in zip(v["radii_m"], d.results)
    ]
    prop = d.proposed
    report_json = {
        "proposed": {
            "finesse": v["report_finesse"], "g0_rad_per_s": prop.g0, "k": prop.k, "kappa_per_s": prop.kappa,
            "tau_p_s": prop.tau_p, "tau_e_s": prop.tau_e, "ratio": prop.ratio,
            "min_finesse_for_unity_ratio": prop.min_finesse_for_unity_ratio,
            "heating": {**asdict(prop.heating), "backaction_dominates": prop.heating.backaction_dominates},
        },
        "optimized": optimized,
    }
    # grid points each radius's search covered, as in the sidecar
    n_evaluated = json.dumps([entry["n_evaluated"] for entry in optimized])
    columns = {name: [entry[name] for entry in optimized] for name in names}
    table = ResultTable(columns, _metadata(cfg, {"n_evaluated": n_evaluated}))
    return table, report_json


def _cmd_design(cfg: RunConfig) -> int:
    # the sidecar takes the --out path with a .json extension, which would overwrite the CSV itself
    if cfg.out is not None and os.path.splitext(cfg.out)[1].lower() == ".json":
        raise ValueError(
            f"--out {cfg.out}: design writes its JSON sidecar at this path with a .json extension, "
            "so the CSV path must not end in .json"
        )
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
    from . import certify

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
    _domain("sweep", v)
    quantity = v["quantity"]
    xs = np.linspace(v["start"], v["stop"], v["n_points"])
    ks = xs if v["variable"] == "k" else v["k"]
    ts = xs if v["variable"] == "t" else v["t_fixed"]
    if quantity in ("concurrence", "entropy"):
        values = _measures(ts, ks, (quantity,))[quantity]
    else:
        from .duan import _check_cell, _evaluate

        pair = quantity.removeprefix("duan_").upper()
        cell = (v["alpha"], v["beta"], v["nbar"])
        # the cell once, with k the whole axis of a k sweep; then `duan_values` point by point, in
        # Python floats, as one batched call would round some rows differently
        _check_cell(pair, v["r_a"], v["r_b"], *cell, ks)
        points = zip(*(axis.tolist() for axis in np.broadcast_arrays(ts, ks)))
        values = [_evaluate(t, pair, v["r_a"], v["r_b"], *cell, k, lower=False) for t, k in points]
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
