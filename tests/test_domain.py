"""Each command's input domain: it computes finite output or refuses by field name.

The matrices run `main` in process, with warnings raised as errors. Each
run must exit 0 with every CSV value finite and nothing on stderr, or exit
1 with one stderr line `error: field(s) '<name>'...` whose names are all
fields of the command. The single-field matrix sets each numeric field to
0, -1, 1e-300 and 1e300 (`scripts/compare_outputs.py` runs it too); the
pair matrix sets two coupled fields at a time to seven magnitudes from
1e-300 to 1e300, or, where it joins k with an amplitude, to eight up to
their 1e100 caps. The other grids are shrunk so the runs stay fast. The
refusal tests pin the texts of the rows that join fields, and the README
test holds README's refusal table to the domain rows.
"""

import contextlib
import io
import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest

from optomech.cli import _DOMAINS, FIELDS, main

#: settings that shrink each command's grids, overridden by the field under test
_SMALL = {
    "fig2": {"n_points": 50},
    "fig3": {"n_points": 50},
    "fig4a": {"k_step": 0.5, "temperatures_K": [1e-7]},
    "fig4b": {"alpha_step": 0.5, "beta_step": 0.5},
    "design": {"radii_m": [0.05]},
    "sweep": {"n_points": 50},
}
#: fields that hold a list of numbers; a matrix value v goes in as [v]
_LIST_FIELDS = {"temperatures_K", "radii_m", "trap_frequencies_Hz"}
_NUMERIC = [
    (command, field)
    for command, fields in FIELDS.items()
    for field, (default, _) in fields.items()
    # oracle-check's one field is an integer seed, which its validator types
    if not isinstance(default, str) and command != "oracle-check"
]
_SINGLE_VALUES = (0, -1, 1e-300, 1e300)
_PAIR_VALUES = (1e-300, 1e-154, 1e-3, 0.5, 1e3, 1e154, 1e300)
#: magnitudes up to the 1e100 caps of k and the amplitudes, for the pairs that join them
_CAP_VALUES = (1e-300, 1e-3, 0.5, 1e30, 1e50, 1e70, 1e99, 1e100)
#: (command, fixed settings, first field, second field) of the pair matrix, each at _PAIR_VALUES
_PAIRS = [
    *(
        (command, {}, first, second)
        for command in ("fig3", "fig4b")
        for first, second in (
            ("k", "omega_m_rad_per_s"),
            ("k", "temperature_K"),
            ("omega_m_rad_per_s", "temperature_K"),
            ("omega_m_rad_per_s", "finesse"),
        )
    ),
    ("fig3", {}, "k", "t_max"),
    ("fig4b", {}, "k", "window_scaled"),
    ("fig4a", {}, "k_max", "omega_m_rad_per_s"),
    ("fig4a", {}, "omega_m_rad_per_s", "finesse"),
    ("fig4a", {}, "k_max", "window_scaled"),
    ("sweep", {"quantity": "duan_ac"}, "k", "stop"),
    ("sweep", {"quantity": "duan_ac"}, "r_a", "stop"),
    ("sweep", {"quantity": "duan_bc", "variable": "k"}, "k", "t_fixed"),
    # a mirror wide enough that every length has a waist, so the linewidth alone can fail
    *((command, {"mirror_radius_m": 1e300}, "cavity_length_m", "finesse") for command in ("fig3", "fig4a", "fig4b")),
]
#: pairs of the matrix at _CAP_VALUES
_CAP_PAIRS = [
    ("fig3", {}, "k", "alpha"),
    ("fig3", {}, "k", "beta"),
    ("sweep", {"quantity": "duan_ac"}, "k", "alpha"),
    ("sweep", {"quantity": "duan_bc"}, "k", "beta"),
    ("sweep", {"quantity": "duan_ac", "variable": "k"}, "stop", "alpha"),
    ("sweep", {"quantity": "duan_bc", "variable": "k"}, "stop", "beta"),
]
#: the field names a refusal opens with; a list field's item carries its index
_REFUSAL = re.compile(r"error: fields? ('[^']+'(?:\[\d+\])?(?:(?:, | and )'[^']+')*): ")


def overrides(command: str, settings: dict) -> tuple:
    """The --set items of one matrix run: the shrunk grids, then settings (a list field's value v as [v])."""
    items = []
    for field, value in {**_SMALL[command], **settings}.items():
        value = [value] if field in _LIST_FIELDS and not isinstance(value, list) else value
        items.append(f"{field}={value}" if isinstance(value, str) else f"{field}={value!r}")
    return tuple(items)


def single_field_runs() -> list:
    """(command, settings) of the single-field matrix."""
    return [(command, {field: value}) for command, field in _NUMERIC for value in _SINGLE_VALUES]


def _failure(command: str, settings: dict):
    """Why one run breaks the rule above, or None where it keeps it."""
    argv = [command, *(arg for item in overrides(command, settings) for arg in ("--set", item))]
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    except BaseException as exc:  # a traceback, or a warning raised as an error
        return f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
    err = err.getvalue()
    if code == 0:
        rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
        cells = [cell for row in rows for cell in row.split(",")]
        if err or not rows or not all(math.isfinite(float(cell)) for cell in cells):
            return f"{' '.join(argv)}: exit 0 with a non-finite value or stderr {err!r}"
        return None
    match = _REFUSAL.match(err)
    names = re.findall(r"'([^']+)'", match.group(1)) if match else []
    if code != 1 or err.count("\n") != 1 or not names or not set(names) <= set(FIELDS[command]):
        return f"{' '.join(argv)}: exit {code} with stderr {err!r}"
    return None


def _failures(runs) -> list:
    return [failure for failure in itertools.starmap(_failure, runs) if failure is not None]


def test_every_numeric_field_alone_computes_or_refuses_by_field():
    runs = single_field_runs()
    assert len(runs) == 272
    assert _failures(runs) == []


def test_every_pair_of_coupled_fields_computes_or_refuses_by_field():
    runs = [
        (command, {**fixed, first: a, second: b})
        for pairs, values in ((_PAIRS, _PAIR_VALUES), (_CAP_PAIRS, _CAP_VALUES))
        for command, fixed, first, second in pairs
        for a, b in itertools.product(values, repeat=2)
    ]
    assert len(runs) == 1315
    assert _failures(runs) == []


@pytest.mark.parametrize(
    "command, settings",
    [("fig3", {"t_max": 6.0}), ("fig4a", {}), ("fig4b", {}), ("design", {}), ("sweep", {"quantity": "duan_ab"})],
)
def test_the_shrunk_defaults_compute(command, settings):
    # the matrices' baseline: every shrunk command runs clean
    assert _failure(command, settings) is None


_RATIO = (
    "fields 'k', 'omega_m_rad_per_s', 'cavity_length_m' and 'finesse': the feasibility ratio "
    "g0**2 / (omega_m 2 pi kappa) is inf at kappa = 63812.78373776075 1/s"
)
_TWO_NBAR = "fields 'temperature_K' and 'omega_m_rad_per_s': 2 nbar + 1 overflows at nbar = 1.309203392072064e+308"
_EXPONENT = (
    "fields 'temperature_K', 'omega_m_rad_per_s' and 'k': the thermal exponent k**2 |eta|**2 (2 nbar + 1) "
    "overflows at k = 1000.0, nbar = 2.193328330115218e+305"
)
_WINDOW = (
    "fields 'omega_m_rad_per_s', 'cavity_length_m' and 'finesse': the window omega_m tau_p overflows "
    "at tau_p = 5.22361373080306e+288 s"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        # each died with an OverflowError traceback at regime_report's g0**2; fig4b, which does not
        # write the ratio, computes at the second
        (["fig3", "k=0.5", "omega_m_rad_per_s=1e300", "n_points=50"], _RATIO),
        (["fig3", "k=0.001", "omega_m_rad_per_s=1e300", "n_points=50"], _RATIO),
        # each wrote nan and 1.309e308 (fig3) or non-finite minima (fig4b) and exited 0
        (["fig3", "omega_m_rad_per_s=1000", "temperature_K=1e300"], _TWO_NBAR),
        (["fig4b", "omega_m_rad_per_s=1000", "temperature_K=1e300"], _TWO_NBAR),
        (["sweep", "quantity=duan_ac", "nbar=1e308"], "field 'nbar': 2 nbar + 1 overflows at nbar = 1e+308"),
        # each warned "overflow encountered in multiply" and exited 0
        (["fig3", "k=1000", "temperature_K=1e300"], _EXPONENT),
        (["fig4b", "k=1000", "temperature_K=1e300"], _EXPONENT),
        (
            ["fig4a", "k_max=1000", "k_step=1", "temperatures_K=[1e300]"],
            _EXPONENT.replace("temperature_K", "temperatures_K").replace("'k'", "'k_max'")
            .replace("k = 1000.0", "k = 1000.0249999999999"),
        ),
        # k**2 (2 nbar + 1) is finite here; times |eta|**2 up to 4 it is not
        (
            ["sweep", "quantity=duan_ab", "k=6000", "nbar=1e300"],
            "fields 'nbar' and 'k': the thermal exponent k**2 |eta|**2 (2 nbar + 1) overflows "
            "at k = 6000.0, nbar = 1e+300",
        ),
        # each stopped with "error: cannot convert float NaN to integer"
        (["fig4a", "omega_m_rad_per_s=1e300", "finesse=1e300"], _WINDOW),
        (["fig4b", "omega_m_rad_per_s=1e154", "finesse=1e300"], _WINDOW),
        # wrote "window_scaled: inf" and exited 0
        (["fig3", "omega_m_rad_per_s=1e300", "finesse=1e300", "t_max=1"], _WINDOW),
        # named t_max and "k = inf", which no field sets
        (
            ["fig3", "k=1e100", "omega_m_rad_per_s=1e210"],
            "fields 'k' and 'omega_m_rad_per_s': the coupling k omega_m / omega_m is inf, above 1e+100",
        ),
        # warned of a division by zero at the mode volume and exited 0
        (["design", "L_min_m=1e-300"], "field 'L_min_m': must be at least half the D2 wavelength, got 1e-300"),
        (
            ["design", "radii_m=[1e-300]"],
            "fields 'radii_m' and 'L_min_m': design search at mirror radius 1e-300 m: empty search grid",
        ),
        # died with a ZeroDivisionError traceback in cavity_linewidth
        (
            ["fig3", "mirror_radius_m=1e300", "cavity_length_m=1e154", "finesse=1e300"],
            "fields 'cavity_length_m' and 'finesse': the linewidth c / (2 L) / finesse underflows to 0.0 1/s",
        ),
        # each warned "overflow encountered in multiply" at the D_AC base term and exited 0
        (
            ["fig3", "k=1e100", "alpha=1e70", "n_points=50"],
            "fields 'k', 'alpha' and 'beta': k**2 |eta|**2 (alpha**2 + beta**2) overflows at k = 1e+100, "
            "alpha = 1e+70, beta = 0.5",
        ),
        (
            ["sweep", "quantity=duan_bc", "variable=k", "stop=1e99", "beta=1e100"],
            "fields 'stop', 'alpha' and 'beta': k**2 |eta|**2 (alpha**2 + beta**2) overflows at k = 1e+99, "
            "alpha = 0.5, beta = 1e+100",
        ),
        # exited 0 and wrote Infinity into the JSON sidecar
        (["design", "report_finesse=1e300"], "field 'report_finesse': the proposed design's energy_ratio is inf"),
    ],
)
def test_cli_refuses_a_two_field_fault_by_field_before_any_grid(capsys, argv, message):
    command, *settings = argv
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, *(arg for item in settings for arg in ("--set", item))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    # refused before any grid or search is built
    assert peak < 2 ** 20


def test_cli_keeps_a_thermal_exponent_below_the_overflow(capsys):
    # k**2 4 (2 nbar + 1) is 1.28e308 at k = 4000, nbar = 1e300: every value stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--set", "quantity=duan_ab", "--set", "k=4000", "--set", "nbar=1e300"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))


def test_cli_names_the_fields_of_an_infeasible_design_search(capsys):
    assert main(["design", "--set", "exclusion_halfwidth=1e300"]) == 1
    assert capsys.readouterr().err == (
        "error: fields 'exclusion_halfwidth' and 'exclusion_n_max': design search at mirror radius 0.01 m: "
        "no feasible design: every coupling lands in an exclusion band\n"
    )


@pytest.mark.parametrize("report_finesse, refused", [(3e6, False), (1e154, False), (1e160, True), (1e300, True)])
def test_design_sidecar_is_strict_json_or_refused(tmp_path, capsys, report_finesse, refused):
    # the proposed design's heating energy ratio grows like finesse**2: 1.3e300 at 1e154, inf at 1e160
    out = tmp_path / "design.csv"
    code = main(["design", "--set", f"report_finesse={report_finesse!r}", "--set", "radii_m=[0.05]", "--out", str(out)])
    err = capsys.readouterr().err
    if refused:
        assert code == 1 and err.startswith("error: field 'report_finesse': the proposed design's energy_ratio")
        assert not out.exists() and not out.with_suffix(".json").exists()
        return

    def refuse(constant):
        raise ValueError(f"the sidecar holds {constant}")

    assert code == 0 and err == ""
    report = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"), parse_constant=refuse)["report"]
    assert report["proposed"]["finesse"] == report_finesse


def _readme_pairs() -> set:
    """(command, fields) of every row of README's refusal table; a cell lists field sets split by ";"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| Command | Field(s) | Refused when |"):].split("\n\n")[0].splitlines()[2:]
    pairs = set()
    for line in table:
        commands, fields = re.split(r"(?<!\\)\|", line)[1:3]
        for names in fields.split(";"):
            names = tuple(re.findall(r"`([^`]+)`", names))
            pairs |= {(command, names) for command in re.findall(r"`([^`]+)`", commands)}
    return pairs


def test_readme_refusal_table_lists_the_domain_rows():
    rows = {
        (command, tuple(row.spec.partition(": ")[0].split()))
        for command, table in _DOMAINS.items()
        for row in table
    }
    assert _readme_pairs() == {(command, fields) for command, fields in rows if fields}
