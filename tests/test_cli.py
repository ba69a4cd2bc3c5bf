import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from optomech import certify, cli
from optomech.cli import (
    ResultTable,
    _write_csv,
    _table,
    resolve_config,
    main,
)
from optomech.core import regime_report, thermal_occupation
import optomech.duan as duan_module
from optomech.duan import duan_values


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config("fig2")
        assert cfg.command == "fig2"
        assert cfg.values["k"] == 0.5
        assert cfg.values["n_points"] == 4000
        assert cfg.values["t_max"] == pytest.approx(8.0 * math.pi)

    def test_set_overrides_are_typed(self):
        cfg = resolve_config("fig2", overrides=("k=0.7", "n_points=128"))
        assert cfg.values["k"] == 0.7
        assert isinstance(cfg.values["n_points"], int)
        assert cfg.values["n_points"] == 128

    def test_list_values_parse_as_json(self):
        cfg = resolve_config("fig4a", overrides=("temperatures_K=[1e-7, 8e-7]",))
        assert cfg.values["temperatures_K"] == [1e-7, 8e-7]

    def test_unknown_key_is_rejected(self):
        with pytest.raises(Exception, match="unknown"):
            resolve_config("fig2", overrides=("kk=0.7",))

    def test_config_file_then_flags(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"k": 0.9, "n_points": 64}))
        cfg = resolve_config("fig2", config_path=str(path), overrides=("k=0.3",))
        assert cfg.values["k"] == 0.3  # flag wins over file
        assert cfg.values["n_points"] == 64

    def test_malformed_config_file_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 0.9,}')
        with pytest.raises(Exception, match="line"):
            resolve_config("fig2", config_path=str(path))

    def test_validation_rejects_wrong_types(self):
        with pytest.raises(Exception, match="n_points"):
            resolve_config("fig2", overrides=("n_points=12.5",))
        with pytest.raises(Exception, match="k"):
            resolve_config("fig2", overrides=('k="high"',))
        # an integer beyond the float range must not escape as an OverflowError
        with pytest.raises(Exception, match="field 'k': must be finite"):
            resolve_config("fig2", overrides=("k=1" + "0" * 400,))


@pytest.mark.parametrize("command", ["fig2", "fig3", "sweep"])
def test_n_points_cap_admits_its_boundary(command):
    assert resolve_config(command, overrides=("n_points=100000",)).values["n_points"] == 100000
    with pytest.raises(Exception, match="field 'n_points': must be <= 100000"):
        resolve_config(command, overrides=("n_points=100001",))


@pytest.mark.parametrize("command", ["fig2", "fig3", "sweep"])
def test_cli_rejects_too_many_points_before_allocating(capsys, command):
    # a 1e12-point grid would need terabytes; the refusal comes from the
    # field's validator, before any grid is built
    tracemalloc.start()
    try:
        code = main([command, "--set", f"n_points={10 ** 12}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "field 'n_points': must be <= 100000" in capsys.readouterr().err
    assert peak < 256 * 1024


def test_csv_cells_are_python_scalars():
    # numpy scalars must not leak their repr wrapper into the CSV
    columns = {
        "float": [np.float64(0.1)],
        "int": [np.int64(3)],
        "bool": np.array([True]),
        "str": ["label"],
        "plain": [0.5],
    }
    table = ResultTable(columns, metadata={})
    assert [type(cell) for cell in table.rows[0]] == [float, int, bool, str, float]
    stream = io.StringIO()
    _write_csv(stream, table)
    assert stream.getvalue() == "float,int,bool,str,plain\r\n0.1,3,True,label,0.5\r\n"


def _csv_writer_text(table):
    """The CSV of table as csv.writer writes every row, after the metadata lines."""
    stream = io.StringIO()
    for key, value in table.metadata.items():
        stream.write(f"# {key}: {value}\r\n")
    writer = csv.writer(stream)
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return stream.getvalue()


@pytest.mark.parametrize("command", ["fig2", "fig3", "fig4a", "fig4b", "sweep", "design"])
def test_csv_is_csv_writers_bytes_at_the_defaults(command):
    cfg = resolve_config(command)
    table = _table(cfg)
    stream = io.StringIO()
    _write_csv(stream, table)
    assert stream.getvalue() == _csv_writer_text(table)


@pytest.mark.parametrize(
    "columns",
    [
        # fields csv must quote: a delimiter, a quote, a line break
        {"label": ["a,b", 'say "hi"', "two\nlines", "plain"], "value": [0.1, 2.0, -3.5, 4.0]},
        # doubles whose repr differ though they compare equal, or that equal nothing
        {"x, y": [0.0, -0.0, math.nan, -math.inf, 5e-324, 0.1, 0.1, 1e300], "z": [1.0] * 8},
        {"empty": np.zeros(0), "also": np.zeros(0)},
    ],
    ids=["strings", "floats", "no-rows"],
)
def test_csv_is_csv_writers_bytes_on_edge_tables(columns):
    table = ResultTable(columns, metadata={"note": "x"})
    stream = io.StringIO()
    _write_csv(stream, table)
    assert stream.getvalue() == _csv_writer_text(table)


def test_result_table_must_be_rectangular():
    with pytest.raises(ValueError, match="columns differ in length"):
        ResultTable({"a": [1.0, 2.0], "b": np.zeros(3)}, metadata={})


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fig2", "--set", "n_points=300"], id="fig2"),
        pytest.param(["fig3", "--set", "n_points=200"], id="fig3"),
        pytest.param(["fig4b", "--set", "alpha_step=0.25", "--set", "beta_step=0.25"], id="fig4b"),
    ],
)
def test_csv_cells_read_back_the_computed_doubles(tmp_path, monkeypatch, argv):
    computed = {}

    class RecordingTable(ResultTable):
        def __init__(self, columns, metadata):
            computed.update((name, np.array(column, dtype=float)) for name, column in columns.items())
            super().__init__(columns, metadata)

    monkeypatch.setattr(cli, "ResultTable", RecordingTable)
    code, out = _run_cli(argv, tmp_path, "run.csv")
    assert code == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    assert header == list(computed)
    assert not any(cell.startswith("np.") for row in rows for cell in row)
    for name, column in zip(header, zip(*rows)):
        read = np.array([float(cell) for cell in column])
        assert np.array_equal(read.view(np.uint64), computed[name].view(np.uint64)), name


def test_fig2_table_shape():
    cfg = resolve_config("fig2", overrides=("n_points=200",))
    table = _table(cfg)
    assert tuple(table.columns) == ("t", "concurrence", "entropy")
    assert len(table.rows) == 200
    assert table.rows[0][0] == 0.0
    assert table.metadata["command"] == "fig2"
    assert "config_json" in table.metadata


def test_fig2_with_k_zero_shows_no_entanglement():
    cfg = resolve_config("fig2", overrides=("k=0.0", "n_points=150"))
    table = _table(cfg)
    assert all(row[1] == 0.0 for row in table.rows)


def test_fig3_initial_row_floors():
    cfg = resolve_config("fig3", overrides=("n_points=50", "t_max=6.0"))
    table = _table(cfg)
    first = dict(zip(table.columns, table.rows[0]))
    assert first["t"] == 0.0
    assert first["duan_ab"] == 1.0
    assert first["duan_ac"] == pytest.approx(1.003360227659763, rel=1e-12)
    assert first["duan_bc"] == pytest.approx(1.003360227659763, rel=1e-12)
    assert first["threshold"] == 1.0


def test_fig3_scales_k_through_the_bare_coupling():
    # fig3 passes k as (k omega_m) / omega_m, the coupling g0 over omega_m;
    # at k = 0.8992 that quotient is not k, and k itself moves hundreds of
    # the 2,000 values of each pair
    cfg = resolve_config("fig3", overrides=("k=0.8992",))
    v = cfg.values
    omega_m = v["omega_m_rad_per_s"]
    quotient = (0.8992 * omega_m) / omega_m
    assert quotient != 0.8992
    table = _table(cfg)
    grid = np.asarray(table.cells[table.columns.index("t")])
    r_a, r_b = v["omega_a_rad_per_s"] / omega_m, v["omega_b_rad_per_s"] / omega_m
    cell = dict(alpha=v["alpha"], beta=v["beta"], nbar=thermal_occupation(v["temperature_K"], omega_m))
    for pair in ("AB", "AC", "BC"):
        column = f"duan_{pair.lower()}"
        for suffix, lower in (("", False), ("_lower", True)):
            got = table.cells[table.columns.index(column + suffix)]
            assert got == duan_values(grid, pair, r_a, r_b, **cell, k=quotient, lower=lower).tolist()
        got = table.cells[table.columns.index(column)]
        assert got != duan_values(grid, pair, r_a, r_b, **cell, k=0.8992).tolist()


def _run_cli(argv, tmp_path, name):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


def test_cli_writes_byte_identical_reruns(tmp_path):
    argv = ["fig2", "--set", "n_points=120"]
    code_a, out_a = _run_cli(argv, tmp_path, "a.csv")
    code_b, out_b = _run_cli(argv, tmp_path, "b.csv")
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "command, settings",
    [
        pytest.param("fig2", ("n_points=80", "k=0.6"), id="fig2"),
        pytest.param("fig3", ("n_points=40", "alpha=0.3"), id="fig3"),
        pytest.param("sweep", ("n_points=30", "quantity=duan_bc", "variable=k"), id="sweep"),
    ],
)
def test_cli_output_round_trips_through_metadata(tmp_path, command, settings):
    argv = [command, *(f"--set={item}" for item in settings)]
    code, out = _run_cli(argv, tmp_path, "run.csv")
    assert code == 0
    config_line = next(
        line for line in out.read_text().splitlines() if line.startswith("# config_json: ")
    )
    recovered = json.loads(config_line[len("# config_json: ") :])
    assert recovered == resolve_config(command, overrides=settings).values
    overrides = tuple(f"{key}={json.dumps(val)}" for key, val in recovered.items())
    _, replay_out = _run_cli(
        [command, *(f"--set={o}" for o in overrides)], tmp_path, "replay.csv"
    )
    assert out.read_bytes() == replay_out.read_bytes()


@pytest.mark.parametrize(
    "argv, mode, cells",
    [
        (["fig4b", "--set", "alpha_step=0.5", "--set", "beta_step=0.5"], "envelope", 25),
        (["fig4a", "--set", "k_step=0.25"], "envelope", 21),
        (
            ["fig4a", "--set", "k_step=0.25", "--set", "window_scaled=60.0",
             "--set", "omega_a_rad_per_s=596902.6", "--set", "omega_b_rad_per_s=596902.6"],
            "direct",
            21,
        ),
    ],
)
def test_fig4_metadata_reports_minimization(tmp_path, argv, mode, cells):
    code_a, out_a = _run_cli(argv, tmp_path, "a.csv")
    code_b, out_b = _run_cli(argv, tmp_path, "b.csv")
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    assert meta["minimization_mode"] == mode
    assert 0 < int(meta["refined_cells"]) <= cells
    assert len([line for line in lines if not line.startswith("#")]) == cells + 1


@pytest.mark.parametrize("command, scanned, rows", [("fig4b", 5151, 10201), ("fig4a", 180, 180)])
def test_fig4_metadata_counts_scanned_cells(tmp_path, command, scanned, rows):
    # fig4b's (alpha, beta) grid is symmetric, so D_AB's alpha <-> beta
    # symmetry leaves 101 * 102 / 2 distinct cells; fig4a's cells all differ
    code, out = _run_cli([command], tmp_path, "run.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    assert int(meta["scanned_cells"]) == scanned
    assert len([line for line in lines if not line.startswith("#")]) == rows + 1
    # both scans run on block bounds: fig4b's cells share k and nbar, and
    # fig4a's each have their own
    keys = list(meta)
    assert keys[keys.index("scanned_cells") + 1] == "evaluated_points"
    evaluated = int(meta["evaluated_points"])
    if command == "fig4a":
        assert 0 < evaluated <= 0.1 * 180 * 4001
    else:
        assert 0 < evaluated <= 0.2 * 5151 * 4001


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["fig4b", "--set", "alpha_step=1e-7"], ("'alpha_max'", "'alpha_step'")),
        (["fig4a", "--set", "k_step=1e-12"], ("'k_max'", "'k_step'")),
        (["fig4b", "--set", "alpha_max=1e300"], ("'alpha_max'", "'alpha_step'")),
        (["fig4b", "--set", "beta_step=0.0019"], ("'beta_max'", "'beta_step'")),
    ],
)
def test_cli_rejects_oversized_fig4_axes_before_allocating(capsys, argv, fields):
    # each axis of these would hold 1,053 to 5e301 points; the refusal comes
    # before any grid is built, so the run allocates almost nothing
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert "more than 1001" in err and all(name in err for name in fields)
    assert peak < 256 * 1024


def test_fig4b_traced_peak_stays_below_the_full_scan():
    # the full scan of fig4b's 5,151 distinct cells peaked at 3.3 MiB; the
    # bounded scan's temporaries and survivor mask must not exceed that much
    cfg = resolve_config("fig4b")
    tracemalloc.start()
    try:
        _table(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20


def test_fig4a_traced_peak_stays_within_a_few_dozen_temporaries():
    # fig4a's cells each have their own k: the bounded scan holds the floors
    # of 16 cells, their survivor pairs and 256 pairs' kernels at a time,
    # about a dozen 64 KiB temporaries; it measured 0.9 MiB, and 1.5 MiB
    # with the floors of 65 cells
    cfg = resolve_config("fig4a")
    _table(cfg)
    tracemalloc.start()
    try:
        _table(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2 ** 20


def test_fig4_axis_cap_admits_its_boundary():
    def domain(command, **values):
        return cli._domain(resolve_config(command, overrides=[f"{k}={v!r}" for k, v in values.items()]))

    assert domain("fig4b", alpha_min=0.0, alpha_max=2.0, alpha_step=0.002).alpha_axis.size == 1001
    assert domain("fig4a", k_min=0.5, k_max=0.5 + 1000 * 0.25, k_step=0.25).k_axis.size == 1001
    with pytest.raises(Exception, match="would hold 1002 points, more than 1001"):
        domain("fig4a", k_min=0.5, k_max=0.5 + 1001 * 0.25, k_step=0.25)


def test_cli_csv_metadata_lines_use_crlf(tmp_path):
    _, out = _run_cli(["fig2", "--set", "n_points=60"], tmp_path, "run.csv")
    raw = out.read_bytes()
    assert raw.startswith(b"# ")
    head = raw.split(b"\r\n")[0]
    assert head.startswith(b"# generator: ")


def test_cli_rejects_unknown_field():
    assert main(["fig2", "--set", "bogus=1"]) == 1


@pytest.mark.parametrize("command", ["fig2", "fig3", "fig4a", "fig4b", "design", "sweep"])
@pytest.mark.parametrize("flag", [["--seed", "5"], ["--set", "seed=5"]], ids=["seed", "set"])
def test_cli_rejects_seed_outside_oracle_check(capsys, command, flag):
    # only oracle-check draws random points, so only it has a seed field, and
    # `--set seed=N` is the one way to set it: no command takes a --seed flag
    assert main([command, *flag]) == 1
    assert ("'seed'" if flag[0] == "--set" else "unrecognized arguments: --seed 5") in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("field", ["tolerance", "n_qubit_times", "n_cv_points"])
def test_cli_oracle_check_rejects_a_config_with_a_removed_field(capsys, tmp_path, field):
    # the certification's tolerances and point counts are fixed; a config
    # file that still sets one fails loudly instead of being ignored
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, field: 1}))
    assert main(["oracle-check", "--config", str(path)]) == 1
    assert f"unknown field {field!r} for command 'oracle-check'" in capsys.readouterr().err


def test_cli_oracle_check_rejects_the_seed_flag(capsys):
    assert main(["oracle-check", "--seed", "5"]) == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_cli_rejects_empty_design_grid():
    assert main(["design", "--set", "radii_m=[]"]) == 1


def test_cli_design_writes_json_sidecar(tmp_path):
    code, out = _run_cli(["design", "--set", "radii_m=[0.05]"], tmp_path, "design.csv")
    assert code == 0
    sidecar = out.with_suffix(".json")
    assert sidecar.exists()
    payload = json.loads(sidecar.read_text())
    report = payload["report"]
    assert report["proposed"]["kappa_per_s"] == pytest.approx(63812.78373776075, rel=1e-9)
    assert len(report["optimized"]) == 1
    assert report["optimized"][0]["mirror_radius_m"] == 0.05
    assert payload["metadata"]["command"] == "design"


@pytest.mark.parametrize("name", ["design.json", "design.JSON"])
def test_cli_design_refuses_an_out_path_its_sidecar_would_overwrite(monkeypatch, capsys, tmp_path, name):
    # the CSV went to design.json, then the sidecar replaced it, and the run exited 0
    searches = []
    monkeypatch.setattr(cli, "optimize_design", lambda *args: searches.append(args))
    code, out = _run_cli(["design", "--set", "radii_m=[0.05]"], tmp_path, name)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --out {out}: design writes its JSON sidecar at this path with a .json extension, "
        "so the CSV path must not end in .json\n"
    )
    assert searches == [] and list(tmp_path.iterdir()) == []


def test_cli_design_metadata_counts_grid_points_per_radius(tmp_path):
    argv = ["design", "--set", "radii_m=[0.01, 0.05]", "--set", "trap_frequencies_Hz=[40000.0, 95000.0]"]
    code_a, out_a = _run_cli(argv, tmp_path, "a.csv")
    code_b, out_b = _run_cli(argv, tmp_path, "b.csv")
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    sidecar = json.loads(out_a.with_suffix(".json").read_text())
    counts = [row["n_evaluated"] for row in sidecar["report"]["optimized"]]
    # 526 lengths (all below 2 R), 481 atom numbers, 2 trap frequencies
    assert json.loads(meta["n_evaluated"]) == counts == [2 * 526 * 481] * 2
    assert sidecar["metadata"]["n_evaluated"] == meta["n_evaluated"]
    header = next(line for line in lines if not line.startswith("#"))
    assert header.split(",")[0] == "mirror_radius_m"
    assert len([line for line in lines if not line.startswith("#")]) == 3


_WHERE = "design search at mirror radius"


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            ["radii_m=[0.05]", "exclusion_halfwidth=50.0"],
            "fields 'exclusion_halfwidth' and 'exclusion_n_max': "
            f"{_WHERE} 0.05 m: no feasible design: every coupling lands in an exclusion band",
        ),
        # 2 x 0.0001 m is the default L_min_m, so no length fits
        (["radii_m=[0.0001]"], f"fields 'radii_m' and 'L_min_m': {_WHERE} 0.0001 m: empty search grid"),
    ],
    ids=["all-excluded", "empty-grid"],
)
def test_cli_design_reports_an_infeasible_radius(capsys, overrides, message):
    assert main(["design", *(arg for item in overrides for arg in ("--set", item))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "item, message",
    [
        ("L_max_m=1e-4", "field 'L_max_m': must be finite and >= L_min_m, got 0.0001"),
        ("N_max=5e4", "field 'N_max': must be finite and >= N_min, got 50000.0"),
    ],
    ids=["L_max_m", "N_max"],
)
def test_cli_design_reports_search_space_errors_by_field(capsys, item, message):
    # DesignSearchSpace checks the orderings and names the field
    assert main(["design", "--set", item]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "item, field", [("L_step_m=1e-12", "L_step_m"), ("N_step=1e-6", "N_step")], ids=["L", "N"]
)
def test_cli_design_refuses_a_search_axis_before_building_it(capsys, item, field):
    # these axes would take 7.8 GiB and 3.5 TiB; the refusal comes first
    tracemalloc.start()
    try:
        code = main(["design", "--set", item])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: field '{field}': must be large enough for at most 100000 points")
    assert "Traceback" not in captured.err
    assert peak < 2 ** 20


@pytest.mark.parametrize("field", ["omega_a_rad_per_s", "omega_b_rad_per_s"])
@pytest.mark.parametrize("command", ["fig3", "fig4a", "fig4b"])
def test_cli_refuses_a_zero_optical_frequency_by_field(capsys, command, field):
    assert main([command, "--set", f"{field}=0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field '{field}': must be > 0.0, got 0.0\n"


# a field tiny enough that every carrier ratio and hbar omega_m / (k_B T) underflows
_TINY_OMEGAS = [f"{name}=1e-300" for name in ("omega_m_rad_per_s", "omega_a_rad_per_s", "omega_b_rad_per_s")]


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        # the carrier ratio overflows to inf or underflows to 0
        ("fig3", ["omega_m_rad_per_s=1e-300"], "omega_a_rad_per_s"),
        ("fig4b", ["omega_a_rad_per_s=1e300", "omega_m_rad_per_s=1e-10"], "omega_a_rad_per_s"),
        ("fig4a", ["omega_b_rad_per_s=1e-300", "omega_m_rad_per_s=1e300"], "omega_b_rad_per_s"),
        # the thermal occupation overflows
        ("fig3", [*_TINY_OMEGAS, "temperature_K=1e300"], "temperature_K"),
        ("fig4b", [*_TINY_OMEGAS, "temperature_K=1e300"], "temperature_K"),
        ("fig4a", [*_TINY_OMEGAS, "temperatures_K=[1e300]"], "temperatures_K"),
    ],
)
def test_cli_refuses_an_overflowing_scaled_input_by_field(capsys, command, overrides, field):
    argv = [command]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: field '{field}': ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        # 1e200 squares to an OverflowError; 1e154 and 1e150 gave inf or NaN values
        ("fig3", ["alpha=1e200"], "alpha"),
        ("fig3", ["beta=1e154"], "beta"),
        ("fig4a", ["alpha=1e154"], "alpha"),
        # fig4b's refusal named the library's alpha, which fig4b has no field for
        ("fig4b", ["alpha_max=1e154", "alpha_step=1e153"], "alpha_max"),
        ("sweep", ["quantity=duan_ab", "alpha=1e200"], "alpha"),
        ("sweep", ["quantity=duan_ac", "alpha=1e154"], "alpha"),
        ("sweep", ["quantity=duan_ac", "alpha=1e150"], "alpha"),
        ("sweep", ["quantity=duan_bc", "beta=1e150"], "beta"),
        ("fig4b", ["beta_max=1e154", "beta_step=1e153"], "beta_max"),
        ("fig4a", ["beta=-1e101"], "beta"),
    ],
)
def test_cli_refuses_an_oversized_amplitude_by_field(capsys, command, overrides, field):
    argv = [command]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: field '{field}': ")
    assert "1e+100" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, overrides, name",
    [("fig4b", ["alpha_max=1e100", "alpha_step=6e99"], "alpha"), ("fig4a", ["k_max=1e100", "k_step=6e99"], "k")],
)
def test_cli_refuses_an_axis_that_passes_the_cell_domain(capsys, command, overrides, name):
    # the last point, 1.2e100, passes name_max by part of a step
    assert main([command, *(arg for item in overrides for arg in ("--set", item))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: fields '{name}_max' and '{name}_step': the {name} axis reaches 1.2e+100, above 1e+100\n"
    )


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        # k**2 overflowed: fig3 and a Duan sweep died with an OverflowError,
        # fig2 and a concurrence sweep printed "Eigenvalues did not converge",
        # and fig4a and fig4b wrote NaN minima
        ("fig2", ["k=1e200"], "k"),
        ("fig3", ["k=1e200"], "k"),
        ("fig4b", ["k=1e101"], "k"),
        ("fig4a", ["k_max=1e200", "k_step=1e199"], "k_max"),
        ("sweep", ["k=1e200"], "k"),
        ("sweep", ["quantity=duan_ac", "k=1e200"], "k"),
        ("sweep", ["variable=k", "stop=1e200"], "stop"),
        ("sweep", ["variable=k", "quantity=duan_bc", "stop=1e101"], "stop"),
    ],
)
def test_cli_refuses_an_overflowing_coupling_by_field(capsys, command, overrides, field):
    argv = [command]
    for item in overrides:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: field '{field}': ")
    assert "1e+100" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["fig3", "fig4b", "sweep"])
def test_cli_accepts_the_largest_coupling(command, tmp_path):
    # k = 1e100 itself stays in the witness's domain, and its values stay finite
    overrides = {
        "fig3": ["k=1e100", "n_points=50"],
        "fig4b": ["k=1e100", "alpha_step=0.5", "beta_step=0.5"],
        "sweep": ["quantity=duan_ab", "k=1e100", "n_points=50"],
    }[command]
    code, out = _run_cli([command, *(arg for item in overrides for arg in ("--set", item))], tmp_path, "k.csv")
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))


@pytest.mark.parametrize(
    "command, override",
    [("fig3", "cavity_length_m=1"), ("fig4a", "mirror_radius_m=1e-9"), ("fig4b", "mirror_radius_m=1e-9")],
)
def test_cli_refuses_a_cavity_without_a_real_waist_by_field(capsys, command, override):
    # the geometry's refusal named L and R_mirror, which no command has a field for
    assert main([command, "--set", override]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: fields 'cavity_length_m' and 'mirror_radius_m': need 0 < L < 2 R_mirror for a real waist"
    )
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, overrides, fields",
    [
        # each wrote inf and NaN values and exited 0
        ("fig3", ["t_max=1e300"], "field 't_max'"),
        ("fig3", ["t_max=5.371e298"], "field 't_max'"),
        ("fig3", ["k=1e50", "t_max=1e209"], "field 't_max'"),
        ("sweep", ["quantity=duan_ac", "r_a=1e10", "stop=1e300"], "field 'stop'"),
        ("sweep", ["quantity=duan_ac", "k=1e100", "stop=1e110"], "field 'stop'"),
        ("sweep", ["quantity=duan_ab", "variable=k", "t_fixed=1e308"], "field 't_fixed'"),
        ("sweep", ["quantity=duan_bc", "variable=k", "stop=1e100", "t_fixed=1e200"], "fields 't_fixed' and 'stop'"),
        # each wrote NaN minima and exited 0; the window is named, or the
        # fields it follows from where it defaults, with the largest k
        (
            "fig4b",
            ["k=1e100", "window_scaled=1e300", "alpha_step=0.5", "beta_step=0.5"],
            "fields 'window_scaled' and 'k'",
        ),
        ("fig4b", ["k=1e100", "window_scaled=9e107"], "fields 'window_scaled' and 'k'"),
        (
            "fig4b",
            ["k=1e100", "finesse=1e200"],
            "fields 'omega_m_rad_per_s', 'cavity_length_m', 'finesse' and 'k'",
        ),
        ("fig4a", ["k_max=1e100", "k_step=1e99", "window_scaled=1e300"], "fields 'window_scaled' and 'k_max'"),
    ],
)
def test_cli_refuses_an_overflowing_phase_by_field(capsys, command, overrides, fields):
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, *(arg for item in overrides for arg in ("--set", item))]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {fields}: the ")
    assert " overflows at t = " in captured.err
    assert captured.err.count("\n") == 1
    # refused before the grid is built
    assert peak < 2 ** 20


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("fig4b", ["k=1e100", "window_scaled=8.9e107", "alpha_step=0.5", "beta_step=0.5"]),
        ("fig4a", ["k_max=1e100", "k_step=1e99", "window_scaled=8.9e107"]),
    ],
)
def test_cli_fig4_keeps_the_largest_window_whose_coupling_phase_is_finite(command, overrides, tmp_path):
    # at k = 1e100 the coupling phase 2 k**2 t overflows between window
    # 8.9e107 and 9e107; the other side is pinned with the refusals
    argv = [command, *(arg for item in overrides for arg in ("--set", item))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run_cli(argv, tmp_path, "w.csv")
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))


def test_cli_fig3_keeps_the_largest_time_whose_phases_are_finite(tmp_path):
    # the carrier phase (r_a + r_b) t at fig3's defaults overflows between
    # 5.365e298 and 5.371e298; the other side is pinned with the refusals
    code, out = _run_cli(["fig3", "--set", "t_max=5.365e298", "--set", "n_points=50"], tmp_path, "t.csv")
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))


#: qubit runs, each with the field that sets its largest k
_QUBIT_COUPLING_RUNS = [
    ("fig2", [], "k"),
    ("sweep", [], "k"),
    ("sweep", ["quantity=entropy"], "k"),
    ("sweep", ["variable=k"], "stop"),
    ("sweep", ["variable=k", "quantity=entropy", "t_fixed=2.0"], "stop"),
]


def _argv(command, overrides):
    return [command, *(arg for item in overrides for arg in ("--set", item))]


@pytest.mark.parametrize("command, overrides, field", _QUBIT_COUPLING_RUNS)
def test_cli_refuses_a_qubit_coupling_past_its_checks_by_field(capsys, command, overrides, field):
    # fig2 at k = 50 failed its own density-matrix check ("matrix 298 of
    # the stack: trace deviates from 1 by 1.367e-12"), which names no field
    above = repr(math.nextafter(20.0, math.inf))
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_argv(command, [*overrides, f"{field}={above}"])) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field '{field}': the qubit measures need k <= 20, got {above}\n"
    # refused before the grid is built
    assert peak < 2 ** 20


@pytest.mark.parametrize("command, overrides, field", _QUBIT_COUPLING_RUNS)
def test_cli_keeps_the_largest_qubit_coupling(command, overrides, field, tmp_path):
    # k = 20 passes the density-matrix checks on the default grids
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run_cli(_argv(command, [*overrides, f"{field}=20"]), tmp_path, "q.csv")
    assert code == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))


# fig4b writes the regime but not the period or the ratio, so only fig3 refuses them
@pytest.mark.parametrize("command", ["fig3"])
@pytest.mark.parametrize("k", ["1e-300", "1.32e-154"])
def test_cli_refuses_a_coupling_whose_regime_period_overflows(capsys, command, k):
    # fig3 at k = 1e-300 warned of a division by zero and wrote
    # "envelope_period_scaled: inf"; pi / k**2 overflows from k = 1.32e-154 down
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--set", f"k={k}"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field 'k': the regime period pi / k**2 overflows at k = {k}\n"
    # refused before the grid is built
    assert peak < 2 ** 20


@pytest.mark.parametrize(
    "command, overrides",
    [
        # the period in seconds, pi / (omega_m k**2), overflowed; no command writes it
        ("fig3", ["omega_m_rad_per_s=1e-3", "k=1e-153", "n_points=50"]),
        ("fig4b", ["omega_m_rad_per_s=1e-3", "k=1e-153"]),
        # the scaled period overflowed; fig4b does not write it
        ("fig4b", ["k=1e-300"]),
        ("fig4b", ["k=1.32e-154"]),
        # the feasibility ratio overflowed; fig4b does not write it
        ("fig4b", ["k=0.001", "omega_m_rad_per_s=1e300"]),
    ],
)
def test_cli_computes_where_only_an_unwritten_regime_value_overflows(command, overrides, tmp_path):
    if command == "fig4b":
        overrides = [*overrides, "alpha_step=0.5", "beta_step=0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run_cli(_argv(command, overrides), tmp_path, "r.csv")
    assert code == 0
    text = out.read_text()
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))
    assert "# regime: low" in text


@pytest.mark.parametrize(
    "command, overrides", [("fig3", ["n_points=50"]), ("fig4b", ["alpha_step=0.5", "beta_step=0.5"])]
)
@pytest.mark.parametrize("k", ["0.5", "0.74", "0"])
def test_cli_builds_the_regime_report_once_per_run(monkeypatch, command, overrides, k, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "regime_report", lambda *args: calls.append(args) or regime_report(*args))
    code, out = _run_cli(_argv(command, [*overrides, f"k={k}"]), tmp_path, "r.csv")
    assert code == 0
    assert len(calls) == (0 if k == "0" else 1)
    assert ("# regime: " in out.read_text()) == (k != "0")


@pytest.mark.parametrize(
    "command, overrides", [("fig3", ["n_points=50"]), ("fig4b", ["alpha_step=0.5", "beta_step=0.5"])]
)
def test_cli_keeps_the_smallest_coupling_whose_regime_period_is_finite(command, overrides, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run_cli(_argv(command, ["k=1.33e-154", *overrides]), tmp_path, "p.csv")
    assert code == 0
    text = out.read_text()
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(value)) for row in rows for value in row.split(","))
    if command == "fig3":
        assert "# envelope_period_scaled: 1.77" in text


@pytest.mark.parametrize("frequencies", ["[1e-300]", "[40000.0, 1e300]"])
def test_cli_design_refuses_a_trap_frequency_by_field(capsys, frequencies):
    # 1e-300 Hz overflowed the heating budget's g0**2 after the whole search
    tracemalloc.start()
    try:
        assert main(["design", "--set", f"trap_frequencies_Hz={frequencies}"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: field 'trap_frequencies_Hz': ")
    assert "Traceback" not in captured.err
    # refused before the search builds a grid
    assert peak < 2 ** 20


def test_design_defaults_are_the_published_search_domain():
    # config_json records these; they come from DesignSearchSpace and must not drift
    assert resolve_config("design").values == {
        "radii_m": [1.0e-2, 2.5e-2, 5.0e-2, 10.0e-2],
        "finesse_eval": 5.8e5,
        "report_finesse": 3.0e6,
        "L_min_m": 200.0e-6,
        "L_max_m": 1250.0e-6,
        "L_step_m": 2.0e-6,
        "N_min": 1.0e5,
        "N_max": 5.8e5,
        "N_step": 1.0e3,
        "trap_frequencies_Hz": [40.0e3 + 5.0e3 * i for i in range(12)],
        "exclusion_halfwidth": 0.02,
        "exclusion_n_max": 8,
        "plateau_rtol": 0.01,
    }


def test_cli_sweep_runs(tmp_path):
    code, out = _run_cli(
        ["sweep", "--set", "n_points=40", "--set", "quantity=duan_ab", "--set", "variable=t"],
        tmp_path,
        "sweep.csv",
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 41


@pytest.mark.parametrize("variable", ["t", "k"])
@pytest.mark.parametrize("quantity", ["duan_ab", "duan_ac", "duan_bc"])
def test_duan_sweep_checks_its_cell_once_and_keeps_each_point_bitwise(monkeypatch, quantity, variable):
    # the rows are duan_values point by point, at the same Python floats
    calls = []
    check = duan_module._check_cell
    monkeypatch.setattr(duan_module, "_check_cell", lambda *args: calls.append(args) or check(*args))
    cfg = resolve_config("sweep", overrides=(f"quantity={quantity}", f"variable={variable}", "stop=1.5",
                                             "n_points=50", "nbar=0.2", "r_a=3.0", "r_b=5.0"))
    table = _table(cfg)
    assert len(calls) == 1
    v = cfg.values
    xs = np.linspace(v["start"], v["stop"], v["n_points"]).tolist()
    points = [(x, v["k"]) for x in xs] if variable == "t" else [(v["t_fixed"], x) for x in xs]
    pair = quantity.removeprefix("duan_").upper()
    want = [
        duan_values(t, pair, v["r_a"], v["r_b"], alpha=v["alpha"], beta=v["beta"], nbar=v["nbar"], k=k)
        for t, k in points
    ]
    assert list(map(float.hex, table.cells[1])) == [float(x).hex() for x in want]


def test_cli_sweep_requires_carrier_for_duan_quantities(capsys):
    code = main(["sweep", "--set", "quantity=duan_ab", "--set", "r_a=0.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "r_a" in captured.err


def test_cli_oracle_check_detects_corruption(monkeypatch, capsys):
    # one check pushed over its tolerance must make the suite report failure
    run = certify.run

    def corrupted(seed):
        (name, _, tolerance), *rest = run(seed)
        return [(name, 10.0 * tolerance, tolerance), *rest]

    monkeypatch.setattr(certify, "run", corrupted)
    code = main(["oracle-check"])
    captured = capsys.readouterr()
    assert code == 2
    assert "[FAIL] displacement_identity_at_zero: max deviation 1.000e-14" in captured.out
    assert captured.out.count("[PASS]") == 8
    assert "oracle-check: 8/9 checks passed" in captured.out


def _child_env() -> dict:
    """The environment with the imported optomech's source tree first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "optomech", "fig2", "--set", "n_points=30", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert out.exists()


def test_cli_stdout_closed_after_one_line_ends_quietly():
    # `optomech fig4b | head -1`: the CSV (about 250 kB) outgrows the pipe
    # buffer, so the writer meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "optomech", "fig4b"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert first.startswith(b"# ")
    assert err == b""
    assert proc.returncode == 0


def test_cli_import_leaves_out_scipy_stats_linalg_and_special():
    # scipy.stats, then scipy.special, used to be most of the package's import
    # time; the package needs no scipy at all, on import or in an oracle-check run
    code = (
        "import sys, optomech.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "code = optomech.cli.main(['oracle-check'])\n"
        "print(code, loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the qubit and design commands never load the witness, the oracle or the
    # certification; fig3 adds duan alone, oracle-check all three
    code = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'optomech')\n"
        "out = sys.argv[1]\n"
        "import optomech\n"
        "seen = [loaded()]\n"
        "import optomech.cli as cli\n"
        "for command in cli.COMMANDS:\n"
        "    cli.resolve_config(command)\n"
        "seen.append(loaded())\n"
        "for argv in (['fig2', '--set', 'n_points=64'],\n"
        "             ['sweep', '--set', 'n_points=16'],\n"
        "             ['sweep', '--set', 'quantity=entropy', '--set', 'variable=k', '--set', 'stop=1.5',\n"
        "              '--set', 'n_points=16'],\n"
        "             ['design'], ['fig3', '--set', 'n_points=64'], ['oracle-check']):\n"
        "    assert cli.main([*argv, '--out', out]) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    package, configs, fig2, concurrence, entropy, design, fig3, oracle = json.loads(proc.stdout.splitlines()[-1])
    base = ["optomech", "optomech.cli", "optomech.core", "optomech.design", "optomech.qubit"]
    assert package == ["optomech"]
    assert configs == fig2 == concurrence == entropy == design == base
    assert fig3 == sorted([*base, "optomech.duan"])
    assert oracle == sorted([*base, "optomech.certify", "optomech.duan", "optomech.oracle"])


def test_cli_error_text_goes_to_stderr(capsys):
    code = main(["fig2", "--set", "bogus=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
    assert "bogus" in captured.err


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "config, setting, message",
    [
        # named no file
        (b"\xff\xfe{}", None, "config file {path}: 'utf-8' codec can't decode byte 0xff in position 0"),
        # each died with a RecursionError traceback
        (f'{{"k": {_DEEP}}}'.encode(), None, "config file {path}: maximum recursion depth exceeded"),
        (None, "k=" + "[" * 3000 + "]" * 3000, "--set 'k=" + "[" * 58 + "...': maximum recursion depth exceeded"),
    ],
    ids=["not-utf-8", "deep-file", "deep-set"],
)
def test_cli_refuses_undecodable_config_input_by_name(tmp_path, capsys, config, setting, message):
    path = tmp_path / "run.json"
    argv = ["fig2"]
    if config is not None:
        path.write_bytes(config)
        argv += ["--config", str(path)]
    if setting is not None:
        argv += ["--set", setting]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message.format(path=path)}") and captured.err.count("\n") == 1
