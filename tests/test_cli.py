import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from optomech import cli
from optomech.cli import (
    ResultTable,
    _write_csv,
    resolve_config,
    main,
    run_fig2,
    run_fig3,
    run_fig4b,
)


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

    def test_seed_flag_wins(self):
        cfg = resolve_config("oracle-check", overrides=("seed=7",), seed=99)
        assert cfg.values["seed"] == 99

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
    table = run_fig2(cfg)
    assert tuple(table.columns) == ("t", "concurrence", "entropy")
    assert len(table.rows) == 200
    assert table.rows[0][0] == 0.0
    assert table.metadata["command"] == "fig2"
    assert "config_json" in table.metadata


def test_fig2_with_k_zero_shows_no_entanglement():
    cfg = resolve_config("fig2", overrides=("k=0.0", "n_points=150"))
    table = run_fig2(cfg)
    assert all(row[1] == 0.0 for row in table.rows)


def test_fig3_initial_row_floors():
    cfg = resolve_config("fig3", overrides=("n_points=50", "t_max=6.0"))
    table = run_fig3(cfg)
    first = dict(zip(table.columns, table.rows[0]))
    assert first["t"] == 0.0
    assert first["duan_ab"] == 1.0
    assert first["duan_ac"] == pytest.approx(1.003360227659763, rel=1e-12)
    assert first["duan_bc"] == pytest.approx(1.003360227659763, rel=1e-12)
    assert first["threshold"] == 1.0


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
    # fig4b's cells share k and nbar, so its scan runs on block bounds;
    # fig4a's cells each have their own k and take the full scan
    keys = list(meta)
    assert keys[keys.index("scanned_cells") + 1] == "evaluated_points"
    evaluated = int(meta["evaluated_points"])
    if command == "fig4a":
        assert evaluated == 180 * 4001
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
        run_fig4b(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20


def test_fig4_axis_cap_admits_its_boundary():
    from optomech.cli import _axis

    assert _axis({"alpha_min": 0.0, "alpha_max": 2.0, "alpha_step": 0.002}, "alpha").size == 1001
    assert _axis({"k_min": 0.5, "k_max": 0.5 + 1000 * 0.25, "k_step": 0.25}, "k").size == 1001
    with pytest.raises(Exception, match="would hold 1002 points, more than 1001"):
        _axis({"k_min": 0.5, "k_max": 0.5 + 1001 * 0.25, "k_step": 0.25}, "k")


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
    # only oracle-check draws random points, so only it has a seed field
    assert main([command, *flag]) == 1
    assert "'seed'" in capsys.readouterr().err


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
            f"{_WHERE} 0.05 m: no feasible design: every coupling lands in an exclusion band",
        ),
        # 2 x 0.0001 m is the default L_min, so no length fits
        (["radii_m=[0.0001]"], f"{_WHERE} 0.0001 m: empty search grid"),
    ],
    ids=["all-excluded", "empty-grid"],
)
def test_cli_design_reports_an_infeasible_radius(capsys, overrides, message):
    assert main(["design", *(arg for item in overrides for arg in ("--set", item))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_cli_sweep_requires_carrier_for_duan_quantities(capsys):
    code = main(["sweep", "--set", "quantity=duan_ab", "--set", "r_a=0.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "r_a" in captured.err


def test_cli_oracle_check_detects_corruption(tmp_path, capsys):
    # an absurd blanket tolerance must make the suite report failure
    code = main(["oracle-check", "--set", "tolerance=1e-30"])
    captured = capsys.readouterr()
    assert code == 2
    assert "[FAIL]" in captured.out
    passed = captured.out.count("[PASS]")
    assert f"oracle-check: {passed}/9 checks passed" in captured.out


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


def test_cli_import_leaves_out_scipy_stats_linalg_and_special():
    # scipy.stats, then scipy.special, used to be most of the package's import
    # time; the package needs no scipy at all, on import or in an oracle-check run
    code = (
        "import sys, optomech.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "code = optomech.cli.main(['oracle-check', '--set', 'n_cv_points=1',\n"
        "                          '--set', 'n_qubit_times=1'])\n"
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


def test_cli_error_text_goes_to_stderr(capsys):
    code = main(["fig2", "--set", "bogus=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
    assert "bogus" in captured.err
