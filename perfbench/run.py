"""optomech benchmark: drive the CLI commands of one workload and report metrics.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/optomech`. One process, one closed loop,
one command at a time: a pass resolves nothing and runs each of the
workload's commands as `optomech <command> --set ... --out <file>` would,
through `resolve_config` and the CLI's own dispatch, writing the CSV.

--trace 0 measures the end-to-end metrics with tracing off:

- setup_s: fresh interpreter to configs resolved (`import optomech.cli`
  plus `resolve_config` for the workload's commands), median of several
  child interpreters run before this process imports numpy;
- pass_s, cpu_s: median wall time and user+sys CPU (children included) of
  one pass, over the passes that fit in about S seconds;
- peak_rss_mb: peak resident memory of this process.

A shared 2-vCPU Xeon host runs at two speeds about 1.4x apart that switch
within seconds: the same qubit-dynamics pass took 2.0 s or 2.8 s in one
run, and a slow spell can last a whole run. So setup_s, pass_s and cpu_s
are given at a reference speed. `SpeedKernel`, a fixed numpy and Python
workload that calls no optomech code and allocates no large arrays, is
timed before the first command of a pass and after each command, outside
the timed part. A pass's time is multiplied by KERNEL_NOMINAL_S over the
median of those kernel times, so one stray reading cannot rescale the
pass's longest command on its own; its CPU time takes the same factor,
since a slow spell slows each instruction and so shows in CPU time as in
wall time. Each setup child reads the kernel right after its own import,
and its setup time is scaled the same way. The raw times, the kernel times
and the speed factors are printed and written to
perfbench/out/<workload>-<seed>/end_to_end.json.

--trace 1 installs the wrappers of tracing.py, alternates untraced and
traced passes, and reports the per-layer metrics of the traced passes
(medians, raw times), plus trace.overhead_s, the traced pass minus the
untraced one. Spans go to perfbench/out/<workload>-<seed>/spans.jsonl.

Every output of every pass goes through gate.py, and every pass must write
the same bytes as the first. `failed` counts commands that raised, exited
nonzero or failed the gate; the human-readable report before the final JSON
line gives fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REF = ROOT / "perfbench" / "ref"

SETUP_RUNS = 3
#: median seconds of SpeedKernel over 927 samples in 32 benchmark runs on a
#: shared 2-vCPU Xeon host (Python 3.11, numpy 2.4); times are reported at
#: that speed
KERNEL_NOMINAL_S = 0.0264
#: kernel calls whose median is one reading of the host's speed
KERNEL_SAMPLES = 3
MIN_TIMED_PASSES = 2
#: no timed pass starts once it would end later than this after process
#: start, so a run stays under the 180 s limit even on a slow program
DEADLINE_S = 150.0

CLI_COMMANDS = ("fig2", "fig3", "fig4a", "fig4b", "design", "oracle-check", "sweep")
ORACLE_CHECKS = (
    "displacement_identity_at_zero",
    "displacement_coherent_action",
    "qubit_reduced_state_vs_oracle",
    "oracle_norm_drift",
    "oracle_energy_conservation_rel",
    "oracle_eigenstate_stationarity",
    "cv_duan_vs_oracle_rel",
    "k_zero_separability_floors",
    "truncation_doubling_stability",
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: per-layer metrics read from each tracing group's counters
GROUP_FIELDS = (
    ("core.kernels", ("calls", "points", "busy_s")),
    ("qubit.reduced_rho_ab", ("calls", "points", "busy_s")),
    ("qubit.concurrence", ("calls", "busy_s")),
    ("qubit.von_neumann_entropy", ("calls", "busy_s")),
    ("qubit.check_density_matrix", ("calls", "busy_s")),
    ("qubit.timeseries", ("points", "busy_s")),
    ("duan.min_over_window", ("calls", "busy_s")),
    ("duan.curves", ("calls", "points", "busy_s")),
    ("duan.records", ("calls", "busy_s")),
    ("oracle.displacement_matrix", ("calls", "entries", "busy_s")),
    ("oracle.apply_evolution", ("calls", "busy_s", "self_s", "gflop_computed")),
    ("oracle.build_initial_state", ("calls", "busy_s")),
    ("oracle.moments", ("calls", "busy_s")),
    ("oracle.partial_trace", ("calls", "busy_s")),
    ("oracle.hamiltonian_expectation", ("calls", "busy_s")),
    ("design.optimize_design", ("calls", "busy_s", "grid_points")),
    ("design.design_report", ("calls", "busy_s")),
)
FIELD_UNITS = {
    "calls": "count", "points": "count", "entries": "count", "grid_points": "count",
    "busy_s": "s", "self_s": "s", "gflop_computed": "GFLOP",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for group, fields in GROUP_FIELDS:
        for field in fields:
            units[f"{group}.{field}"] = FIELD_UNITS[field]
    units["qubit.points_per_s"] = "1/s"
    units["oracle.n_c_max"] = "count"
    units["oracle.ensemble_size_max"] = "count"
    for check in ORACLE_CHECKS:
        units[f"oracle.margin.{check}"] = "1"
    units["design.grid_points_per_s"] = "1/s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.wall_s"] = "s"
        units[f"cli.{command}.self_s"] = "s"
        units[f"cli.{command}.rows"] = "count"
        units[f"cli.{command}.csv_bytes"] = "B"
    units["trace.pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.target_busy_s"] = "s"
    units["trace.target_share"] = "1"
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _openblas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return str(func())
    return "unknown"


def environment() -> str:
    import numpy
    import scipy

    return (
        f"commit {_git_commit()}, nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, openblas_threads {_openblas_threads()}"
    )


class SpeedKernel:
    """Seconds a fixed workload takes now: the host's speed, not optomech's.

    Small Hermitian eigensolves, complex exponentials on a 4001-point grid,
    arithmetic on 2 MB arrays and a plain Python loop: the kinds of work the
    passes do, so a host that runs slower slows both alike. Every array is
    allocated once here and written in place, so no call maps or faults in
    fresh memory; only eigvalsh allocates, a few hundred bytes.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        matrix = np.arange(16.0).reshape(4, 4)
        self.matrix = matrix + matrix.T
        self.shifted = np.empty_like(self.matrix)
        self.grid = np.linspace(0.0, 100.0, 4001)
        self.phase = np.empty(self.grid.shape, dtype=complex)
        self.block = np.linspace(1.0, 2.0, 262_144)
        self.scratch = np.empty_like(self.block)

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        total = 0.0
        for i in range(100):
            np.add(self.matrix, float(i), out=self.shifted)
            total += float(np.linalg.eigvalsh(self.shifted).sum())
            np.multiply(self.grid, -1j * (i % 7), out=self.phase)
            np.exp(self.phase, out=self.phase)
            total += float(self.phase.real.sum())
        for i in range(8):
            np.multiply(self.block, i + 1.0, out=self.scratch)
            np.sqrt(self.scratch, out=self.scratch)
            total += float(self.scratch.sum())
        count = 0
        for i in range(7000):
            count += i % 7
        return time.perf_counter() - start

    def gauge(self) -> float:
        """Median time of KERNEL_SAMPLES calls."""
        return statistics.median(self() for _ in range(KERNEL_SAMPLES))


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

_SETUP_CHILD = """
import time
start = time.perf_counter()
import json, sys
import optomech.cli as cli
for command, overrides in json.loads(sys.argv[1]):
    cli.resolve_config(command, overrides=overrides)
setup = time.perf_counter() - start
from run import SpeedKernel
kernel = SpeedKernel()
kernel()
print(setup, kernel.gauge())
"""


def measure_setup(commands) -> tuple[list, list]:
    """Seconds from a fresh interpreter's first statement to configs resolved,
    and the kernel gauge each child read right after (its first call dropped)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    # one BLAS thread in the child, so child and (blocked) parent together
    # stay within nproc threads; the pool size does not change import cost
    env["OPENBLAS_NUM_THREADS"] = "1"
    spec = json.dumps([(c.command, c.overrides) for c in commands])
    samples, gauges = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, spec], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        setup, gauge = map(float, done.stdout.split())
        samples.append(setup)
        gauges.append(gauge)
    return samples, gauges


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Job:
    """A workload command with its resolved config and output files."""

    def __init__(self, cli, command, out_dir: Path):
        self.command = command
        self.csv = out_dir / f"{command.label}.csv"
        self.sidecar = self.csv.with_suffix(".json") if command.command == "design" else None
        self.cfg = cli.resolve_config(command.command, overrides=command.overrides, out=str(self.csv))

    def read(self) -> dict:
        files = {"csv": self.csv.read_bytes()}
        if self.sidecar is not None:
            files["json"] = self.sidecar.read_bytes()
        return files


def run_command(cli, cfg) -> int:
    """Run one resolved command and write its CSV, as `optomech.cli.main` does.

    main itself is not called: its --workers default is every core, and the
    benchmark runs the single-process path that resolve_config defaults to.
    """
    if cfg.command == "design":
        return cli._cmd_design(cfg)
    if cfg.command == "oracle-check":
        return cli._cmd_oracle_check(cfg)
    cli._emit(cli._TABLE_COMMANDS[cfg.command](cfg), cfg.out)
    return 0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(cli, jobs, tracer=None, kernel=None) -> dict:
    """One closed-loop pass over the jobs; returns wall, cpu and exit codes.

    Only the commands are timed; "walls" holds each command's time. With a
    SpeedKernel, its gauge is read before the first command and after each
    one ("gauges"), and "scaled" is the pass's time at the reference speed:
    the wall time times KERNEL_NOMINAL_S over the median gauge.
    """
    codes, walls, gauges = [], [], []
    cpu = 0.0
    sink = io.StringIO()
    if kernel is not None:
        gauges.append(kernel.gauge())
    for job in jobs:
        for path in (job.csv, job.sidecar):
            if path is not None and path.exists():
                path.unlink()
        span = tracer.span(f"cli.{job.command.command}", "cli") if tracer else contextlib.nullcontext()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sink):
                codes.append(run_command(cli, job.cfg))
        except Exception as exc:  # a failing command is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            codes.append(f"raised {type(exc).__name__}")
        walls.append(time.perf_counter() - start)
        cpu += _cpu_seconds() - cpu0
        if kernel is not None:
            gauges.append(kernel.gauge())
        sink.seek(0)
        sink.truncate()
    result = {"wall": sum(walls), "cpu": cpu, "codes": codes, "walls": walls}
    if kernel is not None:
        result["gauges"] = gauges
        result["scaled"] = result["wall"] * KERNEL_NOMINAL_S / statistics.median(gauges)
    return result


class Checker:
    """Gate every output; later passes must repeat the first pass's bytes.

    `first` and `tables` keep, per command label, the first output that
    passed the gate: its files and its parsed CSV.
    """

    def __init__(self, gate, jobs, reference):
        self.gate = gate
        self.jobs = jobs
        self.reference = reference
        self.first = {}
        self.tables = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, result: dict) -> None:
        for job, code in zip(self.jobs, result["codes"]):
            self.attempted += 1
            problems = self._problems(job, code)
            if problems:
                self.failed += 1
                print(f"FAILED {job.command.label}: {self.gate.format_problems(problems)}", file=sys.stderr)

    def _problems(self, job, code) -> list:
        if code != 0:
            return [f"exit code {code}" if isinstance(code, int) else code]
        try:
            files = job.read()
        except OSError as exc:
            return [f"unreadable output: {exc}"]
        label = job.command.label
        if label in self.first:
            return [] if files == self.first[label] else ["output bytes differ from the first pass"]
        problems = self.gate.check(job.command, files, self.reference)
        if not problems:
            self.first[label] = files
            self.tables[label] = self.gate.Output(files["csv"])
        return problems


def load_reference(workload: str, seed: int):
    path = REF / workload / f"seed{seed}.npz"
    if not path.exists():
        return None
    import numpy

    with numpy.load(path) as data:
        return {key: data[key] for key in data.files}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _stat_field(stat, field):
    if field in ("calls", "busy_s", "self_s"):
        return getattr(stat, field)
    return stat.counts.get(field, 0)


def traced_metrics(tracer, checker, target: str, wall: float) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s is added later)."""
    metrics = {}
    for group, fields in GROUP_FIELDS:
        stat = tracer.stat(group)
        for field in fields:
            metrics[f"{group}.{field}"] = _stat_field(stat, field)
    series = tracer.stat("qubit.timeseries")
    metrics["qubit.points_per_s"] = series.counts.get("points", 0) / series.busy_s if series.busy_s else 0.0
    states = (tracer.stat("oracle.apply_evolution"), tracer.stat("oracle.build_initial_state"))
    for key in ("n_c_max", "ensemble_size_max"):
        metrics[f"oracle.{key}"] = max(s.counts.get(key, 0) for s in states)
    margins = {}
    for job in checker.jobs:
        if job.command.command == "oracle-check" and job.command.label in checker.tables:
            margins = checker.gate.oracle_margins(checker.tables[job.command.label])
    for check in ORACLE_CHECKS:
        metrics[f"oracle.margin.{check}"] = margins.get(check, 0.0)
    design = tracer.stat("design.optimize_design")
    metrics["design.grid_points_per_s"] = (
        design.counts.get("grid_points", 0) / design.busy_s if design.busy_s else 0.0
    )
    for command in CLI_COMMANDS:
        stat = tracer.stat(f"cli.{command}")
        labels = [j.command.label for j in checker.jobs if j.command.command == command]
        metrics[f"cli.{command}.wall_s"] = stat.busy_s
        metrics[f"cli.{command}.self_s"] = stat.self_s
        metrics[f"cli.{command}.rows"] = sum(len(checker.tables[x].rows) for x in labels if x in checker.tables)
        metrics[f"cli.{command}.csv_bytes"] = sum(len(checker.first[x]["csv"]) for x in labels if x in checker.first)
    busy = tracer.layer_busy.get(target, 0.0) if "." not in target else tracer.stat(target).busy_s
    metrics["trace.pass_s"] = wall
    metrics["trace.target_busy_s"] = busy
    metrics["trace.target_share"] = busy / wall
    return metrics


def _describe(samples) -> str:
    if len(samples) == 1:
        return "1 sample"
    return f"median of {len(samples)} (min {min(samples):.4f}, max {max(samples):.4f})"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def measure(cli, jobs, checker, seconds: float, deadline: float, tracer=None, on_traced=None, kernel=None):
    """Timed passes for about `seconds` seconds, at least MIN_TIMED_PASSES.

    Every pass is timed: the import and the configs are ready before the
    first one, and the first-call costs left inside a pass are milliseconds
    against passes of 0.5 s to 10 s. With a tracer, untraced and traced
    passes alternate; `kernel` goes to the untraced passes. Returns the
    lists of untraced and traced results.
    """
    start = time.perf_counter()
    untraced, traced = [], []
    last = 0.0
    while True:
        minimal = bool(untraced) and (tracer is None or bool(traced))
        enough = minimal and len(untraced) >= (1 if tracer else MIN_TIMED_PASSES)
        now = time.perf_counter()
        if (enough and now + last > start + seconds) or (minimal and now + last > deadline):
            return untraced, traced
        if tracer is not None and len(traced) < len(untraced):
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(cli, jobs, tracer)
            finally:
                tracer.uninstall()
            checker(result)
            on_traced(result)
            traced.append(result)
        else:
            result = run_pass(cli, jobs, kernel=kernel)
            checker(result)
            untraced.append(result)
        last = result["wall"]


def report_end_to_end(setup, setup_gauges, untraced, raw_path: Path) -> dict:
    """End-to-end metrics (see the module docstring); raw figures go to `raw_path`."""
    walls = [r["wall"] for r in untraced]
    cpus = [r["cpu"] for r in untraced]
    scaled = [r["scaled"] for r in untraced]
    factors = [r["scaled"] / r["wall"] for r in untraced]
    cpu_scaled = [c * f for c, f in zip(cpus, factors)]
    setup_scaled = [s * KERNEL_NOMINAL_S / g for s, g in zip(setup, setup_gauges)]
    rows = (
        ("setup_s", statistics.median(setup_scaled),
         f"{_describe(setup_scaled)} fresh interpreters; raw median {statistics.median(setup):.4f}"),
        ("pass_s", statistics.median(scaled),
         f"{_describe(scaled)} passes; raw median {statistics.median(walls):.4f}, "
         f"speed factor median {statistics.median(factors):.4f}"),
        ("cpu_s", statistics.median(cpu_scaled),
         f"{_describe(cpu_scaled)} passes; raw median {statistics.median(cpus):.4f}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "1 sample (whole run)"),
    )
    units = dict(END_TO_END)
    for key, value, samples in rows:
        print(f"  {key:<12} {value:>12.4f} {units[key]:<4} {samples}")
    raw = {
        "kernel_nominal_s": KERNEL_NOMINAL_S,
        "pass_s_raw_median": statistics.median(walls),
        "cpu_s_raw_median": statistics.median(cpus),
        "speed_factor_median": statistics.median(factors),
        "setup_s_raw_median": statistics.median(setup),
        "setup": {"raw": setup, "gauges": setup_gauges},
        "passes": [{key: r[key] for key in ("wall", "cpu", "scaled", "walls", "gauges")} for r in untraced],
    }
    raw_path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print(f"  raw times, kernel times and speed factors written to {raw_path.relative_to(ROOT)}")
    return {key: {"value": value, "unit": units[key]} for key, value, _ in rows}


def report_per_layer(tracer, untraced, traced, target) -> dict:
    values = {key: statistics.median(r["metrics"][key] for r in traced) for key in traced[0]["metrics"]}
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(r["wall"] for r in untraced)
    absent = {group for group, present in tracer.present.items() if not present}
    print(f"per-layer metrics: medians of {len(traced)} traced passes, "
          f"{len(untraced)} untraced; target layer {target}")
    units = per_layer_units()
    for key, unit in units.items():
        note = "  (absent: no such function)" if key.rsplit(".", 1)[0] in absent else ""
        print(f"  {key:<48} {values[key]:>16.6g} {unit}{note}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    make_commands, target = WORKLOADS[name]
    commands = make_commands(seed)
    setup, setup_gauges = ([], []) if trace else measure_setup(commands)

    sys.path.insert(0, str(SRC))
    import optomech.cli as cli
    import gate

    out_dir = OUT / f"{name}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [Job(cli, command, out_dir) for command in commands]
    reference = load_reference(name, seed)
    checker = Checker(gate, jobs, reference)

    print(f"optomech benchmark: workload {name}, seed {seed}, trace {int(trace)}, seconds {seconds:g}")
    print(f"environment: {environment()}")
    print(f"commands: {', '.join(c.label for c in commands)}; reference "
          f"{'stored' if reference is not None else 'absent (invariant checks only)'}")

    if trace:
        from tracing import Tracer

        tracer = Tracer()

        def on_traced(result):
            result["metrics"] = traced_metrics(tracer, checker, target, result["wall"])

        untraced, traced = measure(cli, jobs, checker, seconds, deadline, tracer, on_traced)
        metrics = report_per_layer(tracer, untraced, traced, target)
        tracer.write_spans(out_dir / "spans.jsonl")
    else:
        untraced, _ = measure(cli, jobs, checker, seconds, deadline, kernel=SpeedKernel())
        metrics = report_end_to_end(setup, setup_gauges, untraced, out_dir / "end_to_end.json")
    ratio = checker.failed / checker.attempted
    print(f"  {'fail_ratio':<12} {ratio:>12.4f} {'1':<4} {checker.failed} of {checker.attempted} commands failed")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in its own process; metrics keyed workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="optomech benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "optomech" / "cli.py").is_file():
        print(f"error: no optomech sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
