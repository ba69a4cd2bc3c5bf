"""Compare every output of two commits of optomech, byte for byte.

    python scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are git revisions of the repository this script lives
in. Both trees are extracted with `git archive` into a temporary
directory, and one command matrix runs on each through
`python -m optomech ... --out <label>.csv`, with the tree's `src` as the
only PYTHONPATH entry. The matrix holds:

- every command at its defaults;
- every command of every benchmark workload at seeds 0-9, read from the
  change tree's `perfbench/workloads.py` (`oracle-check` there runs at the
  ten benchmark seeds);
- the three Duan sweeps over t and over k;
- `fig2` and the concurrence and entropy sweeps over t and over k at
  100,000 and 257 points, and `fig2` at k = 20;
- `design` with exclusion bands of zero, wide and overlapping width, and
  with no plateau tolerance;
- a few inputs that a command must refuse by field name, and a few where
  only a regime value the command does not write overflows;
- the single-field matrix of the change tree's `tests/test_domain.py`:
  every numeric field at 0, -1, 1e-300 and 1e300, the other grids shrunk.

For each run it compares the CSV, the design JSON sidecar, stdout, stderr
(with the tree and output paths replaced by placeholders) and the exit
code, prints each difference, and exits 1 if any run differs, 0 if none.
"""

from __future__ import annotations

import difflib
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ("fig2", "fig3", "fig4a", "fig4b", "design", "oracle-check", "sweep")
SEEDS = range(10)
#: (label, command, overrides) runs beyond the defaults and the workloads
EXTRA = [
    *(
        (f"sweep-duan_{pair}-{variable}", "sweep", (f"quantity=duan_{pair}", f"variable={variable}", "stop=1.5"))
        for pair in ("ab", "ac", "bc")
        for variable in ("t", "k")
    ),
    # the qubit measures across many slabs, across a slab edge and at the largest k
    ("fig2-n-100000", "fig2", ("n_points=100000",)),
    ("fig2-n-257", "fig2", ("n_points=257",)),
    ("fig2-k-20", "fig2", ("k=20",)),
    *(
        (f"sweep-{quantity}-{variable}-n-{n}", "sweep", (f"quantity={quantity}", f"variable={variable}", f"n_points={n}"))
        for quantity in ("concurrence", "entropy")
        for variable in ("t", "k")
        for n in (100000, 257)
    ),
    ("refuse-fig3-cavity-length", "fig3", ("cavity_length_m=1",)),
    ("refuse-fig4a-mirror-radius", "fig4a", ("mirror_radius_m=1e-9",)),
    ("refuse-fig4b-mirror-radius", "fig4b", ("mirror_radius_m=1e-9",)),
    ("refuse-fig3-t-max", "fig3", ("t_max=1e300",)),
    ("refuse-fig3-k-t-max", "fig3", ("k=1e50", "t_max=1e209")),
    ("refuse-sweep-duan-ac-stop", "sweep", ("quantity=duan_ac", "r_a=1e10", "stop=1e300")),
    ("refuse-sweep-duan-ac-k-stop", "sweep", ("quantity=duan_ac", "k=1e100", "stop=1e110")),
    ("refuse-fig3-alpha", "fig3", ("alpha=1e101",)),
    ("refuse-fig4a-k-max", "fig4a", ("k_max=1e101",)),
    ("refuse-fig4b-k-window", "fig4b", ("k=1e100", "window_scaled=1e300", "alpha_step=0.5", "beta_step=0.5")),
    ("refuse-fig4a-k-max-window", "fig4a", ("k_max=1e100", "k_step=1e99", "window_scaled=1e300")),
    ("refuse-fig2-k", "fig2", ("k=50",)),
    ("refuse-sweep-k-stop", "sweep", ("variable=k", "stop=50")),
    ("refuse-fig3-k-period", "fig3", ("k=1e-300",)),
    # regime values that overflow where the command does not write them
    ("fig4b-k-period", "fig4b", ("k=1e-300",)),
    ("fig3-period-seconds", "fig3", ("omega_m_rad_per_s=1e-3", "k=1e-153", "n_points=50")),
    ("fig4b-period-seconds", "fig4b", ("omega_m_rad_per_s=1e-3", "k=1e-153")),
    ("fig4b-k-omega-m-ratio", "fig4b", ("k=0.001", "omega_m_rad_per_s=1e300")),
    ("design-halfwidth-0", "design", ("exclusion_halfwidth=0",)),
    ("design-halfwidth-0.2-n-max-11", "design", ("exclusion_halfwidth=0.2", "exclusion_n_max=11")),
    ("design-rtol-0", "design", ("plateau_rtol=0",)),
    ("refuse-design-all-excluded", "design", ("exclusion_halfwidth=50",)),
    ("refuse-fig3-linewidth", "fig3", ("mirror_radius_m=1e300", "cavity_length_m=1e300", "finesse=1e300")),
    ("refuse-fig3-k-alpha", "fig3", ("k=1e100", "alpha=1e100", "n_points=50")),
    ("refuse-design-report-finesse", "design", ("report_finesse=1e300",)),
]


def extract(revision: str, dest: Path) -> None:
    """The tree of revision, written under dest by `git archive`."""
    done = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, capture_output=True, check=False
    )
    if done.returncode:
        sys.exit(f"git archive {revision}: {done.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")


def load(path: Path):
    """The module at path, registered under its file name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def matrix(tree: Path) -> list:
    """(label, command, overrides) of every run, each distinct run once."""
    workloads = load(tree / "perfbench" / "workloads.py")
    runs = [(f"default-{command}", command, ()) for command in COMMANDS]
    for name, (commands, _) in workloads.WORKLOADS.items():
        for seed in SEEDS:
            runs += [(f"{name}-{seed}-{c.label}", c.command, tuple(c.overrides)) for c in commands(seed)]
    runs += EXTRA
    # the single-field matrix reads the change tree's command fields
    sys.path.insert(0, str(tree / "src"))
    domain = load(tree / "tests" / "test_domain.py")
    for command, settings in domain.single_field_runs():
        (field, value), = settings.items()
        runs.append((f"field-{command}-{field}-{value!r}", command, domain.overrides(command, settings)))
    seen, distinct = set(), []
    for label, command, overrides in runs:
        if (command, overrides) not in seen:
            seen.add((command, overrides))
            distinct.append((label, command, overrides))
    return distinct


def run(tree: Path, out: Path, label: str, command: str, overrides: tuple) -> dict:
    """The outputs of one run on tree, by name, as bytes."""
    csv = out / f"{label}.csv"
    argv = [sys.executable, "-m", "optomech", command, "--out", str(csv)]
    for item in overrides:
        argv += ["--set", item]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, check=False)

    def clean(data: bytes) -> bytes:
        return data.replace(str(out).encode(), b"<out>").replace(str(tree).encode(), b"<tree>")

    outputs = {"exit code": str(done.returncode).encode(), "stdout": clean(done.stdout), "stderr": clean(done.stderr)}
    for name, path in (("csv", csv), ("json sidecar", csv.with_suffix(".json"))):
        outputs[name] = path.read_bytes() if path.exists() else b"<absent>"
    return outputs


def first_difference(old: bytes, new: bytes) -> str:
    """The first differing line of two outputs, as a two-line unified diff."""
    a, b = old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines()
    lines = [line for line in difflib.unified_diff(a, b, lineterm="", n=0) if line[:1] in "+-"][2:]
    removed = next((line for line in lines if line.startswith("-")), "-")
    added = next((line for line in lines if line.startswith("+")), "+")
    return f"    {removed[:200]}\n    {added[:200]}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        trees = [Path(scratch, side) for side in ("parent", "change")]
        for revision, tree in zip(argv, trees):
            extract(revision, tree)
            Path(scratch, f"{tree.name}-out").mkdir()
        runs = matrix(trees[1])
        differing = 0
        for label, command, overrides in runs:
            old, new = (run(tree, Path(scratch, f"{tree.name}-out"), label, command, overrides) for tree in trees)
            names = [name for name in old if old[name] != new[name]]
            if names:
                differing += 1
                print(f"{label}: optomech {command} {' '.join(overrides)}".rstrip())
                for name in names:
                    print(f"  {name} differs:\n{first_difference(old[name], new[name])}")
    print(f"{differing} of {len(runs)} runs differ between {argv[0]} and {argv[1]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
