"""Record the gate's reference outputs for seeds 0-2 of every workload.

    python3 perfbench/record_refs.py

Runs one pass of each workload at each of SEEDS, requires it to pass the
invariant checks, and stores its numeric columns in
perfbench/ref/<workload>/seed<N>.npz. References pin the outputs of the
commit they were recorded at; record them again only when a change to the
program is meant to change its output, and say so in CHANGES.md.
"""

from __future__ import annotations

import sys

import numpy as np

import gate
import run
from workloads import WORKLOADS

SEEDS = (0, 1, 2)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import optomech.cli as cli

    for name in WORKLOADS:
        for seed in SEEDS:
            out_dir = run.OUT / f"{name}-{seed}"
            out_dir.mkdir(parents=True, exist_ok=True)
            jobs = [run.Job(cli, command, out_dir) for command in WORKLOADS[name][0](seed)]
            checker = run.Checker(gate, jobs, None)
            checker(run.run_pass(cli, jobs))
            if checker.failed:
                print(f"{name} seed {seed}: an output failed the invariant checks")
                return 1
            columns = {}
            for job in jobs:
                columns.update(gate.reference_columns(job.command, checker.tables[job.command.label]))
            if columns:
                path = run.REF / name / f"seed{seed}.npz"
                path.parent.mkdir(parents=True, exist_ok=True)
                np.savez_compressed(path, **columns)
                print(f"wrote {path.relative_to(run.ROOT)} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
