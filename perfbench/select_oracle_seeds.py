"""Regenerate `ORACLE_SEEDS` in workloads.py: oracle-check seeds of equal size.

oracle-check's seed draws its certification points, and each point sets the
Fock cutoffs and ensemble size of its state, so the seed sets the problem
size: seeds 0-7 took 5.2 s to 15.3 s per run. The oracle-certify workload
keeps the size of the default seed (1234) by mapping workload seeds onto
the first COUNT oracle-check seeds below SCAN whose computed work matches
it within RTOL:

- displacement builds, the sum over evolutions of max|delta| * n_c**3;
- branch mat-vecs, the sum over evolutions of 8 * ensemble * rows * n_c**2.

The sizes are read without evolving anything: `apply_evolution` is replaced
by a recorder that returns its input, so a scan of thousands of seeds takes
minutes. Usage, from the repository root:

    python3 perfbench/select_oracle_seeds.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import optomech.cli as cli  # noqa: E402

DEFAULT_SEED = 1234
COUNT = 32
RTOL = 0.02
SCAN = 20000


def computed_work(seed: int) -> tuple[float, float]:
    """(displacement work, mat-vec work) of oracle-check at this seed."""
    sizes = []

    def record(state, t, k, r_a, r_b, **kwargs):
        na1, nb1, nc1 = state.shape
        if k != 0.0:
            sizes.append((len(state.weights), na1, nb1, nc1))
        return state

    real = cli.apply_evolution
    cli.apply_evolution = record
    try:
        cfg = cli.resolve_config("oracle-check", overrides=[f"seed={seed}"])
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_oracle_check(cfg)
    finally:
        cli.apply_evolution = real
    disp = sum((max(na1, nb1) - 1) * nc1 ** 3 for _, na1, nb1, nc1 in sizes)
    matvec = sum(8.0 * e * (na1 * nb1 - min(na1, nb1)) * nc1 ** 2 for e, na1, nb1, nc1 in sizes)
    return float(disp), matvec


def main() -> int:
    target = computed_work(DEFAULT_SEED)
    seeds = [DEFAULT_SEED]
    for seed in range(SCAN):
        if len(seeds) == COUNT:
            break
        if seed == DEFAULT_SEED:
            continue
        work = computed_work(seed)
        if all(abs(w - t) <= RTOL * t for w, t in zip(work, target)):
            seeds.append(seed)
            print(f"seed {seed}: work {work[0] / target[0]:.4f}, {work[1] / target[1]:.4f} of the default's",
                  flush=True)
    print(f"ORACLE_SEEDS = {tuple(seeds)!r}")
    return 0 if len(seeds) == COUNT else 1


if __name__ == "__main__":
    sys.exit(main())
