"""The benchmark's workloads: each seed gives a list of optomech commands.

Seed 0 runs the CLI defaults. Other seeds move physical parameters within
the paper's ranges and keep every grid size, so a pass does the same amount
of work whatever the seed. Commands carry `--set` overrides exactly as a
user would type them; `seed` is passed to oracle-check only, and
`--workers` never, so the default single-process path is what runs.

This module imports nothing from optomech: the benchmark builds the command
lists before it times the package's import.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

#: 2 pi x 95 kHz, the CLI's default mechanical frequency in rad/s
OMEGA_M = 2.0 * math.pi * 95.0e3

#: oracle-check seeds whose computed work matches the default seed's within
#: 2%, written by select_oracle_seeds.py; see there why the raw seed is not used
ORACLE_SEEDS = (
    1234, 86, 95, 113, 218, 223, 291, 341, 363, 381, 405, 479, 491, 519, 528, 633,
    669, 848, 972, 1006, 1060, 1129, 1188, 1213, 1278, 1285, 1330, 1449, 1699, 1703, 1757, 1898,
)


@dataclass(frozen=True)
class Command:
    """One optomech invocation: `optomech <command> --set k=v ... --out <label>.csv`."""

    label: str
    command: str
    settings: tuple = ()

    @property
    def overrides(self) -> list:
        return [f"{key}={json.dumps(value)}" for key, value in self.settings]


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def qubit_dynamics(seed: int) -> list:
    if seed == 0:
        k_low, k_high, t_fixed = 0.5, 0.74, math.pi
    else:
        rng = random.Random(seed)
        k_low = _uniform(rng, 0.3, 0.65)
        k_high = _uniform(rng, 0.75, 1.2)
        t_fixed = _uniform(rng, 0.5, 4.0 * math.pi)
    return [
        Command("fig2-low-k", "fig2", (("k", k_low),)),
        Command("fig2-high-k", "fig2", (("k", k_high),)),
        Command("sweep-concurrence-t", "sweep", (("quantity", "concurrence"), ("variable", "t"), ("k", k_low))),
        Command(
            "sweep-entropy-k",
            "sweep",
            (("quantity", "entropy"), ("variable", "k"), ("start", 0.0), ("stop", 1.5), ("t_fixed", t_fixed)),
        ),
    ]


def witness_grid(seed: int) -> list:
    if seed == 0:
        k, temperature, alpha, beta = 0.74, 0.8e-6, 0.5, 0.5
    else:
        rng = random.Random(seed)
        k = _uniform(rng, 0.6, 0.9)
        temperature = _uniform(rng, 0.1, 1.0) * 1e-6
        alpha = _uniform(rng, 0.4, 0.6)
        beta = _uniform(rng, 0.4, 0.6)
    # fig4b keeps the published k = 0.74: k sets how many of its 10,201 cells
    # need a golden-section refinement, which is most of its cost (7,758 at
    # k = 0.72, 3,938 at 0.76), while temperature moves that count by 0.2%
    # carrier at the mechanical frequency: few enough optical cycles per
    # window that min_over_window takes its direct (pointwise) mode
    direct = (
        ("omega_m_rad_per_s", OMEGA_M),
        ("omega_a_rad_per_s", OMEGA_M),
        ("omega_b_rad_per_s", OMEGA_M),
        ("window_scaled", 2000.0),
    )
    return [
        Command("fig4b", "fig4b", (("k", 0.74), ("temperature_K", temperature))),
        Command("fig4a", "fig4a", (("alpha", alpha), ("beta", beta))),
        Command("fig4a-direct", "fig4a", (("alpha", alpha), ("beta", beta)) + direct),
        Command("fig3", "fig3", (("k", k), ("alpha", alpha), ("beta", beta), ("temperature_K", temperature))),
    ]


def oracle_certify(seed: int) -> list:
    return [Command("oracle-check", "oracle-check", (("seed", ORACLE_SEEDS[seed % len(ORACLE_SEEDS)]),))]


def design_search(seed: int) -> list:
    radii = [1.0e-2, 2.5e-2, 5.0e-2, 10.0e-2]
    finesse = 5.8e5
    if seed != 0:
        rng = random.Random(seed)
        radii = [round(r * rng.uniform(0.8, 1.25), 6) for r in radii]
        finesse = round(rng.uniform(4.0e5, 8.0e5), 0)
    return [Command("design", "design", (("radii_m", radii), ("finesse_eval", finesse)))]


#: workload name -> (command list for a seed, name of the layer it targets)
WORKLOADS = {
    "qubit-dynamics": (qubit_dynamics, "qubit"),
    "witness-grid": (witness_grid, "duan.min_over_window"),
    "oracle-certify": (oracle_certify, "oracle"),
    "design-search": (design_search, "design.optimize_design"),
}
