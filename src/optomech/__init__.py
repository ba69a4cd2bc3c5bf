"""Tripartite optomechanical entanglement toolkit.

Two cavity modes couple to one mechanical mode through a shared
position-dependent frequency shift. The package provides the closed-form
evolution of that system (core, qubit, duan), a truncated-Fock-space
numerical oracle (oracle) and the certification of the closed forms
against it (certify), SI-unit experiment-design calculators (design),
and a CSV-producing command line front end (cli).
"""

from .core import (
    big_b,
    energy_eigenvalue_scaled,
    eta,
    thermal_occupation,
    xi,
)
from .design import (
    AtomEnsembleSpec,
    CavityGeometry,
    DesignReport,
    DesignSearchSpace,
    HeatingBudget,
    OptimizeResult,
    atom_coupling,
    cavity_linewidth,
    design_report,
    entanglement_period,
    heating_budget,
    optimize_design,
)
from .duan import (
    RegimeReport,
    duan_from_moments,
    duan_values,
    regime_report,
    window_minima,
)
from .oracle import (
    FockConfig,
    ModePairMoments,
    TriModeState,
    apply_evolution,
    coherent_thermal_state,
    displacement_matrix,
    moments,
    partial_trace,
    qubit_state,
)
from .qubit import (
    concurrence,
    reduced_rho_ab,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "eta",
    "big_b",
    "xi",
    "thermal_occupation",
    "energy_eigenvalue_scaled",
    # qubit
    "reduced_rho_ab",
    "concurrence",
    "von_neumann_entropy",
    # duan
    "RegimeReport",
    "duan_from_moments",
    "duan_values",
    "window_minima",
    "regime_report",
    # oracle
    "FockConfig",
    "TriModeState",
    "ModePairMoments",
    "displacement_matrix",
    "qubit_state",
    "coherent_thermal_state",
    "apply_evolution",
    "partial_trace",
    "moments",
    # design
    "CavityGeometry",
    "AtomEnsembleSpec",
    "HeatingBudget",
    "DesignReport",
    "DesignSearchSpace",
    "OptimizeResult",
    "atom_coupling",
    "cavity_linewidth",
    "entanglement_period",
    "heating_budget",
    "design_report",
    "optimize_design",
]
