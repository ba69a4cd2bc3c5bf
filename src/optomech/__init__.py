"""Tripartite optomechanical entanglement toolkit.

Two cavity modes couple to one mechanical mode through a shared
position-dependent frequency shift. The package provides the closed-form
evolution of that system (core, qubit, duan), a truncated-Fock-space
numerical oracle (oracle) and the certification of the closed forms
against it (certify), SI-unit experiment-design calculators (design),
and a CSV-producing command line front end (cli).

`import optomech` loads none of those modules. Each public name is
imported from its home module on first access (PEP 562), so
`optomech.concurrence` loads `optomech.qubit` alone and
`optomech.window_minima` loads `optomech.duan`. The command line follows
the same rule: every command starts from core, qubit, design and cli, the
witness commands (fig3, fig4a, fig4b and the Duan sweeps) add duan when
they run, and oracle-check adds duan, oracle and certify.
"""

import importlib

__version__ = "0.1.0"

#: home module -> the public names `import optomech` resolves from it
_EXPORTS = {
    "core": (
        "eta", "big_b", "xi", "thermal_occupation", "energy_eigenvalue_scaled", "entanglement_period",
        "RegimeReport", "regime_report",
    ),
    "qubit": ("reduced_rho_ab", "concurrence", "von_neumann_entropy"),
    "duan": ("duan_from_moments", "duan_values", "window_minima"),
    "oracle": (
        "FockConfig", "TriModeState", "ModePairMoments", "displacement_matrix", "qubit_state",
        "coherent_thermal_state", "apply_evolution", "partial_trace", "moments",
    ),
    "design": (
        "CavityGeometry", "AtomEnsembleSpec", "HeatingBudget", "DesignReport", "DesignSearchSpace",
        "OptimizeResult", "atom_coupling", "cavity_linewidth", "heating_budget", "design_report",
        "optimize_design",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import a public name from its home module on first access, then keep it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
