import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import optomech
from optomech.cli import _COMMANDS

# __main__ runs the command line on import
_SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(optomech.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module_name", ["optomech", *(f"optomech.{m}" for m in _SUBMODULES)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", sorted(set(optomech.__all__) - {"__version__"}))
def test_each_public_name_is_its_home_modules_object(name):
    # `import optomech` resolves a name on first access, from the module that defines it
    value = getattr(optomech, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_lazy_namespace_lists_and_binds_every_public_name():
    assert set(optomech.__all__) <= set(dir(optomech))
    namespace = {}
    exec("from optomech import *", namespace)
    assert set(optomech.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(optomech, name) for name in optomech.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        optomech.no_such_name


def test_every_submodule_declares_its_exports():
    assert {"certify", "cli", "core", "design", "duan", "oracle", "qubit"} <= set(_SUBMODULES)
    for name in _SUBMODULES:
        assert hasattr(importlib.import_module(f"optomech.{name}"), "__all__"), name


# every value a caller may set or leave at its default: the
# defaulted parameters of public functions and methods and the defaulted
# fields of public classes in src/optomech, as module.owner.name
_SETTABLE_VALUES = [
    "cli.RunConfig.out",
    "cli.main.argv",
    "cli.resolve_config.config_path",
    "cli.resolve_config.out",
    "cli.resolve_config.overrides",
    "design.AtomEnsembleSpec.omega_m",
    "design.DesignSearchSpace.L_max_m",
    "design.DesignSearchSpace.L_min_m",
    "design.DesignSearchSpace.L_step_m",
    "design.DesignSearchSpace.N_max",
    "design.DesignSearchSpace.N_min",
    "design.DesignSearchSpace.N_step",
    "design.DesignSearchSpace.exclusion_halfwidth",
    "design.DesignSearchSpace.exclusion_n_max",
    "design.DesignSearchSpace.finesse_eval",
    "design.DesignSearchSpace.plateau_rtol",
    "design.DesignSearchSpace.trap_frequencies_Hz",
    "design.proposed_geometry.finesse",
    "duan.duan_values.lower",
    "oracle.FockConfig.for_coherent_thermal.tolerance",
    "oracle.FockConfig.for_qubit.tolerance",
    "oracle.FockConfig.tolerance",
    "oracle.apply_evolution.interaction_picture",
]


def _defaulted_parameters(func, owner):
    args = func.args
    # *args or **kwargs would hide what a caller may pass from this ledger
    for variadic in (args.vararg, args.kwarg):
        assert variadic is None, f"{owner}.{func.name} is variadic in {variadic.arg}"
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return [f"{owner}.{func.name}.{arg.arg}" for arg in named]


def test_settable_public_values_are_the_listed_ones():
    # a new option shows up here as a one-line diff
    found = []
    for path in pathlib.Path(optomech.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found += _defaulted_parameters(node, path.stem)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                owner = f"{path.stem}.{node.name}"
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and item.value is not None:
                        found.append(f"{owner}.{item.target.id}")
                    elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found += _defaulted_parameters(item, owner)
    assert sorted(found) == _SETTABLE_VALUES
    assert len(_SETTABLE_VALUES) == 23


# every name `import optomech` exports; a new public name shows up here as a
# one-line diff
_PUBLIC_NAMES = [
    "AtomEnsembleSpec",
    "CavityGeometry",
    "DesignReport",
    "DesignSearchSpace",
    "FockConfig",
    "HeatingBudget",
    "ModePairMoments",
    "OptimizeResult",
    "RegimeReport",
    "TriModeState",
    "__version__",
    "apply_evolution",
    "atom_coupling",
    "big_b",
    "cavity_linewidth",
    "coherent_thermal_state",
    "concurrence",
    "design_report",
    "displacement_matrix",
    "duan_from_moments",
    "duan_values",
    "energy_eigenvalue_scaled",
    "entanglement_period",
    "eta",
    "heating_budget",
    "moments",
    "optimize_design",
    "partial_trace",
    "qubit_state",
    "reduced_rho_ab",
    "regime_report",
    "thermal_occupation",
    "von_neumann_entropy",
    "window_minima",
    "xi",
]


def test_public_names_are_the_listed_ones():
    assert sorted(optomech.__all__) == _PUBLIC_NAMES


# every field of every command, as command.field; a new command line knob
# shows up here as a one-line diff
_CLI_FIELDS = [
    "fig2.k",
    "fig2.n_points",
    "fig2.t_max",
    "fig2.t_min",
    "fig3.alpha",
    "fig3.beta",
    "fig3.cavity_length_m",
    "fig3.finesse",
    "fig3.k",
    "fig3.mirror_radius_m",
    "fig3.n_points",
    "fig3.omega_a_rad_per_s",
    "fig3.omega_b_rad_per_s",
    "fig3.omega_m_rad_per_s",
    "fig3.t_max",
    "fig3.t_min",
    "fig3.temperature_K",
    "fig4a.alpha",
    "fig4a.beta",
    "fig4a.cavity_length_m",
    "fig4a.finesse",
    "fig4a.k_max",
    "fig4a.k_min",
    "fig4a.k_step",
    "fig4a.mirror_radius_m",
    "fig4a.omega_a_rad_per_s",
    "fig4a.omega_b_rad_per_s",
    "fig4a.omega_m_rad_per_s",
    "fig4a.temperatures_K",
    "fig4a.window_scaled",
    "fig4b.alpha_max",
    "fig4b.alpha_min",
    "fig4b.alpha_step",
    "fig4b.beta_max",
    "fig4b.beta_min",
    "fig4b.beta_step",
    "fig4b.cavity_length_m",
    "fig4b.finesse",
    "fig4b.k",
    "fig4b.mirror_radius_m",
    "fig4b.omega_a_rad_per_s",
    "fig4b.omega_b_rad_per_s",
    "fig4b.omega_m_rad_per_s",
    "fig4b.temperature_K",
    "fig4b.window_scaled",
    "design.L_max_m",
    "design.L_min_m",
    "design.L_step_m",
    "design.N_max",
    "design.N_min",
    "design.N_step",
    "design.exclusion_halfwidth",
    "design.exclusion_n_max",
    "design.finesse_eval",
    "design.plateau_rtol",
    "design.radii_m",
    "design.report_finesse",
    "design.trap_frequencies_Hz",
    "oracle-check.seed",
    "sweep.alpha",
    "sweep.beta",
    "sweep.k",
    "sweep.n_points",
    "sweep.nbar",
    "sweep.quantity",
    "sweep.r_a",
    "sweep.r_b",
    "sweep.start",
    "sweep.stop",
    "sweep.t_fixed",
    "sweep.variable",
]


def test_cli_fields_are_the_listed_ones():
    assert [f"{command}.{field}" for command, spec in _COMMANDS.items() for field in sorted(spec.fields)] == (
        _CLI_FIELDS
    )
    assert len(_CLI_FIELDS) == 71
