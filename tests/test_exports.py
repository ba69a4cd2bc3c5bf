import ast
import importlib
import pathlib
import pkgutil

import pytest

import optomech

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
    "cli.resolve_config.seed",
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
    "duan.CVInitialState.nbar",
    "duan.duan_values.lower",
    "oracle.FockConfig.for_coherent_thermal.tolerance",
    "oracle.FockConfig.for_qubit.tolerance",
    "oracle.FockConfig.tolerance",
    "oracle.apply_evolution.interaction_picture",
]


def _defaulted_parameters(func, owner):
    args = func.args
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
    assert len(_SETTABLE_VALUES) == 25


# every name `import optomech` exports; a new public name shows up here as a
# one-line diff
_PUBLIC_NAMES = [
    "AtomEnsembleSpec",
    "CVInitialState",
    "CavityGeometry",
    "DesignReport",
    "DesignSearchSpace",
    "FockConfig",
    "HeatingBudget",
    "ModePairMoments",
    "OptimizeResult",
    "RegimeReport",
    "SystemParams",
    "TriModeState",
    "__version__",
    "apply_evolution",
    "atom_coupling",
    "big_b",
    "build_initial_state",
    "cavity_linewidth",
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
    "reduced_rho_ab",
    "regime_report",
    "thermal_occupation",
    "von_neumann_entropy",
    "window_minima",
    "xi",
]


def test_public_names_are_the_listed_ones():
    assert sorted(optomech.__all__) == _PUBLIC_NAMES
