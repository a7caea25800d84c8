"""Pin of the public surface: the sorted ``__all__`` of each module, and the
public non-module names the package itself re-exports.

A change that adds or drops a public name updates this table on purpose.
"""

import importlib
import inspect

import pytest

PUBLIC = {
    "checks": [
        "WeightSpec", "check_ckn", "check_hardy", "check_ihs", "check_weight_condition",
        "random_fields",
    ],
    "energies": [
        "EnergyReport", "hardy_functional_u", "surface_term", "surface_term_limit",
        "weighted_dirichlet",
    ],
    "evolve": ["EvolutionState", "initial_state", "invariants", "propagate"],
    "groundstate": ["StandingWave", "fit_origin", "normalized_gradient_flow"],
    "kelvin": [
        "WNormReport", "kelvin_transform", "kelvin_verify", "lambda_infinity",
        "reciprocal_grid", "w_norm",
    ],
    "operators": ["RadialOperator"],
    "radial": [
        "Field", "Params", "RadialGrid", "build_grid", "integrate_mu", "to_u", "to_v",
        "unit_ball_volume",
    ],
    "stability": ["PERTURBATION_KINDS", "StabilityRun", "orbit_distance", "stability_experiment"],
}

ERRORS = [
    "BlowupError", "ConvergenceError", "DegenerateInputError", "DomainError", "HardyWavesError",
    "ParameterError", "ShapeError", "StepError",
]

# re-exported by the package: module names other than random_fields,
# PERTURBATION_KINDS and RadialOperator, plus the error classes
TOP_LEVEL = sorted(
    set(ERRORS).union(*PUBLIC.values())
    - {"random_fields", "PERTURBATION_KINDS", "RadialOperator"}
)


def public_names(mod) -> list:
    """A module's sorted ``__all__``; for the package, which has none, its
    public non-module names."""
    if hasattr(mod, "__all__"):
        return sorted(mod.__all__)
    return sorted(name for name, value in vars(mod).items()
                  if not name.startswith("_") and not inspect.ismodule(value))


@pytest.mark.parametrize("module", [*sorted(PUBLIC), "hardywaves"])
def test_public_names_are_pinned(module):
    # the package entry keeps a name dropped from a module from lingering there
    mod = importlib.import_module(module if module == "hardywaves" else f"hardywaves.{module}")
    names = public_names(mod)
    assert names == {**PUBLIC, "hardywaves": TOP_LEVEL}[module]
    assert all(hasattr(mod, name) for name in names)


def test_public_surface_size():
    assert sum(len(names) for names in PUBLIC.values()) == 37
