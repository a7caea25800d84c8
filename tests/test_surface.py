"""Pin of the public surface: the sorted ``__all__`` of each module.

A change that adds or drops a public name updates this table on purpose.
"""

import importlib

import pytest

PUBLIC = {
    "checks": [
        "InequalityReport", "WeightConditionReport", "WeightSpec", "check_ckn", "check_hardy",
        "check_ihs", "check_weight_condition", "random_fields",
    ],
    "energies": [
        "EnergyReport", "energy_J", "hardy_functional_u", "lagrange_multiplier",
        "nonlinear_term", "surface_term", "surface_term_limit", "weighted_dirichlet",
    ],
    "evolve": ["EvolutionState", "initial_state", "invariants", "propagate"],
    "groundstate": [
        "StandingWave", "elliptic_residual", "fit_origin", "normalized_gradient_flow",
        "oracle_minimize", "origin_behavior",
    ],
    "kelvin": [
        "WNormReport", "kelvin_transform", "kelvin_verify", "lambda_infinity",
        "reciprocal_grid", "w_norm",
    ],
    "operators": ["RadialOperator", "singular_weight"],
    "radial": [
        "Field", "Params", "RadialGrid", "build_grid", "integrate_mu", "log_time_coordinate",
        "to_u", "to_v", "unit_ball_volume",
    ],
    "stability": ["PERTURBATION_KINDS", "StabilityRun", "orbit_distance", "stability_experiment"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_pinned(module):
    mod = importlib.import_module(f"hardywaves.{module}")
    assert sorted(mod.__all__) == PUBLIC[module]
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_public_surface_size():
    assert sum(len(names) for names in PUBLIC.values()) == 47
