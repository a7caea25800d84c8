"""Stable radial standing waves for the critical inverse-square Schrodinger
equation: weighted grids and energies, a constrained ground-state solver,
conservative propagation in the transformed variable, orbit-distance
stability experiments, the Kelvin-dual norm, and inequality checkers."""

from .checks import (
    WeightSpec,
    check_ckn,
    check_hardy,
    check_ihs,
    check_weight_condition,
)
from .energies import (
    EnergyReport,
    hardy_functional_u,
    surface_term,
    surface_term_limit,
    weighted_dirichlet,
)
from .errors import (
    BlowupError,
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    HardyWavesError,
    ParameterError,
    ShapeError,
    StepError,
)
from .evolve import EvolutionState, initial_state, invariants, propagate
from .groundstate import StandingWave, fit_origin, normalized_gradient_flow
from .kelvin import (
    WNormReport,
    kelvin_transform,
    kelvin_verify,
    lambda_infinity,
    reciprocal_grid,
    w_norm,
)
from .radial import (
    Field,
    Params,
    RadialGrid,
    build_grid,
    integrate_mu,
    to_u,
    to_v,
    unit_ball_volume,
)
from .stability import StabilityRun, orbit_distance, stability_experiment

__version__ = "0.1.0"
