"""Reaction-diffusion SIS epidemics with saturating incidence.

The package solves the two-species system

    dS/dt = d_S lap(S) + recruitment - S - beta S^q I^p + gamma I
    dI/dt = d_I lap(I) + beta S^q I^p - (gamma + eta) I

on intervals, rectangles, and disks with no-flux boundaries, and exposes
the quantities that organize its long-time behavior: the disease-free
profile, the basic reproduction number and principal eigenvalue of the
linearization, endemic equilibria, and the limit profiles reached as one
or both diffusion rates tend to zero.
"""

from .coefficients import CoefficientSet, evaluate_formula_on
from .dynamics import (
    MASS_BALANCE_RTOL,
    MassBalanceError,
    RunSummary,
    SimState,
    StepRejected,
    StepStats,
    TimeStepUnderflowError,
    march,
    run,
    step_imex,
)
from .equilibrium import (
    EquilibriumResult,
    conservation_gap,
    diagnostics,
    find_ee,
    grid_tolerance,
    settle,
    solve_dfe,
)
from .grid import (
    DiscreteDomain,
    DomainSpec,
    ScalarField,
    assemble_neumann_laplacian,
    build_domain,
    dilate_mask,
    erode_mask,
    integrate,
    load_field_csv,
    shifted_operator,
    stiffness_matrix,
    write_field_csv,
)
from .asymptotics import (
    BoundsReport,
    LimitProfile,
    MonotoneSequence,
    bisect_increasing,
    bounds_audit,
    classify_small_di,
    eliminate_susceptible,
    limit_joint_p1,
    limit_joint_sublinear,
    limit_profile,
    limit_small_di,
    limit_small_ds,
    monotone_joint_p1,
    monotone_joint_sublinear,
    susceptible_floor_constant,
)
from .harness import (
    ScenarioArtifacts,
    SweepResult,
    check_trend,
    compare_fields,
    field_distances,
    interior_max,
    run_scenario,
    sweep,
)
from .scenario import ConfigError, ScenarioConfig, load_scenario
from .solvers import (
    EigenReport,
    NonConvergenceError,
    SolveReport,
    generalized_principal_eigenpair,
    spd_solve,
)
from .spectral import SpectralResult, compute_lambda0, compute_r0

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fields and meshes
    "DomainSpec",
    "DiscreteDomain",
    "ScalarField",
    "build_domain",
    "stiffness_matrix",
    "assemble_neumann_laplacian",
    "shifted_operator",
    "integrate",
    "dilate_mask",
    "erode_mask",
    "write_field_csv",
    "load_field_csv",
    # coefficients
    "CoefficientSet",
    "evaluate_formula_on",
    # linear algebra
    "spd_solve",
    "generalized_principal_eigenpair",
    "SolveReport",
    "EigenReport",
    "NonConvergenceError",
    # time stepping
    "SimState",
    "StepStats",
    "RunSummary",
    "StepRejected",
    "TimeStepUnderflowError",
    "MassBalanceError",
    "MASS_BALANCE_RTOL",
    "step_imex",
    "march",
    "run",
    # equilibria
    "EquilibriumResult",
    "solve_dfe",
    "find_ee",
    "settle",
    "conservation_gap",
    "diagnostics",
    "grid_tolerance",
    # spectral quantities
    "SpectralResult",
    "compute_r0",
    "compute_lambda0",
    # small-diffusion limits
    "LimitProfile",
    "MonotoneSequence",
    "BoundsReport",
    "bisect_increasing",
    "eliminate_susceptible",
    "classify_small_di",
    "limit_small_di",
    "limit_small_ds",
    "limit_joint_p1",
    "limit_joint_sublinear",
    "limit_profile",
    "monotone_joint_p1",
    "monotone_joint_sublinear",
    "susceptible_floor_constant",
    "bounds_audit",
    # batch drivers
    "ScenarioArtifacts",
    "SweepResult",
    "run_scenario",
    "sweep",
    "field_distances",
    "interior_max",
    "check_trend",
    "compare_fields",
    # scenario configs
    "ScenarioConfig",
    "ConfigError",
    "load_scenario",
]
