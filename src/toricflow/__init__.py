"""toricflow: imaginary-time flows of toric Kahler structures and of the
holomorphic sections they quantize.

The package models a compact toric Kahler manifold through its Delzant
moment polytope, deforms the complex structure by adding t times a strictly
convex function to the symplectic potential, flows weight sections by the
exponential of the quantum operator, and verifies the induced convergence of
polarizations and of normalized sections onto moment-map fibers.
"""

from .convergence import (
    BumpProfile,
    ConcentrationStats,
    ConvergenceReport,
    FiberMeasureModel,
    concentration_profile,
    convergence_experiment,
    fiber_pairing_delta,
    normalization_Ct,
    pairing_iota,
    weight_orthogonality_check,
)
from .errors import (
    AliasingError,
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyGridError,
    FiberDegenerationError,
    NewtonError,
    QuadratureOverflow,
    QuadratureStagnation,
    ToricFlowError,
)
from .flow import (
    DecayCurve,
    KahlerFlowState,
    OrbitPoint,
    SymplecticPotential,
    beta_of_hamiltonian_field,
    complex_structure,
    fit_loglog_slope,
    flow_map_psi_t,
    flowed_potential,
    guillemin_potential,
    holomorphic_log_coordinates,
    kahler_potential_duality,
    metric_matrix,
    mixed_polarization_basis,
    polarization_angle,
    polarization_basis_t,
    polarization_decay_curve,
    subspace_angle,
)
from .polytopes import (
    DelzantPolytope,
    Facet,
    LatticePoint,
    box,
    contains,
    interior_grid,
    lattice_points,
    sample_interior,
    segment,
    standard_simplex,
    validate_delzant,
)
from .potentials import (
    CallablePotential,
    ConcentrationFunctional,
    ConvexPotential,
    ExponentialTerm,
    LogSumExpPotential,
    PerturbedQuadratic,
    QuadraticPotential,
    ReflectedPotential,
    check_strict_convexity,
    concentration_rate,
    concentration_rate_grad,
    f_lambda_min_check,
    legendre_dual,
    legendre_inverse,
    make_potential,
)
from .quadrature import QuadratureSpec, integrate
from .sections import (
    GridSectionField,
    KostantCheck,
    WeightSection,
    apply_flow_truncated,
    evaluate_on_grid,
    flow_components,
    flow_section,
    flow_section_pullback,
    frame_holomorphicity_residual,
    gluing_check_cp1,
    kostant_operator,
    lift_scale,
    lift_section_consistency,
    quantum_operator,
    route_equality_residual,
    section_norm_sq,
    torus_volume,
    weight_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
