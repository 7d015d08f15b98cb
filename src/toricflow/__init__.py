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
)
from .errors import (
    AliasingError,
    Check,
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyGridError,
    FiberDegenerationError,
    GridSizeError,
    NewtonError,
    QuadratureOverflow,
    QuadratureStagnation,
    ToricFlowError,
)
from .flow import (
    DecayCurve,
    KahlerFlowState,
    SymplecticPotential,
    beta_of_hamiltonian_field,
    complex_structure,
    fit_loglog_slope,
    flow_map_psi_t,
    metric_matrix,
    mixed_polarization_basis,
    polarization_basis_t,
    polarization_decay_curve,
    subspace_angle,
)
from .polytopes import (
    DelzantPolytope,
    Facet,
    box,
    sample_interior,
    segment,
    standard_simplex,
    validate_delzant,
)
from .potentials import (
    CallablePotential,
    ConvexPotential,
    LogSumExpPotential,
    QuadraticPotential,
    ReflectedPotential,
    check_strict_convexity,
    concentration_rate,
    legendre_inverse,
)
from .quadrature import QuadratureSpec
from .sections import (
    KostantCheck,
    WeightSection,
    apply_flow_truncated,
    evaluate_on_grid,
    flow_components,
    flow_section,
    frame_holomorphicity_residual,
    gluing_check_cp1,
    kostant_operator,
    lift_scale,
    lift_section_consistency,
    pullback_amplitude_log,
    quantum_operator,
    route_equality_residual,
    section_log_norms_sq,
    section_norm_sq,
    torus_volume,
    weight_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
