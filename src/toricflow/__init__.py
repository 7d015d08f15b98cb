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
    ConvergenceReport,
    convergence_experiment,
)
from .errors import (
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
    SymplecticPotential,
    fit_loglog_slope,
    flow_map_psi_t,
    mixed_polarization_basis,
    polarization_basis_t,
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
    concentration_rate,
    legendre_inverse,
)
from .quadrature import QuadratureSpec
from .sections import (
    frame_holomorphicity_residual,
    gluing_check_cp1,
    lift_section_consistency,
    pullback_amplitude_log,
    route_equality_residual,
    section_log_norms_sq,
    section_norm_sq,
    torus_volume,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
