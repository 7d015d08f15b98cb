"""Exception types shared across the package."""


class ToricFlowError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ToricFlowError, ValueError):
    """Input has the wrong ambient dimension."""


class DomainError(ToricFlowError, ValueError):
    """Evaluation requested outside the admissible domain (e.g. on or
    beyond the polytope boundary where a facet function is nonpositive)."""


class EmptyGridError(ToricFlowError, ValueError):
    """A sampling grid came out empty, typically because the margin
    swallowed the whole polytope."""


class GridSizeError(ToricFlowError, MemoryError):
    """A grid would hold more cells than the package allows; raised before
    anything is allocated."""


class NewtonError(ToricFlowError, RuntimeError):
    """Damped Newton iteration failed to converge within its budget."""


class QuadratureStagnation(ToricFlowError, RuntimeError):
    """Refinement stopped shrinking the error estimate before reaching the
    requested tolerance.  Carries the best value and estimate achieved."""

    def __init__(self, message, value, estimate):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class QuadratureOverflow(ToricFlowError, ArithmeticError):
    """A quadrature value or error estimate came out non-finite, typically
    because the integrand exceeds the float range."""


class AliasingError(ToricFlowError, ValueError):
    """The angular grid is too coarse to separate the requested torus
    weights (two weights coincide modulo the grid size)."""


class FiberDegenerationError(ToricFlowError, ValueError):
    """A moment-map fiber over a boundary lattice point was requested; the
    torus does not act freely there and the fiber measure degenerates."""


class ConfigError(ToricFlowError, ValueError):
    """Experiment configuration file could not be parsed or validated."""
