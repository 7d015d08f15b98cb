"""Exception types and the verdict row shared across the package."""

from typing import NamedTuple, Optional


class Check(NamedTuple):
    """One verdict row: a named check of weight `lam` at time `t` (None where
    the check has none) passes when -inf < residual < tolerance, so a NaN or
    an infinite residual fails."""

    check: str
    lam: Optional[tuple]
    t: Optional[float]
    residual: float
    tolerance: float

    @classmethod
    def within(cls, check: str, value: float, band: tuple, lam=None, t=None) -> "Check":
        """The row of `value`: its distance from the centre of `band` against
        the band's half-width."""
        centre, half = (band[0] + band[1]) / 2, (band[1] - band[0]) / 2
        return cls(check, lam, t, abs(value - centre), half)

    @property
    def passed(self) -> bool:
        return bool(float("-inf") < self.residual < self.tolerance)

    def to_dict(self) -> dict:
        """The row under its JSON keys: `lambda` an int list or None, `t` a float or None."""
        return {
            "check": self.check,
            "lambda": None if self.lam is None else [int(v) for v in self.lam],
            "t": None if self.t is None else float(self.t),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


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
    """A grid would hold more nodes than the package allows; raised before
    anything is allocated."""


class NewtonError(ToricFlowError, RuntimeError):
    """Damped Newton iteration failed to converge within its budget."""


class QuadratureStagnation(ToricFlowError, RuntimeError):
    """A column's error estimate still misses the requested tolerance at
    the finest refinement.  Carries that column's value and estimate."""

    def __init__(self, message, value, estimate):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class QuadratureOverflow(ToricFlowError, ArithmeticError):
    """A quadrature value or error estimate came out non-finite, typically
    because the integrand exceeds the float range."""


class FiberDegenerationError(ToricFlowError, ValueError):
    """A moment-map fiber over a boundary lattice point was requested; the
    torus does not act freely there and the fiber measure degenerates."""


class ConfigError(ToricFlowError, ValueError):
    """Experiment configuration file could not be parsed or validated."""
