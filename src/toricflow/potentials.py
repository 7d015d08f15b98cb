"""Strictly convex flow potentials on the dual Lie algebra t* ~ R^n.

The deformation machinery is driven by one strictly convex function
phi: t* -> R with analytic gradient and Hessian.  This module holds the
closed-form families (quadratics with optional exponential terms,
log-sum-exp, user-supplied callables; the config layer picks one from
`phi.kind`) and the objects derived from phi:

  * the concentration rate  f_lam(x) = (x - lam) . grad phi(x) - phi(x),
    whose unique minimum over the polytope sits at x = lam and drives the
    exponential localization of flowed sections onto the fiber over lam;
  * `legendre_inverse`, a damped-Newton solve of grad g(x) = y, which the
    flow map psi_t uses to read an image point back in action coordinates.

All evaluations are numpy-vectorized: `x` may be a single point of shape
(n,) or a batch of shape (m, n).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, NewtonError
from .polytopes import _matmul_columns, _plain


class ConvexPotential:
    """Interface: value/grad/hess, batched over a leading axis."""

    dimension: int

    def value(self, x) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"point dimension {x.shape[-1]} != potential dimension {self.dimension}"
            )
        return x


class QuadraticPotential(ConvexPotential):
    """phi(x) = x.Q x / 2 + b.x + c + sum_i a_i exp(k_i . x) with symmetric
    positive definite Q; `terms` holds the (a_i, k_i) pairs, and each term is
    convex for a_i >= 0."""

    def __init__(self, Q, b=None, c: float = 0.0, terms=()):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.dimension = Q.shape[0]
        self.b = np.zeros(self.dimension) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (self.dimension,):
            raise DimensionMismatch("b has the wrong shape")
        self.c = float(c)
        self.terms = tuple((float(a), np.asarray(k, dtype=float)) for a, k in terms)
        if any(k.shape != (self.dimension,) for _, k in self.terms):
            raise DimensionMismatch("perturbation wavevector has wrong dimension")

    def value(self, x):
        x = self._coerce(x)
        quad = 0.5 * np.einsum("...i,...i->...", _matmul_columns(x, self.Q), x)
        out = quad + x @ self.b + self.c
        for a, k in self.terms:
            out = out + a * np.exp(x @ k)
        return out

    def grad(self, x):
        x = self._coerce(x)
        out = _matmul_columns(x, self.Q) + self.b
        for a, k in self.terms:
            out = out + (a * np.exp(x @ k))[..., None] * k
        return out

    def hess(self, x):
        x = self._coerce(x)
        out = np.broadcast_to(self.Q, x.shape[:-1] + self.Q.shape).copy()
        for a, k in self.terms:
            out = out + (a * np.exp(x @ k))[..., None, None] * np.outer(k, k)
        return out

    def describe(self):
        terms = "".join(f" + {a}*exp({k.tolist()}.x)" for a, k in self.terms)
        return f"quadratic(Q={self.Q.tolist()}, b={self.b.tolist()}, c={self.c}){terms}"


def _logsumexp(a, **kwargs):
    """scipy's logsumexp, imported on first use so that scipy stays off the
    package's import path."""
    from scipy.special import logsumexp

    return logsumexp(a, **kwargs)


class LogSumExpPotential(ConvexPotential):
    """phi(x) = log sum_i w_i exp(k_i . x); strictly convex when the k_i do
    not lie in a common affine hyperplane."""

    def __init__(self, wavevectors, weights=None):
        K = np.atleast_2d(np.asarray(wavevectors, dtype=float))
        self.K = K
        self.dimension = K.shape[1]
        w = np.ones(K.shape[0]) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (K.shape[0],):
            raise ValueError(f"need one weight per wavevector ({K.shape[0]}), got {w.size}")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
        self.weights = w

    def _log_terms(self, x):
        return x @ self.K.T + np.log(self.weights)

    def value(self, x):
        x = self._coerce(x)
        return _logsumexp(self._log_terms(x), axis=-1)

    def grad(self, x):
        x = self._coerce(x)
        lt = self._log_terms(x)
        p = np.exp(lt - _logsumexp(lt, axis=-1, keepdims=True))
        return p @ self.K

    def hess(self, x):
        x = self._coerce(x)
        lt = self._log_terms(x)
        p = np.exp(lt - _logsumexp(lt, axis=-1, keepdims=True))
        mean = p @ self.K
        second = np.einsum("...k,ki,kj->...ij", p, self.K, self.K)
        return second - mean[..., :, None] * mean[..., None, :]

    def describe(self):
        return f"log-sum-exp({self.K.tolist()}, w={self.weights.tolist()})"


class CallablePotential(ConvexPotential):
    """User-supplied closed form with analytic gradient and Hessian."""

    def __init__(self, dimension: int, value_fn, grad_fn, hess_fn, label: str = "custom"):
        self.dimension = dimension
        self._value, self._grad, self._hess = value_fn, grad_fn, hess_fn
        self.label = label

    def value(self, x):
        return self._value(self._coerce(x))

    def grad(self, x):
        return self._grad(self._coerce(x))

    def hess(self, x):
        return self._hess(self._coerce(x))

    def describe(self):
        return self.label


class ReflectedPotential(ConvexPotential):
    """phi'(x) = phi(center - x).  Convexity and Hessians are preserved;
    used to express the second torus-invariant chart of a segment model."""

    def __init__(self, base, center):
        self.base = base
        self.center = np.asarray(center, dtype=float)
        self.dimension = len(self.center)

    def value(self, x):
        return self.base.value(self.center - self._coerce(x))

    def grad(self, x):
        return -self.base.grad(self.center - self._coerce(x))

    def hess(self, x):
        return self.base.hess(self.center - self._coerce(x))

    def describe(self):
        return f"reflected({self.base.describe()}, center={self.center.tolist()})"


# -- concentration rate f_lam ---------------------------------------------------


def concentration_rate(phi: ConvexPotential, lam, x) -> np.ndarray:
    """f_lam(x) = (x - lam) . grad phi(x) - phi(x).

    Strict convexity of phi makes lam the unique minimizer over any convex
    domain containing it, with minimum value -phi(lam).
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.einsum("...i,...i->...", x - lam, phi.grad(x)) - phi.value(x)


# -- inverse Legendre gradient ---------------------------------------------------


# residual |grad g(x) - y| at which `legendre_inverse` stops
_NEWTON_TOL = 1e-12


def legendre_inverse(
    g,
    y,
    x0,
    max_iter: int = 50,
    domain: Optional[Callable[[np.ndarray], bool]] = None,
) -> np.ndarray:
    """Solve grad g(x) = y to _NEWTON_TOL by damped Newton (step halving).

    `domain` rejects iterates outside the admissible open set; failures to
    converge within the budget raise NewtonError.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y, dtype=float)
    for _ in range(max_iter):
        r = g.grad(x) - y
        rnorm = np.linalg.norm(r)
        if rnorm <= _NEWTON_TOL:
            return x
        step = np.linalg.solve(g.hess(x), r)
        alpha = 1.0
        while alpha > 2.0 ** -40:
            trial = x - alpha * step
            if domain is None or domain(trial):
                if np.linalg.norm(g.grad(trial) - y) < rnorm:
                    x = trial
                    break
            alpha *= 0.5
        else:
            raise NewtonError(
                f"damping exhausted at x={x.tolist()} with residual {rnorm:.3e}"
            )
    r = np.linalg.norm(g.grad(x) - y)
    if r <= _NEWTON_TOL:
        return x
    raise NewtonError(f"no convergence in {max_iter} iterations (residual {r:.3e})")


def _min_eigenvalues(hess: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in a stack, NaN where the
    matrix is not finite (eigvalsh would raise or return garbage there)."""
    finite = np.isfinite(hess).all(axis=(-2, -1))
    lows = np.full(finite.shape, np.nan)
    lows[finite] = np.linalg.eigvalsh(hess[finite]).min(axis=-1)
    return lows


class StrictConvexityReport(NamedTuple):
    ok: bool
    min_eigenvalue: float
    witness: tuple[float, ...]


def check_strict_convexity(
    phi: ConvexPotential, samples
) -> StrictConvexityReport:
    """Minimum Hessian eigenvalue of phi over the sample points; the witness
    is the point where it is attained.  A non-finite Hessian has minimum NaN,
    so the first such point is the witness."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    per_point = _min_eigenvalues(phi.hess(samples))
    idx = int(np.argmin(per_point))
    val = float(per_point[idx])
    return StrictConvexityReport(val > 0.0, val, _plain(samples[idx]))
