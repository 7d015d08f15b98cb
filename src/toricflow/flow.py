"""Toric Kahler structures deformed by imaginary-time Hamiltonian flow.

Model and conventions
---------------------
On the dense torus orbit we use action-angle coordinates (x, theta) with
symplectic form omega = sum_j dx_j ^ dtheta_j; x ranges over the interior of
the moment polytope P and equals the moment map.  A compatible complex
structure is encoded by a symplectic potential g on P (default: the Guillemin
potential g_P = (1/2) sum_k l_k log l_k), through the holomorphic coordinates

    w_j = exp(dg/dx_j + i theta_j),

and takes the Abreu block form J = [[0, -G^{-1}], [G, 0]] in the frame
(d/dx, d/dtheta), G = Hess g.  The flow generated by a strictly convex
Hamiltonian phi(x), continued to imaginary time t, simply adds t*phi to the
symplectic potential:

    g_t = g_0 + t*phi,   G_t = G_0 + t Hess phi,

which stays strictly convex for all t >= 0, so every J_t is an honest Kahler
structure for the same omega (a geodesic ray of toric metrics).

Gauge: the primitive beta = sum_j x_j dtheta_j of omega is fixed once and for
all; it pairs with the torus generators as beta(d/dtheta_j) = x_j and with the
Hamiltonian field X_phi = sum_j (dphi/dx_j) d/dtheta_j as

    beta(X_phi) = x . grad phi(x),

a function of x alone, hence annihilated by X_phi.  The invariant Kahler
potential is normalized by rho = 2 (x . grad g - g), i.e. rho(y) = 2 g*(y) in
Legendre-dual coordinates, which makes x = (1/2) grad_y rho and the frame
e^{-rho/2} sigma holomorphic (see sections.py).  Two exact identities anchor
everything:

    rho_t = rho_0 + 2 t f_0(x),          f_0(x) = x . grad phi - phi,
    rho_t = 2 (x . grad g_t - g_t)       (Legendre route);

`flowed_potentials` gives both along a t grid, and `potential-flow` reports
their residual.  Every time-t quantity is a function of (g_0, phi, t, x):
`metric_hessians` (G_t), `flowed_potentials`, `polarization_basis_t` and
`flow_map_psi_t`; the first two refuse t < 0.

Polarizations: the anti-holomorphic frame of J_t is spanned by the columns of
[ (1/2) G_t^{-1} ; (i/2) Id ]; as t grows these tilt into the pure angular
directions span{d/dtheta_j}, the involutive mixed limit on the open orbit.
Convergence is metrized by the largest principal angle between frames, which
has the closed form arctan(1 / min |eig G_t(x)|) (`limit_angle` of the
`metric_hessians` eigenvalues, as `polarization` computes it).  The generic
route, orthonormalized frames and an SVD (`subspace_angle`), is kept as its
independent reference in the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DomainError
from .polytopes import DelzantPolytope
from .potentials import ConvexPotential, _rate, legendre_inverse


class SymplecticPotential:
    """Guillemin potential of a polytope plus an optional smooth strictly
    convex correction.

    g(x) = (1/2) sum_k l_k(x) log l_k(x) + extra(x), with closed-form
    gradient (1/2) sum_k nu_k (log l_k + 1) and Hessian
    (1/2) sum_k nu_k nu_k^T / l_k.  Evaluations are restricted to the open
    interior l_k > 0.
    """

    def __init__(self, polytope: DelzantPolytope, extra: Optional[ConvexPotential] = None):
        self.polytope = polytope
        self.extra = extra
        self.dimension = polytope.dimension
        if extra is not None and extra.dimension != polytope.dimension:
            raise DimensionMismatch("extra potential dimension mismatch")

    def _facet_values(self, x) -> np.ndarray:
        l = self.polytope.facet_values(x)
        if l.min() <= 0.0:
            raise DomainError(
                "symplectic potential evaluated on or outside the boundary "
                f"(min facet value {l.min():.3e})"
            )
        return l

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        l = self._facet_values(x)
        out = 0.5 * np.sum(l * np.log(l), axis=-1)
        if self.extra is not None:
            out = out + self.extra.value(x)
        return out

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        l = self._facet_values(x)
        out = 0.5 * (np.log(l) + 1.0) @ self.polytope.normals
        if self.extra is not None:
            out = out + self.extra.grad(x)
        return out

    def hess(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        l = self._facet_values(x)
        A = self.polytope.normals
        out = 0.5 * np.einsum("...k,ki,kj->...ij", 1.0 / l, A, A)
        if self.extra is not None:
            out = out + self.extra.hess(x)
        return out


def _times(ts) -> np.ndarray:
    """The flow times `ts`, a scalar or a sequence, as floats; a negative
    time raises ValueError: g_t need not be convex there."""
    ts = np.asarray(ts, dtype=float)
    if (ts < 0).any():
        raise ValueError("flow time must be nonnegative")
    return ts


def flowed_potentials(g0: SymplecticPotential, phi: ConvexPotential, ts, x):
    """(g_t, rho_t = rho_0 + 2 t f_0, rho_t by the Legendre route) at x for each t
    of `ts`, with g_0 and phi evaluated once (f_0 from phi's value and gradient).
    A negative time raises ValueError (`_times`)."""
    _times(ts)
    g, dg, p, dp = g0.value(x), g0.grad(x), phi.value(x), phi.grad(x)
    rho0 = 2.0 * (np.einsum("...i,...i->...", x, dg) - g)
    f0 = _rate(x, np.zeros(phi.dimension), dp, p)
    for t in ts:
        yield g + t * p, rho0 + 2.0 * t * f0, _legendre_rho(x, g, dg, p, dp, t)


def _legendre_rho(x, g, dg, p, dp, t) -> np.ndarray:
    """rho_t = 2 (x . grad g_t - g_t) at x from the values g, p and gradients
    dg, dp of g_0 and phi there: the Legendre route to the Kahler potential."""
    return 2.0 * (np.einsum("...i,...i->...", x, dg + t * dp) - (g + t * p))


def metric_hessians(g0: SymplecticPotential, phi: ConvexPotential, t, x) -> np.ndarray:
    """G_t = Hess g_0(x) + t Hess phi(x), evaluating each Hessian once.

    A scalar t gives shape (..., n, n); times of shape (T,) give the stack
    (T, ..., n, n), bit for bit the per-t values.  A negative time raises
    ValueError (`_times`).
    """
    x = np.asarray(x, dtype=float)
    t = _times(t)
    return g0.hess(x) + t.reshape(t.shape + (1,) * (x.ndim + 1)) * phi.hess(x)


_COND_LIMIT = 1e12


def _checked_inverse(G: np.ndarray) -> np.ndarray:
    """G^{-1} over the leading batch axes, refusing any ill-conditioned G."""
    if (np.linalg.cond(G) > _COND_LIMIT).any():
        raise DomainError("metric Hessian is numerically singular at this point")
    return np.linalg.inv(G)


def complex_structure_of(G: np.ndarray) -> np.ndarray:
    """[[0, -G^{-1}], [G, 0]] for each G over the leading axes, with G^{-1}
    checked."""
    n = G.shape[-1]
    J = np.zeros(G.shape[:-2] + (2 * n, 2 * n))
    J[..., :n, n:] = -_checked_inverse(G)
    J[..., n:, :n] = G
    return J


def limit_angle(eigenvalues) -> np.ndarray:
    """Largest principal angle between the J_t frame and the limit frame,
    arctan(1 / min |eig G_t(x)|), from the eigenvalues of G_t over the last
    axis.

    The cosines of the principal angles between [ (1/2)G^{-1} ; (i/2)Id ] and
    [0 ; Id] are the singular values of (Id + G^{-2})^{-1/2}, i.e.
    |g| / sqrt(1 + g^2) over the eigenvalues g of the symmetric G.  Equals
    `subspace_angle(polarization_basis_t(g0, phi, t, x), mixed_polarization_basis(n))`
    without losing accuracy at small angles.
    """
    return np.arctan2(1.0, np.abs(eigenvalues).min(-1))


def polarization_basis_t(g0: SymplecticPotential, phi: ConvexPotential, t, x) -> np.ndarray:
    """Anti-holomorphic frame of J_t, columns [ (1/2)G_t^{-1} ; (i/2)Id ]: shape
    (2n, n) at one point, (..., 2n, n) over the leading axes of x."""
    G = metric_hessians(g0, phi, t, x)
    top = 0.5 * np.linalg.inv(G)
    bottom = np.broadcast_to(0.5j * np.eye(G.shape[-1]), G.shape)
    return np.concatenate([top.astype(complex), bottom], axis=-2)


def mixed_polarization_basis(n: int) -> np.ndarray:
    """The limiting frame on the orbit: pure angular directions [0 ; Id]."""
    return np.vstack([np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)])


def subspace_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of A and B:
    orthonormalize both frames and read the angles off the singular values
    of the cross-Gram matrix; zero exactly when the spans coincide.  No CLI
    run calls it; it stays, with its scipy import, for the tests and perfbench."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.shape[0] != B.shape[0]:
        raise DimensionMismatch("frames live in different ambient dimensions")
    import scipy.linalg

    Qa = scipy.linalg.orth(A)
    Qb = scipy.linalg.orth(B)
    if Qa.shape[1] != A.shape[1] or Qb.shape[1] != B.shape[1]:
        raise ValueError("rank-deficient polarization frame")
    if Qa.shape[1] != Qb.shape[1]:
        raise DimensionMismatch("frames have different ranks")
    s = scipy.linalg.svd(Qa.conj().T @ Qb, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    return float(np.arccos(s.min()))


# -- the biholomorphism psi_t -----------------------------------------------------


def flow_map_psi_t(g0: SymplecticPotential, phi: ConvexPotential, t, x) -> np.ndarray:
    """Action coordinates of the image under the time-t biholomorphism of a
    point over x, read in time-zero holomorphic coordinates.

    The log-modulus coordinates move by y -> grad g_0(x) + t grad phi(x) while
    the angles are unchanged; the new action coordinates are recovered by
    inverting grad g_0 (damped Newton).  Consequently the J_t-coordinate of a
    point equals the J_0-coordinate of its image.
    """
    x = np.asarray(x, dtype=float)
    return legendre_inverse(g0, g0.grad(x) + t * phi.grad(x), x0=x, domain=g0.polytope.is_interior)


# -- decay of the polarization angle ----------------------------------------------


# log-log slopes are fitted over the trailing decade ts >= max(ts)/FIT_DECADE
FIT_DECADE = 10.0


def fit_window(ts) -> np.ndarray:
    """Mask of the trailing decade of ts that a log-log slope is fitted over;
    raises ValueError unless it holds two times."""
    ts = np.asarray(ts, dtype=float)
    if ts.size < 2:
        raise ValueError(f"a log-log fit needs at least two times, got {ts.size}")
    mask = ts >= ts.max() / FIT_DECADE
    if mask.sum() < 2:
        raise ValueError("not enough points in the fitting window")
    return mask


def fit_loglog_slope(ts, values):
    """Least-squares slope of log(values) vs log(ts) over fit_window(ts).
    Values of shape (len(ts), k) hold k curves, one per column, and give an
    array of k slopes."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = fit_window(ts)
    slope = np.polyfit(np.log(ts[mask]), np.log(values[mask]), 1)[0]
    return float(slope) if slope.ndim == 0 else slope
