"""Weight sections of the invariant prequantum bundle and their flow.

Gauge model.  On the dense orbit the bundle is trivialized by a unitary
invariant frame sigma with nabla sigma = -i beta sigma in the fixed gauge
beta = sum_j x_j dtheta_j, |sigma|_h = 1.  The holomorphic frame at time t is
e^{-rho_t/2} sigma with rho_t = 2 (x . grad g_t - g_t); a weight-lam
holomorphic section at time t is the monomial section

    s_{lam,t} = (w^t)^lam e^{-rho_t/2} sigma,
    |s_{lam,t}|_h = e^{-A_{lam,t}(x)},
    A_{lam,t}(x) = (x - lam) . grad g_t(x) - g_t(x) = F_{lam,0}(x) + t f_lam(x).

Sections are stored as (weight, time) against the model data (g_0, phi), not
as mesh values: the torus direction is exactly diagonalized and every
identity closes on the polytope.

The exponential of the quantum operator  phihat s = -i nabla_{X_phi} s + phi s
acts diagonally on weights: e^{t phihat} s_{lam,0} = e^{-t f_lam(mu)} s_{lam,0}
(multiplier route).  The same flow computed geometrically, by pulling the
monomial back along the time-t biholomorphism and multiplying by the flowed
frame (pullback route), must agree pointwise; so must the two local
representatives of a flowed section on the two invariant charts of a segment
model (gluing), and the bundle-lifted flow acting on equivariant functions
(lift).  These cross-checks, together with the Kostant eigenvalue
(nabla_{xi#} + i mu^xi) s = i lam(xi) s and the numerically verified
holomorphicity of e^{-rho_t/2} sigma, pin every sign convention in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AliasingError, DimensionMismatch, DomainError
from .flow import KahlerFlowState, SymplecticPotential, beta_of_hamiltonian_field
from .polytopes import DelzantPolytope
from .potentials import ConvexPotential, ReflectedPotential, concentration_rate
from .quadrature import QuadratureSpec, integrate

_TINY = 1e-300


@dataclass(frozen=True)
class WeightSection:
    """A weight-lam holomorphic section, represented by its lattice point and
    its time-t gauge amplitude on the polytope."""

    weight: tuple[int, ...]
    g0: SymplecticPotential
    phi: ConvexPotential
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weight", tuple(int(v) for v in self.weight))
        if len(self.weight) != self.g0.dimension:
            raise DimensionMismatch("weight dimension does not match the model")
        if self.t < 0:
            raise ValueError("flow time must be nonnegative")
        if not self.g0.polytope.contains(self.lam).inside:
            raise DomainError(f"weight {self.weight} lies outside the moment polytope")

    @property
    def lam(self) -> np.ndarray:
        return np.asarray(self.weight, dtype=float)

    @property
    def polytope(self) -> DelzantPolytope:
        return self.g0.polytope

    # -- amplitude fields ---------------------------------------------------

    def base_amplitude(self, x) -> np.ndarray:
        """F_{lam,0}(x) = (x - lam) . grad g_0(x) - g_0(x) (interior only)."""
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,...i->...", x - self.lam, self.g0.grad(x)) - self.g0.value(x)

    def amplitude_log(self, x) -> np.ndarray:
        """A_{lam,t}(x) = F_{lam,0}(x) + t f_lam(x)."""
        return self.base_amplitude(x) + self.t * concentration_rate(self.phi, self.lam, x)

    def _log_modulus(self, x) -> np.ndarray:
        """log of the sigma-frame representative modulus, -A_{lam,t}(x)."""
        return -self.amplitude_log(x)

    def density(self, x) -> np.ndarray:
        """Pointwise squared h-norm e^{-2 A_{lam,t}}, extended continuously
        to the boundary.

        The Guillemin part is evaluated through the closed product
        e^{-2 F} = exp(sum_k [l_k(lam) - l_k(x)]) prod_k l_k(x)^{l_k(lam)},
        which is finite and continuous up to l_k = 0.
        """
        x = np.asarray(x, dtype=float)
        poly = self.polytope
        lx = poly.facet_values(x)
        if lx.min() < -1e-12:
            raise DomainError("density requested outside the closed polytope")
        lx = np.maximum(lx, 0.0)
        llam = poly.facet_values(self.lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pow = np.where(llam > 0.0, llam * np.log(np.maximum(lx, _TINY)), 0.0)
        exponent = np.sum(llam - lx + log_pow, axis=-1)
        out = np.exp(exponent)
        if self.g0.extra is not None:
            e = self.g0.extra
            extra_amp = (
                np.einsum("...i,...i->...", x - self.lam, e.grad(x)) - e.value(x)
            )
            out = out * np.exp(-2.0 * extra_amp)
        return out * np.exp(-2.0 * self.t * concentration_rate(self.phi, self.lam, x))

    # -- local representatives ------------------------------------------------

    def sigma_representative(self, x, theta) -> np.ndarray:
        """Complex representative against the unitary frame sigma at angles
        theta: exp(lam . grad g_0 + i lam . theta - rho_0/2 - t f_lam)."""
        theta = np.asarray(theta, dtype=float)
        return np.exp(self._log_modulus(np.asarray(x, dtype=float)) + 1j * (theta @ self.lam))

    def holomorphic_representative(self, x, theta) -> np.ndarray:
        """Representative against the time-zero holomorphic frame
        e^{-rho_0/2} sigma: the monomial w^lam times e^{-t f_lam}."""
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        log_mod = np.einsum("...i,...i->...", np.broadcast_to(self.lam, x.shape), self.g0.grad(x))
        log_mod = log_mod - self.t * concentration_rate(self.phi, self.lam, x)
        return np.exp(log_mod + 1j * (theta @ self.lam))


class PullbackWeightSection(WeightSection):
    """The geometric route: pull the monomial back along the biholomorphism
    and multiply by the flowed holomorphic frame.

    Representatives are computed as (psi_t^* w^lam) e^{-rho_t/2} sigma with
    rho_t obtained through the Legendre route, fully independently of the
    multiplier formula of the base class.
    """

    def _log_modulus(self, x):
        x = np.asarray(x, dtype=float)
        state = KahlerFlowState(self.g0, self.phi, self.t)
        pullback = self.t * (self.phi.grad(x) @ self.lam)
        monomial = np.einsum("...i,...i->...", np.broadcast_to(self.lam, x.shape), self.g0.grad(x))
        return pullback + monomial - 0.5 * state.kahler_potential_legendre(x)

    def amplitude_log(self, x):
        return -self._log_modulus(x)


def flow_section(s: WeightSection, t: float) -> WeightSection:
    """Multiplier route: advance the section time, i.e. multiply the
    amplitude by e^{-t f_lam}.  Exact semigroup."""
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    return WeightSection(s.weight, s.g0, s.phi, s.t + t)


def flow_section_pullback(s0: WeightSection, t: float) -> PullbackWeightSection:
    """Geometric route from a time-zero section; must agree with
    flow_section pointwise."""
    if s0.t != 0.0:
        raise ValueError("the pullback route starts from a time-zero section")
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    return PullbackWeightSection(s0.weight, s0.g0, s0.phi, t)


def route_equality_residual(s0: WeightSection, t: float, xs, thetas) -> float:
    """Max relative deviation between the multiplier and pullback routes
    over the given sample points and angles."""
    a = flow_section(s0, t)
    b = flow_section_pullback(s0, t)
    ua = a.sigma_representative(xs, thetas)
    ub = b.sigma_representative(xs, thetas)
    return float(np.max(np.abs(ua - ub) / np.abs(ua)))


# -- grid section fields and the quantum operator ---------------------------------


@dataclass
class GridSectionField:
    """A section field sampled on (x points) x (uniform theta grid), stored
    as sigma-frame values of shape (m,) + (n_theta,)*n."""

    xs: np.ndarray
    n_theta: int
    values: np.ndarray

    def __post_init__(self):
        self.xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        expected = (self.xs.shape[0],) + (self.n_theta,) * self.dimension
        if self.values.shape != expected:
            raise DimensionMismatch(
                f"field values have shape {self.values.shape}, expected {expected}"
            )

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    def theta_derivative(self, axis: int) -> "GridSectionField":
        """Spectral d/dtheta_axis; exact for bandlimited fields."""
        ax = 1 + axis
        freqs = np.fft.fftfreq(self.n_theta) * self.n_theta
        shape = [1] * self.values.ndim
        shape[ax] = self.n_theta
        hat = np.fft.fft(self.values, axis=ax)
        return GridSectionField(
            self.xs, self.n_theta, np.fft.ifft(1j * freqs.reshape(shape) * hat, axis=ax)
        )

    def __add__(self, other: "GridSectionField") -> "GridSectionField":
        if other.n_theta != self.n_theta or other.xs.shape != self.xs.shape:
            raise DimensionMismatch("incompatible grid fields")
        return GridSectionField(self.xs, self.n_theta, self.values + other.values)

    def __rmul__(self, scalar) -> "GridSectionField":
        return GridSectionField(self.xs, self.n_theta, scalar * self.values)

    def scale_by_x_function(self, factors: np.ndarray) -> "GridSectionField":
        """Multiply by a function of x (broadcast over the angular axes)."""
        shape = (len(factors),) + (1,) * self.dimension
        return GridSectionField(self.xs, self.n_theta, self.values * factors.reshape(shape))


def evaluate_on_grid(
    sections: Sequence[WeightSection], xs, n_theta: int
) -> GridSectionField:
    """Synthesize the sum of weight sections as a grid field."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    values = np.zeros((m,) + (n_theta,) * n, dtype=complex)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    for s in sections:
        if s.g0.dimension != n:
            raise DimensionMismatch("section dimension mismatch")
        amp = np.exp(s._log_modulus(xs)).astype(complex)
        term = amp.reshape((m,) + (1,) * n)
        for j in range(n):
            phase = np.exp(1j * s.weight[j] * thetas)
            shape = [1] * (1 + n)
            shape[1 + j] = n_theta
            term = term * phase.reshape(shape)
        values = values + term
    return GridSectionField(xs, n_theta, values)


def quantum_operator(field: GridSectionField, phi: ConvexPotential) -> GridSectionField:
    """One application of the quantum operator to a sigma-frame field:

        phihat (u sigma) = [ -i X_phi u - beta(X_phi) u + phi u ] sigma,

    with X_phi u = sum_j (dphi/dx_j) du/dtheta_j evaluated spectrally.
    On a weight-lam section this is multiplication by -f_lam(x).
    """
    xs = field.xs
    n = field.dimension
    grads = phi.grad(xs)  # (m, n)
    out = np.zeros_like(field.values)
    for j in range(n):
        dj = field.theta_derivative(j).values
        out = out + (-1j) * grads[:, j].reshape((-1,) + (1,) * n) * dj
    beta_pairing = beta_of_hamiltonian_field(phi, xs)
    shape = (-1,) + (1,) * n
    out = out - beta_pairing.reshape(shape) * field.values
    out = out + phi.value(xs).reshape(shape) * field.values
    return GridSectionField(xs, field.n_theta, out)


def apply_flow_truncated(
    field: GridSectionField, phi: ConvexPotential, t: float, order: int
) -> GridSectionField:
    """Partial sum sum_{k<=order} (t phihat)^k / k! applied to the field;
    used to spot-check that the series collapses to the closed multiplier."""
    total = GridSectionField(field.xs, field.n_theta, field.values.copy())
    term = field
    fact = 1.0
    for k in range(1, order + 1):
        term = quantum_operator(term, phi)
        fact *= k
        total = total + (t**k / fact) * term
    return total


# -- Kostant operator --------------------------------------------------------------


class KostantCheck(NamedTuple):
    expected_eigenvalue: complex
    measured_eigenvalue: complex
    residual: float


def kostant_operator(
    xi, s: WeightSection, xs, n_theta: Optional[int] = None
) -> KostantCheck:
    """Check that (nabla_{xi#} + i mu^xi) acts on the weight-lam section as
    multiplication by i lam(xi).

    In the gauge beta = sum x_j dtheta_j the connection term is
    -i beta(xi#) = -i x.xi = -i mu^xi, so it cancels the moment term
    identically and the operator is the angular derivative xi.d/dtheta,
    taken spectrally on a theta grid.  The check fails when the grid aliases
    the weight (2 max|lam_j| >= n_theta).
    """
    xi = np.asarray(xi, dtype=float)
    n = s.g0.dimension
    if xi.shape != (n,):
        raise DimensionMismatch("Lie-algebra vector has the wrong dimension")
    if n_theta is None:
        n_theta = max(8, 2 * max(abs(w) for w in s.weight) + 2)
    field = evaluate_on_grid([s], xs, n_theta)
    op = np.zeros_like(field.values)
    for j in range(n):
        op = op + xi[j] * field.theta_derivative(j).values
    expected = 1j * complex(s.lam @ xi)
    scale = np.max(np.abs(field.values))
    residual = float(np.max(np.abs(op - expected * field.values)) / scale)
    weights = np.abs(field.values) ** 2
    measured = complex(np.sum(op * np.conj(field.values)) / np.sum(weights))
    return KostantCheck(expected, measured, residual)


# -- weight decomposition -----------------------------------------------------------


def weight_decompose(
    field: GridSectionField,
    expected: Optional[Sequence[Sequence[int]]] = None,
    amplitude_tol: float = 1e-12,
) -> dict[tuple[int, ...], np.ndarray]:
    """Recover the weight components of a grid field by angular Fourier
    analysis: u = sum_lam c_lam(x) e^{i lam.theta}.

    Returns a map lam -> c_lam over the x samples.  Raises AliasingError when
    the theta grid cannot separate the expected weights (congruent modulo the
    grid size).
    """
    N = field.n_theta
    n = field.dimension
    if expected is not None:
        exp_list = [tuple(int(v) for v in lam) for lam in expected]
        for i in range(len(exp_list)):
            for j in range(i + 1, len(exp_list)):
                if all((a - b) % N == 0 for a, b in zip(exp_list[i], exp_list[j])):
                    raise AliasingError(
                        f"weights {exp_list[i]} and {exp_list[j]} alias on a "
                        f"theta grid of {N} points"
                    )
        if any(2 * abs(v) >= N for lam in exp_list for v in lam):
            raise AliasingError(
                f"theta grid of {N} points is too coarse for weights {exp_list}"
            )
    axes = tuple(range(1, 1 + n))
    coeffs = np.fft.fftn(field.values, axes=axes) / N**n
    freqs = (np.fft.fftfreq(N) * N).astype(int)
    out: dict[tuple[int, ...], np.ndarray] = {}
    peak = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if peak == 0.0:
        return out
    flat = np.moveaxis(coeffs, 0, -1).reshape((-1, coeffs.shape[0]))
    for flat_idx, profile in enumerate(flat):
        if np.max(np.abs(profile)) <= amplitude_tol * peak:
            continue
        idx = np.unravel_index(flat_idx, (N,) * n)
        lam = tuple(int(freqs[i]) for i in idx)
        out[lam] = profile
    return dict(sorted(out.items()))


def flow_components(
    components: dict[tuple[int, ...], np.ndarray],
    xs,
    phi: ConvexPotential,
    t: float,
) -> dict[tuple[int, ...], np.ndarray]:
    """Flow each weight component by its diagonal multiplier e^{-t f_lam}."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    return {
        lam: c * np.exp(-t * concentration_rate(phi, np.asarray(lam, dtype=float), xs))
        for lam, c in components.items()
    }


# -- norms ---------------------------------------------------------------------------


def torus_volume(n: int, constant: float = 2.0 * np.pi) -> float:
    """Angular volume of the fiber torus, (2 pi)^n by default."""
    return float(constant**n)


def section_norm_sq(
    s: WeightSection,
    spec: QuadratureSpec = QuadratureSpec(),
    torus_constant: float = 2.0 * np.pi,
) -> float:
    """L^2 norm squared: (2 pi)^n int_P e^{-2 A_{lam,t}} dx.

    The torus direction integrates exactly to (2 pi)^n; the polytope factor
    goes through the clipped midpoint quadrature on the uniform grid.
    """
    poly = s.polytope
    value, _ = integrate(s.density, poly, spec)
    return torus_volume(poly.dimension, torus_constant) * value


# -- two-chart gluing on a segment model ----------------------------------------------


class GluingCheck(NamedTuple):
    residual: float
    segment_length: int
    corrupted: bool


def _segment_length(poly: DelzantPolytope) -> int:
    if poly.dimension != 1:
        raise DomainError("the two-chart model is defined for segments only")
    verts = poly.vertices().ravel()
    if len(verts) != 2 or abs(verts[0]) > 1e-9:
        raise DomainError("the two-chart model needs the standard segment [0, a]")
    a = verts[1]
    if abs(a - round(a)) > 1e-9 or round(a) < 1:
        raise DomainError(
            "the transition e^{i a theta} is single-valued only for integer "
            f"segment length; got {a}"
        )
    return int(round(a))


def gluing_check_cp1(
    s: WeightSection,
    t: float,
    xs=None,
    n_theta: int = 8,
    margin: float = 0.05,
    corrupt: bool = False,
) -> GluingCheck:
    """Compare the chart-U and chart-V representatives of the flowed section
    on the overlap of the two invariant charts of the segment [0, a].

    Chart V carries the reflected data x' = a - x, theta' = -theta, weight
    a - lam, reflected potentials; the transition is sigma_U = sigma_V
    e^{-i a theta}, so the representatives must satisfy
    g^U = e^{i a theta} g^V.  `corrupt` flips the transition sign (negative
    control).
    """
    poly = s.polytope
    a = _segment_length(poly)
    lam = float(s.lam[0])
    lam_v = a - lam
    if s.t != 0.0:
        raise ValueError("gluing check starts from a time-zero section")

    if xs is None:
        xs = np.linspace(margin, a - margin, 13).reshape(-1, 1)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta

    g0 = s.g0
    phi = s.phi
    center = np.array([float(a)])
    g0_v = ReflectedPotential(g0, center)
    phi_v = ReflectedPotential(phi, center)

    x = xs[:, 0][:, None]                      # (m, 1) action coordinate
    th = thetas[None, :]                       # (1, K)

    y_u = g0.grad(xs)[:, 0][:, None]
    rho0_u = 2.0 * (xs[:, 0] * g0.grad(xs)[:, 0] - g0.value(xs))[:, None]
    f_u = concentration_rate(phi, np.array([lam]), xs)[:, None]
    u_chart = np.exp(lam * y_u + 1j * lam * th - t * f_u - 0.5 * rho0_u)

    xs_v = center - xs                          # x' = a - x
    y_v = g0_v.grad(xs_v)[:, 0][:, None]
    rho0_v = 2.0 * (xs_v[:, 0] * g0_v.grad(xs_v)[:, 0] - g0_v.value(xs_v))[:, None]
    f_v = concentration_rate(phi_v, np.array([lam_v]), xs_v)[:, None]
    v_chart = np.exp(lam_v * y_v - 1j * lam_v * th - t * f_v - 0.5 * rho0_v)

    sign = -1.0 if corrupt else 1.0
    transition = np.exp(sign * 1j * a * th)
    residual = float(np.max(np.abs(u_chart - transition * v_chart) / np.abs(u_chart)))
    return GluingCheck(residual, a, corrupt)


# -- bundle lift -------------------------------------------------------------------


def lift_scale(phi: ConvexPotential, x, t: float) -> np.ndarray:
    """Fiber scale of the lifted flow acting on equivariant functions:
    e^{t (phi - beta(X_phi))} = e^{-t f_0(x)}."""
    x = np.asarray(x, dtype=float)
    zero = np.zeros(phi.dimension)
    return np.exp(-t * concentration_rate(phi, zero, x))


class LiftCheck(NamedTuple):
    residual: float
    samples: int


def lift_section_consistency(
    s0: WeightSection,
    t: float,
    xs,
    thetas,
    zetas=None,
) -> LiftCheck:
    """Flow the bundle point (base by the biholomorphism, equivariant fiber
    coordinate by lift_scale) and evaluate the time-zero equivariant function
    there; compare against the equivariant function of the flowed section at
    the original point.

    Both sides reduce to e^{-t f_lam} times the original value; the left side
    assembles it from the pullback factor e^{t lam.grad phi} and the fiber
    scale e^{-t f_0}, the right side from the diagonal multiplier.
    """
    if s0.t != 0.0:
        raise ValueError("lift check starts from a time-zero section")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if zetas is None:
        zetas = np.ones(xs.shape[0], dtype=complex)
    zetas = np.asarray(zetas, dtype=complex)

    lam = s0.lam
    g0, phi = s0.g0, s0.phi
    phase = np.exp(1j * (thetas @ lam))

    y_flowed = g0.grad(xs) + t * phi.grad(xs)
    lhs = np.exp(y_flowed @ lam) * phase * lift_scale(phi, xs, t) * zetas

    rhs = (
        np.exp(g0.grad(xs) @ lam - t * concentration_rate(phi, lam, xs))
        * phase
        * zetas
    )
    residual = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    return LiftCheck(residual, xs.shape[0])


# -- frame holomorphicity (finite differences) ----------------------------------------


def frame_holomorphicity_residual(
    g0: SymplecticPotential,
    phi: ConvexPotential,
    t: float,
    points,
    spacing: float = 1e-3,
) -> float:
    """Finite-difference anti-holomorphic covariant derivative of the frame
    e^{-rho_t/2} sigma, maximized over points and directions.

    The anti-holomorphic directions of J_t are (1/2)[sum_k (G_t^{-1})_{kj}
    d/dx_k + i d/dtheta_j]; on the invariant frame the covariant derivative is

        (1/2)(G_t^{-1} grad u)_j + (i/2) du/dtheta_j + (x_j/2) u,

    with u = e^{-rho_t/2}.  Gradients are taken by fourth-order central
    differences at the given spacing (the direction field itself uses the
    analytic Hessian); the residual is relative to |u|.
    """
    state = KahlerFlowState(g0, phi, t)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    h = spacing
    worst = 0.0
    for x in pts:
        u0 = np.exp(-0.5 * state.kahler_potential_legendre(x))
        G = state.metric_hessian(x)
        Ginv = np.linalg.inv(G)
        grad_fd = np.zeros(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            vals = [
                np.exp(-0.5 * state.kahler_potential_legendre(x + m * e))
                for m in (-2, -1, 1, 2)
            ]
            grad_fd[k] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        # the frame is torus-invariant, so the (i/2) du/dtheta term vanishes
        coeff = 0.5 * (Ginv @ grad_fd) + 0.5 * x * u0
        worst = max(worst, float(np.max(np.abs(coeff)) / u0))
    return worst
