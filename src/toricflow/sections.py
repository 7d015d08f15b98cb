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
identity closes on the polytope.  A field that must be sampled (quantum
operator, weight decomposition) is a plain complex array of sigma-frame values
of shape (m,) + (n_theta,)*n, passed with the (m, n) points xs it samples.

The exponential of the quantum operator  phihat s = -i nabla_{X_phi} s + phi s
acts diagonally on weights: e^{t phihat} s_{lam,0} = e^{-t f_lam(mu)} s_{lam,0}
(multiplier route, `WeightSection.amplitude_log`).  The same flow computed
geometrically, by pulling the monomial back along the time-t biholomorphism
and multiplying by the flowed frame (pullback route,
`pullback_amplitude_log`), must agree pointwise; so must the two local
representatives of a flowed section on the two invariant charts of a segment
model (gluing, both charts evaluated by `WeightSection.sigma_representative`),
and the bundle-lifted flow acting on equivariant functions (lift).  These
cross-checks, together with the Kostant eigenvalue (nabla_{xi#} + i mu^xi) s
= i lam(xi) s and the numerically verified holomorphicity of
e^{-rho_t/2} sigma, pin every sign convention in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AliasingError, DimensionMismatch, DomainError, QuadratureOverflow
from .flow import KahlerFlowState, SymplecticPotential, beta_of_hamiltonian_field
from .polytopes import DelzantPolytope, _matmul_columns
from .potentials import ConvexPotential, ReflectedPotential, concentration_rate
from .quadrature import QuadratureSpec, integrate_many

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
        if not all(float(v).is_integer() for v in self.weight):
            raise DomainError(f"weight {self.weight} is not a lattice point")
        object.__setattr__(self, "weight", tuple(int(v) for v in self.weight))
        if len(self.weight) != self.g0.dimension:
            raise DimensionMismatch("weight dimension does not match the model")
        if self.t < 0:
            raise ValueError("flow time must be nonnegative")
        if not self.g0.polytope.contains(self.lam):
            raise DomainError(f"weight {self.weight} lies outside the moment polytope")

    @property
    def lam(self) -> np.ndarray:
        return np.asarray(self.weight, dtype=float)

    @property
    def polytope(self) -> DelzantPolytope:
        return self.g0.polytope

    # -- amplitude fields ---------------------------------------------------

    def amplitude_log(self, x) -> np.ndarray:
        """A_{lam,t}(x) = F_{lam,0}(x) + t f_lam(x), with F_{lam,0} the
        concentration rate of g_0 (interior only)."""
        return concentration_rate(self.g0, self.lam, x) + self.t * concentration_rate(
            self.phi, self.lam, x
        )

    # -- local representatives ------------------------------------------------

    def sigma_representative(self, x, theta) -> np.ndarray:
        """Complex representative against the unitary frame sigma at angles
        theta: exp(-A_{lam,t}(x) + i lam . theta)."""
        theta = np.asarray(theta, dtype=float)
        return np.exp(-self.amplitude_log(np.asarray(x, dtype=float)) + 1j * (theta @ self.lam))


def flow_section(s: WeightSection, t: float) -> WeightSection:
    """Multiplier route: advance the section time, i.e. multiply the
    amplitude by e^{-t f_lam}.  Exact semigroup."""
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    return WeightSection(s.weight, s.g0, s.phi, s.t + t)


def pullback_amplitude_log(s0: WeightSection, t: float, x) -> np.ndarray:
    """A_{lam,t}(x) by the geometric route from a time-zero section: pull the
    monomial w^lam back along the biholomorphism and multiply by the flowed
    frame e^{-rho_t/2}, with rho_t from the Legendre route.  Shares no step
    with the multiplier formula of `WeightSection.amplitude_log`."""
    if s0.t != 0.0:
        raise ValueError("the pullback route starts from a time-zero section")
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    x = np.asarray(x, dtype=float)
    state = KahlerFlowState(s0.g0, s0.phi, t)
    pullback = t * (s0.phi.grad(x) @ s0.lam)
    monomial = np.einsum("...i,...i->...", np.broadcast_to(s0.lam, x.shape), s0.g0.grad(x))
    return 0.5 * state.kahler_potential_legendre(x) - (pullback + monomial)


def route_equality_residual(s0: WeightSection, t: float, xs) -> float:
    """Max relative deviation |e^{-A_pull} / e^{-A_mult} - 1| between the
    multiplier and pullback routes over the given sample points, from the
    log amplitudes, so it stays finite where both amplitudes underflow.  The
    phase e^{i lam.theta} is the same factor on both routes and cancels."""
    diff = flow_section(s0, t).amplitude_log(xs) - pullback_amplitude_log(s0, t, xs)
    return float(np.max(np.abs(np.expm1(diff))))


# -- sampled fields and the quantum operator ---------------------------------------


def _theta_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """Spectral d/dtheta_axis of a sampled field; exact for bandlimited fields."""
    ax = 1 + axis
    n_theta = values.shape[ax]
    freqs = np.fft.fftfreq(n_theta) * n_theta
    shape = [1] * values.ndim
    shape[ax] = n_theta
    hat = np.fft.fft(values, axis=ax)
    return np.fft.ifft(1j * freqs.reshape(shape) * hat, axis=ax)


def evaluate_on_grid(sections: Sequence[WeightSection], xs, n_theta: int) -> np.ndarray:
    """Synthesize the sum of weight sections as a sampled field: sigma-frame
    values of shape (m,) + (n_theta,)*n at the m points xs and the uniform
    angles 2 pi k / n_theta on every axis."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, n = xs.shape
    values = np.zeros((m,) + (n_theta,) * n, dtype=complex)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    for s in sections:
        if s.g0.dimension != n:
            raise DimensionMismatch("section dimension mismatch")
        amp = np.exp(-s.amplitude_log(xs)).astype(complex)
        term = amp.reshape((m,) + (1,) * n)
        for j in range(n):
            phase = np.exp(1j * s.weight[j] * thetas)
            shape = [1] * (1 + n)
            shape[1 + j] = n_theta
            term = term * phase.reshape(shape)
        values = values + term
    return values


def quantum_operator(values: np.ndarray, xs, phi: ConvexPotential) -> np.ndarray:
    """One application of the quantum operator to a sampled sigma-frame field
    u at the points xs:

        phihat (u sigma) = [ -i X_phi u - beta(X_phi) u + phi u ] sigma,

    with X_phi u = sum_j (dphi/dx_j) du/dtheta_j evaluated spectrally.
    On a weight-lam section this is multiplication by -f_lam(x).  Raises
    DimensionMismatch unless values has one row per point and one angle axis
    per dimension.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[1]
    if len(values) != len(xs) or values.ndim != 1 + n:
        raise DimensionMismatch(f"field of shape {values.shape} does not sample {xs.shape} points")
    grads = phi.grad(xs)  # (m, n)
    shape = (-1,) + (1,) * n
    out = np.zeros_like(values)
    for j in range(n):
        out = out + (-1j) * grads[:, j].reshape(shape) * _theta_derivative(values, j)
    out = out - beta_of_hamiltonian_field(phi, xs).reshape(shape) * values
    return out + phi.value(xs).reshape(shape) * values


def apply_flow_truncated(
    values: np.ndarray, xs, phi: ConvexPotential, t: float, order: int
) -> np.ndarray:
    """Partial sum sum_{k<=order} (t phihat)^k / k! applied to a sampled field;
    used to spot-check that the series collapses to the closed multiplier."""
    total = values
    term = values
    fact = 1.0
    for k in range(1, order + 1):
        term = quantum_operator(term, xs, phi)
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
    values = evaluate_on_grid([s], xs, n_theta)
    op = np.zeros_like(values)
    for j in range(n):
        op = op + xi[j] * _theta_derivative(values, j)
    expected = 1j * complex(s.lam @ xi)
    scale = np.max(np.abs(values))
    residual = float(np.max(np.abs(op - expected * values)) / scale)
    weights = np.abs(values) ** 2
    measured = complex(np.sum(op * np.conj(values)) / np.sum(weights))
    return KostantCheck(expected, measured, residual)


# -- weight decomposition -----------------------------------------------------------


def weight_decompose(
    values: np.ndarray,
    expected: Optional[Sequence[Sequence[int]]] = None,
) -> dict[tuple[int, ...], np.ndarray]:
    """Recover the weight components of a sampled field of shape
    (m,) + (N,)*n by angular Fourier analysis: u = sum_lam c_lam(x) e^{i lam.theta}.

    Returns a map lam -> c_lam over the x samples, without the components
    below 1e-12 times the largest amplitude.  Raises AliasingError when
    the theta grid cannot separate the expected weights (congruent modulo the
    grid size).
    """
    N = values.shape[1]
    n = values.ndim - 1
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
    coeffs = np.fft.fftn(values, axes=axes) / N**n
    freqs = (np.fft.fftfreq(N) * N).astype(int)
    out: dict[tuple[int, ...], np.ndarray] = {}
    peak = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if peak == 0.0:
        return out
    flat = np.moveaxis(coeffs, 0, -1).reshape((-1, coeffs.shape[0]))
    for flat_idx, profile in enumerate(flat):
        if np.max(np.abs(profile)) <= 1e-12 * peak:
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


def torus_volume(n: int) -> float:
    """Angular volume (2 pi)^n of the fiber torus."""
    return float((2.0 * np.pi) ** n)


def _laplace_integrand(phi: ConvexPotential, lams, ts, g0: Optional[SymplecticPotential] = None,
                       fs: Sequence = ()):
    """x -> (m, K (1 + len(fs))) peak-scaled Laplace densities and their
    moments for (m, n) points of the closed polytope, and the K log-peaks
    they are scaled by.

    Column j is the section density e^{-2 A_{lam_j,t_j}} of g0 and phi, or
    without g0 the `converge` density e^{-t_j f_{lam_j}} of phi alone.  The
    Guillemin part goes through the closed product
    e^{-2 F} = exp(sum_k [l_k(lam) - l_k(x)]) prod_k l_k(x)^{l_k(lam)}, which
    is finite and continuous up to l_k = 0.  So log e^{-2 A_{lam,t}} is affine
    in the features [log l_k(x), sum_k l_k(x), x.grad phi - phi, grad phi]
    with coefficients [l_k(lam), -1, -2t, 2t lam] and constant
    sum_k l_k(lam); a smooth part e of g_0 adds the features
    [x.grad e - e, grad e] with coefficients [-2, 2 lam], and -t f_lam has
    the coefficients [-t, t lam] on the phi features alone.  Each constant
    then subtracts the column's exact log-peak, the maximum of its
    log-density over P: 2 g_t(lam), with 0 log 0 = 0, for a section
    (A_{lam,t} >= -g_t(lam) by convexity of g_t), and t phi(lam) for
    `converge`.  So no density exceeds 1, and every density is one column
    of a single product and one exponential, followed by its moments
    density * f_i.  A block writes the features into the columns of one
    column-major matrix with `out=` and calls each potential's grad and
    value, and each f_i, once; sum_k l_k adds in facet order, as
    `sum(axis=1)` does below 8 facets.
    """
    lams, ts = np.asarray(lams, dtype=float), np.asarray(ts, dtype=float)
    log_peaks = ts * phi.value(lams)
    pots, n_facets = [phi], 0
    if g0 is None:
        rows, const = [-ts, ts * lams.T], -log_peaks
    else:
        poly = g0.polytope
        llam = poly.facet_values(lams)
        rows = [llam.T, -np.ones_like(ts), -2.0 * ts, 2.0 * ts * lams.T]
        n_facets = llam.shape[1]
        log_peaks = (llam * np.log(np.where(llam > 0.0, llam, 1.0))).sum(axis=1) + 2.0 * log_peaks
        if g0.extra is not None:
            rows += [np.full_like(ts, -2.0), 2.0 * lams.T]
            log_peaks += 2.0 * g0.extra.value(lams)
            pots.append(g0.extra)
        const = llam.sum(axis=1) - log_peaks
    coeffs = np.vstack(rows)
    width = 1 + len(fs)

    def kernel(x: np.ndarray) -> np.ndarray:
        feats = np.empty((len(x), len(coeffs)), order="F")
        col = 0
        if g0 is not None:
            lx = poly.facet_values(x)
            if lx.min() < -1e-12:
                raise DomainError("density requested outside the closed polytope")
            np.maximum(lx, 0.0, out=lx)
            np.log(np.maximum(lx, _TINY, out=feats[:, :n_facets]), out=feats[:, :n_facets])
            feats[:, n_facets] = lx[:, 0]
            for k in range(1, n_facets):
                feats[:, n_facets] += lx[:, k]
            col = n_facets + 1
        for pot in pots:
            grad = pot.grad(x)
            np.einsum("ij,ij->i", x, grad, out=feats[:, col])
            feats[:, col] -= pot.value(x)
            feats[:, col + 1 : col + 1 + grad.shape[1]] = grad
            col += 1 + grad.shape[1]
        exponent = _matmul_columns(feats, coeffs)
        exponent += const
        # column-major, so every column is written in place, contiguously
        out = exponent if width == 1 else np.empty((len(x), len(ts) * width), order="F")
        density = np.exp(exponent, out=out[:, ::width])
        for j, f in enumerate(fs, start=1):
            np.multiply(density, f(x)[:, None], out=out[:, j::width])
        return out

    return kernel, log_peaks


def _laplace_moments(poly: DelzantPolytope, phi: ConvexPotential, lams, ts, spec: QuadratureSpec,
                     g0: Optional[SymplecticPotential] = None, fs: Sequence = ()):
    """Log-masses log int_P rho_j dx and moment ratios
    int_P rho_j f_i dx / int_P rho_j dx of the `_laplace_integrand`
    densities rho_j, from one `integrate_many` call.

    Density j and its moments form one quadrature group judged by its mass,
    so every column stops at the level a separate integration would stop
    at.  The log-masses add the log-peaks back, so they stay finite far
    beyond the float range of the masses themselves.  Raises
    QuadratureOverflow when a scaled mass is not positive, as when the peak
    is so narrow that the density underflows on every cell.
    """
    kernel, log_peaks = _laplace_integrand(phi, lams, ts, g0, fs)
    width = 1 + len(fs)
    results = integrate_many(kernel, len(log_peaks) * width, poly, spec, group=width)
    moments = np.array([r.value for r in results]).reshape(-1, width)
    for j, mass in enumerate(moments[:, 0]):
        if not mass > 0.0:
            raise QuadratureOverflow(
                f"density mass {mass} at t = {ts[j]:g}: the grid does not resolve "
                f"the peak of column {j} (weight {np.asarray(lams[j]).tolist()})"
            )
    return np.log(moments[:, 0]) + log_peaks, moments[:, 1:] / moments[:, :1]


def section_log_norms_sq(
    sections: Sequence[WeightSection],
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """log of the L^2 norms squared (2 pi)^n int_P e^{-2 A_{lam,t}} dx of
    sections that share one g_0 and one phi, in one pass over the grid.

    The torus direction integrates exactly to (2 pi)^n; the polytope factor
    goes through the midpoint quadrature on the uniform simplicial grid, and
    every norm is judged on its own, at the refinement level a separate
    integration would stop at.  Raises ValueError for sections of different
    models, and QuadratureOverflow when a density underflows on every grid
    cell.
    """
    g0, phi = sections[0].g0, sections[0].phi
    if any(s.g0 is not g0 or s.phi is not phi for s in sections):
        raise ValueError("batched sections must share one g0 and one phi")
    lams, ts = [s.lam for s in sections], [s.t for s in sections]
    log_masses, _ = _laplace_moments(g0.polytope, phi, lams, ts, spec, g0)
    return np.log(torus_volume(g0.dimension)) + log_masses


def section_norm_sq(
    s: WeightSection,
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """L^2 norm squared of one section, the exp of
    `section_log_norms_sq([s])[0]`.  Raises QuadratureOverflow when the norm
    is not positive and finite, as when it lies beyond the float range; its
    log is still finite."""
    with np.errstate(over="ignore"):
        norm = float(np.exp(section_log_norms_sq([s], spec)[0]))
    if not 0.0 < norm < np.inf:
        raise QuadratureOverflow(
            f"norm {norm} of weight {s.weight} at t = {s.t:g} is beyond the float range"
        )
    return norm


# -- two-chart gluing on a segment model ----------------------------------------------


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


def gluing_points(poly: DelzantPolytope) -> np.ndarray:
    """The (13, 1) overlap points of [0.05, a - 0.05] that `gluing_check_cp1` uses."""
    return np.linspace(0.05, _segment_length(poly) - 0.05, 13)[:, None]


def gluing_check_cp1(s: WeightSection, t: float, corrupt: bool = False) -> float:
    """Max relative deviation between the chart-U and chart-V representatives
    of the flowed section on the overlap of the two invariant charts of the
    segment [0, a], at 13 points of [0.05, a - 0.05] and 8 angles.

    Both representatives are `WeightSection.sigma_representative`.  Chart V
    carries the reflected data x' = a - x, theta' = -theta, weight a - lam and
    reflected potentials; the Guillemin part of [0, a] is symmetric under the
    reflection, so only the extra part of g_0 is reflected.  The transition
    is sigma_U = sigma_V e^{-i a theta}, so the representatives must satisfy
    g^U = e^{i a theta} g^V.  `corrupt` flips the transition sign (negative
    control).
    """
    a = _segment_length(s.polytope)
    if s.t != 0.0:
        raise ValueError("gluing check starts from a time-zero section")
    x = gluing_points(s.polytope)[..., None]
    theta = (2.0 * np.pi * np.arange(8) / 8).reshape(1, -1, 1)

    center = (float(a),)
    extra_v = None if s.g0.extra is None else ReflectedPotential(s.g0.extra, center)
    s_v = WeightSection(
        (a - s.weight[0],), SymplecticPotential(s.polytope, extra_v),
        ReflectedPotential(s.phi, center), t,
    )
    u_chart = flow_section(s, t).sigma_representative(x, theta)
    v_chart = s_v.sigma_representative(a - x, -theta)

    sign = -1.0 if corrupt else 1.0
    transition = np.exp(sign * 1j * a * theta[..., 0])
    return float(np.max(np.abs(u_chart - transition * v_chart) / np.abs(u_chart)))


# -- bundle lift -------------------------------------------------------------------


def lift_scale(phi: ConvexPotential, x, t: float) -> np.ndarray:
    """Fiber scale of the lifted flow acting on equivariant functions:
    e^{t (phi - beta(X_phi))} = e^{-t f_0(x)}."""
    x = np.asarray(x, dtype=float)
    zero = np.zeros(phi.dimension)
    return np.exp(-t * concentration_rate(phi, zero, x))


def lift_section_consistency(
    s0: WeightSection,
    t: float,
    xs,
    thetas,
    zetas,
) -> float:
    """Flow the bundle point (base by the biholomorphism, equivariant fiber
    coordinate by lift_scale) and evaluate the time-zero equivariant function
    there; return its max relative deviation from the equivariant function of
    the flowed section at the original point.

    Both sides reduce to e^{-t f_lam} times the original value; the left side
    assembles it from the pullback factor e^{t lam.grad phi} and the fiber
    scale e^{-t f_0}, the right side from the diagonal multiplier.
    """
    if s0.t != 0.0:
        raise ValueError("lift check starts from a time-zero section")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
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
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# -- frame holomorphicity (finite differences) ----------------------------------------


def frame_holomorphicity_residual(
    g0: SymplecticPotential,
    phi: ConvexPotential,
    t: float,
    points,
) -> float:
    """Finite-difference anti-holomorphic covariant derivative of the frame
    e^{-rho_t/2} sigma, maximized over points and directions.

    The anti-holomorphic directions of J_t are (1/2)[sum_k (G_t^{-1})_{kj}
    d/dx_k + i d/dtheta_j]; on the invariant frame the covariant derivative is

        (1/2)(G_t^{-1} grad u)_j + (i/2) du/dtheta_j + (x_j/2) u,

    with u = e^{-rho_t/2}.  Gradients are taken by fourth-order central
    differences of step h = 1e-3 (the direction field itself uses the
    analytic Hessian); the residual is relative to |u|.  rho_t is evaluated
    twice, at the points and at the (points, n, 4, n) stencil x + m h e_k.
    """
    state = KahlerFlowState(g0, phi, t)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = 1e-3
    # steps[k, i] = m_i h e_k for the stencil offsets m = -2, -1, 1, 2
    steps = np.array([-2, -1, 1, 2])[:, None] * (h * np.eye(pts.shape[1]))[:, None, :]
    vals = np.exp(-0.5 * state.kahler_potential_legendre(pts[:, None, None, :] + steps))
    grad_fd = (vals[..., 0] - 8 * vals[..., 1] + 8 * vals[..., 2] - vals[..., 3]) / (12 * h)
    u0 = np.exp(-0.5 * state.kahler_potential_legendre(pts))
    Ginv = np.linalg.inv(state.metric_hessian(pts))
    # the frame is torus-invariant, so the (i/2) du/dtheta term vanishes
    coeff = 0.5 * (Ginv @ grad_fd[:, :, None])[..., 0] + 0.5 * pts * u0[:, None]
    return float(np.max(np.max(np.abs(coeff), axis=1) / u0))
