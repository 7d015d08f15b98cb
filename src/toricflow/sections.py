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
as mesh values: the torus direction is exactly diagonalized, the weight-lam
section being the single angular mode e^{i lam . theta}, and every identity
closes on the polytope.

The exponential of the quantum operator  phihat s = -i nabla_{X_phi} s + phi s
acts diagonally on weights: e^{t phihat} s_{lam,0} = e^{-t f_lam(mu)} s_{lam,0}
(multiplier route, F_{lam,0} + t f_lam by `concentration_rate`).  The same
flow computed geometrically, by pulling the monomial back along the
T-equivariant time-t biholomorphism and multiplying by the flowed frame
(pullback route, `pullback_amplitude_log(g0, phi, lam, t, x)`), must agree
pointwise, weight by weight; so must the two local representatives of a
flowed section on the two invariant charts of a segment model (gluing), and
the bundle-lifted flow acting on equivariant functions (lift).  Each check
takes the model (g0, phi), one weight lam and its whole t grid, and returns
the relative deviation |lhs - rhs| / |rhs| of its two sides as
max |expm1(log lhs - log rhs)|, finite where the amplitudes overflow.
Together with the numerically verified holomorphicity of e^{-rho_t/2} sigma,
these cross-checks pin every sign convention.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, QuadratureOverflow
from .flow import SymplecticPotential, _legendre_rho, _times, metric_hessians
from .polytopes import DelzantPolytope, _matmul_columns
from .potentials import ConvexPotential, ReflectedPotential, _rate, concentration_rate
from .quadrature import QuadratureSpec, integrate_many

_TINY = 1e-300


def _weight(g0: SymplecticPotential, lam) -> np.ndarray:
    """The weight lam of a section of the model g0, as floats: a lattice
    point of g0's polytope P."""
    lam = np.asarray(lam, dtype=float)
    if not all(float(v).is_integer() for v in lam.ravel()):
        raise DomainError(f"weight {lam.tolist()} is not a lattice point")
    if lam.shape != (g0.dimension,):
        raise DimensionMismatch("weight dimension does not match the model")
    if not g0.polytope.contains(lam):
        raise DomainError(f"weight {lam.tolist()} lies outside the moment polytope")
    return lam


def pullback_amplitude_log(g0: SymplecticPotential, phi: ConvexPotential, lam, t: float,
                           x) -> np.ndarray:
    """A_{lam,t}(x) by the geometric route from the time-zero section: pull
    the monomial w^lam back along the biholomorphism and multiply by the
    flowed frame e^{-rho_t/2}, with rho_t from the Legendre route.  Shares
    no step with the multiplier formula F_{lam,0} + t f_lam."""
    lam = _weight(g0, lam)
    _times(t)
    x = np.asarray(x, dtype=float)
    g, dg, p, dp = g0.value(x), g0.grad(x), phi.value(x), phi.grad(x)
    pullback = t * (dp @ lam)
    monomial = np.einsum("...i,...i->...", np.broadcast_to(lam, x.shape), dg)
    return 0.5 * _legendre_rho(x, g, dg, p, dp, t) - (pullback + monomial)


def route_equality_residual(g0: SymplecticPotential, phi: ConvexPotential, lam, ts,
                            xs) -> np.ndarray:
    """Max relative deviation |e^{-A_pull} / e^{-A_mult} - 1| between the
    multiplier and pullback routes over the sample points, at each time of
    `ts`, from the log amplitudes, so it stays finite where both amplitudes
    underflow; the phase e^{i lam.theta} cancels.  g_0 and phi are evaluated
    once, and each residual is bit for bit that of the multiplier
    `concentration_rate(g0, lam, xs) + t concentration_rate(phi, lam, xs)`
    against `pullback_amplitude_log(g0, phi, lam, t, xs)`."""
    lam = _weight(g0, lam)
    _times(ts)
    x = np.asarray(xs, dtype=float)
    g, dg, p, dp = g0.value(x), g0.grad(x), phi.value(x), phi.grad(x)
    rate_g0, rate, push = _rate(x, lam, dg, g), _rate(x, lam, dp, p), dp @ lam
    monomial = np.einsum("...i,...i->...", np.broadcast_to(lam, x.shape), dg)
    out = []
    for t in ts:
        pullback = 0.5 * _legendre_rho(x, g, dg, p, dp, t) - (t * push + monomial)
        out.append(np.max(np.abs(np.expm1((rate_g0 + t * rate) - pullback))))
    return np.array(out)


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


def _peak_width(phi: ConvexPotential, lam, t: float, s: float) -> float:
    """The width (s t lambda_min(Hess phi(lam)))^{-1/2} of the peak of
    e^{-s t f_lam} at lam, inf where the density is flat."""
    curvature = s * t * np.linalg.eigvalsh(phi.hess(np.asarray(lam, dtype=float))).min()
    return float(curvature**-0.5) if curvature > 0 else np.inf


def _laplace_moments(poly: DelzantPolytope, phi: ConvexPotential, lams, ts, spec: QuadratureSpec,
                     g0: Optional[SymplecticPotential] = None, fs: Sequence = ()):
    """Log-masses log int_P rho_j dx and moment ratios
    int_P rho_j f_i dx / int_P rho_j dx of the `_laplace_integrand`
    densities rho_j, from one `integrate_many` call per distinct weight, on
    the cones from that weight graded down to the peak width at its largest
    time (s = 2 for a section density e^{-2 A}, 1 for `converge`).

    Density j and its moments form one quadrature group, each moment judged
    against the larger of itself and the mass, so a moment ratio is known
    to rel_tol * max(|ratio|, 1), and every column stops at the rung a
    separate integration would stop at.  The log-masses add the log-peaks
    back, so they stay finite far beyond the float range of the masses
    themselves.  Raises QuadratureOverflow when a scaled mass is not
    positive.
    """
    lams, ts = np.asarray(lams, dtype=float), np.asarray(ts, dtype=float)
    width = 1 + len(fs)
    moments, log_peaks = np.empty((len(ts), width)), np.empty(len(ts))
    keys = [tuple(lam) for lam in lams]
    for key in dict.fromkeys(keys):
        cols = [j for j, other in enumerate(keys) if other == key]
        kernel, log_peaks[cols] = _laplace_integrand(phi, lams[cols], ts[cols], g0, fs)
        peak = (key, _peak_width(phi, key, ts[cols].max(), 1.0 if g0 is None else 2.0))
        results = integrate_many(kernel, len(cols) * width, poly, spec, group=width, peak=peak)
        moments[cols] = np.array([r.value for r in results]).reshape(-1, width)
    for j, mass in enumerate(moments[:, 0]):
        if not mass > 0.0:
            raise QuadratureOverflow(
                f"density mass {mass} at t = {ts[j]:g}: the grid does not resolve "
                f"the peak of column {j} (weight {lams[j].tolist()})"
            )
    return np.log(moments[:, 0]) + log_peaks, moments[:, 1:] / moments[:, :1]


def section_log_norms_sq(g0: SymplecticPotential, phi: ConvexPotential, lams, ts,
                         spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """log of the L^2 norms squared (2 pi)^n int_P e^{-2 A_{lam_j,t_j}} dx
    of the sections of the model (g0, phi) at the weights `lams` and the
    times `ts`, one pair per norm.

    The torus direction integrates exactly to (2 pi)^n; the polytope factor
    goes through the Gauss rule on the cones from each weight, one
    `integrate_many` call per distinct weight, and every norm is judged on
    its own, at the refinement level a separate integration would stop at.
    Raises QuadratureOverflow when a mass is not positive.
    """
    lams = [_weight(g0, lam) for lam in lams]
    _times(ts)
    log_masses, _ = _laplace_moments(g0.polytope, phi, lams, ts, spec, g0)
    return np.log(torus_volume(g0.dimension)) + log_masses


def section_norm_sq(g0: SymplecticPotential, phi: ConvexPotential, lam, t: float,
                    spec: QuadratureSpec = QuadratureSpec()) -> float:
    """L^2 norm squared of one section, the exp of
    `section_log_norms_sq(g0, phi, [lam], [t])[0]`.  Raises
    QuadratureOverflow when the norm is not positive and finite, as when it
    lies beyond the float range; its log is still finite."""
    with np.errstate(over="ignore"):
        norm = float(np.exp(section_log_norms_sq(g0, phi, [lam], [t], spec)[0]))
    if not 0.0 < norm < np.inf:
        raise QuadratureOverflow(
            f"norm {norm} of weight {tuple(map(int, lam))} at t = {t:g} is beyond the float range"
        )
    return norm


# -- two-chart gluing on a segment model ----------------------------------------------


def _segment_length(poly: DelzantPolytope) -> int:
    if poly.dimension != 1:
        raise DomainError("the two-chart model needs a one-dimensional polytope")
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


def gluing_check_cp1(g0: SymplecticPotential, phi: ConvexPotential, lam, ts,
                     corrupt: bool = False) -> np.ndarray:
    """Max relative deviation between the chart-U and chart-V representatives
    of the flowed section on the overlap of the two invariant charts of the
    segment [0, a], at 13 points of [0.05, a - 0.05] and 8 angles, at each
    time of `ts`.  Each chart's complex log amplitude is
    -A_{lam,t}(x) + i lam . theta, with A_{lam,t} bit for bit the chart's
    multiplier F_{lam,0} + t f_lam, from two rates evaluated once.

    Chart V carries the reflected data x' = a - x, theta' = -theta, weight
    a - lam and reflected potentials; the Guillemin part of [0, a] is
    symmetric under the reflection, so only the extra part of g_0 is
    reflected.  The transition is sigma_U = sigma_V e^{-i a theta}, so the
    representatives must satisfy g^U = e^{i a theta} g^V.  `corrupt` flips
    the transition sign (negative control): the residual becomes
    |e^{-2 i a theta} - 1|, up to 2.
    """
    lam = _weight(g0, lam)
    a = _segment_length(g0.polytope)
    _times(ts)
    x = gluing_points(g0.polytope)[..., None]
    theta = (2.0 * np.pi * np.arange(8) / 8).reshape(1, -1, 1)

    center = (float(a),)
    extra_v = None if g0.extra is None else ReflectedPotential(g0.extra, center)
    charts = (
        (g0, phi, lam, x, theta),
        (SymplecticPotential(g0.polytope, extra_v), ReflectedPotential(phi, center),
         a - lam, a - x, -theta),
    )
    rates = [(concentration_rate(g, w, y), concentration_rate(f, w, y), 1j * (th @ w))
             for g, f, w, y, th in charts]

    transition = (-1.0 if corrupt else 1.0) * 1j * a * theta[..., 0]
    out = []
    for t in ts:
        u_chart, v_chart = (-(rate_g0 + t * rate) + phase for rate_g0, rate, phase in rates)
        out.append(np.max(np.abs(np.expm1(v_chart + transition - u_chart))))
    return np.array(out)


# -- bundle lift -------------------------------------------------------------------


def lift_section_consistency(g0: SymplecticPotential, phi: ConvexPotential, lam, ts,
                             xs) -> np.ndarray:
    """Flow the bundle point (base by the biholomorphism, equivariant fiber
    coordinate by the fiber scale e^{t (phi - beta(X_phi))} = e^{-t f_0}) and
    evaluate the time-zero equivariant function there; return its max
    relative deviation from the equivariant function of the flowed section at
    the original point, at each time of `ts`, with g_0 and phi evaluated once.

    The left log is (grad g_0 + t grad phi) . lam - t f_0, the right log the
    multiplier's grad g_0 . lam - t f_lam; the phase e^{i lam . theta} and the
    fiber coordinate multiply both sides and cancel.  The logs differ by
    t (grad phi . lam - lam . grad phi), so the residual is rounding: no
    formula defect in phi or g_0 can fail it.
    """
    lam = _weight(g0, lam)
    _times(ts)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    dg, dp, p = g0.grad(xs), phi.grad(xs), phi.value(xs)
    rate0, rate = _rate(xs, np.zeros(len(lam)), dp, p), _rate(xs, lam, dp, p)
    out = []
    for t in ts:
        lhs = (dg + t * dp) @ lam - t * rate0
        rhs = dg @ lam - t * rate
        out.append(np.max(np.abs(np.expm1(lhs - rhs))))
    return np.array(out)


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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Ginv = np.linalg.inv(metric_hessians(g0, phi, t, pts))
    h = 1e-3
    # steps[k, i] = m_i h e_k for the stencil offsets m = -2, -1, 1, 2
    steps = np.array([-2, -1, 1, 2])[:, None] * (h * np.eye(pts.shape[1]))[:, None, :]
    vals, u0 = (
        np.exp(-0.5 * _legendre_rho(x, g0.value(x), g0.grad(x), phi.value(x), phi.grad(x), t))
        for x in (pts[:, None, None, :] + steps, pts)
    )
    grad_fd = (vals[..., 0] - 8 * vals[..., 1] + 8 * vals[..., 2] - vals[..., 3]) / (12 * h)
    # the frame is torus-invariant, so the (i/2) du/dtheta term vanishes
    coeff = 0.5 * (Ginv @ grad_fd[:, :, None])[..., 0] + 0.5 * pts * u0[:, None]
    return float(np.max(np.max(np.abs(coeff), axis=1) / u0))
