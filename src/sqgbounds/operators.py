"""Nonlocal operators of the Dirichlet square-root Laplacian calculus.

Everything is built on the eigenfunction expansion: fractional powers and the
heat semigroup are mode multipliers, the Riesz velocity is a rotated gradient
of the inverse square root, and the heat kernel is a factorized eigensum.
The quadrature route to Lambda^s integrates the heat representation

    Lambda^s f = c_s * int_0^inf [f - e^{t Delta} f] t^{-1-s/2} dt

after the substitution t = e^u, with an analytic tail and a refinement
self-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erf, gamma

from .errors import (ConfigurationError, DomainError, NumericError,
                     PreconditionError, ShapeError)
from .geometry import Geometry
from .spectral import (BoxField, GridField, SpectralField, _forward_coeffs,
                       dealiased_product, eval_fine, forward, grad_l2_norm_sq,
                       gradient, inverse)

MAX_CUTOFF_SCALE_FRAC = 0.25    # ell0 = L/4
ERF_SATURATION = 6.0            # scipy's erf(z) == sign(z) for |z| >= 6
_LAMBDA_ROWS = 128              # rows per block of an in-place Lambda


# ---------------------------------------------------------------------------
# Mode multipliers
# ---------------------------------------------------------------------------

def _lambda_power_rows(coeffs: np.ndarray, geometry: Geometry,
                       s: float) -> np.ndarray:
    """Multiply ``coeffs`` in place by lam^{s/2}, a block of rows at a time.

    Each block's multiplier comes from ``geometry.eigenvalue_rows``, so no
    whole-grid table or multiplier is allocated; the product has the bits
    of ``geometry.eigenvalues ** (s / 2) * coeffs``.
    """
    for r in range(0, coeffs.shape[0], _LAMBDA_ROWS):
        rows = slice(r, r + _LAMBDA_ROWS)
        mult = geometry.eigenvalue_rows(rows)
        mult **= s / 2.0
        coeffs[rows] *= mult
    return coeffs


def apply_lambda_power(f: SpectralField, s: float) -> SpectralField:
    """Lambda^s as the mode multiplier lam^{s/2} (s in [-1, 2])."""
    if not -1.0 <= s <= 2.0:
        raise ConfigurationError(f"power s must lie in [-1, 2], got {s}")
    return SpectralField(_lambda_power_rows(f.coeffs.copy(), f.geometry, s),
                         f.geometry, tag=f.tag)


def heat_semigroup(f: SpectralField, t: float) -> SpectralField:
    """e^{t Delta} as the mode multiplier e^{-t lam}."""
    if t < 0:
        raise DomainError(f"heat semigroup requires t >= 0, got {t}")
    mult = np.exp(-t * f.geometry.eigenvalues)
    return SpectralField(mult * f.coeffs, f.geometry, tag=f.tag)


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre rule in u = log t for the heat representation."""

    panels: int = 48
    nodes_per_panel: int = 12
    t_max_over_lam1: float = 40.0
    tol: float = 1e-9


def log_time_rule(t_min: float, t_max: float, panels: int,
                  nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule in u = log t over [t_min, t_max].

    ``panels`` equal panels in u with ``nodes`` nodes each; returns the nodes
    t = e^u and their weights w in u, so sum(w F(t)) ~ int F(t) dt / t.
    """
    edges = np.linspace(np.log(t_min), np.log(t_max), panels + 1)
    xg, wg = leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return np.exp(u), w


def _heat_multiplier(lam: np.ndarray, s: float, quad: QuadratureConfig,
                     panels: int) -> np.ndarray:
    """c_s * int (1 - e^{-t lam}) t^{-1-s/2} dt on the truncated interval."""
    c_s = (s / 2.0) / gamma(1.0 - s / 2.0)
    lam_max = float(lam.max())
    lam_min = float(lam.min())
    # head below t_min contributes < tol relatively via 1 - e^{-t lam} <= t lam
    expo = 1.0 - s / 2.0
    t_min = min((quad.tol * expo / c_s) ** (1.0 / expo) / lam_max, 1e-6 / lam_max)
    t_max = quad.t_max_over_lam1 / lam_min
    t, w = log_time_rule(t_min, t_max, panels, quad.nodes_per_panel)
    # after t = e^u the integrand is (1 - e^{-t lam}) t^{-s/2}
    integrand = -np.expm1(-np.outer(lam, t)) * t[None, :] ** (-s / 2.0)
    core = integrand @ w
    tail = (2.0 / s) * t_max ** (-s / 2.0)
    return c_s * (core + tail)


def lambda_via_heat(f: SpectralField, s: float,
                    quadrature: QuadratureConfig | None = None) -> SpectralField:
    """Lambda^s through the heat-semigroup integral representation.

    Quadrature is checked by panel doubling; disagreement beyond the
    configured tolerance raises ``NumericError`` with the residual.
    """
    if not 0.0 < s < 2.0:
        raise ConfigurationError(f"heat representation needs s in (0, 2), got {s}")
    quad = quadrature or QuadratureConfig()
    lam, idx = np.unique(f.geometry.eigenvalues, return_inverse=True)
    coarse = _heat_multiplier(lam, s, quad, quad.panels)
    fine = _heat_multiplier(lam, s, quad, 2 * quad.panels)
    residual = float(np.abs(fine - coarse).max() / np.abs(fine).max())
    if residual > quad.tol:
        raise NumericError(
            f"heat-representation quadrature did not converge: "
            f"refinement residual {residual:.3e} exceeds tol {quad.tol:.1e}")
    mult = fine[idx].reshape(f.coeffs.shape)
    return SpectralField(mult * f.coeffs, f.geometry, tag=f.tag)


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatKernelSample:
    """One evaluation of the Dirichlet heat kernel H_D(t, x, y)."""

    x: tuple[float, float]
    y: tuple[float, float]
    t: float
    value: float
    modes: int
    tail_bound: float
    truncation_warning: bool


def eigensum_1d(t, a, b, L: float, modes: int, da: int = 0,
                db: int = 0) -> np.ndarray:
    """(2/L) sum_m e^{-t k_m^2} d_a^da sin(k_m a) d_b^db sin(k_m b), k_m = m pi/L.

    The 1-d Dirichlet heat-kernel eigensum over m = 1..modes and its
    derivatives of order 0, 1 or 2 in either point.  ``t``, ``a`` and ``b``
    broadcast against each other; the result has their broadcast shape.
    """
    k = np.arange(1, modes + 1) * np.pi / L
    t, a, b = (np.asarray(v, dtype=float)[..., None] for v in (t, a, b))
    decay = np.exp(-t * k * k)

    def fac(z, order):
        if order == 0:
            return np.sin(k * z)
        if order == 1:
            return k * np.cos(k * z)
        return -k * k * np.sin(k * z)

    return (2.0 / L) * np.sum(decay * fac(a, da) * fac(b, db), axis=-1)


def heat_kernel(geometry: Geometry, x, y, t: float,
                modes: int | None = None,
                tail_tolerance: float = 1e-10) -> HeatKernelSample:
    """Factorized eigensum for the Dirichlet heat kernel on the square.

    The 2d sum over a square mode truncation is the product of two 1d sums.
    A geometric bound on the omitted modes is attached; if it exceeds
    ``tail_tolerance`` the sample carries a warning flag.
    """
    if t <= 0:
        raise DomainError(f"heat kernel requires t > 0, got {t}")
    M = geometry.n_interior if modes is None else int(modes)
    if not 1 <= M <= geometry.n_interior:
        raise ConfigurationError(
            f"modes must lie in [1, {geometry.n_interior}], got {M}")
    L = geometry.side_length
    h1 = float(eigensum_1d(t, x[0], y[0], L, M))
    h2 = float(eigensum_1d(t, x[1], y[1], L, M))
    # 1d tail: sum_{m>M} e^{-t k_m^2} <= e^{-t k_{M+1}^2} / (1 - ratio)
    kk = (np.pi / L) ** 2
    ratio = np.exp(-t * kk * (2 * M + 3))
    tail1 = (2.0 / L) * np.exp(-t * kk * (M + 1) ** 2) / max(1.0 - ratio, 1e-300)
    tail = tail1 * (abs(h1) + abs(h2)) + tail1 ** 2
    return HeatKernelSample(
        x=(float(x[0]), float(x[1])), y=(float(y[0]), float(y[1])),
        t=float(t), value=h1 * h2, modes=M, tail_bound=float(tail),
        truncation_warning=bool(tail > tail_tolerance))


def heat_of_one_1d(t, x: np.ndarray, L: float,
                   n_images: int = 6) -> np.ndarray:
    """e^{t Delta} 1 on the interval (0, L), by the method of images.

    ``t`` is a scalar or a 1-d array of times in any order and ``x`` a 1-d
    array of points; the result has shape ``np.shape(t) + x.shape``.

    Image n adds erf(z_0) - erf(z_+)/2 - erf(z_-)/2 with z_0 = (x - 2nL)/s,
    z_+ = (x - (2n + 1)L)/s, z_- = (x - (2n - 1)L)/s and s = 2 sqrt(t).
    scipy's erf is exactly +-1 for |z| >= 6, so an image whose arguments all
    lie at or below -6, or all at or above 6, over the whole of ``x`` adds
    exactly +0.0.  Such (image, time) pairs are skipped, and the sum keeps
    every bit of the full image sum.  The bounds z_-(max x) and z_+(min x)
    are computed with the same operations as the arguments, so the skip is
    exact for any ``x``, inside (0, L) or not.
    """
    x = np.asarray(x, dtype=float)
    s = 2.0 * np.sqrt(np.atleast_1d(np.asarray(t, dtype=float)))
    x_hi, x_lo = x.max(), x.min()
    out = np.zeros((s.size, x.size))
    for n in range(-n_images, n_images + 1):
        hi = (x_hi - (2 * n - 1) * L) / s       # largest argument per time
        lo = (x_lo - (2 * n + 1) * L) / s       # smallest argument per time
        live = np.flatnonzero((hi > -ERF_SATURATION) & (lo < ERF_SATURATION))
        sl = s[live, None]
        out[live] += (erf((x - 2 * n * L) / sl)
                      - 0.5 * erf((x - (2 * n + 1) * L) / sl)
                      - 0.5 * erf((x - (2 * n - 1) * L) / sl))
    return out.reshape(np.shape(t) + x.shape)


# ---------------------------------------------------------------------------
# Velocity
# ---------------------------------------------------------------------------

@dataclass
class VelocityField:
    """Divergence-free velocity sampled at the interior nodes.

    ``u_x`` carries a cosine factor in y and ``u_y`` in x, so both components
    vanish on the side they are normal to.
    """

    u_x: GridField
    u_y: GridField
    stream: SpectralField

    @property
    def geometry(self) -> Geometry:
        return self.stream.geometry

    def sup_norm(self) -> float:
        return float(np.sqrt(self.u_x.values ** 2 + self.u_y.values ** 2).max())

    def l2_norm(self) -> float:
        """||u||_{L^2} = ||grad psi||_{L^2}, exact via Parseval on the stream."""
        return float(np.sqrt(grad_l2_norm_sq(self.stream)))


def _perp_gradient(stream_coeffs: np.ndarray, geometry: Geometry,
                   j_sign: float) -> tuple[np.ndarray, np.ndarray]:
    """(u_x, u_y) = j_sign * (-d_y psi, d_x psi) at the interior nodes."""
    psi_x, psi_y = gradient(SpectralField(stream_coeffs, geometry))
    psi_y.values *= -j_sign
    psi_x.values *= j_sign
    return psi_y.values, psi_x.values


def _stream_velocity(stream: SpectralField, j_sign: float) -> VelocityField:
    """The velocity j_sign * grad-perp psi of the stream function psi."""
    g = stream.geometry
    ux, uy = _perp_gradient(stream.coeffs, g, j_sign)
    return VelocityField(GridField(ux, g), GridField(uy, g), stream)


def riesz_velocity(theta: SpectralField, j_sign: float = 1.0) -> VelocityField:
    """u = J grad Lambda^{-1} theta with J = rotation by +pi/2 (sign flippable)."""
    g = theta.geometry
    stream = SpectralField(theta.coeffs * g.inv_sqrt_eigenvalues, g, theta.tag)
    return _stream_velocity(stream, j_sign)


def short_time_velocity(theta: SpectralField, tau: float,
                        j_sign: float = 1.0) -> VelocityField:
    """Heat-smoothed part of the Riesz velocity, u_s.

    The mode multiplier is c * int_0^tau t^{-1/2} e^{-t lam} dt
    = lam^{-1/2} erf(sqrt(lam tau)) with c = pi^{-1/2}, so u_s recovers the
    full velocity as tau grows.
    """
    if tau <= 0:
        raise DomainError(f"short-time velocity requires tau > 0, got {tau}")
    g = theta.geometry
    mult = g.inv_sqrt_eigenvalues * erf(np.sqrt(g.eigenvalues * tau))
    return _stream_velocity(SpectralField(mult * theta.coeffs, g), j_sign)


# ---------------------------------------------------------------------------
# Nonlinear dissipation and the weighted convexity identity
# ---------------------------------------------------------------------------

def nonlinear_dissipation(f: SpectralField) -> GridField:
    """D(f) = f * Lambda f - (1/2) Lambda(f^2) at the interior nodes."""
    fv = inverse(f).values
    lam_f = inverse(apply_lambda_power(f, 1.0)).values
    f_sq = dealiased_product(f, f)
    lam_fsq = inverse(apply_lambda_power(f_sq, 1.0)).values
    return GridField(fv * lam_f - 0.5 * lam_fsq, f.geometry)


@dataclass(frozen=True)
class ConvexFn:
    """Scalar convex function with Phi(0) = 0 and an explicit derivative."""

    fn: callable
    deriv: callable
    name: str = ""

    def __call__(self, z):
        return self.fn(z)


PHI_SQUARE = ConvexFn(lambda z: z * z, lambda z: 2.0 * z, "square")
PHI_LINEAR = ConvexFn(lambda z: z, lambda z: np.ones_like(np.asarray(z, float)),
                      "linear")


def softplus_hinge(threshold: float, sharpness: float = 0.05) -> ConvexFn:
    """Smooth convex hinge vanishing at 0, growing past ``threshold``."""
    B, s = float(threshold), float(sharpness)

    def softplus(x):
        # overflow-safe: log(1 + e^x) = max(x, 0) + log1p(e^{-|x|})
        x = np.asarray(x, float)
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    off = s * softplus(-B / s)

    def fn(z):
        return s * softplus((np.asarray(z, float) - B) / s) - off

    def deriv(z):
        x = (np.asarray(z, float) - B) / s
        t = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    return ConvexFn(fn, deriv, f"hinge(B={B})")


def _check_convex(phi: ConvexFn, lo: float, hi: float) -> None:
    pad = 0.1 * (hi - lo) + 1e-3 * max(1.0, abs(lo), abs(hi))
    z = np.linspace(lo - pad, hi + pad, 513)
    d = phi.deriv(z)
    scale = np.abs(d).max() + 1e-300
    if np.any(np.diff(d) < -1e-10 * scale):
        raise PreconditionError(
            f"function {phi.name or 'phi'} is not convex on the sampled "
            f"range [{lo:.3g}, {hi:.3g}]")


def lambda_of_values(values: np.ndarray, geometry: Geometry) -> np.ndarray:
    """Lambda applied to grid values: forward transform, lam^{1/2}, inverse."""
    return inverse(apply_lambda_power(
        forward(GridField(values, geometry)), 1.0)).values


def weighted_convexity_terms(b: GridField, w: SpectralField, phi: ConvexFn
                             ) -> tuple[GridField, GridField, GridField]:
    """Terms of the weighted convexity identity for the ratio b = theta / w.

    Returns (lhs, rhs_core, defect) with
        lhs      = Phi'(b) Lambda(w b) - Lambda(w Phi(b)),
        rhs_core = (Lambda w) (b Phi'(b) - Phi(b)),
        defect   = lhs - rhs_core,
    and the defect is nonnegative (up to discretization) for convex Phi.
    """
    g = w.geometry
    wv = inverse(w).values
    if wv.min() <= 0:
        raise DomainError("weight must be positive at every interior node")
    if not np.isfinite(b.values).all():
        raise NumericError("ratio field has non-finite values")
    bv = b.values
    _check_convex(phi, float(bv.min()), float(bv.max()))
    phib = np.asarray(phi(bv), dtype=float)
    dphib = np.asarray(phi.deriv(bv), dtype=float)
    lhs = dphib * lambda_of_values(wv * bv, g) - lambda_of_values(wv * phib, g)
    lam_w = inverse(apply_lambda_power(w, 1.0)).values
    rhs_core = lam_w * (bv * dphib - phib)
    return (GridField(lhs, g), GridField(rhs_core, g),
            GridField(lhs - rhs_core, g))


# ---------------------------------------------------------------------------
# Cutoffs, finite differences, commutator
# ---------------------------------------------------------------------------

def smoothstep_profile(z: np.ndarray) -> np.ndarray:
    """Nonincreasing C^2 profile: 1 for z <= 5/16, 0 for z >= 7/16."""
    z = np.asarray(z, dtype=float)
    t = np.clip((7.0 / 16.0 - z) / (2.0 / 16.0), 0.0, 1.0)
    return np.clip(t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2), 0.0, 1.0)


@dataclass(frozen=True)
class CutoffPair:
    """Nested bump pair: phi at scale ell inside chi at scale 2 ell."""

    center: tuple[float, float]
    scale: float
    phi: GridField
    chi: GridField


def _box_slice(x: np.ndarray, c: float, ell: float) -> slice:
    """Indices of the sorted nodes x with |x - c| < ell."""
    inside = np.flatnonzero(np.abs(x - c) < ell)
    return slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)


def _cutoff_box(geometry: Geometry, x0, ell: float
                ) -> tuple[tuple[slice, slice], np.ndarray, np.ndarray]:
    """The box of :func:`standard_cutoff` with phi and chi on its nodes."""
    cx, cy = float(x0[0]), float(x0[1])
    L = geometry.side_length
    d0 = min(cx, L - cx, cy, L - cy)
    if ell <= 0:
        raise PreconditionError(f"cutoff scale must be positive, got {ell}")
    if ell > MAX_CUTOFF_SCALE_FRAC * L:
        raise PreconditionError(
            f"cutoff scale {ell} exceeds the admissible maximum {L / 4}")
    if d0 < 2.0 * ell:
        raise PreconditionError(
            f"cutoff center too close to the boundary: d(x0) = {d0:.4g} "
            f"< 2 ell = {2 * ell:.4g}")
    x = geometry.x
    box = (_box_slice(x, cx, ell), _box_slice(x, cy, ell))
    r = np.hypot(x[box[0], None] - cx, x[None, box[1]] - cy)
    return box, smoothstep_profile(r / ell), smoothstep_profile(r / (2.0 * ell))


def standard_cutoff(geometry: Geometry, x0, ell: float) -> CutoffPair:
    """phi = profile(|x - x0| / ell), chi = profile(|x - x0| / (2 ell)).

    Requires the doubled bump to stay inside the domain: d(x0) >= 2 ell,
    and ell below the fixed largest admissible scale L/4.  Both bumps
    vanish for |x - x0| >= 7 ell / 8, so they are evaluated on the box of
    nodes within ell of x0 per axis and are zero elsewhere.
    """
    box, phi_box, chi_box = _cutoff_box(geometry, x0, ell)
    phi = np.zeros((geometry.n_interior,) * 2)
    chi = np.zeros((geometry.n_interior,) * 2)
    phi[box] = phi_box
    chi[box] = chi_box
    return CutoffPair(center=(float(x0[0]), float(x0[1])), scale=float(ell),
                      phi=GridField(phi, geometry),
                      chi=GridField(chi, geometry))


def _commensurate_steps(h, geometry: Geometry) -> tuple[int, int]:
    dx = geometry.spacing
    steps = []
    for comp in h:
        ratio = comp / dx
        p = round(ratio)
        if abs(ratio - p) > 1e-9 * max(1.0, abs(ratio)):
            raise ConfigurationError(
                f"displacement component {comp} is not an integer multiple "
                f"of the grid spacing {dx}")
        steps.append(int(p))
    return steps[0], steps[1]


def finite_difference(f, h) -> GridField:
    """delta_h f(x) = f(x + h) - f(x) for a grid-commensurate displacement.

    Nodes whose shifted position leaves the open interior are flagged out in
    the result's ``valid`` mask and carry value 0.
    """
    if isinstance(f, SpectralField):
        f = inverse(f)
    g = f.geometry
    p, q = _commensurate_steps(h, g)
    n = g.n_interior
    vals = f.values
    out = np.zeros_like(vals)
    valid = np.zeros_like(vals, dtype=bool)
    i0, i1 = max(0, -p), min(n, n - p)
    j0, j1 = max(0, -q), min(n, n - q)
    if i0 < i1 and j0 < j1:
        out[i0:i1, j0:j1] = vals[i0 + p:i1 + p, j0 + q:j1 + q] - vals[i0:i1, j0:j1]
        valid[i0:i1, j0:j1] = True
    if f.valid is not None:
        valid &= f.valid
        shifted = np.zeros_like(valid)
        shifted[i0:i1, j0:j1] = f.valid[i0 + p:i1 + p, j0 + q:j1 + q]
        valid &= shifted
    out[~valid] = 0.0
    return GridField(out, g, valid=valid)


def commutator_rows(geometry: Geometry, x0, ell: float, h) -> slice:
    """The node rows at which :func:`commutator` reads theta and Lambda theta.

    They are the rows of the cutoff box at (x0, ell) and of its shift by h.
    """
    rows = _box_slice(geometry.x, float(x0[0]), ell)
    p, _ = _commensurate_steps(h, geometry)
    return slice(rows.start + min(p, 0), rows.stop + max(p, 0))


def commutator(values: BoxField, lam_values: BoxField, x0, ell: float,
               h) -> BoxField:
    """Localized commutator of the finite difference with Lambda.

    C_h(theta) = phi * (delta_h Lambda theta) - phi * Lambda(chi * delta_h theta),
    where (phi, chi) is the standard cutoff pair at (x0, ell).  ``values``
    and ``lam_values`` sample theta and Lambda theta on one band of node
    rows over all columns; the band must hold :func:`commutator_rows`.

    C_h is returned on the cutoff box, which holds both supports; it is zero
    outside.  The box sits >= ell from the boundary and |h| <= ell / 16, so
    every box node has its shifted neighbour in the interior and every node
    is valid.  Everything but Lambda is box-local: phi, chi and the
    localized field chi * delta_h theta live on the box's nodes, and the
    only whole-grid array is the spectrum of the localized field, scaled by
    lam^{1/2} in place.  The inverse transform evaluates only the box's rows.
    """
    hv = np.hypot(float(h[0]), float(h[1]))
    if hv > ell / 16.0 + 1e-12 * ell:
        raise PreconditionError(
            f"|h| = {hv:.4g} exceeds ell/16 = {ell / 16:.4g}")
    g = values.geometry
    box, phi, chi = _cutoff_box(g, x0, ell)
    band = values.box[0]
    need = commutator_rows(g, x0, ell, h)
    if (lam_values.box != values.box
            or values.box[1] != slice(0, g.n_interior)
            or not band.start <= need.start <= need.stop <= band.stop):
        raise ShapeError(
            f"theta and Lambda theta must share one band of rows over all "
            f"columns that holds rows {need.start}..{need.stop - 1}")
    rows, cols = box
    p, q = _commensurate_steps(h, g)
    r0, r1 = rows.start - band.start, rows.stop - band.start
    here = (slice(r0, r1), cols)
    shifted = (slice(r0 + p, r1 + p), slice(cols.start + q, cols.stop + q))
    # chi * delta_h theta on the column band of the box
    loc = np.zeros((g.n_interior, cols.stop - cols.start))
    loc[rows] = chi * (values.values[shifted] - values.values[here])
    coeffs = _lambda_power_rows(_forward_coeffs(loc, g, col0=cols.start),
                                g, 1.0)
    lam_loc = eval_fine(SpectralField(coeffs, g), g.grid_size, rows)
    d_lam = lam_values.values[shifted] - lam_values.values[here]
    d_lam -= lam_loc[:, cols]
    d_lam *= phi
    return BoxField(d_lam, box, g)
