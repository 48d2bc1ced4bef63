"""Nonlocal operators of the Dirichlet square-root Laplacian calculus.

Everything is built on the eigenfunction expansion: fractional powers and the
heat semigroup are mode multipliers, the Riesz velocity is a rotated gradient
of the inverse square root, and the heat kernel is a product of two 1-d
eigensums, ``eigensum_1d``.
The quadrature route to Lambda^s integrates the heat representation

    Lambda^s f = c_s * int_0^inf [f - e^{t Delta} f] t^{-1-s/2} dt

after the substitution t = e^u, with an analytic tail and a refinement
self-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (ConfigurationError, DomainError, NumericError,
                     PreconditionError, ShapeError)
from .geometry import Geometry
from .spectral import (BoxField, GridField, SpectralField, _support,
                       dealiased_product, forward, gradient, inverse)

MAX_CUTOFF_SCALE_FRAC = 0.25    # ell0 = L/4
ERF_SATURATION = 6.0            # erf(z) rounds to sign(z) for |z| >= 6
_LAMBDA_ROWS = 128              # rows per block of an in-place Lambda
_PROFILE_END = 7.0 / 16.0       # smoothstep_profile(z) = 0.0 for z >= 7/16


def erf(z) -> np.ndarray:
    """erf elementwise: math.erf where |z| < ERF_SATURATION, else sign(z)."""
    z = np.asarray(z, dtype=float)
    out = np.sign(z, out=np.empty_like(z))
    small = np.abs(z) < ERF_SATURATION
    out[small] = np.frompyfunc(math.erf, 1, 1)(z[small])
    return out


# ---------------------------------------------------------------------------
# Mode multipliers
# ---------------------------------------------------------------------------

def _lambda_power_blocks(geometry: Geometry, s: float, shape):
    """Yield (rows, lam^{s/2} on those rows) over the leading ``shape``
    block of the spectrum, _LAMBDA_ROWS rows at a time, each formed from
    k^2 in one reused buffer (overwritten by the next) with the bits of
    ``geometry.eigenvalues ** (s / 2)``: no whole-grid table is built."""
    n, width = shape
    k2 = geometry.wavenumbers ** 2
    block = np.empty((min(_LAMBDA_ROWS, n), width))
    for r in range(0, n, _LAMBDA_ROWS):
        rows = slice(r, min(r + _LAMBDA_ROWS, n))
        mult = block[:rows.stop - r]
        np.add(k2[rows, None], k2[None, :width], out=mult)
        mult **= s / 2.0
        yield rows, mult


def _lambda_power_rows(coeffs: np.ndarray, geometry: Geometry,
                       s: float) -> np.ndarray:
    """Multiply ``coeffs``, a leading block of the spectrum or all of it,
    in place by lam^{s/2} (see :func:`_lambda_power_blocks`)."""
    for rows, mult in _lambda_power_blocks(geometry, s, coeffs.shape):
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
    c_s = (s / 2.0) / math.gamma(1.0 - s / 2.0)
    lam_max = float(lam.max())
    lam_min = float(lam.min())
    # head below t_min contributes < tol relatively via 1 - e^{-t lam} <= t lam
    expo = 1.0 - s / 2.0
    t_min = min((quad.tol * expo / c_s) ** (1.0 / expo) / lam_max, 1e-6 / lam_max)
    t_max = 40.0 / lam_min
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

def eigensum_1d(t, a, b, L: float, modes: int, da: int = 0,
                db: int = 0) -> np.ndarray:
    """(2/L) sum_m e^{-t k_m^2} d_a^da sin(k_m a) d_b^db sin(k_m b), k_m = m pi/L.

    The 1-d Dirichlet heat-kernel eigensum over m = 1..modes and its
    derivatives of order 0, 1 or 2 in either point.  ``t``, ``a`` and ``b``
    broadcast against each other; the result has their broadcast shape.
    The square's kernel H_D(t, x, y) over modes m, n = 1..modes is the
    product of the sums in (x_1, y_1) and in (x_2, y_2).
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


def heat_of_one_1d(t, x: np.ndarray, L: float,
                   n_images: int = 6) -> np.ndarray:
    """e^{t Delta} 1 on the interval (0, L), by the method of images.

    ``t`` is a scalar or a 1-d array of times in any order and ``x`` a 1-d
    array of points; the result has shape ``np.shape(t) + x.shape``.

    Image n adds erf(z_0) - erf(z_+)/2 - erf(z_-)/2 with z_0 = (x - 2nL)/s,
    z_+ = (x - (2n + 1)L)/s, z_- = (x - (2n - 1)L)/s and s = 2 sqrt(t).
    :func:`erf` is exactly +-1 for |z| >= 6, so an image whose arguments all
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

    def sup_norm(self) -> float:
        return float(np.sqrt(self.u_x.values ** 2 + self.u_y.values ** 2).max())


def _stream_velocity(stream: SpectralField, j_sign: float) -> VelocityField:
    """The velocity j_sign * grad-perp psi = j_sign * (-d_y psi, d_x psi) of
    the stream function psi, at the interior nodes."""
    psi_x, psi_y = gradient(stream)
    psi_y.values *= -j_sign
    psi_x.values *= j_sign
    return VelocityField(psi_y, psi_x)


def riesz_velocity(theta: SpectralField,
                   j_sign: float = 1.0) -> VelocityField:
    """u = J grad Lambda^{-1} theta with J = rotation by +pi/2 (sign flippable)."""
    g = theta.geometry
    stream = SpectralField(theta.coeffs * g.inv_sqrt_eigenvalues, g,
                           theta.tag)
    return _stream_velocity(stream, j_sign)


def short_time_velocity(theta: SpectralField, tau: float) -> VelocityField:
    """Heat-smoothed part of the Riesz velocity, u_s.

    The mode multiplier is c * int_0^tau t^{-1/2} e^{-t lam} dt
    = lam^{-1/2} erf(sqrt(lam tau)) with c = pi^{-1/2}, so u_s recovers the
    full velocity as tau grows.  It is formed on theta's support block only.
    """
    if tau <= 0:
        raise DomainError(f"short-time velocity requires tau > 0, got {tau}")
    g = theta.geometry
    block = (slice(_support(theta.coeffs)),) * 2
    stream = np.zeros_like(theta.coeffs)
    stream[block] = (g.inv_sqrt_eigenvalues[block] * erf(np.sqrt(
        g.eigenvalues[block] * tau)) * theta.coeffs[block])
    return _stream_velocity(SpectralField(stream, g), 1.0)


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
    t = np.clip((_PROFILE_END - z) / (2.0 / 16.0), 0.0, 1.0)
    return np.clip(t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2), 0.0, 1.0)


@dataclass(frozen=True)
class CutoffPair:
    """Nested bump pair: phi at scale ell inside chi at scale 2 ell."""

    phi: GridField
    chi: GridField


def _box_slice(x: np.ndarray, c: float, scale: float) -> slice:
    """Indices of the sorted nodes x with |x - c| / scale < 7/16.

    smoothstep_profile(|y - c| / scale) is 0.0 at every point y of the
    plane whose coordinate along x lies outside them, since
    |y - c| >= |x - c| also in rounding."""
    inside = np.flatnonzero(np.abs(x - c) / scale < _PROFILE_END)
    return (slice(int(inside[0]), int(inside[-1]) + 1) if inside.size
            else slice(0, 0))


def _cutoff_boxes(geometry: Geometry, x0, ell: float) -> list:
    """[(box, chi on its nodes), (box, phi on its nodes)] for the cutoff
    pair of :func:`standard_cutoff`: each profile is 0.0 outside its box."""
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
    out = []
    for scale in (2.0 * ell, ell):
        box = (_box_slice(x, cx, scale), _box_slice(x, cy, scale))
        r = np.hypot(x[box[0], None] - cx, x[None, box[1]] - cy)
        out.append((box, smoothstep_profile(r / scale)))
    return out


def standard_cutoff(geometry: Geometry, x0, ell: float) -> CutoffPair:
    """phi = profile(|x - x0| / ell), chi = profile(|x - x0| / (2 ell)).

    Requires the doubled bump to stay inside the domain: d(x0) >= 2 ell,
    and ell below the fixed largest admissible scale L/4.  chi vanishes
    where |x - x0| >= 7 ell / 8 and phi where |x - x0| >= 7 ell / 16, so
    each is evaluated on the box of nodes inside that distance of x0 per
    axis and is zero elsewhere.
    """
    fields = []
    for box, values in _cutoff_boxes(geometry, x0, ell):
        field = np.zeros((geometry.n_interior,) * 2)
        field[box] = values
        fields.append(GridField(field, geometry))
    chi, phi = fields
    return CutoffPair(phi=phi, chi=chi)


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
    the result's ``valid`` mask and carry value 0; an input's own ``valid``
    mask is not read.
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
    return GridField(out, g, valid=valid)


def commutator_box(geometry: Geometry, x0, ell: float, h) -> tuple[slice, slice]:
    """The node rows and columns at which :func:`commutator` reads theta
    and Lambda theta: chi's box at (x0, ell) and its shift by h."""
    x = geometry.x
    p, q = _commensurate_steps(h, geometry)
    return tuple(slice(box.start + min(step, 0), box.stop + max(step, 0))
                 for box, step in ((_box_slice(x, float(x0[0]), 2.0 * ell), p),
                                   (_box_slice(x, float(x0[1]), 2.0 * ell), q)))


def commutator(values: BoxField, lam_values: BoxField, cases) -> list:
    """Localized commutators of the finite difference with Lambda, one
    BoxField per case (x0, ell, h) of ``cases``, in order.

    C_h(theta) = phi * (delta_h Lambda theta) - phi * Lambda(chi * delta_h theta),
    where (phi, chi) is the standard cutoff pair at (x0, ell).  ``values``
    and ``lam_values`` sample theta and Lambda theta on one box of nodes,
    which must hold every case's :func:`commutator_box`.

    Each C_h is returned on phi's box (|x - x0| < 7 ell / 16 per axis),
    outside which it is zero.  That box sits >= ell from the boundary and
    |h| <= ell / 16, so every node has its shifted neighbour in the
    interior and is valid.  f = chi * delta_h theta is formed on chi's box
    (|x - x0| < 7 ell / 8), and Lambda f is taken from there to phi's box
    with the sine tables of the boxes' node rows and columns: one table
    over the union of the cases' chi columns, and for each block of 128
    mode rows a table of each case's chi rows.  All cases share one pass
    over Lambda's mode blocks: per block, each case's spectrum
    (S_r^T f) S_c is formed in one reused buffer, scaled by lam^{1/2} and
    taken back as S_r,out (spectrum S_c,out^T), so no (N-1) x (N-1) array
    exists.  This agrees with the DST route to about 2e-13 of the sup
    (tested); a single case is a one-element list, with the same bits.
    The four centers of ``verify``'s check on the 2048 grid take one pass
    of 0.20-0.22 s, of the family's 0.23-0.27 s (2-core VM, one BLAS
    thread, in process).
    """
    g = values.geometry
    n = g.n_interior
    if lam_values.box != values.box:
        raise ShapeError("theta and Lambda theta must share one box of nodes")
    parts = []
    for x0, ell, h in cases:
        hv = np.hypot(float(h[0]), float(h[1]))
        if hv > ell / 16.0 + 1e-12 * ell:
            raise PreconditionError(
                f"|h| = {hv:.4g} exceeds ell/16 = {ell / 16:.4g}")
        (chi_box, chi), (phi_box, phi) = _cutoff_boxes(g, x0, ell)
        need = commutator_box(g, x0, ell, h)
        if not all(have.start <= want.start <= want.stop <= have.stop
                   for have, want in zip(values.box, need)):
            raise ShapeError(
                f"the box of theta and Lambda theta must hold rows "
                f"{need[0].start}..{need[0].stop - 1} and columns "
                f"{need[1].start}..{need[1].stop - 1}")
        steps = _commensurate_steps(h, g)
        f = chi * _box_difference(values, chi_box, steps)
        d_lam = _box_difference(lam_values, phi_box, steps)
        parts.append((chi_box, phi_box, f, np.zeros_like(d_lam), phi, d_lam))
    cols = slice(min((part[0][1].start for part in parts), default=0),
                 max((part[0][1].stop for part in parts), default=0))
    col_sines = g.sine_rows(cols, slice(None))
    spec = np.empty((min(_LAMBDA_ROWS, n), n))
    for modes, mult in _lambda_power_blocks(g, 1.0, (n, n)):
        block = spec[:mult.shape[0]]
        for chi_box, phi_box, f, lam_f, *_ in parts:
            sr = g.sine_rows(chi_box[0], modes)
            np.matmul(sr.T @ f, col_sines[_within(chi_box[1], cols)],
                      out=block)
            block *= mult
            lam_f += (sr[_within(phi_box[0], chi_box[0])]
                      @ (block @ col_sines[_within(phi_box[1], cols)].T))
    out = []
    for _, phi_box, _, lam_f, phi, d_lam in parts:
        # the forward (L / 2N^2) * 4 and inverse (2 / L) / 4 * 4 DST scales
        d_lam -= (4.0 / g.grid_size ** 2) * lam_f
        d_lam *= phi
        out.append(BoxField(d_lam, phi_box, g))
    return out


def _within(inner: slice, outer: slice) -> slice:
    """The indices ``inner`` counted from the start of ``outer``."""
    return slice(inner.start - outer.start, inner.stop - outer.start)


def _box_difference(field: BoxField, box, steps) -> np.ndarray:
    """delta_h of ``field`` at the nodes ``box``, for h = ``steps`` grid
    steps; the caller checks that ``field.box`` holds the shifted box."""
    here = tuple(_within(s, b) for s, b in zip(box, field.box))
    shifted = tuple(slice(s.start + k, s.stop + k)
                    for s, k in zip(here, steps))
    return field.values[shifted] - field.values[here]
