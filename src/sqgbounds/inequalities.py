"""Numerical verification of the boundary-regularity inequalities.

Each verify_* operation turns one estimate into a reproducible check over a
seeded sample family and returns an :class:`InequalityReport`.  Constants are
fitted minima/maxima over the samples, never certified bounds; every report
records the sample plan that produced it.
"""
from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .config import SolverConfig
from .errors import ConfigurationError, PreconditionError
from .geometry import Geometry, fit_ground_state_equivalence
from .diagnostics import (_shell_sup, boundary_ratio, fit_line,
                          holder_seminorm, interior_lipschitz, ratio_lp_norm,
                          ratio_quad, ratio_sup_by_rows,
                          weighted_ratio_norm)
from .operators import (ConvexFn, _box_slice, _lambda_power_rows,
                        apply_lambda_power, commutator, commutator_box,
                        eigensum_1d, finite_difference, heat_of_one_1d,
                        heat_semigroup, lambda_of_values, log_time_rule,
                        nonlinear_dissipation, riesz_velocity,
                        short_time_velocity, standard_cutoff,
                        weighted_convexity_terms)
from .solver import RunResult
from .spectral import (BoxField, GridField, SpectralField, _support, forward,
                       gradient, inverse, mode_field)


@dataclass
class InequalityReport:
    """Outcome of one verification: margins, fitted constants, pass/fail."""

    name: str
    samples: int
    min_margin: float
    tolerance: float
    passed: bool
    fitted_constants: dict = field(default_factory=dict)
    regression: tuple[float, float, float] | None = None   # slope, intercept, r2
    margins: list = field(default_factory=list)
    sample_plan: dict = field(default_factory=dict)
    notes: str = ""


def seeded_family(geometry: Geometry, count: int, max_mode: int,
                  seed: int) -> list[SpectralField]:
    """Reproducible low-mode random fields, unit-normalized in L^2."""
    rng = default_rng(seed)
    out = []
    for i in range(count):
        c = np.zeros((geometry.n_interior,) * 2)
        c[:max_mode, :max_mode] = rng.standard_normal((max_mode, max_mode))
        c /= np.sqrt((c ** 2).sum())
        out.append(SpectralField(c, geometry, tag=f"family-{seed}-{i}"))
    return out


def conditional_family(geometry: Geometry) -> list[SpectralField]:
    """Five low-mode fields with boundary ratios spanning roughly 1.8 to 4.8."""
    plans = [((1, 1, 1.0),),
             ((1, 1, 1.0), (2, 1, 0.5)),
             ((1, 1, 1.5), (1, 2, 0.4), (3, 3, 0.2)),
             ((1, 1, 2.0), (2, 2, 0.6)),
             ((1, 1, 1.0), (4, 1, 0.3), (1, 4, 0.3), (5, 5, 0.1))]
    out = []
    for i, plan in enumerate(plans):
        c = np.zeros((geometry.n_interior,) * 2)
        for m, n, a in plan:
            c[m - 1, n - 1] = a
        out.append(SpectralField(c, geometry, tag=f"conditional-{i}"))
    return out


def constant_field(geometry: Geometry) -> SpectralField:
    """Projection of the constant 1 onto the retained eigenmodes."""
    m = geometry.modes.astype(float)
    odd = (1.0 - (-1.0) ** m)
    axis = (geometry.side_length / np.pi ** 2) * odd / m
    return SpectralField(2.0 * np.outer(axis, axis) * np.pi ** 2
                         / geometry.side_length, geometry, tag="one")


# ---------------------------------------------------------------------------
# Pointwise convexity inequalities
# ---------------------------------------------------------------------------

def verify_cordoba(geometry: Geometry, fields: list[SpectralField],
                   phi: ConvexFn) -> InequalityReport:
    """Boundary-repulsive convexity: Phi'(f) Lf - L(Phi(f)) >= (c/d) (f Phi' - Phi).

    The fitted c is the infimum of the pointwise ratio over the family,
    restricted to unmasked nodes at least 4 spacings inside.
    """
    if abs(float(phi(0.0))) > 1e-12:
        raise PreconditionError("convex profile must vanish at 0")
    keep = geometry.unmasked(min_distance=4 * geometry.spacing)
    margins = []
    for f in fields:
        fv = inverse(f).values
        lam_f = inverse(apply_lambda_power(f, 1.0)).values
        phif = np.asarray(phi(fv), float)
        lhs = (np.asarray(phi.deriv(fv), float) * lam_f
               - lambda_of_values(phif, geometry))
        denom = fv * np.asarray(phi.deriv(fv), float) - phif
        scale = max(float(np.abs(denom).max()), 1e-300)
        ratio_ok = keep & (denom > 1e-12 * scale)
        if ratio_ok.any():
            ratio = geometry.distance[ratio_ok] * lhs[ratio_ok] / denom[ratio_ok]
            margins.append(float(ratio.min()))
        else:
            # degenerate profile (linear): both sides vanish identically
            margins.append(0.0 if np.abs(lhs[keep]).max() < 1e-10 else -np.inf)
    min_margin = float(min(margins))
    degenerate = all(m == 0.0 for m in margins)
    passed = min_margin > 0.0 or degenerate
    return InequalityReport(
        name="cordoba", samples=len(fields), min_margin=min_margin,
        tolerance=0.0, passed=passed,
        fitted_constants={"gamma1": min_margin},
        margins=margins,
        sample_plan={"fields": [f.tag for f in fields],
                     "mask": "unmasked, d >= 4 spacings"},
        notes="degenerate (both sides zero)" if degenerate else "")


def verify_weighted_identity(ratios: list[GridField], w: SpectralField,
                             phis: list[ConvexFn]) -> InequalityReport:
    """Nonnegativity of the convexity defect D_Phi for each ratio and profile."""
    margins = []
    for b in ratios:
        for phi in phis:
            lhs, _, defect = weighted_convexity_terms(b, w, phi)
            scale = max(float(np.abs(lhs.values).max()), 1e-300)
            margins.append(float(defect.values.min()) / scale)
    min_margin = float(min(margins)) if margins else 0.0
    return InequalityReport(
        name="weighted_identity", samples=len(margins),
        min_margin=min_margin, tolerance=1e-8,
        passed=min_margin >= -1e-8,
        fitted_constants={"min_relative_defect": min_margin},
        margins=margins,
        sample_plan={"profiles": [phi.name for phi in phis],
                     "ratios": len(ratios)})


# ---------------------------------------------------------------------------
# Lambda applied to 1
# ---------------------------------------------------------------------------

def heat_of_one_nodes(geometry: Geometry, t: np.ndarray) -> np.ndarray:
    """e^{t Delta} 1 on (0, L) at the interior nodes, one row per time: the
    sine series sum_{odd k} (4/k pi) e^{-t (k pi/L)^2} sin(k pi x/L) on the
    K modes of the node table where t ((K+1) pi/L)^2 >= 40 (the rest falls
    below e^{-40}), else the image sum of ``heat_of_one_1d``."""
    L, K = geometry.side_length, geometry.node_sines.shape[1]
    k = np.arange(1, K + 1, 2) * (np.pi / L)         # odd modes k = 1, 3, ...
    early = t * ((K + 1) * np.pi / L) ** 2 < 40.0
    heat = np.empty((t.size, geometry.n_interior))
    heat[early] = heat_of_one_1d(t[early], geometry.x, L, n_images=20)
    heat[~early] = (4.0 / (k * L) * np.exp(-np.outer(t[~early], k * k))
                    ) @ geometry.node_sines[:, ::2].T
    return heat


def lambda_one_values(geometry: Geometry, panels: int = 60) -> np.ndarray:
    """(Lambda 1)(x) at the interior nodes via the heat representation
    Lambda 1 = c_1 int_0^inf t^{-3/2} [1 - (e^{t Delta} 1)(x)] dt, with the
    heat-of-one factorized (:func:`heat_of_one_nodes`)."""
    L = geometry.side_length
    t_max = 50.0 * (L / np.pi) ** 2
    t, wq = log_time_rule(1e-8, t_max, panels, 10)
    out = np.zeros((geometry.n_interior,) * 2)
    c1 = 0.5 / np.sqrt(np.pi)
    for tt, ww, s in zip(t, wq, heat_of_one_nodes(geometry, t)):
        out += ww * tt ** -0.5 * (1.0 - np.outer(s, s))
    # past t_max the heat of one is negligible: tail = int t^{-3/2} dt
    return c1 * (out + 2.0 / np.sqrt(t_max))


def verify_lambda_one_lower(geometry: Geometry) -> InequalityReport:
    """(Lambda 1)(x) >= c0 / w_1(x) with fitted c0 over unmasked nodes."""
    vals = lambda_one_values(geometry)
    check = lambda_one_values(geometry, panels=90)
    quad_resid = float(np.abs(vals - check).max() / np.abs(check).max())
    keep = geometry.unmasked()
    product = vals * geometry.ground_state
    c0 = float(product[keep].min())
    # symmetry under x -> L - x (the transpose is exact: a sum of outer(s, s))
    sym = float(np.abs(vals - vals[::-1, :]).max())
    # margin concentrates at the boundary: the profile decays inward
    mid = geometry.n_interior // 2
    centerline = vals[: mid + 1, mid]
    monotone = bool(np.all(np.diff(centerline) <= 1e-10))
    margins = list((product[keep] - c0).ravel()[:1000])
    passed = c0 > 0.0 and sym < 1e-10 and monotone and quad_resid < 1e-8
    return InequalityReport(
        name="lambda_one_lower", samples=int(keep.sum()),
        min_margin=c0, tolerance=0.0, passed=passed,
        fitted_constants={"c0": c0, "symmetry_residual": sym,
                          "quadrature_residual": quad_resid,
                          "centerline_monotone": float(monotone)},
        margins=margins,
        sample_plan={"grid": geometry.grid_size,
                     "quadrature": "heat representation, images"})


# ---------------------------------------------------------------------------
# Run-based envelopes
# ---------------------------------------------------------------------------

def verify_decay_envelope(result: RunResult, config: SolverConfig,
                          B: float) -> InequalityReport:
    """|theta(x,t)| <= B w_1(x) exp(-t sqrt(lam1)) along a run."""
    g = result.snapshots[0].theta.geometry
    theta0 = inverse(result.snapshots[0].theta).values
    if np.any(np.abs(theta0) > B * g.ground_state * (1 + 1e-12)):
        raise PreconditionError("initial data exceeds B w_1")
    margins = []
    for state in result.snapshots:
        envelope = B * g.ground_state * np.exp(-state.t * np.sqrt(g.lam1))
        vals = np.abs(inverse(state.theta).values)
        margins.append(float(((envelope - vals) / (B * g.ground_state)).min()))
    min_margin = float(min(margins[1:] or margins))   # t = 0 is set by B
    tol = 1e-6 + 1e-4
    return InequalityReport(
        name="decay_envelope", samples=len(margins),
        min_margin=min_margin, tolerance=tol,
        passed=min_margin >= -tol,
        fitted_constants={"B": B},
        margins=margins,
        sample_plan={"times": [s.t for s in result.snapshots],
                     "drift_mode": config.drift_mode})


def verify_weighted_lp_control(result: RunResult,
                               m: int = 2) -> InequalityReport:
    """Weighted moment decay: int w_1 b_1^{2m} <= e^{-(2m-1) t sqrt(lam1)} x initial."""
    g = result.snapshots[0].theta.geometry
    c0, _ = fit_ground_state_equivalence(g)
    grad_w1 = gradient(mode_field(g, 1, 1))
    grad_sup = float(np.hypot(grad_w1[0].values, grad_w1[1].values).max())
    limit = c0 / ((2 * m - 1) * grad_sup)
    lhs0 = weighted_ratio_norm(result.snapshots[0].theta, m) ** (2 * m)
    margins = []
    for state in result.snapshots:
        lhs = weighted_ratio_norm(state.theta, m) ** (2 * m)
        rhs = lhs0 * np.exp((2 * m - 1) * (-state.t * np.sqrt(g.lam1)))
        scale = max(rhs, 1e-300)
        margins.append(float((rhs - lhs) / scale))
    min_margin = float(min(margins[1:] or margins))   # t = 0 reads 0.0
    tol = 0.05
    return InequalityReport(
        name="weighted_lp_control", samples=len(margins),
        min_margin=min_margin, tolerance=tol,
        passed=min_margin >= -tol,
        fitted_constants={"m": float(m), "v_s_threshold": limit},
        margins=margins,
        sample_plan={"times": [s.t for s in result.snapshots]})


# ---------------------------------------------------------------------------
# Norm bridges
# ---------------------------------------------------------------------------

def verify_weight_norm_bridge(theta: SpectralField, m: int,
                              p: float) -> InequalityReport:
    """Weighted/unweighted norm comparisons for b_1 = theta / w_1.

    Forward direction (m > p >= 1):
        ||b||_p <= C_{m,p} (int w_1 b^{2m})^{1/2m},
        C_{m,p} = (int w_1^{-p/(2m-p)})^{(2m-p)/(2mp)}.
    Converse (p >= 2m - 1):
        (int w_1 b^{2m})^{1/2m}
        <= ||theta||_inf^{1/2m} ||b||_p^{(2m-1)/m} |Omega|^{(p+1-2m)/(2mp)}.
    """
    g = theta.geometry
    b1 = boundary_ratio(theta)
    lhs_p = ratio_lp_norm(b1, p)
    weighted = weighted_ratio_norm(theta, m)
    margins = []
    constants = {}
    if m > p >= 1:
        expo = p / (2 * m - p)
        A = ratio_quad(g, g.ground_state ** -expo)
        C = A ** ((2 * m - p) / (2 * m * p))
        rhs = C * weighted
        margins.append(float((rhs - lhs_p) / max(rhs, 1e-300)))
        constants["C_mp"] = C
        constants["A_mp"] = A
    if p >= 2 * m - 1:
        area = g.area
        sup = inverse(theta).sup_norm()
        rhs = (sup ** (1.0 / (2 * m)) * lhs_p ** ((2 * m - 1) / m)
               * area ** ((p + 1 - 2 * m) / (2 * m * p)))
        margins.append(float((rhs - weighted) / max(rhs, 1e-300)))
        constants["converse_rhs"] = rhs
    if not margins:
        raise ConfigurationError(
            f"no direction applies for m={m}, p={p} (need m > p >= 1 or "
            f"p >= 2m-1)")
    min_margin = float(min(margins))
    return InequalityReport(
        name="weight_norm_bridge", samples=len(margins),
        min_margin=min_margin, tolerance=0.0,
        passed=min_margin >= 0.0,
        fitted_constants=constants, margins=margins,
        sample_plan={"m": m, "p": p, "theta": theta.tag})


# ---------------------------------------------------------------------------
# Velocity bounds
# ---------------------------------------------------------------------------

def verify_velocity_log_bound(theta: SpectralField,
                              expect_log_growth: bool = True
                              ) -> InequalityReport:
    """Shell regression of sup |u| against log(1/d) near the boundary.

    Fits |u| ~ A + B log(1/d); for boundary-nonvanishing data the growth is
    logarithmic (B > 0 with a tight fit), for ground-state-dominated data B
    collapses.  Also reports the exponential integrability proxy
    int e^{gamma |u|} for a small fitted gamma.
    """
    g = theta.geometry
    u = riesz_velocity(theta)
    mag = np.hypot(u.u_x.values, u.u_y.values)
    logs_d, sups = _shell_sup(mag, g, 6)
    if len(logs_d) < 3:
        raise ConfigurationError("not enough shells for the regression")
    x = [-ld for ld in logs_d]          # log(1/d)
    slope, intercept, r2 = fit_line(x, sups)
    M = interior_lipschitz(theta)
    gamma = 1.0 / (2.0 * (abs(slope) + 1.0))
    exp_integral = ratio_quad(g, np.exp(gamma * mag))
    if expect_log_growth:
        passed = slope > 0 and r2 >= 0.9
        min_margin = r2 - 0.9
    else:
        passed = bool(np.isfinite(mag.max()))
        min_margin = float(mag.max())
    return InequalityReport(
        name="velocity_log_bound", samples=len(x),
        min_margin=float(min_margin), tolerance=0.0, passed=passed,
        fitted_constants={"A": intercept, "B": slope, "M": M,
                          "u_sup": float(mag.max()),
                          "exp_gamma": gamma,
                          "exp_integral": exp_integral},
        regression=(slope, intercept, r2),
        margins=sups,
        sample_plan={"shells": len(x), "theta": theta.tag,
                     "expect_log_growth": expect_log_growth})


def verify_velocity_conditional_bound(fields: list[SpectralField],
                                      p: float) -> InequalityReport:
    """||u||_inf <= C (M + ||theta||_inf (1 + log ||b_1||_p)) with one stable C."""
    cs, margins = [], []
    for f in fields:
        u = riesz_velocity(f)
        sup_u = u.sup_norm()
        M = interior_lipschitz(f)
        sup_t = inverse(f).sup_norm()
        b1p = ratio_lp_norm(boundary_ratio(f), p)
        rhs_unit = M + sup_t * (1.0 + max(np.log(b1p), 0.0))
        cs.append(sup_u / rhs_unit)
    C = max(cs)
    med = float(statistics.median(cs))   # np.median would import numpy.ma
    for c, f in zip(cs, fields):
        margins.append(float(1.0 - abs(c - med) / (0.5 * med)))
    min_margin = float(min(margins))
    passed = all(0.5 * med <= c <= 1.5 * med for c in cs)
    return InequalityReport(
        name="velocity_conditional_bound", samples=len(fields),
        min_margin=min_margin, tolerance=0.0, passed=passed,
        fitted_constants={"C": C, "C_median": med},
        margins=margins,
        sample_plan={"p": p, "fields": [f.tag for f in fields]})


def verify_short_time_smallness(theta: SpectralField, c_r: float
                                ) -> InequalityReport:
    """Existence of tau > 0 with ||u_s(tau)||_inf <= c_r (bisection in log tau)."""
    if c_r <= 0:
        raise ConfigurationError("threshold c_r must be positive")
    u_full = riesz_velocity(theta).sup_norm()
    if c_r >= u_full:
        return InequalityReport(
            name="short_time_smallness", samples=0,
            min_margin=float("inf"), tolerance=0.0, passed=True,
            fitted_constants={"tau": float("inf"), "c_r": c_r,
                              "u_sup": u_full},
            sample_plan={"theta": theta.tag},
            notes="unconstrained: threshold at or above the full velocity")
    lo, hi = np.log(1e-12), np.log(1e3)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if short_time_velocity(theta, np.exp(mid)).sup_norm() <= c_r:
            lo = mid
        else:
            hi = mid
    tau = float(np.exp(lo))
    achieved = short_time_velocity(theta, tau).sup_norm()
    return InequalityReport(
        name="short_time_smallness", samples=1,
        min_margin=float(c_r - achieved), tolerance=0.0,
        passed=tau > 0 and achieved <= c_r,
        fitted_constants={"tau": tau, "c_r": c_r, "u_sup": u_full},
        margins=[float(c_r - achieved)],
        sample_plan={"theta": theta.tag})


def verify_finite_difference_velocity(theta: SpectralField, x0, ell: float,
                                      p: float = 4.0) -> InequalityReport:
    """Pointwise finite-difference velocity bound with an eps sweep.

    |phi delta_h u| <= sqrt(eps d D(chi delta_h theta))
                       + C_eps |h| d^{-2/p} ||b_1||_p
                       + delta(eps) phi |delta_h theta|
    delta(eps) is measured as the short-time velocity contribution at
    tau = (eps d(x0))^2 for eps = 0.1, 0.05, 0.025 and must be
    nonincreasing in eps.
    """
    g = theta.geometry
    cut = standard_cutoff(g, x0, ell)
    d0 = min(x0[0], g.side_length - x0[0], x0[1], g.side_length - x0[1])
    b1p = ratio_lp_norm(boundary_ratio(theta), p)
    u = riesz_velocity(theta)
    dx = g.spacing
    hs = []
    steps = max(1, int(np.floor(d0 / 16.0 / dx)))
    while steps >= 1:
        hs.append((steps * dx, 0.0))
        steps //= 2
        if len(hs) == 2:
            break
    deltas, c_fits, margins = {}, [], []
    supp = cut.phi.values > 0
    theta_grid = inverse(theta)
    per_h = []                  # the terms that do not depend on eps
    for h in hs:
        dux = finite_difference(u.u_x, h)
        duy = finite_difference(u.u_y, h)
        dtheta = finite_difference(theta_grid, h)
        loc = forward(GridField(cut.chi.values * dtheta.values, g))
        base = cut.phi.values * np.abs(dtheta.values)
        per_h.append((h,
                      cut.phi.values * np.hypot(dux.values, duy.values),
                      np.maximum(nonlinear_dissipation(loc).values, 0.0),
                      base, float(base[supp].max()),
                      np.hypot(*h) * g.distance ** (-2.0 / p) * b1p,
                      supp & dux.valid & duy.valid))
    for eps in (0.1, 0.05, 0.025):
        tau = (eps * d0) ** 2
        u_s = short_time_velocity(theta, tau)
        for h, lhs, diss, base, ref, weight, sel in per_h:
            term1 = np.sqrt(eps * g.distance * diss)
            dusx = finite_difference(u_s.u_x, h)
            dusy = finite_difference(u_s.u_y, h)
            ds_mag = np.hypot(dusx.values, dusy.values)
            delta_eps = float((cut.phi.values * ds_mag)[supp].max()) / max(ref, 1e-300)
            deltas.setdefault(eps, delta_eps)
            term3 = delta_eps * base
            resid = np.maximum(lhs - term1 - term3, 0.0)
            c_eps = float((resid[sel] / weight[sel]).max())
            c_fits.append(c_eps)
            rhs = term1 + c_eps * weight + term3
            margins.append(float((rhs - lhs)[sel].min()))
    eps_sorted = sorted(deltas)                       # ascending eps
    delta_seq = [deltas[e] for e in eps_sorted]
    nonincreasing = all(a <= b + 1e-12 for a, b in zip(delta_seq, delta_seq[1:]))
    C = max(c_fits)
    min_margin = float(min(margins))
    return InequalityReport(
        name="finite_difference_velocity", samples=len(margins),
        min_margin=min_margin, tolerance=1e-12,
        passed=np.isfinite(C) and nonincreasing and min_margin >= -1e-12,
        fitted_constants={"C_eps": C,
                          **{f"delta_eps_{e:g}": deltas[e] for e in eps_sorted}},
        margins=margins,
        sample_plan={"x0": list(x0), "ell": ell, "p": p,
                     "eps": list(eps_sorted),
                     "h": [list(h) for h in hs]})


def verify_normal_velocity_rate(theta: SpectralField, p: float,
                                alpha: float) -> InequalityReport:
    """Vanishing rate of u . N at the boundary, N from a smoothed distance field.

    N = grad of the distance function smoothed by the heat semigroup at
    t = 2e-3, the inward normal near the sides.  The shell slope of
    log sup |u . N| vs log d over 5 shells must reach
    min(1 - 2/p, alpha) - 0.15.
    """
    g = theta.geometry
    dist = forward(GridField(g.distance, g))
    smoothing = 2e-3
    smooth = heat_semigroup(dist, smoothing)
    nx, ny = gradient(smooth)           # N = grad(smoothed distance), inward
    u = riesz_velocity(theta)
    un = np.abs(u.u_x.values * nx.values + u.u_y.values * ny.values)
    logs_d, sups = _shell_sup(un, g, 5)
    if len(logs_d) < 3 or min(sups) <= 0:
        raise ConfigurationError("not enough shells for the regression")
    slope, intercept, r2 = fit_line(logs_d, np.log(sups))
    target = min(1.0 - 2.0 / p, alpha) - 0.15
    return InequalityReport(
        name="normal_velocity_rate", samples=len(logs_d),
        min_margin=float(slope - target), tolerance=0.0,
        passed=slope >= target,
        fitted_constants={"slope": slope, "target": target,
                          "b1_p": ratio_lp_norm(boundary_ratio(theta), p),
                          "holder": holder_seminorm(theta, alpha)},
        regression=(slope, intercept, r2),
        margins=list(np.log(sups)),
        sample_plan={"p": p, "alpha": alpha, "smoothing": smoothing,
                     "shells": len(logs_d), "theta": theta.tag})


def _box_shape(geometry: Geometry, x0, scale: float) -> list:
    """Node rows and columns of the box outside which the profile at
    (x0, scale) is 0.0 (see :func:`standard_cutoff`)."""
    return [s.stop - s.start for s in (_box_slice(geometry.x, x0[0], scale),
                                       _box_slice(geometry.x, x0[1], scale))]


def verify_commutator_scaling(theta: SpectralField,
                              centers=None) -> InequalityReport:
    """Dyadic scaling of the localized commutator with the boundary distance.

    For centers at dyadic d(x0), h rounded to the grid near d(x0)/32 and
    ell = d(x0)/2, the regression slope of log(||C_h||_inf / |h|) against
    log d(x0) must lie in [-1.3, 0]: the exponent p of ||b_1||_p is inf,
    where the 2/p shift of the slope vanishes.

    theta and Lambda theta are evaluated from theta's K x K support block
    by products with the sine table of the nodes and modes up to K: row
    blocks give ||b_1||_inf, and both fields are kept on the box of nodes
    that holds every center's chi box and its h-shift.  One
    :func:`commutator` pass takes every center, as one case each, and the
    sup is taken over each center's phi box.  For a low-mode theta no other
    array spans the grid.

    The ``verify`` command runs this family on the calling thread, while
    its other families run on one helper thread (see :mod:`.cli`).  On the
    2048 grid it takes 0.23-0.27 s in process, and its lane, with the
    2048 geometry and theta built, 0.23-0.34 s, against 0.22-0.35 s for the
    other twelve families together (2-core VM, one BLAS thread).
    """
    g = theta.geometry
    n = g.n_interior
    dx = g.spacing
    L = g.side_length
    if centers is None:
        # near-boundary dyadic distances: the claimed 1/d scaling is a
        # boundary statement, so the largest shell stays below L/8
        centers = []
        d = L / 8.0
        while d >= 32 * dx and len(centers) < 5:
            centers.append((d, L / 2.0))
            d *= 0.5
    if len(centers) < 3:
        raise ConfigurationError(
            "grid too coarse for at least 3 dyadic commutator shells")
    plan = []
    for x0 in centers:
        d0 = min(x0[0], L - x0[0], x0[1], L - x0[1])
        hmag = max(1, int(np.floor(d0 / 32.0 / dx))) * dx
        plan.append((x0, d0, d0 / 2.0, hmag))
    cases = [(x0, ell, (hmag, 0.0)) for x0, _, ell, hmag in plan]
    boxes = [commutator_box(g, *case) for case in cases]
    box = tuple(slice(max(0, min(b[axis].start for b in boxes)),
                      min(n, max(b[axis].stop for b in boxes)))
                for axis in (0, 1))
    K = _support(theta.coeffs)
    sines = g.sine_rows(slice(None), slice(K))
    block = theta.coeffs[:K, :K]
    # theta at the node rows r is sines[r] @ half, Lambda theta likewise
    half = (2.0 / L) * block @ sines.T
    lam_half = ((2.0 / L) * _lambda_power_rows(block.copy(), g, 1.0)
                @ sines[box[1]].T)
    b1_sup = ratio_sup_by_rows(g, lambda rows: sines[rows] @ half)
    values = BoxField(sines[box[0]] @ half[:, box[1]], box, g)
    lam_values = BoxField(sines[box[0]] @ lam_half, box, g)
    logs_d, logs_ratio, gammas = [], [], []
    for (x0, d0, ell, hmag), C in zip(plan,
                                      commutator(values, lam_values, cases)):
        sup = C.sup_norm()
        if sup <= 0:
            continue
        logs_d.append(np.log(d0))
        logs_ratio.append(np.log(sup / hmag))
        gammas.append(sup * d0 / (hmag * b1_sup))
    slope, intercept, r2 = fit_line(logs_d, logs_ratio)
    lo = -1.3
    gamma0 = float(max(gammas))
    margins = [slope - lo, -slope]
    return InequalityReport(
        name="commutator_scaling", samples=len(logs_d),
        min_margin=float(min(margins)), tolerance=0.0,
        passed=lo <= slope <= 0.0 and np.isfinite(gamma0),
        fitted_constants={"Gamma0": gamma0, "slope": slope,
                          "slope_range_low": lo},
        regression=(slope, intercept, r2),
        margins=margins,
        sample_plan={"centers": [list(c) for c in centers], "p": np.inf,
                     "theta": theta.tag,
                     "h": [hmag for *_, hmag in plan],
                     "ell": [ell for _, _, ell, _ in plan],
                     "chi_box": [_box_shape(g, x0, 2.0 * ell)
                                 for x0, _, ell, _ in plan],
                     "phi_box": [_box_shape(g, x0, ell)
                                 for x0, _, ell, _ in plan]})


# ---------------------------------------------------------------------------
# Heat-kernel bound families
# ---------------------------------------------------------------------------

def verify_kernel_bounds(geometry: Geometry, n_samples: int = 500,
                         seed: int = 0, horizon: float = 1.0
                         ) -> InequalityReport:
    """Gaussian-envelope fits for the Dirichlet kernel and its derivatives.

    Sample plan: Latin-hypercube in (log t, x, direction, scaled radius) with
    r^2/(4t) <= 30 by construction; corner-masked positions rejected.  The
    upper bound H <= C pref(x, y, r) t^{-1} e^{-r^2/(K t)} is fitted by
    regressing log(H / pref / t^{-1}) on r^2/t (slope = -1/K); the lower
    bound reuses K with c = min ratio.  First/second derivative families fit
    max-ratio constants against free-space-shaped envelopes.  Each 1-d
    eigensum keeps 384 modes.
    """
    rng = default_rng(seed)
    L = geometry.side_length
    modes = 384
    dims = 5
    lattice = (rng.permuted(np.tile(np.arange(n_samples), (dims, 1)), axis=1)
               + rng.random((dims, n_samples))) / n_samples
    t = np.exp(np.log(1e-3) + lattice[0] * (np.log(horizon) - np.log(1e-3)))
    xs = 0.05 * L + lattice[1] * 0.9 * L
    ys = 0.05 * L + lattice[2] * 0.9 * L
    angle = lattice[3] * 2 * np.pi
    r = np.sqrt(4.0 * t * (lattice[4] * 30.0))

    def w1(px, py):
        return (2.0 / L) * np.sin(np.pi * px / L) * np.sin(np.pi * py / L)

    # y = x + r (cos, sin); reject y near the sides and x or y near a corner
    yx, yy = xs + r * np.cos(angle), ys + r * np.sin(angle)
    keep = (0.02 * L < yx) & (yx < 0.98 * L) & (0.02 * L < yy) & (yy < 0.98 * L)
    for px, py in ((xs, ys), (yx, yy)):
        for cx, cy in ((0, 0), (0, L), (L, 0), (L, L)):
            keep &= np.hypot(px - cx, py - cy) >= geometry.corner_radius
    rejected = n_samples - int(keep.sum())
    ts, x0, x1, y0, y1 = t[keep], xs[keep], ys[keep], yx[keep], yy[keep]
    rr = np.maximum(r[keep], 1e-9)

    h1 = eigensum_1d(ts, x0, y0, L, modes)
    h2 = eigensum_1d(ts, x1, y1, L, modes)
    h_vals = h1 * h2
    d1a = eigensum_1d(ts, x0, y0, L, modes, da=1)
    d2a = eigensum_1d(ts, x1, y1, L, modes, da=1)
    grads_x = np.hypot(d1a * h2, h1 * d2a)
    s1 = eigensum_1d(ts, x0, y0, L, modes, da=2)
    s2 = eigensum_1d(ts, x1, y1, L, modes, da=2)
    hess = np.maximum.reduce([abs(s1 * h2), abs(h1 * s2), abs(d1a * d2a)])
    prefs = np.minimum(w1(x0, x1) / rr, 1.0) * np.minimum(w1(y0, y1) / rr, 1.0)
    zs = rr ** 2 / ts

    pos = h_vals > 0
    log_ratio = np.log(h_vals[pos] / (prefs[pos] / ts[pos]))
    slope, intercept, r2 = fit_line(zs[pos], log_ratio)
    K = -1.0 / slope if slope < 0 else float("inf")
    envelope = prefs / ts * np.exp(-zs / K)
    upper_C = float((h_vals[pos] / envelope[pos]).max())
    lower_c = float((h_vals[pos] / envelope[pos]).min())
    grad_env = np.exp(-zs / K) * ts ** -1.5
    C_grad = float((grads_x[pos] / grad_env[pos]).max())
    hess_env = np.exp(-zs / K) * ts ** -2.0
    C_hess = float((hess[pos] / hess_env[pos]).max())

    fits = {"K": K, "C": upper_C, "c": lower_c,
            "C_grad": C_grad, "C_hess": C_hess}
    finite = all(np.isfinite(v) for v in fits.values())
    passed = finite and lower_c > 0 and 1.0 <= K <= 16.0
    margins = list(np.log(h_vals[pos] / envelope[pos]))
    return InequalityReport(
        name="kernel_bounds", samples=int(pos.sum()),
        min_margin=float(lower_c), tolerance=0.0, passed=passed,
        fitted_constants=fits,
        regression=(slope, intercept, r2),
        margins=margins,
        sample_plan={"requested": n_samples, "rejected": rejected,
                     "seed": seed, "horizon": horizon, "modes": modes})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _plain(value):
    """A NumPy scalar as the Python scalar it holds; anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


def report_to_text(report: InequalityReport) -> str:
    """The text report; NumPy scalars are written as the numbers they hold."""
    lines = [
        f"report: {report.name}",
        f"pass: {report.passed}",
        f"samples: {report.samples}",
        f"min_margin: {_plain(report.min_margin)!r}",
        f"tolerance: {_plain(report.tolerance)!r}",
    ]
    for key in sorted(report.fitted_constants):
        lines.append(f"constant {key}: {_plain(report.fitted_constants[key])!r}")
    if report.regression is not None:
        s, i, r2 = map(_plain, report.regression)
        lines.append(f"regression: slope={s!r} intercept={i!r} r2={r2!r}")
    for key in sorted(report.sample_plan):
        lines.append(f"plan {key}: {report.sample_plan[key]}")
    if report.notes:
        lines.append(f"notes: {report.notes}")
    return "\n".join(lines) + "\n"


def write_report(report: InequalityReport, directory) -> tuple[str, str]:
    """Write <name>.txt and <name>_margins.csv; returns both paths."""
    os.makedirs(directory, exist_ok=True)
    text_path = os.path.join(directory, f"{report.name}.txt")
    with open(text_path, "w") as fh:
        fh.write(report_to_text(report))
    csv_path = os.path.join(directory, f"{report.name}_margins.csv")
    with open(csv_path, "w") as fh:
        fh.write("index,margin\n")
        for i, m in enumerate(report.margins):
            fh.write(f"{i},{float(m)!r}\n")
    return text_path, csv_path
