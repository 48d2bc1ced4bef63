"""Regularity functionals: ratio norms, interior Lipschitz, Hölder seminorm.

Everything here is a pure function of a state; ``record`` aggregates one
time slice into a ``DiagnosticsRecord`` and ``append_csv`` serializes rows
with a fixed column order.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .geometry import Geometry
from .operators import riesz_velocity
from .spectral import GridField, SpectralField, gradient, inverse
from .solver import SolverState, half_norm_sq

SPACE_DIMENSION = 2    # d in the d/p exponents

DEFAULT_PS = (2.0, 4.0)
DEFAULT_MS = (2,)
DEFAULT_ALPHAS = (0.4,)
_SUP_ROWS = 128        # rows per block of ratio_sup


def boundary_ratio(theta: SpectralField) -> GridField:
    """b_1 = theta / w_1 at the interior nodes (w_1 > 0 there)."""
    return ratio_from_values(inverse(theta))


def ratio_from_values(values: GridField) -> GridField:
    """b_1 = theta / w_1 from the node values of theta."""
    g = values.geometry
    return GridField(values.values / g.ground_state, g)


def ratio_sup(values: GridField) -> float:
    """||b_1||_inf = max |theta / w_1| from the node values of theta.

    Taken over ``_SUP_ROWS`` rows at a time, with w_1's rows from
    ``Geometry.ground_state_rows``: equal to
    ``ratio_lp_norm(ratio_from_values(values), inf)`` without its two
    whole-grid temporaries.
    """
    g = values.geometry
    sups = []
    for r in range(0, g.n_interior, _SUP_ROWS):
        rows = slice(r, r + _SUP_ROWS)
        sups.append(np.abs(values.values[rows]
                           / g.ground_state_rows(rows)).max())
    return float(np.max(sups))


def ratio_quad(geometry: Geometry, values: np.ndarray) -> float:
    """Integral of a ratio-type field that need not vanish on the boundary.

    The nodes nearest each side absorb the boundary half-cells, so constants
    integrate exactly (plain rectangle weights lose the boundary strip).
    """
    w = np.full(geometry.n_interior, geometry.spacing)
    w[0] += 0.5 * geometry.spacing
    w[-1] += 0.5 * geometry.spacing
    return float(w @ values @ w)


def ratio_lp_norm(b1: GridField, p: float) -> float:
    """||b_1||_{L^p} by boundary-extended grid quadrature (p = inf: sup)."""
    if np.isinf(p):
        return b1.sup_norm()
    if p < 1:
        raise ConfigurationError(f"Lebesgue exponent must be >= 1, got {p}")
    return float(ratio_quad(b1.geometry, np.abs(b1.values) ** p) ** (1.0 / p))


def weighted_ratio_norm(theta: SpectralField, m: int) -> float:
    """(int w_1 b_1^{2m})^{1/2m} by boundary-extended grid quadrature."""
    return _weighted_norm(boundary_ratio(theta), m)


def _weighted_norm(b1: GridField, m: int) -> float:
    if m < 1:
        raise ConfigurationError(f"moment index must be >= 1, got {m}")
    g = b1.geometry
    # |b_1| ** 2m, not b_1 ** 2m: the power of a negative base takes
    # numpy's slow scalar path
    return float(ratio_quad(g, g.ground_state * np.abs(b1.values) ** (2 * m))
                 ** (1.0 / (2 * m)))


def interior_lipschitz(theta: SpectralField) -> float:
    """M = sup_x d(x) |grad theta(x)| with the spectral gradient."""
    dx, dy = gradient(theta)
    mag = np.hypot(dx.values, dy.values)
    mag *= theta.geometry.distance
    return float(mag.max())


class HolderSeminorm(NamedTuple):
    value: float
    skipped_nodes: int


_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


def holder_seminorm(theta: SpectralField, alpha: float) -> HolderSeminorm:
    """sup |delta_h theta| / |h|^alpha over dyadic grid displacements.

    Displacements run along both axes and diagonals with dyadic magnitudes
    from one grid spacing up, restricted to |h| <= d(x) / 32.  Nodes too
    close to the boundary to admit any displacement are skipped and counted.
    """
    return _holder(inverse(theta), alpha)


def _holder(values: GridField, alpha: float,
            h_budget: float = 1.0 / 32.0) -> HolderSeminorm:
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"Hölder exponent must be in (0, 1), got {alpha}")
    g = values.geometry
    vals = values.values
    dx = g.spacing
    n = g.n_interior
    e = g.side_distance
    best = 0.0
    admissible = np.zeros((n, n), dtype=bool)
    steps = 1
    while steps * dx <= h_budget * g.distance.max():
        for ex, ey in _DIRECTIONS:
            p, q = steps * ex, steps * ey
            hlen = np.hypot(p * dx, q * dx)
            # d * h_budget >= |h| holds on the box where both e_i and e_j
            # reach |h| / h_budget; e is unimodal, so each side is one run
            inside = np.flatnonzero(e * h_budget >= hlen)
            if not inside.size:
                continue
            i0, i1 = max(inside[0], -p), min(inside[-1] + 1, n - p)
            j0, j1 = max(inside[0], -q), min(inside[-1] + 1, n - q)
            if i0 >= i1 or j0 >= j1:
                continue
            diff = np.abs(vals[i0 + p:i1 + p, j0 + q:j1 + q] - vals[i0:i1, j0:j1])
            best = max(best, float(diff.max()) / hlen ** alpha)
            admissible[i0:i1, j0:j1] = True
        steps *= 2
    return HolderSeminorm(best, int((~admissible).sum()))


def _shell_sup(values: np.ndarray, geometry: Geometry,
               shells: int) -> tuple[list[float], list[float]]:
    """log top, sup of values on each nonempty shell top/2 < d <= top = L/2^(k+3)."""
    tops = (geometry.side_length / 8.0) * 0.5 ** np.arange(shells)
    d = geometry.distance
    logs_d, sups = [], []
    for t in tops:
        sel = (d <= t) & (d > 0.5 * t)
        if sel.any():
            logs_d.append(float(np.log(t)))
            sups.append(float(values[sel].max()))
    return logs_d, sups


def fit_line(x, y) -> tuple[float, float, float]:
    """Least-squares line with r^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _normal_slope(abs_ux: np.ndarray, abs_uy: np.ndarray, geometry: Geometry,
                  shells: int = 4) -> tuple[float, float]:
    """Slope (and r^2) of log sup-shell |u . n| against log shell distance.

    n is the inward normal of the nearest side, so |u . n| is |u_x| or |u_y|;
    shells are dyadic in the boundary distance below L/8 and left out where
    u . n vanishes.
    """
    e = geometry.side_distance
    near_x = e[:, None] <= e[None, :]
    un = np.where(near_x, abs_ux, abs_uy)
    kept = [(ld, s) for ld, s in zip(*_shell_sup(un, geometry, shells))
            if s > 0]
    if len(kept) < 2:
        return 0.0, 0.0
    logs_d, sups = zip(*kept)
    slope, _, r2 = fit_line(logs_d, np.log(sups))
    return slope, r2


@dataclass
class DiagnosticsRecord:
    """One time slice of every monitored regularity functional."""

    t: float
    sup_norm: float
    energy: float
    half_norm: float
    lipschitz: float
    b1_lp: dict[float, float]
    weighted_norm: dict[int, float]
    holder: dict[float, float]
    u_sup: float
    normal_rate: float


def record(state: SolverState,
           ps=DEFAULT_PS, ms=DEFAULT_MS, alphas=DEFAULT_ALPHAS
           ) -> DiagnosticsRecord:
    """Aggregate all functionals for one state.

    One velocity solve and one grid evaluation of theta serve every
    functional.  Only |u| enters the record, so the velocity's components
    are overwritten in place by their magnitudes and then their squares;
    u_sup is sqrt(max(u_x^2 + u_y^2)), equal to max |u| because the square
    root is monotone and correctly rounded.  The Lipschitz bound comes
    first, so its gradient is freed before the grid values and the velocity
    are built.
    """
    theta = state.theta
    lipschitz = interior_lipschitz(theta)
    values = inverse(theta)
    u = riesz_velocity(theta)
    b1 = ratio_from_values(values)
    abs_ux = np.abs(u.u_x.values, out=u.u_x.values)
    abs_uy = np.abs(u.u_y.values, out=u.u_y.values)
    slope, _ = _normal_slope(abs_ux, abs_uy, theta.geometry)
    abs_ux **= 2
    abs_uy **= 2
    abs_ux += abs_uy
    u_sup = float(np.sqrt(abs_ux.max()))
    return DiagnosticsRecord(
        t=state.t,
        sup_norm=values.sup_norm(),
        energy=theta.l2_norm() ** 2,
        half_norm=half_norm_sq(theta),
        lipschitz=lipschitz,
        b1_lp={p: ratio_lp_norm(b1, p) for p in ps},
        weighted_norm={m: _weighted_norm(b1, m) for m in ms},
        holder={a: _holder(values, a).value for a in alphas},
        u_sup=u_sup,
        normal_rate=slope,
    )


def csv_columns(rec: DiagnosticsRecord) -> list[str]:
    cols = ["t[1]", "sup_norm[1]", "energy[1]", "half_norm[1]", "lipschitz[1]"]
    cols += [f"b1_l{p:g}[1]" for p in sorted(rec.b1_lp)]
    cols += [f"weighted_m{m}[1]" for m in sorted(rec.weighted_norm)]
    cols += [f"holder_a{a:g}[1]" for a in sorted(rec.holder)]
    cols += ["u_sup[1]", "normal_rate[1]"]
    return cols


def csv_row(rec: DiagnosticsRecord) -> list[float]:
    row = [rec.t, rec.sup_norm, rec.energy, rec.half_norm, rec.lipschitz]
    row += [rec.b1_lp[p] for p in sorted(rec.b1_lp)]
    row += [rec.weighted_norm[m] for m in sorted(rec.weighted_norm)]
    row += [rec.holder[a] for a in sorted(rec.holder)]
    row += [rec.u_sup, rec.normal_rate]
    return row


def append_csv(path, rec: DiagnosticsRecord) -> None:
    """Append one record; writes the unit-annotated header on first use."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as fh:
        if new:
            fh.write(",".join(csv_columns(rec)) + "\n")
        fh.write(",".join(repr(float(v)) for v in csv_row(rec)) + "\n")
