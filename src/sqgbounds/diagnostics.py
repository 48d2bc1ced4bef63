"""Regularity functionals: ratio norms, interior Lipschitz, Hölder seminorm.

Everything here is a pure function of a state; ``record`` aggregates one
time slice into a ``DiagnosticsRecord`` and ``append_csv`` serializes rows
with a fixed column order.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import Geometry
from .spectral import (GridField, SpectralField, _leading, _max_abs,
                       _support, _times_k, eval_block, gradient, inverse)
from .solver import SolverState, _inv_sqrt

DEFAULT_PS = (2.0, 4.0)
DEFAULT_MS = (2,)
DEFAULT_ALPHAS = (0.4,)
_SUP_ROWS = 128        # rows per block of ratio_sup_by_rows
_HOLDER_BUDGET = 1.0 / 32.0    # Hölder displacements keep |h| <= d(x) / 32
_LIP_ROWS = 32         # rows per block of _lipschitz's dy^2
# smallest max s = max d^2 |grad theta|^2 that _lipschitz takes from its
# candidates: above it no square that reaches the candidates is subnormal
_LIP_S_MIN = 2.0 ** -900


def boundary_ratio(theta: SpectralField) -> GridField:
    """b_1 = theta / w_1 at the interior nodes (w_1 > 0 there)."""
    g = theta.geometry
    return GridField(inverse(theta).values / g.ground_state, g)


def ratio_sup_by_rows(geometry: Geometry, theta_rows) -> float:
    """||b_1||_inf from theta's node rows ``theta_rows(rows)``, taken over
    ``_SUP_ROWS`` rows at a time with w_1's rows from
    ``Geometry.ground_state_rows``: equal to
    ``ratio_lp_norm(boundary_ratio(theta), inf)`` without its two
    whole-grid temporaries."""
    sups = []
    for r in range(0, geometry.n_interior, _SUP_ROWS):
        rows = slice(r, r + _SUP_ROWS)
        sups.append(np.abs(theta_rows(rows)
                           / geometry.ground_state_rows(rows)).max())
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
    return _ratio_norms(b1.geometry, np.abs(b1.values), ps=(p,))[0][p]


def weighted_ratio_norm(theta: SpectralField, m: int) -> float:
    """(int w_1 b_1^{2m})^{1/2m} by boundary-extended grid quadrature."""
    b1 = boundary_ratio(theta)
    return _ratio_norms(b1.geometry, np.abs(b1.values), ms=(m,))[1][m]


def _ratio_norms(geometry: Geometry, abs_b1: np.ndarray, ps=(), ms=(),
                 scratch: np.ndarray | None = None
                 ) -> tuple[dict[float, float], dict[int, float]]:
    """||b_1||_p for each p in ``ps`` and (int w_1 b_1^{2m})^{1/2m} for each
    m in ``ms``, from |b_1|.

    Each distinct exponent e of ``ps`` and of the 2m is raised once,
    |b_1|^e in ``scratch`` (in |b_1| itself when None, which then takes a
    single exponent): the L^p quadrature of p = e reads it first, then the
    weighted norm of the m with 2m = e multiplies it by w_1 in place.
    p = inf is max |b_1|.
    """
    for p in ps:
        if p < 1:
            raise ConfigurationError(f"Lebesgue exponent must be >= 1, got {p}")
    for m in ms:
        if m < 1:
            raise ConfigurationError(f"moment index must be >= 1, got {m}")
    lp, weighted = dict.fromkeys(ps), dict.fromkeys(ms)
    power = abs_b1 if scratch is None else scratch
    for e in dict.fromkeys([*ps, *(2 * m for m in ms)]):
        if np.isinf(e):
            lp[e] = float(np.max(abs_b1, initial=0.0))
            continue
        np.copyto(power, abs_b1)
        # |b_1| ** e, not b_1 ** e: the power of a negative base takes
        # numpy's slow scalar path
        power **= e
        if e in lp:
            lp[e] = float(ratio_quad(geometry, power) ** (1.0 / e))
        for m in weighted:
            if 2 * m == e:
                power *= geometry.ground_state
                weighted[m] = float(ratio_quad(geometry, power)
                                    ** (1.0 / (2 * m)))
    return lp, weighted


def interior_lipschitz(theta: SpectralField) -> float:
    """M = sup_x d(x) |grad theta(x)| with the spectral gradient."""
    dx, dy = gradient(theta)
    return _lipschitz(dx.values, dy.values, theta.geometry)


def _lipschitz(dx: np.ndarray, dy: np.ndarray, geometry: Geometry,
               scratch: np.ndarray | None = None) -> float:
    """max d(x) |(dx, dy)| from the gradient's node values, with the bits of
    ``max(distance * hypot(dx, dy))`` over the whole grid.

    With ``scratch``, an (N-1) x (N-1) array, s = d^2 (dx^2 + dy^2) goes
    there, dy^2 added _LIP_ROWS rows at a time.  Candidates: each s is
    within a few ulp of (d |grad theta|)^2 and each d hypot within a few
    ulp of d |grad theta|, so the node where the whole-grid formula peaks
    has s >= (1 - 1e-12) max s, a margin over a hundred times their
    round-off; d hypot runs on those nodes only.  Without ``scratch``, or
    when max s is below _LIP_S_MIN or not finite (a square may have under-
    or overflowed, or a gradient is not finite), d hypot runs on the whole
    grid, in dx.
    """
    d = geometry.distance
    if scratch is not None:
        with np.errstate(over="ignore"):    # an overflow sends it to the grid
            s = np.multiply(dx, dx, out=scratch)
            block = np.empty((min(_LIP_ROWS, len(s)), s.shape[1]))
            for r in range(0, len(s), _LIP_ROWS):
                rows = slice(r, r + _LIP_ROWS)
                part = s[rows]
                part += np.multiply(dy[rows], dy[rows],
                                    out=block[:len(part)])
                part *= d[rows]
                part *= d[rows]
        top = s.max()
        if _LIP_S_MIN <= top < np.inf:
            nodes = np.flatnonzero(s.reshape(-1) >= (1.0 - 1e-12) * top)
            mag = np.hypot(dx.reshape(-1)[nodes], dy.reshape(-1)[nodes])
            mag *= d.reshape(-1)[nodes]
            return float(mag.max())
    mag = np.hypot(dx, dy, out=dx)
    mag *= d
    return float(mag.max())


_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


def holder_seminorm(theta: SpectralField, alpha: float) -> float:
    """sup |delta_h theta| / |h|^alpha over dyadic grid displacements.

    Displacements run along both axes and diagonals with dyadic magnitudes
    from one grid spacing up, restricted to |h| <= d(x) / 32.  Nodes too
    close to the boundary to admit any displacement do not enter.
    """
    return _holder(inverse(theta), alpha)


def _holder(values: GridField, alpha: float,
            scratch: np.ndarray | None = None) -> float:
    """:func:`holder_seminorm` from node values.

    The differences of each displacement go into ``scratch``, a
    C-contiguous (N-1) x (N-1) array (a new one when None).
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"Hölder exponent must be in (0, 1), got {alpha}")
    g = values.geometry
    vals = values.values
    dx = g.spacing
    n = g.n_interior
    e = g.side_distance
    flat = vals.ravel()
    buf = np.empty(n * n) if scratch is None else scratch.reshape(-1)
    best = 0.0
    steps = 1
    while steps * dx <= _HOLDER_BUDGET * g.distance.max():
        for ex, ey in _DIRECTIONS:
            p, q = steps * ex, steps * ey
            hlen = np.hypot(p * dx, q * dx)
            # d / 32 >= |h| holds on the box where both e_i and e_j reach
            # 32 |h|; e is unimodal, so each side is one run
            inside = np.flatnonzero(e * _HOLDER_BUDGET >= hlen)
            if not inside.size:
                continue
            i0, i1 = max(inside[0], -p), min(inside[-1] + 1, n - p)
            j0, j1 = max(inside[0], -q), min(inside[-1] + 1, n - q)
            if i0 >= i1 or j0 >= j1:
                continue
            # delta_h theta over whole rows i0..i1 of the flattened grid,
            # where the displacement is the one offset p n + q; the columns
            # outside j0..j1, where it wraps into the next row, are zeroed
            # before its max |.|.  Every operand is contiguous: numpy needs
            # no iterator buffer
            r, lo = i1 - i0, i0 * n
            length = r * n - max(q, 0)
            diff = buf[:r * n]
            np.subtract(flat[lo + p * n + q:lo + p * n + q + length],
                        flat[lo:lo + length], out=diff[:length])
            block = diff.reshape(r, n)
            block[:, :j0] = 0.0
            block[:, j1:] = 0.0
            best = max(best, _max_abs(diff) / hlen ** alpha)
        steps *= 2
    return best


def _shell_sup(values: np.ndarray, geometry: Geometry,
               shells: int) -> tuple[list[float], list[float]]:
    """log top, sup of values on each nonempty shell top/2 < d <= top = L/2^(k+3).

    d = min(e_i, e_j) and the side distance e is unimodal, so {e > s} is
    one run of nodes and the shell is the square of runs at s = top/2 less
    the square at s = top: the maxima of four strips give its sup, bits
    and all, with no whole-grid mask.
    """
    tops = (geometry.side_length / 8.0) * 0.5 ** np.arange(shells)
    e = geometry.side_distance
    logs_d, sups = [], []
    for t in tops:
        outer, inner = np.flatnonzero(e > 0.5 * t), np.flatnonzero(e > t)
        if outer.size == inner.size:        # inner is a subset: empty shell
            continue
        a, b = outer[0], outer[-1] + 1
        c, d = (inner[0], inner[-1] + 1) if inner.size else (a, a)
        strips = (values[a:c, a:b], values[d:b, a:b],
                  values[c:d, a:c], values[c:d, d:b])
        logs_d.append(float(np.log(t)))
        sups.append(float(np.max([np.max(v, initial=-np.inf)
                                  for v in strips])))
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
                  shells: int = 4, out: np.ndarray | None = None
                  ) -> tuple[float, float]:
    """Slope (and r^2) of log sup-shell |u . n| against log shell distance.

    n is the inward normal of the nearest side, so |u . n| is |u_x| or |u_y|;
    it is assembled in ``out`` (N-1 x N-1) when given.  Shells are dyadic in
    the boundary distance below L/8 and left out where u . n vanishes.
    """
    un = np.empty_like(abs_uy) if out is None else out
    np.copyto(un, abs_uy)
    np.copyto(un, abs_ux, where=geometry.x_side_nearest)
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


def record_workspace(geometry: Geometry) -> np.ndarray:
    """Three (N-1) x (N-1) node-grid slots for :func:`record`, one
    (3, N-1, N-1) array.

    Records that share it allocate no grid-sized array on the dense route,
    only a few boolean masks: their memory stays flat from one snapshot to
    the next.  The geometry tables a record reads are built by the first
    record and kept by the geometry.
    """
    n = geometry.n_interior
    return np.empty((3, n, n))


def record(state: SolverState,
           ps=DEFAULT_PS, ms=DEFAULT_MS, alphas=DEFAULT_ALPHAS,
           work: np.ndarray | None = None) -> DiagnosticsRecord:
    """Aggregate all functionals for one state.

    The row depends on theta's coefficients alone.  The record scans
    theta's support K (every coefficient outside the leading K x K block is
    exactly 0.0) and forms the K x K blocks of theta, k (x) theta and
    k (x) psi with psi = lam^{-1/2} theta.  :func:`spectral.eval_block`
    evaluates theta, grad theta and u = grad-perp psi at the nodes from
    them, as :func:`inverse`, :func:`gradient` and
    :func:`operators.riesz_velocity` do, with their bits.  The energy and
    the half norm are sums over the whole spectrum.

    Every grid array lives in the three slots of ``work`` (a new
    :func:`record_workspace` when None): the squared coefficients, then the
    gradient and s = d^2 |grad theta|^2, from which :func:`_lipschitz` picks
    the nodes where d |grad theta| can peak (s within 1e-12 of its maximum,
    over a hundred times the round-off of either form) and takes hypot there
    only, then the grid values, |b_1|, formed once, and a copy of it raised
    to each distinct exponent of ``ps`` and of the 2m once
    (:func:`_ratio_norms`: the L^p quadrature reads the power before the
    weighted norm multiplies it by w_1), then |u_x|, |u_y| and |u . n|,
    each overwriting what is no longer read.  The K x K blocks and the dense
    route's (N-1) x K intermediate products go into the leading memory of
    slots that are free at the time, so on the dense route a record
    allocates no array of either size.  Each elementwise operation runs on
    C-contiguous arrays, for which numpy allocates no iterator buffer, and
    the sup norm and each Hölder displacement take max |v| as
    max(v.max(), -v.min()), with no |v| array.  u_sup is
    sqrt(max(u_x^2 + u_y^2)), equal to max |u| because the square root is
    monotone and correctly rounded.
    """
    theta = state.theta
    g = theta.geometry
    work = record_workspace(g) if work is None else work
    # one square of the coefficients serves theta.l2_norm() ** 2 and
    # half_norm_sq(theta), operation for operation
    sq = np.square(theta.coeffs, out=work[0])
    energy = float(np.sqrt(sq.sum())) ** 2
    sq *= g.sqrt_eigenvalues
    half_norm = float(sq.sum())
    # each K x K block goes into the leading memory of the slot its values
    # go to, or of a free one; eval_block's intermediate into a free slot
    K = _support(theta.coeffs)
    c = theta.coeffs[:K, :K]
    k = g.wavenumbers[:K]
    dx = eval_block(_times_k(c, k, 0, out=_leading(work[0], K, K)), g, 0,
                    out=work[0], scratch=work[2])
    dy = eval_block(_times_k(c, k, 1, out=_leading(work[1], K, K)), g, 1,
                    out=work[1], scratch=work[2])
    lipschitz = _lipschitz(dx, dy, g, scratch=work[2])
    values = eval_block(c, g, out=work[0], scratch=work[1])
    scratch = work[1]
    sup_norm = _max_abs(values)
    # |b_1| = |theta / w_1| once; each distinct power of it once, in a copy
    abs_b1 = np.abs(np.divide(values, g.ground_state, out=work[2]),
                    out=work[2])
    b1_lp, weighted_norm = _ratio_norms(g, abs_b1, ps, ms, scratch)
    holder = {a: _holder(GridField(values, g), a, scratch=scratch)
              for a in alphas}
    # u = (-psi_y, psi_x), and only |u| enters the record; psi's block is
    # formed once for each component, each time in a slot free until then
    inv = _inv_sqrt(g, K)
    psi = np.einsum("ij,ij->ij", c, inv, out=_leading(work[2], K, K))
    abs_ux = eval_block(_times_k(psi, k, 1, out=_leading(work[1], K, K)), g,
                        1, out=work[1], scratch=work[0])
    psi = np.einsum("ij,ij->ij", c, inv, out=_leading(work[0], K, K))
    abs_uy = eval_block(_times_k(psi, k, 0, out=_leading(work[2], K, K)), g,
                        0, out=work[2], scratch=work[0])
    np.abs(abs_ux, out=abs_ux)
    np.abs(abs_uy, out=abs_uy)
    # u . n goes where theta's values were: they are not read again
    slope, _ = _normal_slope(abs_ux, abs_uy, g, out=work[0])
    abs_ux **= 2
    abs_uy **= 2
    abs_ux += abs_uy
    u_sup = float(np.sqrt(abs_ux.max()))
    return DiagnosticsRecord(
        t=state.t,
        sup_norm=sup_norm,
        energy=energy,
        half_norm=half_norm,
        lipschitz=lipschitz,
        b1_lp=b1_lp,
        weighted_norm=weighted_norm,
        holder=holder,
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
