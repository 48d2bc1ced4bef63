"""Time integration: integrating-factor Heun stepping with exact dissipation.

The equation is critical SQG: the dissipation is Lambda = (-Delta_D)^{1/2},
the case s = 1 of Lambda^s, where it has the order of the advection.  It is
handled exactly per mode by the multiplier e^{-dt lam^{1/2}}.  The
advective flux -u . grad(theta) is evaluated at the midpoints of a fine grid;
products of the mixed-parity factors (velocity components against gradient
components) are sine polynomials, so the fine-grid projection is alias-free
and the discrete advection term is skew-symmetric to round-off.

The drift, ``drift_mode`` of the run's :class:`config.SolverConfig`, is
``sqg`` (u = J grad psi with psi = lam^{-1/2} theta) or ``none``.  The
fine grid is sized to the live band of the spectrum.  A coefficient is
live when it exceeds CHOP_RTOL = 1e-16 times the largest coefficient of its
field, and the extent M is theta's largest live mode index along either
axis.  psi's tail beyond M is at most sqrt(2) CHOP_RTOL max|psi|: for p > M
and q <= M, lam_q / lam_p <= 2M^2 / ((M + 1)^2 + 1) < 2.  The product of
the M x M blocks has degree <= 2M, so its projection onto the modes <= 2M
is exact on Nf > 2M midpoints (``spectral``; Orszag, J. Atmos. Sci. 28,
1971): the band flux takes :func:`_band_grid_size`, and its 2M x 2M modes
are zero-padded back to N - 1.  Only the dropped coefficients change the
sum.  When 2M > N - 1, the flux runs on ceil(3N/2) midpoints, unbanded.

A step works on the state's nonzero block.  Every coefficient outside the
leading K x K block of a state is exactly 0.0; K starts as the initial
data's support and after each stage becomes max(K, 2M), since the band flux
is zero beyond 2M (N - 1 once a stage takes the full grid).  The stream
function, built on the block the product reads, the extent scans, the Heun
update, its finiteness check and :func:`velocity_bound` read only that
block, and e^{-dt lam^{1/2}} and lam^{-1/2} are built on it, with the bits
of the whole tables; outside it the update is exactly 0.0, so the state's
bits are those of the whole-array update.  Each state carries its support and live extent,
so its extent is scanned once, and the overshoot monitor evaluates the live
block (rows to K, columns to M) at the nodes by :func:`spectral.eval_block`.
``half_norm_sq`` and the ledger stay on whole arrays: their sums keep their
bits.

A run reuses one fine-grid workspace for every advection evaluation (the
band uses its leading memory); the energy ledger integrates over the step
times with the Simpson rule of :func:`_simpson` (the trapezoid rule for a
one-step run).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import SolverConfig
from .errors import NumericError
from .geometry import Geometry, _read_only
from .operators import riesz_velocity
from .spectral import (DENSE_MAX_NF, GridField, SpectralField,
                       _midpoint_tables, _support, _times_k, eval_block,
                       eval_fine_mixed, fine_grid_size, forward_fine)

CHOP_RTOL = 1e-16    # a coefficient at or below CHOP_RTOL * max|c| is not live
_SMOOTH_5 = 2 ** 64 * 3 ** 41 * 5 ** 28   # n < 2^64 divides it iff 5-smooth


@dataclass
class SolverState:
    """theta at time t after ``step`` steps.

    ``support`` K, when known, says every coefficient of theta outside its
    leading K x K block is exactly 0.0, and ``extent`` is theta's
    :func:`_live_extent`; :func:`step` sets both on the states it makes and
    scans for them when they are None.
    """

    t: float
    theta: SpectralField
    step: int = 0
    support: int | None = None
    extent: int | None = None


@dataclass
class RunResult:
    """Snapshots plus the integrity monitors of the whole run.

    ``snapshots`` is the whole trajectory, or only the final state when
    :func:`run` streamed the snapshots to a callback.
    """

    snapshots: list[SolverState]
    ledger_residual: float
    max_overshoot: float
    overshoot_flag: bool
    rejected_steps: int
    final_dt: float
    sup_history: list[float]
    live_modes: int


@lru_cache(maxsize=16)
def _decay(geometry: Geometry, dt: float, K: int) -> np.ndarray:
    """Integrating factor e^{-dt lam^{1/2}} of one step of length dt on the
    leading K x K modes, read-only; lam^{1/2} as ``sqrt_eigenvalues``."""
    lam = geometry.eigenvalue_rows(slice(K), slice(K))
    return _read_only(np.exp(-dt * lam ** 0.5))


@lru_cache(maxsize=16)
def _inv_sqrt(geometry: Geometry, K: int) -> np.ndarray:
    """lam^{-1/2} on the leading K x K modes, as ``inv_sqrt_eigenvalues``."""
    return _read_only(geometry.eigenvalue_rows(slice(K), slice(K)) ** -0.5)


def _stream_coeffs(c: np.ndarray, geometry: Geometry,
                   j_sign: float) -> np.ndarray:
    """j_sign psi = j_sign lam^{-1/2} c on the leading K x K block ``c``."""
    return j_sign * c * _inv_sqrt(geometry, c.shape[0])


def advection_workspace(geometry: Geometry) -> np.ndarray:
    """Scratch for :func:`advection_coeffs`: three fine-grid Nf x Nf slots."""
    Nf = fine_grid_size(geometry.grid_size)
    return np.empty((3, Nf, Nf))


def _live_extent(c: np.ndarray) -> int:
    """Largest mode index, along either axis, of a coefficient of ``c``
    above CHOP_RTOL * max|c|: 0 when ``c`` is zero, and the whole extent when
    it is not finite.

    Column maxima and minima give max|c| per column, and those of the live
    columns' rows give it per row, with no temporary of the size of ``c``.
    """
    if c.size == 0:
        return 0
    cols = np.maximum(c.max(axis=0), -c.min(axis=0))
    top = cols.max()
    if not np.isfinite(top):
        return c.shape[0]
    if top == 0:
        return 0
    tol = CHOP_RTOL * top
    n_cols = 1 + int(np.flatnonzero(cols > tol)[-1])
    if n_cols == c.shape[0]:      # no row can reach further
        return n_cols
    band = c[:, :n_cols]
    rows = np.maximum(band.max(axis=1), -band.min(axis=1))
    return max(n_cols, 1 + int(np.flatnonzero(rows > tol)[-1]))


def _lead(c: np.ndarray, side: int) -> np.ndarray:
    """The leading side x side block of the spectrum whose leading block is
    ``c``: a view when ``c`` reaches that far, else a zero-padded copy."""
    if c.shape[0] >= side:
        return c[:side, :side]
    out = np.zeros((side, side))
    out[:c.shape[0], :c.shape[1]] = c
    return out


def _band_grid_size(M: int) -> int:
    """Midpoints Nf > 2M per axis for the flux of a band of extent M:
    max(9, 2M + 1), or above DENSE_MAX_NF the next 5-smooth length (scipy's
    ``next_fast_len(2M + 1, real=True)``), fast for the transforms."""
    Nf = max(9, 2 * M + 1)
    if Nf > DENSE_MAX_NF:
        while _SMOOTH_5 % Nf:
            Nf += 1
    return Nf


def _flux(c: np.ndarray, psi: np.ndarray, g: Geometry, Nf: int,
          work: np.ndarray) -> np.ndarray:
    """-u . grad(theta) for the leading M x M modes ``c`` of theta and
    ``psi`` of the stream function, sampled at Nf x Nf midpoints in the
    slots ``work`` and projected onto the min(2M, N - 1) leading modes per
    axis of ``g``, all that the product reaches."""
    M = c.shape[0]
    k, L = g.wavenumbers[:M], g.side_length
    # u = (-psi_y, psi_x), so -u . grad(theta) = psi_y theta_x - psi_x theta_y
    flux = eval_fine_mixed(_times_k(psi, k, 1), L, Nf, 1, out=work[0])
    flux *= eval_fine_mixed(_times_k(c, k, 0), L, Nf, 0, out=work[1])
    part = eval_fine_mixed(_times_k(psi, k, 0), L, Nf, 0, out=work[1])
    part *= eval_fine_mixed(_times_k(c, k, 1), L, Nf, 1, out=work[2])
    flux -= part
    return forward_fine(flux, L, min(2 * M, g.n_interior))


def advection_coeffs(theta: SpectralField, config: SolverConfig,
                     work: np.ndarray | None = None,
                     extent: int | None = None) -> np.ndarray:
    """Coefficients of -u . grad(theta), alias-free on the retained modes.

    ``theta.coeffs`` is the whole spectrum or its leading K x K block, with
    every coefficient outside the block zero.  The drift is ``sqg`` or
    ``none``.  The product runs on the live band: M is theta's
    :func:`_live_extent` (``extent``, when the caller knows it), and psi's
    tail beyond M is at most sqrt(2) CHOP_RTOL max|psi| (see the module
    docstring).  The M x M blocks of theta and psi are advected on the
    Nf > 2M midpoints of :func:`_band_grid_size`.  Modes <= M multiply into
    modes <= 2M only, so the result is the flux's leading block of side
    max(K, 2M), zero outside 2M x 2M.  When 2M > N - 1, the flux runs on the
    full grid's ceil(3N/2) midpoints and the result is the whole spectrum,
    as it is for a whole theta.  ``work`` is an :func:`advection_workspace`
    of theta's geometry, which the call overwrites (the band path uses its
    leading memory); without it the call allocates its own.
    """
    g = theta.geometry
    c = theta.coeffs
    M = (0 if config.drift_mode == "none"
         else _live_extent(c) if extent is None else extent)
    if M == 0:      # no drift, or theta is zero
        return np.zeros_like(c)
    if 2 * M > g.n_interior:
        n = g.n_interior
        psi = _stream_coeffs(c, g, config.j_sign)
        return _flux(_lead(c, n), _lead(psi, n), g,
                     fine_grid_size(g.grid_size),
                     advection_workspace(g) if work is None else work)
    Nf = _band_grid_size(M)
    if work is None:
        work = np.empty((3, Nf, Nf))
    else:   # the leading memory of the full workspace, reshaped
        work = work.reshape(-1)[:3 * Nf * Nf].reshape(3, Nf, Nf)
    block = c[:M, :M]
    band = _flux(block, _stream_coeffs(block, g, config.j_sign), g, Nf, work)
    out = np.zeros((max(c.shape[0], 2 * M),) * 2)
    out[:2 * M, :2 * M] = band
    return out


def velocity_sup(theta: SpectralField, config: SolverConfig) -> float:
    """max |u| over the interior nodes of the drift."""
    if config.drift_mode == "none":
        return 0.0
    return riesz_velocity(theta, config.j_sign).sup_norm()


def velocity_bound(theta: SpectralField, config: SolverConfig) -> float:
    """A-priori upper bound on :func:`velocity_sup`, in O(K^2) and no transform.

    |u_x| <= (2/L) sum |psi_mn| k_n and |u_y| <= (2/L) sum |psi_mn| k_m.  The
    factor 1 + 1e-9 covers the round-off of both evaluations, so the bound
    is never below the computed sup.  ``theta.coeffs`` may be the leading
    K x K block of the spectrum, as in :func:`advection_coeffs`.
    """
    if config.drift_mode == "none":
        return 0.0
    psi = _stream_coeffs(theta.coeffs, theta.geometry, config.j_sign)
    k = theta.geometry.wavenumbers[:psi.shape[0]]
    a = np.abs(psi)
    amp = np.hypot((a @ k).sum(), (k @ a).sum())
    return float((2.0 / theta.geometry.side_length) * amp * (1.0 + 1e-9))


def step(state: SolverState, dt: float, config: SolverConfig,
         work: np.ndarray | None = None) -> SolverState:
    """One integrating-factor Heun step, on the state's nonzero block.

    The stages, the update and its finiteness check run on leading blocks:
    from the state's support K, each stage's flux widens the block to
    max(K, 2M) (see :func:`advection_coeffs`), and every coefficient outside
    it stays exactly 0.0, as the whole-array update would leave it.  A state
    of unknown support or extent is scanned once.  ``work`` is passed on to
    :func:`advection_coeffs`.  Raises ``NumericError`` with a state dump if
    the update is non-finite; CFL acceptance is the caller's job (see
    :func:`run`).
    """
    theta = state.theta
    g = theta.geometry
    K = _support(theta.coeffs) if state.support is None else state.support
    a = theta.coeffs[:K, :K]
    k1 = advection_coeffs(SpectralField(a, g, theta.tag), config, work,
                          state.extent)
    K1 = len(k1)
    mid = _decay(g, dt, K1) * (_lead(a, K1) + dt * k1)
    k2 = advection_coeffs(SpectralField(mid, g, theta.tag), config, work)
    K2 = len(k2)
    d2 = _decay(g, dt, K2)
    block = d2 * _lead(a, K2) + 0.5 * dt * (d2 * _lead(k1, K2) + k2)
    if not np.isfinite(block).all():
        raise NumericError(
            f"non-finite state at t={state.t + dt:.6g}, step {state.step + 1}: "
            f"max |coeff| before blowup {np.abs(a).max(initial=0.0):.3e}")
    # np.zeros takes zeroed pages from the system as the block touches them,
    # where zeros_like writes every byte
    new = np.zeros(theta.coeffs.shape)
    new[:K2, :K2] = block
    return SolverState(t=state.t + dt,
                       theta=SpectralField(new, g, tag=theta.tag),
                       step=state.step + 1, support=K2,
                       extent=_live_extent(block))


def _live_sup(state: SolverState, out: np.ndarray | None = None) -> float:
    """max |theta| over the nodes, from the state's live block.

    The sum runs over the rows up to the support and the columns up to the
    extent, the only columns with a live coefficient: by products with the
    node tables at any N while that block is at most DENSE_MAX_NF wide
    (:func:`eval_block`).  ``out`` takes the node values.
    """
    theta = state.theta
    values = eval_block(theta.coeffs[:state.support, :state.extent],
                        theta.geometry, out=out)
    return GridField(values, theta.geometry).sup_norm()


def half_norm_sq(theta: SpectralField, out: np.ndarray | None = None
                 ) -> float:
    """||Lambda^{1/2} theta||^2 = sum sqrt(lam) a^2.

    The squares, then their products with sqrt(lam), go into ``out`` (an
    array of theta's shape; a new one when None) and are summed there.
    """
    sq = np.square(theta.coeffs, out=out)
    sq *= theta.geometry.sqrt_eigenvalues
    return float(sq.sum())


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of ``y`` at increasing ``x``, len(x) >= 3.

    SciPy 1.17's ``integrate.simpson`` operation for operation (irregular
    spacing; Cartwright's last-interval correction for an even count), so the
    ledger keeps its bits without importing ``scipy.integrate``.  The last
    spacings stay 0-d arrays, so ``** 2`` squares as it does in SciPy.
    """
    h = np.diff(x)
    stop = len(y) - 2 if len(y) % 2 else len(y) - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, h0divh1 = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if len(y) % 2 == 0:
        a, b = h[-2, ...], h[-1, ...]
        result += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                   + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                   - b ** 3 / (6 * a * (a + b)) * y[-3])
    return float(result)


def run(theta0: SpectralField, config: SolverConfig,
        on_snapshot: Callable[[SolverState], None] | None = None
        ) -> RunResult:
    """Integrate to t_end with CFL-adaptive dt and integrity monitors.

    A snapshot is taken at t = 0, after each step that reaches the next
    multiple of ``output_interval``, and at t_end.  Without ``on_snapshot``
    the result keeps every snapshot.  With it, each snapshot is handed to
    ``on_snapshot`` as soon as it is taken and is not retained, so the
    caller can write it out while the run goes on; ``snapshots`` then holds
    only the final state.  A snapshot is the live state.  Each step builds a
    new state and never modifies an older one, so every snapshot, kept or
    handed on, stays as it was taken; no reader may modify it.  When a step
    raises ``NumericError``, the snapshots already handed on are all the run
    leaves.

    The energy ledger integrates the half-norm history with Simpson's rule
    (the trapezoid rule for a single step) and reports
    |E(T) - E(0) + dissipation| relative to E(0).  The maximum
    principle is monitored (overshoot flag), never enforced.  The CFL test
    tries :func:`velocity_bound` first and evaluates :func:`velocity_sup`
    only when the bound fails it; since the bound is never below the sup,
    each step is accepted or rejected exactly as the sup alone decides.
    All steps share one :func:`advection_workspace`, released on return,
    and one node-grid buffer, where :func:`half_norm_sq` forms its terms
    before the overshoot monitor writes the node values.  The midpoint
    tables of the dense transforms are dropped on return, so every run
    builds the ones its band sizes need and holds none after.
    """
    config.validate()
    if not np.isfinite(theta0.coeffs).all():
        raise NumericError("initial data has non-finite coefficients")
    g = theta0.geometry
    K = _support(theta0.coeffs)
    state = SolverState(t=0.0, theta=theta0.copy(), step=0, support=K,
                        extent=_live_extent(theta0.coeffs[:K, :K]))
    dt = config.dt
    rejected = 0
    work = advection_workspace(g)

    # node values of the overshoot monitor, and before them the terms of
    # each half_norm_sq
    grid = np.empty((g.n_interior, g.n_interior))
    times = [0.0]
    halves = [half_norm_sq(state.theta, out=grid)]
    sup0 = _live_sup(state, grid)
    live_modes = state.extent
    sup_history = [sup0]
    running_min = sup0
    overshoot = 0.0

    kept: list[SolverState] = []
    emit = kept.append if on_snapshot is None else on_snapshot
    emit(state)
    next_output = config.output_interval

    try:
        while state.t < config.t_end - 1e-12:
            dt_step = min(dt, config.t_end - state.t)
            limit = config.cfl * g.spacing
            K = state.support
            block = SpectralField(state.theta.coeffs[:K, :K], g)
            bound = velocity_bound(block, config)
            if bound > 0 and dt_step > limit / bound:
                umax = velocity_sup(state.theta, config)
                if umax > 0 and dt_step > limit / umax:
                    dt *= 0.5
                    rejected += 1
                    if dt < 1e-12:
                        raise NumericError("CFL halving drove dt below 1e-12")
                    continue
            state = step(state, dt_step, config, work)
            times.append(state.t)
            halves.append(half_norm_sq(state.theta, out=grid))
            sup = _live_sup(state, grid)
            live_modes = max(live_modes, state.extent)
            sup_history.append(sup)
            if sup0 > 0:
                overshoot = max(overshoot, (sup - running_min) / sup0)
            running_min = min(running_min, sup)
            if (state.t >= next_output - 1e-12
                    or state.t >= config.t_end - 1e-12):
                emit(state)
                next_output += config.output_interval
    finally:    # the run's tables go with it, like its workspace
        _midpoint_tables.cache_clear()

    e0 = 0.5 * theta0.l2_norm() ** 2
    eT = 0.5 * state.theta.l2_norm() ** 2
    if len(times) > 2:
        dissipated = _simpson(np.asarray(halves), np.asarray(times))
    else:   # the trapezoid rule; 0.0 when no step was taken
        dissipated = 0.5 * (halves[0] + halves[-1]) * (times[-1] - times[0])
    residual = abs(eT - e0 + dissipated) / e0 if e0 > 0 else 0.0

    return RunResult(snapshots=kept if on_snapshot is None else [state],
                     ledger_residual=residual,
                     max_overshoot=overshoot,
                     overshoot_flag=overshoot > config.max_overshoot,
                     rejected_steps=rejected, final_dt=dt,
                     sup_history=sup_history, live_modes=live_modes)
