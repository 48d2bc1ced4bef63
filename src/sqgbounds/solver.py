"""Time integration: integrating-factor Heun stepping with exact dissipation.

The equation is critical SQG: the dissipation is Lambda = (-Delta_D)^{1/2},
the case s = 1 of Lambda^s, where it has the order of the advection.  It is
handled exactly per mode by the multiplier e^{-dt lam^{1/2}}, built from the
geometry's ``sqrt_eigenvalues`` (k_m and lam^{-1/2} are geometry tables
too).  The advective flux -u . grad(theta) is
evaluated at the midpoints of a grid with ceil(3N'/2) nodes per axis; products
of the mixed-parity factors (velocity components against gradient
components) are sine polynomials, so the fine-grid projection is alias-free
and the discrete advection term is skew-symmetric to round-off.

The drift, ``drift_mode`` of the run's :class:`config.SolverConfig`, is
``sqg`` (u = J grad psi with psi = lam^{-1/2} theta) or ``none``.  N' is
sized to the live band of the spectrum.  A coefficient is live when it
exceeds CHOP_RTOL = 1e-16 times the largest coefficient of its field, and
the extent M is theta's largest live mode index along either axis.  psi's
tail beyond M is at most sqrt(2) CHOP_RTOL max|psi|: for p > M and q <= M,
lam_q / lam_p <= 2M^2 / ((M + 1)^2 + 1) < 2.  The M x M blocks
are advected on the sub-geometry with N' = 2j >= 2M + 2, j 5-smooth: a
product of modes <= M has modes <= 2M <= N' - 1 only, so the 3/2 rule on N'
is alias-free on every mode the product reaches, and the result is
zero-padded from 2M x 2M back to N - 1.  Only the dropped coefficients
change the sum.  When N' >= N, the flux runs on the full 3/2 grid as
without a band.

A step works on the state's nonzero block.  Every coefficient outside the
leading K x K block of a state is exactly 0.0; K starts as the initial
data's support and after each stage becomes max(K, 2M), since the band flux
is zero beyond 2M (N - 1 once a stage takes the full grid).  The stream
function, built on the block the product reads, the extent scans, the Heun
update, its finiteness check and :func:`velocity_bound` read only that
block; outside it the update is exactly 0.0, so the state's bits are those
of the whole-array update.  Each state carries its support and live extent,
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
from .geometry import Geometry, build_square_geometry
from .operators import riesz_velocity
from .spectral import (GridField, SpectralField, _midpoint_tables, _support,
                       _times_k, eval_block, eval_fine_mixed, fine_grid_size,
                       forward_fine)

CHOP_RTOL = 1e-16    # a coefficient at or below CHOP_RTOL * max|c| is not live


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


@lru_cache(maxsize=8)
def _decay(geometry: Geometry, dt: float) -> np.ndarray:
    """Integrating factor e^{-dt lam^{1/2}} of one step of length dt."""
    decay = np.exp(-dt * geometry.sqrt_eigenvalues)
    decay.setflags(write=False)
    return decay


def _stream_coeffs(c: np.ndarray, geometry: Geometry,
                   j_sign: float) -> np.ndarray:
    """j_sign psi = j_sign lam^{-1/2} c on the leading K x K block ``c``."""
    K = c.shape[0]
    return j_sign * c * geometry.inv_sqrt_eigenvalues[:K, :K]


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


@lru_cache(maxsize=16)
def _band_geometry(N: int, side_length: float) -> Geometry:
    """The sub-geometry on which :func:`advection_coeffs` advects a band."""
    return build_square_geometry(N, side_length)


def _band_size(M: int) -> int:
    """N' = 2j >= 2M + 2 with j >= 4 and 5-smooth, so that the 3/2 grid's
    Nf' = 3j is a fast transform length (a prime Nf' such as 59 costs three
    times as much per transform)."""
    j = max(4, M + 1)
    while (2 ** 64 * 3 ** 41 * 5 ** 28) % j:   # j < 2^64: 0 iff 5-smooth
        j += 1
    return 2 * j


def _flux(c: np.ndarray, psi: np.ndarray, g: Geometry,
          work: np.ndarray) -> np.ndarray:
    """-u . grad(theta) for the leading modes ``c`` of theta and ``psi`` of
    the stream function, on the 3/2 grid of ``g``, in the slots ``work``."""
    Nf = fine_grid_size(g.grid_size)
    k = g.wavenumbers[:c.shape[0]]
    # u = (-psi_y, psi_x), so -u . grad(theta) = psi_y theta_x - psi_x theta_y
    flux = eval_fine_mixed(_times_k(psi, k, 1), g, Nf, 1, out=work[0])
    flux *= eval_fine_mixed(_times_k(c, k, 0), g, Nf, 0, out=work[1])
    part = eval_fine_mixed(_times_k(psi, k, 0), g, Nf, 0, out=work[1])
    part *= eval_fine_mixed(_times_k(c, k, 1), g, Nf, 1, out=work[2])
    flux -= part
    return forward_fine(flux, g)


def advection_coeffs(theta: SpectralField, config: SolverConfig,
                     work: np.ndarray | None = None,
                     extent: int | None = None) -> np.ndarray:
    """Coefficients of -u . grad(theta), alias-free on the retained modes.

    ``theta.coeffs`` is the whole spectrum or its leading K x K block, with
    every coefficient outside the block zero.  The drift is ``sqg`` or
    ``none``.  The product runs on the live band: M is theta's
    :func:`_live_extent` (``extent``, when the caller knows it), and psi's
    tail beyond M is at most sqrt(2) CHOP_RTOL max|psi| (see the module
    docstring).  The M x M blocks of theta and psi are advected on the 3/2
    grid of the sub-geometry of :func:`_band_size` (N' >= 2M + 2).  Modes
    <= M multiply into modes <= 2M only, so the result is the flux's leading
    block of side max(K, 2M), zero outside 2M x 2M.  When N' >= N, the full
    geometry is used and the result is the whole spectrum, as it is for a
    whole theta.  ``work`` is an :func:`advection_workspace` of theta's
    geometry, which the call overwrites (the band path uses its leading
    memory); without it the call allocates its own.
    """
    g = theta.geometry
    c = theta.coeffs
    M = (0 if config.drift_mode == "none"
         else _live_extent(c) if extent is None else extent)
    if M == 0:      # no drift, or theta is zero
        return np.zeros_like(c)
    n_band = _band_size(M)
    if n_band >= g.grid_size:
        n = g.n_interior
        psi = _stream_coeffs(c, g, config.j_sign)
        return _flux(_lead(c, n), _lead(psi, n), g,
                     advection_workspace(g) if work is None else work)
    sub = _band_geometry(n_band, g.side_length)
    if work is None:
        work = advection_workspace(sub)
    else:   # the leading memory of the full workspace, reshaped
        Nf = fine_grid_size(n_band)
        work = work.reshape(-1)[:3 * Nf * Nf].reshape(3, Nf, Nf)
    block = c[:M, :M]
    band = _flux(block, _stream_coeffs(block, g, config.j_sign), sub, work)
    side = max(c.shape[0], 2 * M)
    out = np.zeros((side, side))
    out[:2 * M, :2 * M] = band[:2 * M, :2 * M]
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
    decay = _decay(g, dt)
    K = _support(theta.coeffs) if state.support is None else state.support
    a = theta.coeffs[:K, :K]
    k1 = advection_coeffs(SpectralField(a, g, theta.tag), config, work,
                          state.extent)
    K1 = len(k1)
    mid = decay[:K1, :K1] * (_lead(a, K1) + dt * k1)
    k2 = advection_coeffs(SpectralField(mid, g, theta.tag), config, work)
    K2 = len(k2)
    d2 = decay[:K2, :K2]
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
