"""Time integration: integrating-factor Heun stepping with exact dissipation.

The equation is critical SQG: the dissipation is Lambda = (-Delta_D)^{1/2},
the case s = 1 of Lambda^s, where it has the order of the advection.  It is
handled exactly per mode by the multiplier e^{-dt lam^{1/2}}, built from the
geometry's ``sqrt_eigenvalues`` (k_m and lam^{-1/2} are geometry tables
too).  The advective flux -u . grad(theta) is
evaluated at the midpoints of a grid with ceil(3N/2) nodes per axis; products
of the mixed-parity factors (velocity components against gradient
components) are sine polynomials, so the fine-grid projection is alias-free
and the discrete advection term is skew-symmetric to round-off.  A run
reuses one fine-grid workspace for every advection evaluation; the energy
ledger integrates over the step times with the Simpson rule of :func:`_simpson`
(the trapezoid rule for a one-step run).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericError
from .geometry import Geometry
from .operators import _perp_gradient
from .spectral import (SpectralField, eval_fine_mixed, fine_grid_size,
                       forward_fine, inverse)


@dataclass
class SolverConfig:
    """Integration parameters; drift_mode selects the advecting field."""

    dt: float = 5e-4
    t_end: float = 1.0
    cfl: float = 0.5
    drift_mode: str = "sqg"          # "sqg" | "none" | "prescribed"
    drift_stream: SpectralField | None = None
    j_sign: float = 1.0
    output_interval: float = 0.1
    max_overshoot: float = 0.01

    def validate(self) -> None:
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigurationError("dt must be positive and t_end nonnegative")
        if self.drift_mode not in ("sqg", "none", "prescribed"):
            raise ConfigurationError(f"unknown drift mode {self.drift_mode!r}")
        if self.drift_mode == "prescribed" and self.drift_stream is None:
            raise ConfigurationError("prescribed drift mode needs drift_stream")


@dataclass
class SolverState:
    t: float
    theta: SpectralField
    step: int = 0


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


@lru_cache(maxsize=8)
def _decay(geometry: Geometry, dt: float) -> np.ndarray:
    """Integrating factor e^{-dt lam^{1/2}} of one step of length dt."""
    decay = np.exp(-dt * geometry.sqrt_eigenvalues)
    decay.setflags(write=False)
    return decay


def _stream_coeffs(theta: SpectralField, config: SolverConfig) -> np.ndarray | None:
    if config.drift_mode == "sqg":
        return config.j_sign * theta.coeffs * theta.geometry.inv_sqrt_eigenvalues
    if config.drift_mode == "prescribed":
        return config.j_sign * config.drift_stream.coeffs
    return None


def _times_k(c: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """``c`` times the wavenumbers ``k`` along ``axis``.

    Equal to ``c * k[:, None]`` (axis 0) or ``c * k[None, :]`` (axis 1) bit
    for bit, but einsum needs no iterator buffer, where numpy allocates one
    for every broadcast product.
    """
    return np.einsum("ij,i->ij" if axis == 0 else "ij,j->ij", c, k)


def advection_workspace(geometry: Geometry) -> np.ndarray:
    """Scratch for :func:`advection_coeffs`: three fine-grid Nf x Nf slots."""
    Nf = fine_grid_size(geometry.grid_size)
    return np.empty((3, Nf, Nf))


def advection_coeffs(theta: SpectralField, config: SolverConfig,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of -u . grad(theta), alias-free on the retained modes.

    ``work`` is an :func:`advection_workspace` of theta's geometry, which the
    call overwrites; without it the call allocates its own.
    """
    g = theta.geometry
    psi = _stream_coeffs(theta, config)
    if psi is None:
        return np.zeros_like(theta.coeffs)
    if work is None:
        work = advection_workspace(g)
    Nf = fine_grid_size(g.grid_size)
    k, c = g.wavenumbers, theta.coeffs
    # u = (-psi_y, psi_x), so -u . grad(theta) = psi_y theta_x - psi_x theta_y
    flux = eval_fine_mixed(_times_k(psi, k, 1), g, Nf, 1, out=work[0])
    flux *= eval_fine_mixed(_times_k(c, k, 0), g, Nf, 0, out=work[1])
    part = eval_fine_mixed(_times_k(psi, k, 0), g, Nf, 0, out=work[1])
    part *= eval_fine_mixed(_times_k(c, k, 1), g, Nf, 1, out=work[2])
    flux -= part
    return forward_fine(flux, g, Nf, g.n_interior)


def velocity_sup(theta: SpectralField, config: SolverConfig) -> float:
    """max |u| over the interior nodes of the drift."""
    psi = _stream_coeffs(theta, config)
    if psi is None:
        return 0.0
    ux, uy = _perp_gradient(psi, theta.geometry, 1.0)
    return float(np.sqrt(ux ** 2 + uy ** 2).max())


def velocity_bound(theta: SpectralField, config: SolverConfig) -> float:
    """A-priori upper bound on :func:`velocity_sup`, in O(N^2) and no transform.

    |u_x| <= (2/L) sum |psi_mn| k_n and |u_y| <= (2/L) sum |psi_mn| k_m.  The
    factor 1 + 1e-9 covers the round-off of both evaluations, so the bound
    is never below the computed sup.
    """
    psi = _stream_coeffs(theta, config)
    if psi is None:
        return 0.0
    k = theta.geometry.wavenumbers
    a = np.abs(psi)
    amp = np.hypot((a @ k).sum(), (k @ a).sum())
    return float((2.0 / theta.geometry.side_length) * amp * (1.0 + 1e-9))


def step(state: SolverState, dt: float, config: SolverConfig,
         work: np.ndarray | None = None) -> SolverState:
    """One integrating-factor Heun step.

    ``work`` is passed on to :func:`advection_coeffs`.  Raises
    ``NumericError`` with a state dump if the update is non-finite; CFL
    acceptance is the caller's job (see :func:`run`).
    """
    g = state.theta.geometry
    decay = _decay(g, dt)
    a = state.theta.coeffs
    k1 = advection_coeffs(state.theta, config, work)
    mid = SpectralField(decay * (a + dt * k1), g, tag=state.theta.tag)
    k2 = advection_coeffs(mid, config, work)
    new = decay * a + 0.5 * dt * (decay * k1 + k2)
    if not np.isfinite(new).all():
        raise NumericError(
            f"non-finite state at t={state.t + dt:.6g}, step {state.step + 1}: "
            f"max |coeff| before blowup {np.abs(a).max():.3e}")
    return SolverState(t=state.t + dt,
                       theta=SpectralField(new, g, tag=state.theta.tag),
                       step=state.step + 1)


def half_norm_sq(theta: SpectralField) -> float:
    """||Lambda^{1/2} theta||^2 = sum sqrt(lam) a^2."""
    return float((theta.geometry.sqrt_eigenvalues * theta.coeffs ** 2).sum())


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
    only the final state.  A snapshot is the live state, which the run never
    modifies; the callback must not modify it either.  When a step raises
    ``NumericError``, the snapshots already handed on are all the run leaves.

    The energy ledger integrates the half-norm history with Simpson's rule
    (the trapezoid rule for a single step) and reports
    |E(T) - E(0) + dissipation| relative to E(0).  The maximum
    principle is monitored (overshoot flag), never enforced.  The CFL test
    tries :func:`velocity_bound` first and evaluates :func:`velocity_sup`
    only when the bound fails it; since the bound is never below the sup,
    each step is accepted or rejected exactly as the sup alone decides.
    All steps share one :func:`advection_workspace`, released on return.
    """
    config.validate()
    if not np.isfinite(theta0.coeffs).all():
        raise NumericError("initial data has non-finite coefficients")
    g = theta0.geometry
    state = SolverState(t=0.0, theta=theta0.copy(), step=0)
    dt = config.dt
    rejected = 0
    work = advection_workspace(g)

    times = [0.0]
    halves = [half_norm_sq(state.theta)]
    sup0 = inverse(state.theta).sup_norm()
    sup_history = [sup0]
    running_min = sup0
    overshoot = 0.0

    kept: list[SolverState] = []
    emit = kept.append if on_snapshot is None else on_snapshot
    emit(state)
    next_output = config.output_interval

    while state.t < config.t_end - 1e-12:
        dt_step = min(dt, config.t_end - state.t)
        limit = config.cfl * g.spacing
        bound = velocity_bound(state.theta, config)
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
        halves.append(half_norm_sq(state.theta))
        sup = inverse(state.theta).sup_norm()
        sup_history.append(sup)
        if sup0 > 0:
            overshoot = max(overshoot, (sup - running_min) / sup0)
        running_min = min(running_min, sup)
        if state.t >= next_output - 1e-12 or state.t >= config.t_end - 1e-12:
            emit(state)
            next_output += config.output_interval

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
                     sup_history=sup_history)
