"""Drift-free and SQG decay runs with the ground-state envelope.

Integrates theta_t + u.grad(theta) + Lambda(theta) = 0 from a two-mode
initial state and prints how the sup norm tracks the envelope
B * w_1(x) * exp(-sqrt(2) t) at every output time.
"""
import numpy as np

from sqgbounds.config import SolverConfig
from sqgbounds.geometry import build_square_geometry
from sqgbounds.solver import run
from sqgbounds.spectral import inverse, mode_field

g = build_square_geometry(128)

theta0 = mode_field(g, 1, 1)
theta0.coeffs[0, 1] = 0.3
B = float(np.abs(inverse(theta0).values / g.ground_state).max())
print(f"initial data: w_11 + 0.3 w_12, envelope constant B = {B:.4f}")

for mode in ("none", "sqg"):
    cfg = SolverConfig(dt=2e-3, t_end=1.0, drift_mode=mode,
                       output_interval=0.2)
    result = run(theta0, cfg)
    print(f"\n--- drift mode: {mode} ---")
    print(f"{'t':>5} {'sup |theta|':>12} {'envelope sup':>13} {'ratio':>7}")
    for state in result.snapshots:
        sup = inverse(state.theta).sup_norm()
        env = B * g.ground_state.max() * np.exp(-state.t * np.sqrt(2.0))
        print(f"{state.t:5.2f} {sup:12.6f} {env:13.6f} {sup / env:7.4f}")
    print(f"energy ledger residual: {result.ledger_residual:.2e}")
    print(f"max-principle overshoot: {result.max_overshoot:.2e}")
