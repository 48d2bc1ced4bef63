"""Boundary behavior of the Riesz velocity: log growth vs vanishing.

For data that does not vanish on the boundary (the truncated expansion of
the constant 1) the shell maxima of |u| grow like log(1/d); for the ground
state w_1 (zero trace) they stay bounded.  Both regressions are printed.
"""
import numpy as np

from sqgbounds.geometry import build_square_geometry
from sqgbounds.inequalities import constant_field, verify_velocity_log_bound
from sqgbounds.operators import riesz_velocity
from sqgbounds.spectral import mode_field

g = build_square_geometry(128)

cases = [("truncated constant", constant_field(g), True),
         ("ground state w_1", mode_field(g, 1, 1), False)]

for label, theta, expect in cases:
    u = riesz_velocity(theta)
    rep = verify_velocity_log_bound(theta, expect_log_growth=expect)
    slope, intercept, r2 = rep.regression
    print(f"\n--- {label} ---")
    print(f"sup |u| = {rep.fitted_constants['u_sup']:.4f}")
    print(f"shell fit |u| ~ A + B log(1/d): "
          f"A = {intercept:.4f}, B = {slope:.4f}, r^2 = {r2:.4f}")
    print(f"exp-integrability proxy int e^(gamma |u|) = "
          f"{rep.fitted_constants['exp_integral']:.4f} "
          f"(gamma = {rep.fitted_constants['exp_gamma']:.4f})")
    print("verdict:", "log growth" if slope > 0.05 else "bounded")
