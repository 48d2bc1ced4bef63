"""Gaussian envelope fit for the Dirichlet heat kernel on the square.

Samples (t, x, y) with r^2/(4t) <= 30, evaluates the kernel by factorized
eigensums, and fits H <= C * pref * t^-1 * exp(-r^2 / (K t)).  The fitted
rate K should sit near the free-space value 4.
"""
import numpy as np

from sqgbounds.geometry import build_square_geometry
from sqgbounds.inequalities import verify_kernel_bounds
from sqgbounds.operators import eigensum_1d

g = build_square_geometry(128)

rep = verify_kernel_bounds(g, n_samples=1200, seed=0)
fc = rep.fitted_constants
print(f"retained samples: {rep.samples} "
      f"(rejected {rep.sample_plan['rejected']})")
print(f"upper envelope: C = {fc['C']:.3f}, K = {fc['K']:.3f} "
      f"(free-space rate is 4)")
print(f"lower envelope: c = {fc['c']:.4f} > 0")
print(f"gradient family constant: {fc['C_grad']:.3f}")
print(f"second-derivative family constant: {fc['C_hess']:.3f}")

# spot check one kernel value against the short-time free-space kernel
t = 5e-3
x = (np.pi / 2, np.pi / 2)
y = (np.pi / 2 + 0.05, np.pi / 2)
L, M = g.side_length, g.n_interior
H = float(eigensum_1d(t, x[0], y[0], L, M) * eigensum_1d(t, x[1], y[1], L, M))
free = np.exp(-0.05 ** 2 / (4 * t)) / (4 * np.pi * t)
print(f"\nspot check at t={t}: H = {H:.4f}, "
      f"free-space = {free:.4f}, ratio = {H / free:.4f}")
