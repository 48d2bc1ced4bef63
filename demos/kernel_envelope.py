"""Gaussian envelope fit for the Dirichlet heat kernel on the square.

Samples (t, x, y) with r^2/(4t) <= 30, evaluates the kernel by factorized
eigensums, and fits H <= C * pref * t^-1 * exp(-r^2 / (K t)).  The fitted
rate K should sit near the free-space value 4.
"""
import numpy as np

from sqgbounds import build_square_geometry, heat_kernel
from sqgbounds.inequalities import verify_kernel_bounds

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
sample = heat_kernel(g, x, y, t)
free = np.exp(-0.05 ** 2 / (4 * t)) / (4 * np.pi * t)
print(f"\nspot check at t={t}: H = {sample.value:.4f}, "
      f"free-space = {free:.4f}, ratio = {sample.value / free:.4f}")
