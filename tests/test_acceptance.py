"""Acceptance gate: one quantitative criterion per test, one verdict line each."""
import numpy as np
import pytest

from sqgbounds.cli import _holder_monitor, _holder_sample
from sqgbounds.config import RunConfig
from sqgbounds.geometry import build_square_geometry
from sqgbounds.diagnostics import holder_seminorm, record
from sqgbounds.operators import (PHI_LINEAR, PHI_SQUARE, apply_lambda_power,
                                 lambda_via_heat, softplus_hinge,
                                 weighted_convexity_terms)
from sqgbounds import inequalities as iq
from sqgbounds import solver as sv
from sqgbounds import spectral as sp
from sqgbounds.diagnostics import boundary_ratio


def verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def geom128():
    return build_square_geometry(128)


@pytest.fixture(scope="session")
def sqg_run(geom128):
    theta0 = sp.mode_field(geom128, 1, 1)
    theta0.coeffs[1, 0] = 0.5
    cfg = sv.SolverConfig(dt=2e-3, t_end=1.0, drift_mode="sqg",
                          output_interval=0.1)
    return theta0, sv.run(theta0, cfg)


def test_01_spectral_exactness(geom128):
    g = geom128
    worst = 0.0
    for m, n in [(1, 1), (3, 2), (10, 7)]:
        lam = float(m ** 2 + n ** 2)
        f = sp.mode_field(g, m, n)
        for s in (-1.0, 0.5, 1.0, 2.0):
            got = apply_lambda_power(f, s).coeffs[m - 1, n - 1]
            worst = max(worst, abs(got - lam ** (s / 2.0)) / lam ** (s / 2.0))
    heat_err = 0.0
    for s in (0.5, 1.0, 1.5):
        got = lambda_via_heat(sp.mode_field(g, 3, 2), s).coeffs[2, 1]
        heat_err = max(heat_err, abs(got - 13.0 ** (s / 2.0)))
    verdict("spectral exactness", worst < 1e-12 and heat_err < 1e-8,
            f"eigenvalue rel err {worst:.2e}, heat route err {heat_err:.2e}")


def test_02_cordoba_positivity(geom128):
    fields = iq.seeded_family(geom128, 10, 12, seed=7)
    rep = iq.verify_cordoba(geom128, fields, PHI_SQUARE)
    g256 = build_square_geometry(256)
    rep2 = iq.verify_cordoba(g256, iq.seeded_family(g256, 10, 12, seed=7),
                             PHI_SQUARE)
    g1, g2 = rep.fitted_constants["gamma1"], rep2.fitted_constants["gamma1"]
    stable = abs(g2 - g1) / g1 < 0.20
    verdict("cordoba positivity", rep.passed and g1 > 0 and stable,
            f"gamma1={g1:.4f}, refined {g2:.4f}")


def test_03_weighted_identity_defect(geom128):
    w1 = sp.mode_field(geom128, 1, 1)
    ratios = [boundary_ratio(f)
              for f in iq.seeded_family(geom128, 5, 10, seed=2)]
    rep = iq.verify_weighted_identity(ratios, w1,
                                      [PHI_SQUARE, softplus_hinge(0.3)])
    _, _, defect = weighted_convexity_terms(ratios[0], w1, PHI_LINEAR)
    linear_ok = float(np.abs(defect.values).max()) < 1e-10
    verdict("weighted identity defect", rep.passed and linear_ok,
            f"min relative defect {rep.min_margin:.2e}, "
            f"linear residual {np.abs(defect.values).max():.2e}")


def test_04_decay_envelope(geom128):
    g = geom128
    cfg = sv.SolverConfig(dt=5e-3, t_end=1.0, drift_mode="none",
                          output_interval=0.5)
    res = sv.run(sp.mode_field(g, 1, 1), cfg)
    worst = 0.0
    for state in res.snapshots[1:]:     # t = 0.5 and 1.0
        exact = np.exp(-state.t * np.sqrt(2.0)) * g.ground_state
        worst = max(worst, float(np.abs(sp.inverse(state.theta).values
                                        - exact).max()))
    theta0 = sp.mode_field(g, 1, 1)
    theta0.coeffs[0, 1] = 0.3
    cfg2 = sv.SolverConfig(dt=2e-3, t_end=1.0, drift_mode="none",
                           output_interval=0.2)
    res2 = sv.run(theta0, cfg2)
    B = float(np.abs(sp.inverse(theta0).values / g.ground_state).max())
    rep = iq.verify_decay_envelope(res2, cfg2, B)
    verdict("decay envelope", worst < 1e-8 and rep.passed,
            f"exact-case error {worst:.2e}, "
            f"perturbed min margin {rep.min_margin:.2e}")


def test_05_weighted_lp_control(geom128):
    g = geom128
    theta0 = sp.mode_field(g, 1, 1)
    theta0.coeffs[0, 1] = 0.3
    cfg = sv.SolverConfig(dt=2e-3, t_end=1.0, drift_mode="none",
                          output_interval=0.2)
    res = sv.run(theta0, cfg)
    rep = iq.verify_weighted_lp_control(res, m=2)
    verdict("weighted Lp control", rep.passed,
            f"m=2 min margin {rep.min_margin:.3f} (slack 5%)")


def test_06_velocity_dichotomy(geom128):
    grow = iq.verify_velocity_log_bound(iq.constant_field(geom128))
    flat = iq.verify_velocity_log_bound(sp.mode_field(geom128, 1, 1),
                                        expect_log_growth=False)
    b_grow = grow.fitted_constants["B"]
    b_flat = flat.fitted_constants["B"]
    ok = (grow.passed and grow.regression[2] >= 0.9 and b_grow > 0
          and np.isfinite(flat.fitted_constants["u_sup"])
          and b_flat <= 0.1 * b_grow)
    verdict("velocity dichotomy", ok,
            f"nonvanishing slope {b_grow:.3f} (r2={grow.regression[2]:.3f}), "
            f"vanishing slope {b_flat:.4f}")


def test_07_commutator_scaling():
    g = build_square_geometry(2048)
    rep = iq.verify_commutator_scaling(sp.mode_field(g, 1, 1))
    slope, r2 = rep.fitted_constants["slope"], rep.regression[2]
    ok = rep.passed and -1.3 <= slope <= 0.0 and r2 >= 0.85 \
        and rep.samples >= 4
    verdict("commutator scaling", ok,
            f"slope {slope:.3f} over {rep.samples} shells, r2={r2:.3f}")


def test_08_normal_velocity_vanishing(geom128):
    rep = iq.verify_normal_velocity_rate(sp.mode_field(geom128, 1, 1),
                                         p=np.inf, alpha=0.8)
    slope = rep.fitted_constants["slope"]
    target = rep.fitted_constants["target"]
    verdict("normal velocity vanishing", rep.passed,
            f"slope {slope:.3f} >= target {target:.3f}")


def test_09_solver_integrity(geom128, sqg_run):
    theta0, res = sqg_run
    ledger_ok = res.ledger_residual < 1e-6
    overshoot_ok = res.max_overshoot <= 0.01

    def final(dt):
        cfg = sv.SolverConfig(dt=dt, t_end=0.05, drift_mode="sqg")
        return sv.run(theta0, cfg).snapshots[-1].theta.coeffs

    ref = final(2.5e-4)
    e1 = np.abs(final(4e-3) - ref).max()
    e2 = np.abs(final(2e-3) - ref).max()
    order = float(np.log2(e1 / e2))
    verdict("solver integrity",
            ledger_ok and overshoot_ok and order >= 1.8,
            f"ledger {res.ledger_residual:.2e}, "
            f"overshoot {res.max_overshoot:.2e}, order {order:.2f}")


def test_ledger_residual_keeps_its_bits(sqg_run):
    """The default problem's ledger, as scipy.integrate.simpson computed it."""
    _, res = sqg_run
    assert repr(res.ledger_residual) == "1.1681819955811077e-10"


def test_10_holder_persistence_monitor(geom128, sqg_run):
    theta0, res = sqg_run
    cfg = RunConfig(t_end=1.0)
    records = [record(sv.SolverState(s.t, s.theta), ps=cfg.ps, ms=cfg.ms,
                      alphas=cfg.alphas) for s in res.snapshots]
    violated, k_fit = _holder_monitor(
        [_holder_sample(r, cfg) for r in records], cfg)
    B = max(r.b1_lp[4.0] for r in records)
    M = max(r.lipschitz for r in records)
    h0 = holder_seminorm(theta0, 0.4)
    bound = 2.0 * h0 + k_fit * B * (M + 1.0)
    peak = max(r.holder[0.4] for r in records)
    verdict("holder persistence monitor", not violated,
            f"peak {peak:.4f} <= bound {bound:.4f} "
            f"(B={B:.3f}, M={M:.3f}, K_fit={k_fit:.3f})")


def test_11_kernel_bounds(geom128):
    rep = iq.verify_kernel_bounds(geom128, n_samples=1200, seed=11)
    K = rep.fitted_constants["K"]
    c = rep.fitted_constants["c"]
    ok = rep.passed and 1.0 <= K <= 16.0 and c > 0 and rep.samples >= 500
    verdict("kernel bounds", ok,
            f"K={K:.2f} in [1,16], c={c:.3e} > 0, {rep.samples} samples")
