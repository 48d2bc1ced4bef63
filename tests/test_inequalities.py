"""Verification harness: fitted constants, margins, and report plumbing."""
import inspect

import numpy as np
import pytest

from sqgbounds.errors import ConfigurationError, PreconditionError
from sqgbounds.geometry import build_square_geometry
from sqgbounds.diagnostics import boundary_ratio, ratio_quad
from sqgbounds.operators import PHI_LINEAR, PHI_SQUARE, ConvexFn, softplus_hinge
from sqgbounds import operators as op
from sqgbounds import inequalities as iq
from sqgbounds import solver as sv
from sqgbounds import spectral as sp


@pytest.fixture(scope="module")
def geom():
    return build_square_geometry(128)


@pytest.fixture(scope="module")
def mix(geom):
    f = sp.mode_field(geom, 1, 1)
    f.coeffs[1, 2] = 0.4
    f.coeffs[3, 1] = -0.2
    return sp.SpectralField(f.coeffs, geom, tag="mix")


@pytest.fixture(scope="module")
def short_run():
    g = build_square_geometry(64)
    theta0 = sp.mode_field(g, 1, 1, amp=0.5)
    theta0.coeffs[1, 1] = 0.15
    cfg = sv.SolverConfig(dt=2e-3, t_end=0.4, drift_mode="sqg",
                          output_interval=0.1)
    return sv.run(theta0, cfg), cfg, theta0


def test_fit_line_recovers_exact_line():
    x = np.linspace(0, 1, 7)
    slope, intercept, r2 = iq.fit_line(x, 3.0 * x - 2.0)
    assert abs(slope - 3.0) < 1e-12 and abs(intercept + 2.0) < 1e-12
    assert r2 == 1.0


def test_cordoba_seeded_family(geom):
    fields = iq.seeded_family(geom, 4, 12, seed=1)
    rep = iq.verify_cordoba(geom, fields, PHI_SQUARE)
    assert rep.passed and rep.fitted_constants["gamma1"] > 0


def test_cordoba_scale_invariant(geom, mix):
    r1 = iq.verify_cordoba(geom, [mix], PHI_SQUARE)
    big = sp.SpectralField(10.0 * mix.coeffs, geom)
    r2 = iq.verify_cordoba(geom, [big], PHI_SQUARE)
    assert abs(r1.fitted_constants["gamma1"]
               - r2.fitted_constants["gamma1"]) < 1e-9


def test_cordoba_linear_profile_degenerate(geom):
    rep = iq.verify_cordoba(geom, [sp.mode_field(geom, 1, 1)], PHI_LINEAR)
    assert rep.passed and rep.min_margin == 0.0
    assert "degenerate" in rep.notes


def test_cordoba_rejects_offset_profile(geom):
    shifted = ConvexFn(lambda z: z * z + 1.0, lambda z: 2.0 * z, "shifted")
    with pytest.raises(PreconditionError):
        iq.verify_cordoba(geom, [sp.mode_field(geom, 1, 1)], shifted)


def test_weighted_identity_defect_sign(geom, mix):
    w1 = sp.mode_field(geom, 1, 1)
    rep = iq.verify_weighted_identity([boundary_ratio(mix)], w1,
                                      [PHI_SQUARE, softplus_hinge(0.3)])
    assert rep.passed


def test_weighted_identity_hinge_above_range(geom, mix):
    w1 = sp.mode_field(geom, 1, 1)
    b = boundary_ratio(mix)
    high = softplus_hinge(float(np.abs(b.values).max()) + 5.0)
    rep = iq.verify_weighted_identity([b], w1, [high])
    # profile vanishes identically on the ratio's range
    assert rep.passed and abs(rep.min_margin) < 1e-10


def test_lambda_one_lower(geom):
    rep = iq.verify_lambda_one_lower(geom)
    assert rep.passed
    assert rep.fitted_constants["c0"] > 0
    assert rep.fitted_constants["symmetry_residual"] < 1e-10
    assert rep.fitted_constants["quadrature_residual"] < 1e-8


def test_lambda_one_duality_oracle(geom):
    # int w_11 (Lambda 1) = sqrt(lam_11) int w_11 = sqrt(2) * 8 / pi
    vals = iq.lambda_one_values(geom)
    got = ratio_quad(geom, vals * geom.ground_state)
    want = np.sqrt(2.0) * 8.0 / np.pi
    assert abs(got - want) / want < 5e-5


def test_lambda_one_refinement_consistent(geom):
    coarse = iq.lambda_one_values(geom)
    fine = iq.lambda_one_values(build_square_geometry(256))
    assert np.abs(fine[1::2, 1::2] - coarse).max() < 1e-12


def test_decay_envelope_ground_state_exact():
    g = build_square_geometry(64)
    cfg = sv.SolverConfig(dt=1e-3, t_end=0.5, drift_mode="sqg",
                          output_interval=0.25)
    res = sv.run(sp.mode_field(g, 1, 1), cfg)
    rep = iq.verify_decay_envelope(res, cfg, B=1.0)
    assert rep.passed
    # single mode decays exactly: envelope is tight at every output time
    assert max(rep.margins) < 1e-7


def test_decay_envelope_perturbed(short_run):
    res, cfg, theta0 = short_run
    g = theta0.geometry
    B = float(np.abs(sp.inverse(theta0).values / g.ground_state).max()) + 1e-9
    rep = iq.verify_decay_envelope(res, cfg, B)
    assert rep.passed


def test_decay_envelope_rejects_small_B(short_run):
    res, cfg, theta0 = short_run
    with pytest.raises(PreconditionError):
        iq.verify_decay_envelope(res, cfg, B=1e-6)


def test_weighted_lp_control(short_run):
    res, cfg, theta0 = short_run
    rep = iq.verify_weighted_lp_control(res, m=2)
    assert rep.passed and rep.min_margin >= -0.05


def test_weighted_lp_control_has_a_fixed_tolerance(short_run):
    """The 5 % slack is a constant of the check, not a parameter."""
    params = inspect.signature(iq.verify_weighted_lp_control).parameters
    assert list(params) == ["result", "m"]
    res, _, _ = short_run
    assert iq.verify_weighted_lp_control(res, m=2).tolerance == 0.05


def test_run_envelopes_take_min_margin_after_t0(short_run):
    res, cfg, theta0 = short_run
    g = theta0.geometry
    B = float(np.abs(sp.inverse(theta0).values / g.ground_state).max()) + 1e-9
    for rep in (iq.verify_decay_envelope(res, cfg, B),
                iq.verify_weighted_lp_control(res, m=2)):
        assert len(rep.margins) == len(res.snapshots) > 1
        assert rep.min_margin == min(rep.margins[1:])
    # a run with the t = 0 snapshot only keeps its margin
    single = sv.run(theta0, sv.SolverConfig(dt=2e-3, t_end=0.0))
    rep = iq.verify_weighted_lp_control(single, m=2)
    assert rep.margins == [0.0] and rep.min_margin == 0.0


def test_bridge_ground_state_closed_forms(geom):
    # b = 1: ||b||_p = (pi^2)^{1/p}, weighted norm = (8/pi)^{1/2m}
    w1 = sp.mode_field(geom, 1, 1)
    rep = iq.verify_weight_norm_bridge(w1, m=2, p=1.5)
    assert rep.passed
    A = ratio_quad(geom, geom.ground_state ** (-1.5 / 2.5))
    assert abs(rep.fitted_constants["A_mp"] - A) < 1e-12
    lhs = np.pi ** (2.0 / 1.5)
    rhs = rep.fitted_constants["C_mp"] * (8.0 / np.pi) ** 0.25
    # the weighted factor uses grid quadrature of w_1: accurate to ~1e-4
    assert abs(rep.margins[0] - (rhs - lhs) / rhs) < 5e-4


def test_bridge_random_both_directions(geom, mix):
    assert iq.verify_weight_norm_bridge(mix, m=4, p=3.0).passed
    assert iq.verify_weight_norm_bridge(mix, m=2, p=3.0).passed


def test_bridge_homogeneous(geom, mix):
    r1 = iq.verify_weight_norm_bridge(mix, m=2, p=1.5)
    big = sp.SpectralField(10.0 * mix.coeffs, geom)
    r2 = iq.verify_weight_norm_bridge(big, m=2, p=1.5)
    assert abs(r1.margins[0] - r2.margins[0]) < 1e-10


def test_bridge_rejects_inapplicable_exponents(geom, mix):
    with pytest.raises(ConfigurationError):
        iq.verify_weight_norm_bridge(mix, m=3, p=4.0)


def test_velocity_log_bound_dichotomy(geom):
    grow = iq.verify_velocity_log_bound(iq.constant_field(geom))
    assert grow.passed
    assert grow.regression[2] >= 0.9 and grow.fitted_constants["B"] > 0
    flat = iq.verify_velocity_log_bound(sp.mode_field(geom, 1, 1),
                                        expect_log_growth=False)
    assert flat.passed
    assert flat.fitted_constants["B"] <= 0.1 * grow.fitted_constants["B"]
    assert np.isfinite(flat.fitted_constants["u_sup"])
    assert np.isfinite(grow.fitted_constants["exp_integral"])


def test_velocity_conditional_bound(geom):
    rep = iq.verify_velocity_conditional_bound(iq.conditional_family(geom),
                                               p=4.0)
    assert rep.passed and np.isfinite(rep.fitted_constants["C"])


def test_velocity_conditional_linearity(geom):
    fam = iq.conditional_family(geom)
    doubled = [sp.SpectralField(2.0 * f.coeffs, geom) for f in fam]
    from sqgbounds.operators import riesz_velocity
    u1 = riesz_velocity(fam[2]).sup_norm()
    u2 = riesz_velocity(doubled[2]).sup_norm()
    assert abs(u2 - 2.0 * u1) < 1e-12


def test_short_time_smallness(geom, mix):
    rep = iq.verify_short_time_smallness(mix, c_r=0.05)
    assert rep.passed and rep.fitted_constants["tau"] > 0
    small = iq.verify_short_time_smallness(mix, c_r=0.02)
    assert small.fitted_constants["tau"] <= rep.fitted_constants["tau"]
    easy = iq.verify_short_time_smallness(mix, c_r=1e9)
    assert easy.passed and "unconstrained" in easy.notes
    with pytest.raises(ConfigurationError):
        iq.verify_short_time_smallness(mix, c_r=0.0)


def test_finite_difference_velocity(geom, mix):
    L = geom.side_length
    rep = iq.verify_finite_difference_velocity(mix, (L / 2, L / 2), L / 8,
                                               p=4.0)
    assert rep.passed
    assert np.isfinite(rep.fitted_constants["C_eps"])
    deltas = [rep.fitted_constants[f"delta_eps_{e:g}"]
              for e in (0.025, 0.05, 0.1)]
    assert deltas[0] <= deltas[1] <= deltas[2]


def test_normal_velocity_rate(geom, mix):
    rep = iq.verify_normal_velocity_rate(mix, p=4.0, alpha=0.4)
    assert rep.passed
    assert rep.fitted_constants["slope"] >= rep.fitted_constants["target"]


def test_commutator_scaling_ground_state():
    g = build_square_geometry(2048)
    w1 = sp.mode_field(g, 1, 1)
    rep = iq.verify_commutator_scaling(w1)
    assert rep.passed
    assert -1.3 <= rep.fitted_constants["slope"] <= 0.0
    assert rep.regression[2] >= 0.85
    doubled = iq.verify_commutator_scaling(
        sp.SpectralField(2.0 * w1.coeffs, g))
    assert abs(doubled.fitted_constants["Gamma0"]
               - rep.fitted_constants["Gamma0"]) < 1e-9


def test_commutator_scaling_peaks_below_four_tenths_of_a_grid_array(
        traced_peak):
    """On the 2048 grid no array spans the whole grid, apart from theta's
    spectrum, which the caller builds: the peak (measured 0.32 of one
    2047^2 array) is the column sine table over the chi boxes, the pass's
    multiplier and spectrum buffers (128 x 2047 each), and theta and
    Lambda theta on the box of nodes the centers read."""
    g = build_square_geometry(2048)
    n = g.n_interior
    theta = sp.mode_field(g, 1, 1)
    rep, peak = traced_peak(lambda: iq.verify_commutator_scaling(theta))
    assert rep.passed
    assert peak < 0.4 * n * n * 8


def test_commutator_scaling_copies_no_whole_spectrum_for_lambda_theta(
        traced_peak, monkeypatch):
    """Up to the commutator pass nothing spans the 2048 grid: theta and
    Lambda theta are evaluated from theta's support block, in row blocks
    for ||b_1|| and on the box of nodes the centers read (together 0.13
    of one 2047^2 array, measured), not from a scaled copy of the whole
    spectrum."""
    class Reached(Exception):
        pass

    def stop(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(iq, "commutator", stop)
    g = build_square_geometry(2048)
    n = g.n_interior
    theta = sp.mode_field(g, 1, 1)

    def until_commutator():
        with pytest.raises(Reached):
            iq.verify_commutator_scaling(theta)

    _, peak = traced_peak(until_commutator)
    assert peak < 0.4 * n * n * 8


def test_commutator_scaling_passes_one_case_per_center_in_order(monkeypatch):
    calls = []

    def recorded(values, lam_values, cases):
        calls.append(cases)
        return op.commutator(values, lam_values, cases)

    monkeypatch.setattr(iq, "commutator", recorded)
    g = build_square_geometry(256)
    L = g.side_length
    centers = [(L / 4, L / 2), (L / 2, L / 6), (L / 8, L / 2)]
    rep = iq.verify_commutator_scaling(sp.mode_field(g, 1, 1), centers=centers)
    assert [[x0 for x0, _, _ in cases] for cases in calls] == [centers]
    assert rep.samples == 3


def test_commutator_scaling_forms_lambda_once(monkeypatch):
    """lam^{1/2} over all modes is formed once per check, in one pass for
    every center; the only other multiplier is theta's K x K block."""
    shapes = []
    blocks = op._lambda_power_blocks

    def counted(geometry, s, shape):
        shapes.append(tuple(shape))
        return blocks(geometry, s, shape)

    monkeypatch.setattr(op, "_lambda_power_blocks", counted)
    g = build_square_geometry(2048)
    n = g.n_interior
    rep = iq.verify_commutator_scaling(sp.mode_field(g, 1, 1))
    assert rep.samples == 4
    assert shapes == [(1, 1), (n, n)]


def test_commutator_scaling_batched_pass_equals_one_case_passes(monkeypatch):
    """The check's pass over all centers keeps, bit for bit, what each
    center's case gives alone on the same inputs."""
    seen = []

    def recorded(values, lam_values, cases):
        out = op.commutator(values, lam_values, cases)
        seen.append((values, lam_values, cases, out))
        return out

    monkeypatch.setattr(iq, "commutator", recorded)
    g = build_square_geometry(2048)
    iq.verify_commutator_scaling(sp.mode_field(g, 1, 1))
    [(values, lam_values, cases, batched)] = seen
    for case, C in zip(cases, batched):
        [alone] = op.commutator(values, lam_values, [case])
        assert alone.box == C.box
        assert np.array_equal(alone.values, C.values)


def test_commutator_scaling_plan_records_each_center():
    g = build_square_geometry(256)
    L = g.side_length
    centers = [(L / 4, L / 2), (L / 2, L / 6), (L / 8, L / 2)]
    plan = iq.verify_commutator_scaling(sp.mode_field(g, 1, 1),
                                        centers=centers).sample_plan
    assert plan["ell"] == [L / 8, L / 12, L / 16]
    assert plan["h"] == [g.spacing * k for k in (2, 1, 1)]
    assert len(plan["chi_box"]) == len(plan["phi_box"]) == 3
    for (chi_rows, chi_cols), (phi_rows, phi_cols) in zip(plan["chi_box"],
                                                          plan["phi_box"]):
        assert 0 < phi_rows < chi_rows and 0 < phi_cols < chi_cols


def test_commutator_scaling_needs_fine_grid(geom, mix):
    with pytest.raises(ConfigurationError):
        iq.verify_commutator_scaling(mix)


def test_kernel_bounds(geom):
    rep = iq.verify_kernel_bounds(geom, n_samples=1200, seed=3)
    assert rep.passed
    assert rep.samples >= 500
    assert 1.0 <= rep.fitted_constants["K"] <= 16.0
    assert rep.fitted_constants["c"] > 0
    assert set(rep.fitted_constants) == {"K", "C", "c", "C_grad", "C_hess"}
    again = iq.verify_kernel_bounds(geom, n_samples=1200, seed=3)
    assert again.fitted_constants == rep.fitted_constants


def test_report_round_trip(tmp_path, geom):
    rep = iq.verify_lambda_one_lower(geom)
    text_path, csv_path = iq.write_report(rep, tmp_path)
    body = open(text_path).read()
    assert "pass: True" in body and "constant c0:" in body
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "index,margin"
    assert len(lines) == len(rep.margins) + 1


def test_lambda_one_values_match_per_node_loop():
    """lambda_one_values matches the per-node loop over the image sum to
    round-off: the late times take the sine series instead (measured
    1.9e-16 of the sup)."""
    from numpy.polynomial.legendre import leggauss
    from sqgbounds.operators import heat_of_one_1d
    g = build_square_geometry(16)
    L = g.side_length
    t_max = 50.0 * (L / np.pi) ** 2
    edges = np.linspace(np.log(1e-8), np.log(t_max), 61)
    xg, wg = leggauss(10)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    wq = (half[:, None] * wg[None, :]).ravel()
    out = np.zeros((g.n_interior,) * 2)
    for uu, ww in zip(u, wq):
        t = np.exp(uu)
        s = heat_of_one_1d(t, g.x, L, n_images=20)
        out += ww * t ** -0.5 * (1.0 - np.outer(s, s))
    want = 0.5 / np.sqrt(np.pi) * (out + 2.0 / np.sqrt(t_max))
    got = iq.lambda_one_values(g)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("N", [16, 32, 128, 256])
def test_heat_of_one_series_rows_match_the_image_sum(N):
    """The sine-series rows of heat_of_one_nodes, from the first time the
    series serves on, against heat_of_one_1d (2.0e-15 measured); earlier
    rows are the image sum's own."""
    from sqgbounds.operators import heat_of_one_1d, log_time_rule
    g = build_square_geometry(N)
    L = g.side_length
    t, _ = log_time_rule(1e-8, 50.0 * (L / np.pi) ** 2, 60, 10)
    K = g.node_sines.shape[1]
    late = t * ((K + 1) * np.pi / L) ** 2 >= 40.0
    assert 0 < late.sum() < t.size
    heat = iq.heat_of_one_nodes(g, t)
    images = heat_of_one_1d(t, g.x, L, n_images=20)
    assert np.array_equal(heat[~late], images[~late])
    assert np.abs(heat[late] - images[late]).max() <= 1e-14


def _scalar_eigensum(t, a, b, L, modes, da=0, db=0):
    """The per-sample 1-d eigensum that verify_kernel_bounds used to call."""
    k = np.arange(1, modes + 1) * np.pi / L
    decay = np.exp(-t * k * k)

    def fac(z, order):
        if order == 0:
            return np.sin(k * z)
        if order == 1:
            return k * np.cos(k * z)
        return -k * k * np.sin(k * z)

    return float((2.0 / L) * np.sum(decay * fac(a, da) * fac(b, db)))


@pytest.mark.parametrize("da, db", [(0, 0), (1, 0), (0, 1), (2, 0)])
def test_eigensum_matches_scalar_loop(da, db):
    rng = np.random.default_rng(7)
    L = np.pi
    t = np.exp(rng.uniform(np.log(1e-3), 0.0, 200))
    a, b = rng.uniform(0.0, L, (2, 200))
    want = [_scalar_eigensum(*s, L, 384, da, db) for s in zip(t, a, b)]
    assert np.array_equal(op.eigensum_1d(t, a, b, L, 384, da, db), want)


def _kernel_bounds_loop(geometry, n_samples, seed, horizon=1.0, modes=384):
    """Rejected count and fitted constants by the per-sample loop."""
    rng = np.random.default_rng(seed)
    L = geometry.side_length
    lattice = (rng.permuted(np.tile(np.arange(n_samples), (5, 1)), axis=1)
               + rng.random((5, n_samples))) / n_samples
    t = np.exp(np.log(1e-3) + lattice[0] * (np.log(horizon) - np.log(1e-3)))
    xs = 0.05 * L + lattice[1] * 0.9 * L
    ys = 0.05 * L + lattice[2] * 0.9 * L
    angle = lattice[3] * 2 * np.pi
    r = np.sqrt(4.0 * t * (lattice[4] * 30.0))

    def w1(px, py):
        return (2.0 / L) * np.sin(np.pi * px / L) * np.sin(np.pi * py / L)

    def E(*args, **kw):
        return _scalar_eigensum(*args, L, modes, **kw)

    corners = [(0, 0), (0, L), (L, 0), (L, L)]
    rejected = 0
    H, gx, hess, pref, z, ts = [], [], [], [], [], []
    for i in range(n_samples):
        x = (xs[i], ys[i])
        y = (x[0] + r[i] * np.cos(angle[i]), x[1] + r[i] * np.sin(angle[i]))
        if not (0.02 * L < y[0] < 0.98 * L and 0.02 * L < y[1] < 0.98 * L) \
                or any(np.hypot(px - cx, py - cy) < geometry.corner_radius
                       for (px, py) in (x, y) for (cx, cy) in corners):
            rejected += 1
            continue
        tt, rr = t[i], max(r[i], 1e-9)
        h1, h2 = E(tt, x[0], y[0]), E(tt, x[1], y[1])
        d1a, d2a = E(tt, x[0], y[0], da=1), E(tt, x[1], y[1], da=1)
        s1, s2 = E(tt, x[0], y[0], da=2), E(tt, x[1], y[1], da=2)
        H.append(h1 * h2)
        gx.append(np.hypot(d1a * h2, h1 * d2a))
        hess.append(max(abs(s1 * h2), abs(h1 * s2), abs(d1a * d2a)))
        pref.append(min(w1(*x) / rr, 1.0) * min(w1(*y) / rr, 1.0))
        z.append(rr ** 2 / tt)
        ts.append(tt)
    H, gx, hess, pref, z, ts = map(np.array, (H, gx, hess, pref, z, ts))
    pos = H > 0
    slope, _, _ = iq.fit_line(z[pos], np.log(H[pos] / (pref[pos] / ts[pos])))
    K = -1.0 / slope if slope < 0 else float("inf")
    ratio = (H / (pref / ts * np.exp(-z / K)))[pos]
    return rejected, {
        "K": K, "C": float(ratio.max()), "c": float(ratio.min()),
        "C_grad": float((gx / (np.exp(-z / K) * ts ** -1.5))[pos].max()),
        "C_hess": float((hess / (np.exp(-z / K) * ts ** -2.0))[pos].max())}


def test_kernel_bounds_match_per_sample_loop(geom):
    rep = iq.verify_kernel_bounds(geom, n_samples=1200, seed=0)
    rejected, fits = _kernel_bounds_loop(geom, 1200, 0)
    assert rep.sample_plan["rejected"] == rejected
    assert rep.fitted_constants == fits
