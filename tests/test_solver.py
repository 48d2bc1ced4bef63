"""Integrating-factor stepping: exact dissipation, skew advection, monitors."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft
from scipy.integrate import simpson

from sqgbounds.errors import ConfigurationError, NumericError
from sqgbounds.geometry import build_square_geometry
from sqgbounds import inequalities as iq
from sqgbounds import solver as sv
from sqgbounds import spectral as sp


@pytest.fixture(scope="module")
def geom():
    return build_square_geometry(128)


def test_zero_stays_zero(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    res = sv.run(z, sv.SolverConfig(dt=0.01, t_end=0.05, drift_mode="sqg"))
    assert res.snapshots[-1].theta.l2_norm() == 0.0


def test_pure_dissipation_exact_per_mode(geom):
    cfg = sv.SolverConfig(dt=0.01, t_end=0.1, drift_mode="none")
    for m, n in [(1, 1), (2, 3), (9, 4)]:
        st = sv.step(sv.SolverState(0.0, sp.mode_field(geom, m, n)), 0.01, cfg)
        expect = np.exp(-0.01 * np.sqrt(m ** 2 + n ** 2))
        assert abs(st.theta.coeffs[m - 1, n - 1] - expect) < 1e-10


def test_sqg_single_mode_steady_jacobian(geom):
    """grad-perp(psi) . grad(theta) = 0 when psi is proportional to theta."""
    res = sv.run(sp.mode_field(geom, 1, 1),
                 sv.SolverConfig(dt=1e-3, t_end=0.5, drift_mode="sqg"))
    th = res.snapshots[-1].theta
    assert abs(th.coeffs[0, 0] - np.exp(-0.5 * np.sqrt(2.0))) < 1e-8
    rest = th.coeffs.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-10


def test_advection_skew_symmetric(geom):
    rng = np.random.default_rng(0)
    c = np.zeros((geom.n_interior,) * 2)
    c[:12, :12] = rng.standard_normal((12, 12))
    theta = sp.SpectralField(c, geom)
    cfg = sv.SolverConfig(drift_mode="sqg")
    adv = sv.advection_coeffs(theta, cfg)
    inner = abs(float((adv * theta.coeffs).sum()))
    u_sup = sv.velocity_sup(theta, cfg)
    grad_sq = float((geom.eigenvalues * c ** 2).sum())
    assert inner < 1e-10 * u_sup * theta.l2_norm() * np.sqrt(grad_sq)


def closed_grid_advection(theta, j_sign):
    """-u . grad(theta) by type-I transforms on the closed Nf-grid.

    The factors are sampled at the interior nodes i L/Nf, i = 1..Nf-1 (a
    DST-I into the padded length, then a DCT-I over a zero-bordered copy),
    and the flux is projected back with a full DST-I and sliced.
    """
    g = theta.geometry
    L, n = g.side_length, g.n_interior
    Nf = int(np.ceil(1.5 * g.grid_size))
    k = g.modes * np.pi / L
    psi = j_sign * theta.coeffs / np.sqrt(g.eigenvalues)

    def mixed(c, cos_axis):
        s = fft.dst(c, type=1, n=Nf - 1, axis=1 - cos_axis)
        pad = [(0, 0), (0, 0)]
        pad[cos_axis] = (1, Nf - n)
        full = fft.dct(np.pad(s, pad), type=1, axis=cos_axis)
        inner = np.take(full, np.arange(1, Nf), axis=cos_axis)
        return (2.0 / L) * inner / 4.0

    flux = (mixed(psi * k[None, :], 1) * mixed(theta.coeffs * k[:, None], 0)
            - mixed(psi * k[:, None], 0) * mixed(theta.coeffs * k[None, :], 1))
    return (L / (2.0 * Nf ** 2)) * fft.dstn(flux, type=1)[:n, :n]


@pytest.mark.parametrize("N", [16, 37, 128])
@pytest.mark.parametrize("j_sign", [1.0, -1.0])
def test_advection_matches_closed_grid_formula(N, j_sign):
    """Midpoint and closed-grid dealiasing agree on full-band spectra."""
    g = build_square_geometry(N)
    c = np.random.default_rng(N).standard_normal((g.n_interior,) * 2)
    theta = sp.SpectralField(c, g)
    adv = sv.advection_coeffs(theta, sv.SolverConfig(j_sign=j_sign))
    ref = closed_grid_advection(theta, j_sign)
    assert np.linalg.norm(adv - ref) <= 1e-13 * np.linalg.norm(ref)
    inner = abs(float((adv * c).sum()))
    assert inner <= 1e-13 * np.linalg.norm(adv) * np.linalg.norm(c)


def test_advection_workspace_matches_fresh_result(geom):
    """A reused workspace full of stale values gives the fresh result exactly."""
    c = np.random.default_rng(3).standard_normal((geom.n_interior,) * 2)
    theta = sp.SpectralField(c, geom)
    cfg = sv.SolverConfig()
    fresh = sv.advection_coeffs(theta, cfg)
    work = sv.advection_workspace(geom)
    work.fill(np.nan)
    assert np.array_equal(sv.advection_coeffs(theta, cfg, work), fresh)
    assert np.array_equal(sv.advection_coeffs(theta, cfg, work), fresh)


def test_advection_with_workspace_allocates_less_than_one_fine_grid(
        geom, traced_peak):
    """With a workspace, one call at N = 128 allocates under one Nf^2 array.

    NumPy reports its buffers to tracemalloc; a warm-up call fills the
    caches first.  The returned coefficients count against the bound.
    """
    c = np.random.default_rng(4).standard_normal((geom.n_interior,) * 2)
    theta = sp.SpectralField(c, geom)
    cfg = sv.SolverConfig()
    work = sv.advection_workspace(geom)
    sv.advection_coeffs(theta, cfg, work)
    _, peak = traced_peak(lambda: sv.advection_coeffs(theta, cfg, work))
    Nf = sp.fine_grid_size(geom.grid_size)
    assert peak < Nf * Nf * 8


def test_run_monitors_and_ledger(geom):
    theta0 = sp.mode_field(geom, 1, 1)
    theta0.coeffs[1, 0] = 0.5
    res = sv.run(theta0, sv.SolverConfig(dt=2e-3, t_end=0.5, drift_mode="sqg"))
    assert res.ledger_residual < 1e-6
    assert res.max_overshoot <= 0.01
    assert not res.overshoot_flag
    sups = res.sup_history
    assert all(b <= a * 1.01 + 1e-12 for a, b in zip(sups, sups[1:]))


def test_run_with_callback_matches_retained_run(geom):
    """Streaming snapshots to a callback changes no snapshot and no monitor."""
    theta0 = sp.mode_field(geom, 1, 1)
    theta0.coeffs[1, 0] = 0.5
    cfg = sv.SolverConfig(dt=2e-3, t_end=0.1, output_interval=0.02)
    kept = sv.run(theta0, cfg)
    streamed = []
    res = sv.run(theta0, cfg, on_snapshot=streamed.append)
    assert len(streamed) == len(kept.snapshots) == 6
    for a, b in zip(streamed, kept.snapshots):
        assert (a.t, a.step) == (b.t, b.step)
        assert np.array_equal(a.theta.coeffs, b.theta.coeffs)
    assert len(res.snapshots) == 1
    assert res.snapshots[0] is streamed[-1]
    for name in ("ledger_residual", "max_overshoot", "rejected_steps",
                 "final_dt", "sup_history"):
        assert getattr(res, name) == getattr(kept, name), name


_LEDGER_GEOM = build_square_geometry(16)


def _decay_ledger(t_end):
    return sv.run(sp.mode_field(_LEDGER_GEOM, 1, 1),
                  sv.SolverConfig(dt=2e-3, t_end=t_end, drift_mode="none")
                  ).ledger_residual


def test_one_step_ledger_uses_the_trapezoid_rule():
    """A two-point run integrates its dissipation by the trapezoid rule."""
    assert _decay_ledger(2e-3) < 1e-6
    assert _decay_ledger(0.0) == 0.0


def test_simpson_ledger_keeps_its_bits():
    assert _decay_ledger(4e-3) == 6.40026226461643e-14


def test_dt_refinement_order(geom):
    theta0 = sp.mode_field(geom, 1, 1)
    theta0.coeffs[1, 0] = 0.5

    def final(dt):
        res = sv.run(theta0, sv.SolverConfig(dt=dt, t_end=0.05, drift_mode="sqg"))
        return res.snapshots[-1].theta.coeffs

    ref = final(2.5e-4)
    e1 = np.abs(final(4e-3) - ref).max()
    e2 = np.abs(final(2e-3) - ref).max()
    assert np.log2(e1 / e2) >= 1.8


def test_prescribed_drift_mode(geom):
    """Drift by the ground-state stream leaves w_1 invariant up to decay."""
    cfg = sv.SolverConfig(dt=1e-3, t_end=0.2, drift_mode="prescribed",
                          drift_stream=sp.mode_field(geom, 1, 1, amp=0.5))
    res = sv.run(sp.mode_field(geom, 1, 1), cfg)
    th = res.snapshots[-1].theta
    assert abs(th.coeffs[0, 0] - np.exp(-0.2 * np.sqrt(2.0))) < 1e-8


@pytest.fixture(scope="module")
def cfl_run(geom):
    """A run whose dt halves 7 times, with the ledger's Simpson samples."""
    samples, simpson_rule = [], sv._simpson

    def spy(y, x):
        samples.append((y.copy(), x.copy()))
        return simpson_rule(y, x)

    theta0 = sp.mode_field(geom, 1, 1, amp=50.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_simpson", spy)
        res = sv.run(theta0, sv.SolverConfig(dt=0.05, t_end=0.1,
                                             drift_mode="sqg"))
    return res, samples


def test_cfl_halves_dt(cfl_run):
    res, _ = cfl_run
    # the a-priori bound fails at this amplitude, so the exact sup decides
    # every halving
    assert res.rejected_steps == 7
    assert res.final_dt == 0.05 / 2 ** 7


@pytest.mark.parametrize("n", [3, 4, 5, 6, 17, 40, 500, 501, 1000, 1001])
def test_simpson_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(1e-3, 1.0, n))
    y = rng.standard_normal(n)
    assert sv._simpson(y, x) == float(simpson(y, x=x))


def test_simpson_matches_scipy_on_the_cfl_run_ledger(cfl_run):
    _, samples = cfl_run
    [(y, x)] = samples
    assert len(np.unique(np.diff(x))) > 1     # the step grid is irregular
    assert sv._simpson(y, x) == float(simpson(y, x=x))


_SMALL = build_square_geometry(16)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), top=st.integers(1, 15),
       amp=st.floats(1e-6, 1e3), j_sign=st.sampled_from([1.0, -1.0]),
       mode=st.sampled_from(["sqg", "prescribed"]))
def test_velocity_bound_never_below_sup(seed, top, amp, j_sign, mode):
    rng = np.random.default_rng(seed)
    c = np.zeros((_SMALL.n_interior,) * 2)
    c[:top, :top] = amp * rng.standard_normal((top, top))
    theta = sp.SpectralField(c, _SMALL)
    stream = sp.SpectralField(np.roll(c, 1, axis=0), _SMALL)
    cfg = sv.SolverConfig(drift_mode=mode, j_sign=j_sign,
                          drift_stream=stream if mode == "prescribed" else None)
    assert sv.velocity_bound(theta, cfg) >= sv.velocity_sup(theta, cfg)


def test_geometry_mode_tables_keep_their_bits(geom):
    lam = geom.eigenvalues
    k = geom.wavenumbers
    assert np.array_equal(k, geom.modes * np.pi / geom.side_length)
    assert np.array_equal(geom.sqrt_eigenvalues, lam ** 0.5)
    assert np.array_equal(geom.inv_sqrt_eigenvalues, lam ** -0.5)
    assert np.array_equal(sv._decay(geom, 2e-3), np.exp(-2e-3 * lam ** 0.5))
    assert sv._decay(geom, 2e-3) is sv._decay(geom, 2e-3)
    assert geom != build_square_geometry(128)     # compared by identity
    for table in (k, geom.sqrt_eigenvalues, geom.inv_sqrt_eigenvalues,
                  sv._decay(geom, 2e-3)):
        with pytest.raises(ValueError):
            table[0] = 1.0
    # the 2048 grid of the commutator check builds no whole-grid multiplier
    fine = build_square_geometry(2048)
    assert iq.verify_commutator_scaling(sp.mode_field(fine, 1, 1)).passed
    assert not {"eigenvalues", "sqrt_eigenvalues",
                "inv_sqrt_eigenvalues"} & set(vars(fine))


def test_nan_raises_numeric_error(geom):
    bad = sp.SpectralField(np.full((geom.n_interior,) * 2, np.nan), geom)
    with pytest.raises(NumericError):
        sv.run(bad, sv.SolverConfig(dt=1e-3, t_end=0.01))


def test_config_validation(geom):
    with pytest.raises(ConfigurationError):
        sv.SolverConfig(dt=-1.0).validate()
    with pytest.raises(ConfigurationError):
        sv.SolverConfig(drift_mode="warp").validate()
    with pytest.raises(ConfigurationError):
        sv.SolverConfig(drift_mode="prescribed").validate()
