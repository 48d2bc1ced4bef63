"""Integrating-factor stepping: exact dissipation, skew advection, monitors."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft
from scipy.integrate import simpson

from sqgbounds.errors import ConfigurationError, NumericError
from sqgbounds.geometry import build_square_geometry
from sqgbounds import inequalities as iq
from sqgbounds import operators as op
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


def full_grid_advection(theta, psi):
    """The flux on theta's own 3/2 grid: the four mixed evaluations and the
    DST-II projection, with no band."""
    g = theta.geometry
    Nf, L = sp.fine_grid_size(g.grid_size), g.side_length
    k, c = g.wavenumbers, theta.coeffs
    flux = (sp.eval_fine_mixed(sp._times_k(psi, k, 1), L, Nf, 1)
            * sp.eval_fine_mixed(sp._times_k(c, k, 0), L, Nf, 0)
            - sp.eval_fine_mixed(sp._times_k(psi, k, 0), L, Nf, 0)
            * sp.eval_fine_mixed(sp._times_k(c, k, 1), L, Nf, 1))
    return sp.forward_fine(flux, L, g.n_interior)


def smooth_field(g, seed, rate=1.5):
    """Random coefficients decaying like e^{-rate (m + n)}: a live band far
    below the grid."""
    m = g.modes
    c = np.random.default_rng(seed).standard_normal((g.n_interior,) * 2)
    return sp.SpectralField(c * np.exp(-rate * (m[:, None] + m[None, :])), g)


def test_live_extent_chops_relative_to_the_largest_coefficient():
    c = np.zeros((15, 15))
    assert sv._live_extent(c) == 0
    c[0, 0] = -1.0
    c[5, 2] = 2e-16
    assert sv._live_extent(c) == 6
    c[5, 2] = -1e-16            # at the tolerance: not live
    assert sv._live_extent(c) == 1
    c[2, 7] = 3e-16             # along the other axis
    assert sv._live_extent(c) == 8
    c[14, 14] = np.nan
    assert sv._live_extent(c) == 15


def psi_beyond_theta(g):
    """theta of extent 10 whose psi = lam^{-1/2} theta has extent 11.

    theta's (11, 1) coefficient is 0.9e-16 of its largest, at (10, 10), so
    it is not live; psi's (11, 1) is 0.9e-16 sqrt(200 / 122) = 1.15e-16 of
    its largest, so it is.
    """
    c = np.zeros((g.n_interior,) * 2)
    c[:10, :10] = 1e-3 * np.random.default_rng(10).standard_normal((10, 10))
    c[9, 9] = 1.0
    c[10, 0] = 0.9e-16
    psi = sv._stream_coeffs(c, g, 1.0)
    assert (sv._live_extent(c), sv._live_extent(psi)) == (10, 11)
    return sp.SpectralField(c, g)


@pytest.mark.parametrize("N, make, extents", [
    pytest.param(64, lambda g: smooth_field(g, 64), range(1, 32), id="64"),
    pytest.param(128, lambda g: smooth_field(g, 128), range(1, 64),
                 id="128"),
    # extents whose 3/2 grid of twice a 5-smooth j >= M + 1 reached N
    pytest.param(128, lambda g: smooth_field(g, 128, rate=0.62),
                 range(60, 64), id="128-wide"),
    # a band wider than DENSE_MAX_NF / 2: its grid takes the FFT route
    pytest.param(256, lambda g: smooth_field(g, 256, rate=0.5),
                 range(sp.DENSE_MAX_NF // 2, 128), id="256-fft"),
    pytest.param(64, psi_beyond_theta, range(1, 32), id="psi_beyond_theta")])
def test_band_advection_matches_the_full_grid_on_smooth_data(N, make,
                                                             extents):
    """The band is theta's extent M; every psi coefficient it drops is at
    most sqrt(2) CHOP_RTOL max|psi|, and the flux keeps to 1e-13."""
    g = build_square_geometry(N)
    theta = make(g)
    M = sv._live_extent(theta.coeffs)
    assert M in extents and 2 * M <= g.n_interior
    cfg = sv.SolverConfig(drift_mode="sqg")
    psi = sv._stream_coeffs(theta.coeffs, g, 1.0)
    dropped = psi.copy()
    dropped[:M, :M] = 0.0
    assert np.abs(dropped).max() <= (np.sqrt(2.0) * sv.CHOP_RTOL
                                     * np.abs(psi).max())
    adv = sv.advection_coeffs(theta, cfg)
    ref = full_grid_advection(theta, psi)
    assert np.linalg.norm(adv - ref) <= 1e-13 * np.linalg.norm(ref)
    inner = abs(float((adv * theta.coeffs).sum()))
    assert inner <= 1e-13 * np.linalg.norm(adv) * theta.l2_norm()
    work = sv.advection_workspace(g)               # stale values are ignored
    work.fill(np.nan)
    assert np.array_equal(sv.advection_coeffs(theta, cfg, work), adv)


def test_band_grid_size_exceeds_twice_the_extent():
    """Nf > 2M: max(9, 2M + 1) on the dense route, and above it the
    pure-Python 5-smooth search gives scipy's fast lengths."""
    for M in range(4097):
        Nf = sv._band_grid_size(M)
        assert Nf > 2 * M, M
        if max(9, 2 * M + 1) <= sp.DENSE_MAX_NF:
            assert Nf == max(9, 2 * M + 1), M
        else:
            assert Nf == fft.next_fast_len(2 * M + 1, real=True), M


@pytest.mark.parametrize("top", [64, 127])
def test_full_spectrum_advection_is_the_full_grid_result_bit_for_bit(
        geom, top):
    """An extent of (N - 1)/2 or more runs on the full 3/2 grid unchanged."""
    c = np.zeros((geom.n_interior,) * 2)
    c[:top, :top] = np.random.default_rng(top).standard_normal((top, top))
    theta = sp.SpectralField(c, geom)
    cfg = sv.SolverConfig(drift_mode="sqg")
    assert 2 * sv._live_extent(c) > geom.n_interior
    ref = full_grid_advection(theta, sv._stream_coeffs(c, geom, 1.0))
    work = sv.advection_workspace(geom)
    assert np.array_equal(sv.advection_coeffs(theta, cfg, work), ref)
    assert np.array_equal(sv.advection_coeffs(theta, cfg), ref)


@pytest.mark.parametrize("mode", ["sqg", "none"])
def test_zero_theta_advects_to_zero(geom, mode):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    cfg = sv.SolverConfig(drift_mode=mode)
    adv = sv.advection_coeffs(z, cfg, sv.advection_workspace(geom))
    assert adv.shape == z.coeffs.shape and not adv.any()


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


def test_overshoot_monitor_reads_the_live_columns(geom):
    """Each step's sup, from theta's live columns, is the sup of all modes
    to round-off, and the run reports its largest live extent."""
    theta0 = sp.mode_field(geom, 1, 1)
    theta0.coeffs[1, 0] = 0.5
    cfg = sv.SolverConfig(dt=2e-3, t_end=0.1, output_interval=2e-3)
    res = sv.run(theta0, cfg)
    assert len(res.snapshots) == len(res.sup_history) == 51
    for state, sup in zip(res.snapshots, res.sup_history):
        assert abs(sup - sp.inverse(state.theta).sup_norm()) <= 1e-15 * sup
    extents = [sv._live_extent(s.theta.coeffs) for s in res.snapshots]
    assert res.live_modes == max(extents) < geom.n_interior // 2
    # the live band does not depend on the grid it sits in
    coarse = build_square_geometry(64)
    theta_c = sp.mode_field(coarse, 1, 1)
    theta_c.coeffs[1, 0] = 0.5
    assert sv.run(theta_c, cfg).live_modes == res.live_modes


def test_live_sup_of_a_non_finite_state_is_nan(geom):
    """The overshoot monitor's sup propagates a NaN node value."""
    c = np.zeros((geom.n_interior,) * 2)
    c[0, 0], c[1, 2] = 1.0, np.nan
    state = sv.SolverState(0.0, sp.SpectralField(c, geom), support=3,
                           extent=3)
    assert np.isnan(sv._live_sup(state))


def test_half_norm_sq_in_a_buffer_keeps_its_bits_and_allocates_nothing(
        traced_peak):
    """half_norm_sq with ``out`` has the bits of the whole-array formula
    and, at N = 512, allocates under 1 % of one 511^2 array."""
    g = build_square_geometry(512)
    n = g.n_interior
    c = np.zeros((n, n))
    c[:40, :40] = np.random.default_rng(5).standard_normal((40, 40))
    theta = sp.SpectralField(c, g)
    buf = np.empty((n, n))
    want = float((g.sqrt_eigenvalues * c ** 2).sum())
    got, peak = traced_peak(lambda: sv.half_norm_sq(theta, out=buf))
    assert got == sv.half_norm_sq(theta) == want
    assert peak < 0.01 * buf.nbytes


@pytest.mark.parametrize("N", [64, 128, 512, 1024])
def test_prefix_sum_keeps_the_whole_sum_bits(N):
    """The squares' prefix that numpy's pairwise sum adds up first, and the
    ledger term formed on it, have the bits of the whole-array sums, on
    random supports and on a full spectrum.  A numpy whose pairwise sum
    splits differently fails here."""
    g = build_square_geometry(N)
    n = g.n_interior
    rng = np.random.default_rng(N)
    out = np.empty((n, n))
    for K in [*rng.integers(1, n + 1, 25), n]:
        c = np.zeros((n, n))
        c[:K, :K] = rng.standard_normal((K, K)) * 10.0 ** rng.uniform(-8, 8)
        _, terms = sv._prefix_squares(c, K, out)
        assert float(terms.sum()) == float((c * c).sum())
        assert (sv.half_norm_sq(sp.SpectralField(c, g), out, K)
                == float((g.sqrt_eigenvalues * c ** 2).sum()))


def test_rough_run_holds_one_inv_sqrt_table(monkeypatch):
    """A full-spectrum SQG run (the truncated constant at N = 256), whose
    CFL test takes the exact velocity sup, forms lam^{-1/2} once: its steps
    and ``riesz_velocity`` read the same cached (N-1)^2 table."""
    g = build_square_geometry(256)
    tables, inv_sqrt = [], op._inv_sqrt
    monkeypatch.setattr(op, "_inv_sqrt", lambda g, K: (
        tables.append(inv_sqrt(g, K)) or tables[-1]))
    inv_sqrt.cache_clear()
    sv.run(iq.constant_field(g), sv.SolverConfig(dt=2e-3, t_end=0.01))
    info = inv_sqrt.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > len(tables)
    assert tables and all(t is sv._inv_sqrt(g, g.n_interior) for t in tables)
    assert not hasattr(g, "inv_sqrt_eigenvalues")


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
                 "final_dt", "sup_history", "live_modes"):
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
       amp=st.floats(1e-6, 1e3), j_sign=st.sampled_from([1.0, -1.0]))
def test_velocity_bound_never_below_sup(seed, top, amp, j_sign):
    rng = np.random.default_rng(seed)
    c = np.zeros((_SMALL.n_interior,) * 2)
    c[:top, :top] = amp * rng.standard_normal((top, top))
    theta = sp.SpectralField(c, _SMALL)
    cfg = sv.SolverConfig(drift_mode="sqg", j_sign=j_sign)
    assert sv.velocity_bound(theta, cfg) >= sv.velocity_sup(theta, cfg)


def test_geometry_mode_tables_keep_their_bits(geom):
    lam = geom.eigenvalues
    k = geom.wavenumbers
    assert np.array_equal(k, geom.modes * np.pi / geom.side_length)
    assert np.array_equal(geom.sqrt_eigenvalues, lam ** 0.5)
    n = geom.n_interior
    assert np.array_equal(sv._decay(geom, 2e-3, n),
                          np.exp(-2e-3 * lam ** 0.5))
    assert sv._decay(geom, 2e-3, n) is sv._decay(geom, 2e-3, n)
    assert np.array_equal(sv._inv_sqrt(geom, n), lam ** -0.5)
    assert geom != build_square_geometry(128)     # compared by identity
    for table in (k, geom.sqrt_eigenvalues, sv._decay(geom, 2e-3, n),
                  sv._inv_sqrt(geom, n)):
        with pytest.raises(ValueError):
            table[0] = 1.0
    # the 2048 grid of the commutator check builds no whole-grid multiplier
    fine = build_square_geometry(2048)
    assert iq.verify_commutator_scaling(sp.mode_field(fine, 1, 1)).passed
    assert not {"eigenvalues", "sqrt_eigenvalues"} & set(vars(fine))


@pytest.mark.parametrize("N", [64, 128, 512])
def test_block_mode_tables_have_the_bits_of_the_whole_tables(N):
    """e^{-dt lam^{1/2}} and lam^{-1/2} on a leading K x K block are the
    whole tables' blocks bit for bit, at every K a step can read."""
    g = build_square_geometry(N)
    for K in (1, 12, 34, N - 1):
        for dt in (2e-3, 0.06 - 29 * 2e-3):    # a clipped last step too
            assert (sv._decay(g, dt, K).tobytes()
                    == np.exp(-dt * g.sqrt_eigenvalues)[:K, :K].tobytes())
        assert (sv._inv_sqrt(g, K).tobytes()
                == (g.eigenvalues ** -0.5)[:K, :K].tobytes())


def test_smooth_large_run_builds_no_whole_mode_table(tmp_path, monkeypatch):
    """The N = 512 run of 30 steps with a record every 2 (the benchmark's
    large run) builds no whole table of its grid's modes or distances
    (neither its ledger nor its records), and every decay and lam^{-1/2}
    table it reads is a block of at most twice its live extent."""
    from pathlib import Path
    from sqgbounds.cli import cmd_run
    from sqgbounds.config import load_config
    from sqgbounds.geometry import Geometry

    tables, decay = [], sv._decay
    monkeypatch.setattr(sv, "_decay", lambda g, dt, K: (
        tables.append((g, K)) or decay(g, dt, K)))
    blocks, rows = [], Geometry.eigenvalue_rows
    monkeypatch.setattr(Geometry, "eigenvalue_rows", lambda g, *b: (
        blocks.append(b) or rows(g, *b)))
    sv._inv_sqrt.cache_clear()
    cfg = load_config(Path(__file__).resolve().parents[1]
                      / "configs" / "default.cfg")
    cfg.grid_size, cfg.t_end, cfg.output_interval = 512, 0.06, 0.004
    cfg.output_dir = str(tmp_path)
    assert cmd_run(cfg) == 0
    (g,) = {geometry for geometry, _ in tables}
    assert not {"eigenvalues", "sqrt_eigenvalues", "distance"} & set(vars(g))
    summary = (tmp_path / "run_summary.txt").read_text()
    live = int(summary.split("live_modes: ")[1].split()[0])
    assert max(K for _, K in tables) <= 2 * live < g.n_interior // 4
    assert all(b == (slice(b[0].stop),) * 2 and b[0].stop <= 2 * live
               for b in blocks)


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


def full_array_step(state, dt, config, advect=sv.advection_coeffs):
    """The Heun step on whole arrays: every stage and the update over all
    (N - 1)^2 coefficients."""
    g = state.theta.geometry
    decay = np.exp(-dt * g.sqrt_eigenvalues)
    a = state.theta.coeffs
    k1 = advect(state.theta, config)
    mid = sp.SpectralField(decay * (a + dt * k1), g)
    k2 = advect(mid, config)
    return decay * a + 0.5 * dt * (decay * k1 + k2)


@pytest.mark.parametrize("N", [64, 128])
def test_block_step_is_the_full_array_step_bit_for_bit(N):
    g = build_square_geometry(N)
    theta = smooth_field(g, N)
    theta.coeffs[12:] = 0.0           # support 12, extent 12
    theta.coeffs[:, 12:] = 0.0
    cfg = sv.SolverConfig(drift_mode="sqg")
    new = sv.step(sv.SolverState(0.0, theta), 1e-2, cfg)
    ref = full_array_step(sv.SolverState(0.0, theta), 1e-2, cfg)
    assert new.theta.coeffs.tobytes() == ref.tobytes()
    K = new.support
    assert K < N - 1 and not new.theta.coeffs[K:].any() \
        and not new.theta.coeffs[:, K:].any()
    assert new.extent == sv._live_extent(ref)
    # the next step reads the carried support and extent, not a scan
    again = sv.step(new, 1e-2, cfg)
    ref2 = full_array_step(sv.SolverState(0.0, sp.SpectralField(ref, g)),
                           1e-2, cfg)
    assert again.theta.coeffs.tobytes() == ref2.tobytes()


def test_step_scans_a_state_of_unknown_support_once(geom, monkeypatch):
    theta = smooth_field(geom, 5)
    cfg = sv.SolverConfig(drift_mode="sqg")
    scans = []
    support = sv._support
    monkeypatch.setattr(sv, "_support",
                        lambda c: scans.append(c.shape) or support(c))
    unknown = sv.step(sv.SolverState(0.0, theta), 1e-2, cfg)
    assert scans == [theta.coeffs.shape]
    known = sv.step(sv.SolverState(0.0, theta, support=support(theta.coeffs)),
                    1e-2, cfg)
    assert len(scans) == 1
    assert np.array_equal(known.theta.coeffs, unknown.theta.coeffs)
    assert (known.support, known.extent) == (unknown.support, unknown.extent)


def test_full_spectrum_step_takes_the_fft_fallback_bit_for_bit(geom):
    """Whole spectra at N = 128 step on the whole arrays, through the FFT
    route of the 3/2 grid, with the bits of the whole-array step."""
    assert sp.fine_grid_size(geom.grid_size) > sp.DENSE_MAX_NF
    c = np.random.default_rng(8).standard_normal((geom.n_interior,) * 2)
    theta = sp.SpectralField(1e-2 * c, geom)
    cfg = sv.SolverConfig(drift_mode="sqg")

    def fft_flux(th, config):
        return full_grid_advection(
            th, sv._stream_coeffs(th.coeffs, th.geometry, config.j_sign))

    new = sv.step(sv.SolverState(0.0, theta), 1e-3, cfg)
    assert new.support == geom.n_interior
    ref = full_array_step(sv.SolverState(0.0, theta), 1e-3, cfg, fft_flux)
    assert new.theta.coeffs.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", ["sqg", "none"])
def test_zero_state_steps_on_an_empty_block(geom, mode):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    cfg = sv.SolverConfig(drift_mode=mode)
    new = sv.step(sv.SolverState(0.0, z), 1e-2, cfg)
    assert (new.support, new.extent) == (0, 0)
    assert new.theta.coeffs.shape == z.coeffs.shape
    assert not new.theta.coeffs.any()


@pytest.mark.parametrize("mode", ["sqg"])
def test_band_advection_allocates_less_than_one_fine_grid(
        geom, traced_peak, mode):
    """The band path at N = 128 allocates under one Nf^2 array, for a whole
    theta and for a leading 30 x 30 block as a step passes it."""
    theta = smooth_field(geom, 128)
    cfg = sv.SolverConfig(drift_mode=mode)
    assert 2 * sv._live_extent(theta.coeffs) <= geom.n_interior
    work = sv.advection_workspace(geom)
    block = sp.SpectralField(theta.coeffs[:30, :30].copy(), geom)
    grid_bytes = sp.fine_grid_size(geom.grid_size) ** 2 * 8
    for th in (theta, block):
        sv.advection_coeffs(th, cfg, work)
        _, peak = traced_peak(lambda: sv.advection_coeffs(th, cfg, work))
        assert peak < grid_bytes


def test_default_run_keeps_the_benchmark_call_counts(monkeypatch):
    """configs/default.cfg: 500 steps, two advection_coeffs calls per step
    and four eval_fine_mixed calls per advection, as perfbench pins them."""
    from pathlib import Path
    from sqgbounds.config import load_config

    counts = {"step": 0, "advection_coeffs": 0, "eval_fine_mixed": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((sv, "step"), (sv, "advection_coeffs"),
                         (sv, "eval_fine_mixed"), (sp, "eval_fine_mixed")):
        counting(module, name)
    cfg = load_config(Path(__file__).resolve().parents[1]
                      / "configs" / "default.cfg")
    res = sv.run(cfg.initial_field(cfg.geometry()), cfg.solver_config())
    assert res.snapshots[-1].step == counts["step"] == 500
    assert counts["advection_coeffs"] == 2 * counts["step"]
    assert counts["eval_fine_mixed"] == 4 * counts["advection_coeffs"]
