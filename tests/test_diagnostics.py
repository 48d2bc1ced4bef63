"""Ratio norms, Lipschitz/Hölder functionals, record aggregation, CSV."""
import numpy as np
import pytest

from sqgbounds.errors import ConfigurationError
from sqgbounds.geometry import build_square_geometry
from sqgbounds import diagnostics as dg
from sqgbounds import operators as op
from sqgbounds import solver as sv
from sqgbounds import spectral as sp


@pytest.fixture(scope="module")
def geom():
    return build_square_geometry(128)


def test_boundary_ratio_ground_state(geom):
    b1 = dg.boundary_ratio(sp.mode_field(geom, 1, 1))
    assert np.abs(b1.values - 1.0).max() < 1e-12
    assert abs(dg.ratio_lp_norm(b1, 3.0) - np.pi ** (2.0 / 3.0)) < 1e-12


def test_boundary_ratio_vanishing_at_center(geom):
    b1 = dg.boundary_ratio(sp.mode_field(geom, 1, 2))
    i = geom.grid_size // 2 - 1   # node at (pi/2, pi/2), sin(2y) = 0 there
    assert abs(b1.values[i, i]) < 1e-12


@pytest.mark.parametrize("N", [64, 512])
def test_ratio_sup_by_rows_keeps_the_bits_of_the_whole_ratio(N):
    g = build_square_geometry(N)
    c = np.zeros((N - 1, N - 1))
    c[:6, :6] = np.random.default_rng(N).standard_normal((6, 6))
    values = sp.inverse(sp.SpectralField(c, g))
    assert dg.ratio_sup(values) == dg.ratio_lp_norm(
        dg.ratio_from_values(values), np.inf)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_weighted_norm_takes_the_power_of_the_magnitude(geom, m):
    """b_1 ** 2m and |b_1| ** 2m agree bit for bit where b_1 > 0 and to
    about one ulp per node where b_1 changes sign."""
    def with_signed_power(theta):
        b1 = dg.boundary_ratio(theta).values
        return dg.ratio_quad(geom, geom.ground_state * b1 ** (2 * m)) ** (
            1.0 / (2 * m))

    positive = sp.mode_field(geom, 1, 1)
    positive.coeffs[2, 0] = 0.1
    assert (dg.boundary_ratio(positive).values > 0).all()
    assert dg.weighted_ratio_norm(positive, m) == with_signed_power(positive)
    mixed = sp.mode_field(geom, 1, 1)
    mixed.coeffs[1, 2] = 0.9
    assert (dg.boundary_ratio(mixed).values < 0).any()
    assert dg.weighted_ratio_norm(mixed, m) == pytest.approx(
        with_signed_power(mixed), rel=1e-14)


def test_interior_lipschitz_basics(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    assert dg.interior_lipschitz(z) == 0.0
    w1 = sp.mode_field(geom, 1, 1)
    M = dg.interior_lipschitz(w1)
    M2 = dg.interior_lipschitz(sp.mode_field(build_square_geometry(256), 1, 1))
    assert abs(M2 - M) / M < 0.02
    assert abs(dg.interior_lipschitz(sp.mode_field(geom, 1, 1, amp=-3.0))
               - 3.0 * M) < 1e-12


def test_holder_seminorm_ground_state(geom):
    w1 = sp.mode_field(geom, 1, 1)
    got = dg.holder_seminorm(w1, 0.5)
    # |delta_h w1| <= sup|grad w1| |h| = (2/pi)|h|, and |h| <= d_max/32
    h_max = geom.distance.max() / 32.0
    assert 0 < got.value <= (2.0 / np.pi) * np.sqrt(h_max) + 1e-12
    assert got.skipped_nodes > 0
    crude = 2.0 * sp.inverse(w1).sup_norm() * geom.spacing ** -0.5
    assert got.value <= crude


def test_holder_seminorm_zero_and_monotone(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    assert dg.holder_seminorm(z, 0.3).value == 0.0
    rng = np.random.default_rng(0)
    c = np.zeros((geom.n_interior,) * 2)
    c[:10, :10] = rng.standard_normal((10, 10))
    f = sp.SpectralField(c, geom)
    # all admissible |h| <= d_max/32 < 1, so the seminorm grows with alpha
    lo = dg.holder_seminorm(f, 0.3).value
    hi = dg.holder_seminorm(f, 0.6).value
    assert lo <= hi


def test_holder_seminorm_validates_alpha(geom):
    w1 = sp.mode_field(geom, 1, 1)
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigurationError):
            dg.holder_seminorm(w1, alpha)


def test_record_zero_state(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    rec = dg.record(sv.SolverState(0.0, z))
    assert rec.sup_norm == 0.0 and rec.energy == 0.0 and rec.half_norm == 0.0
    assert rec.lipschitz == 0.0 and rec.u_sup == 0.0
    assert all(v == 0.0 for v in rec.b1_lp.values())


def test_record_ground_state_norms(geom):
    rec = dg.record(sv.SolverState(0.0, sp.mode_field(geom, 1, 1)))
    assert abs(rec.energy - 1.0) < 1e-12
    assert abs(rec.half_norm - np.sqrt(2.0)) < 1e-12
    assert rec.u_sup > 0
    # tangential velocity vanishing linearly at the sides: rate near 1
    assert rec.normal_rate > 0.7


def test_record_is_pure(geom):
    state = sv.SolverState(0.2, sp.mode_field(geom, 2, 1, amp=0.3))
    assert dg.record(state) == dg.record(state)


def test_decay_run_norms_nonincreasing():
    g = build_square_geometry(64)
    theta0 = sp.mode_field(g, 1, 1)
    theta0.coeffs[1, 1] = 0.4
    res = sv.run(theta0, sv.SolverConfig(dt=2e-3, t_end=0.3, drift_mode="none",
                                         output_interval=0.05))
    recs = [dg.record(s) for s in res.snapshots]
    for a, b in zip(recs, recs[1:]):
        assert b.energy <= a.energy + 1e-8
        assert b.half_norm <= a.half_norm + 1e-8
        assert b.sup_norm <= a.sup_norm + 1e-8
        for p in a.b1_lp:
            assert b.b1_lp[p] <= a.b1_lp[p] + 1e-8


def test_csv_round_trip(tmp_path, geom):
    rec = dg.record(sv.SolverState(0.0, sp.mode_field(geom, 1, 1)))
    path = tmp_path / "diag.csv"
    dg.append_csv(path, rec)
    dg.append_csv(path, rec)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("t[1],sup_norm[1]")
    assert lines[1] == lines[2]
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == rec.t and abs(vals[2] - rec.energy) < 1e-15


def test_record_matches_single_functionals(geom):
    theta = sp.mode_field(geom, 2, 1, amp=0.3)
    theta.coeffs[0, 0] = 1.0
    rec = dg.record(sv.SolverState(0.0, theta), ps=(2.0, np.inf), ms=(1, 2),
                    alphas=(0.3, 0.6))
    assert rec.sup_norm == sp.inverse(theta).sup_norm()
    b1 = dg.boundary_ratio(theta)
    assert rec.b1_lp == {p: dg.ratio_lp_norm(b1, p) for p in (2.0, np.inf)}
    assert rec.weighted_norm == {m: dg.weighted_ratio_norm(theta, m)
                                 for m in (1, 2)}
    assert rec.holder == {a: dg.holder_seminorm(theta, a).value
                          for a in (0.3, 0.6)}


def _random_field(geom, seed, modes=12):
    c = np.zeros((geom.n_interior,) * 2)
    c[:modes, :modes] = np.random.default_rng(seed).standard_normal((modes, modes))
    return sp.SpectralField(c, geom)


def _holder_masked_overlap(values, alpha, h_budget=1.0 / 32.0):
    """The Hölder seminorm over each full overlap, masked by d h_budget >= |h|."""
    g = values.geometry
    vals, dx, n = values.values, g.spacing, g.n_interior
    best = 0.0
    admissible = np.zeros((n, n), dtype=bool)
    steps = 1
    while steps * dx <= h_budget * g.distance.max():
        for ex, ey in ((1, 0), (0, 1), (1, 1), (1, -1)):
            p, q = steps * ex, steps * ey
            hlen = np.hypot(p * dx, q * dx)
            i0, i1 = max(0, -p), min(n, n - p)
            j0, j1 = max(0, -q), min(n, n - q)
            if i0 >= i1 or j0 >= j1:
                continue
            diff = np.abs(vals[i0 + p:i1 + p, j0 + q:j1 + q] - vals[i0:i1, j0:j1])
            ok = g.distance[i0:i1, j0:j1] * h_budget >= hlen
            if ok.any():
                best = max(best, float((diff * ok).max()) / hlen ** alpha)
                admissible[i0:i1, j0:j1] |= ok
        steps *= 2
    return dg.HolderSeminorm(best, int((~admissible).sum()))


@pytest.mark.parametrize("n, h_budget", [(64, 1.0 / 32.0), (257, 1.0 / 32.0),
                                         (128, 0.1)])
def test_holder_matches_masked_overlap(n, h_budget):
    g = build_square_geometry(n)
    values = sp.inverse(_random_field(g, n))
    for alpha in (0.3, 0.7):
        assert dg._holder(values, alpha, h_budget) == \
            _holder_masked_overlap(values, alpha, h_budget)


def _normal_velocity_slope_meshgrid(u, geometry, shells=4):
    """The shell slope with the nearest side picked on a full meshgrid."""
    X, Y = geometry.meshgrid()
    L = geometry.side_length
    near_x = np.minimum(X, L - X) <= np.minimum(Y, L - Y)
    un = np.where(near_x, np.abs(u.u_x.values), np.abs(u.u_y.values))
    d = geometry.distance
    logs_d, logs_u = [], []
    for top in (L / 8.0) * 0.5 ** np.arange(shells):
        sel = (d <= top) & (d > 0.5 * top)
        if sel.any() and un[sel].max() > 0:
            logs_d.append(np.log(top))
            logs_u.append(np.log(un[sel].max()))
    if len(logs_d) < 2:
        return 0.0, 0.0
    slope, intercept = np.polyfit(logs_d, logs_u, 1)
    fit = slope * np.asarray(logs_d) + intercept
    ss_res = float(((np.asarray(logs_u) - fit) ** 2).sum())
    ss_tot = float(((np.asarray(logs_u) - np.mean(logs_u)) ** 2).sum())
    return float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@pytest.mark.parametrize("n", [64, 128, 257])
def test_normal_velocity_slope_matches_meshgrid(n):
    g = build_square_geometry(n)
    fields = [_random_field(g, n), sp.mode_field(g, 1, 1),
              sp.mode_field(g, 2, 1, amp=0.5),
              sp.SpectralField(np.zeros((g.n_interior,) * 2), g)]
    for theta in fields:
        u = op.riesz_velocity(theta)
        abs_ux, abs_uy = np.abs(u.u_x.values), np.abs(u.u_y.values)
        assert dg._normal_slope(abs_ux, abs_uy, g) == \
            _normal_velocity_slope_meshgrid(u, g)
        assert dg._normal_slope(abs_ux, abs_uy, g, shells=6) == \
            _normal_velocity_slope_meshgrid(u, g, shells=6)
