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
    theta = sp.SpectralField(c, g)
    values = sp.inverse(theta).values
    assert dg.ratio_sup_by_rows(g, lambda rows: values[rows]) == \
        dg.ratio_lp_norm(dg.boundary_ratio(theta), np.inf)


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
    assert 0 < got <= (2.0 / np.pi) * np.sqrt(h_max) + 1e-12
    crude = 2.0 * sp.inverse(w1).sup_norm() * geom.spacing ** -0.5
    assert got <= crude


def test_holder_seminorm_zero_and_monotone(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    assert dg.holder_seminorm(z, 0.3) == 0.0
    rng = np.random.default_rng(0)
    c = np.zeros((geom.n_interior,) * 2)
    c[:10, :10] = rng.standard_normal((10, 10))
    f = sp.SpectralField(c, geom)
    # all admissible |h| <= d_max/32 < 1, so the seminorm grows with alpha
    lo = dg.holder_seminorm(f, 0.3)
    hi = dg.holder_seminorm(f, 0.6)
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


def test_record_matches_single_functionals(geom, monkeypatch):
    """On the FFT route the record has the bits of the single functionals
    (the dense route is held to it by the route-agreement test), with
    powers of |b_1| that the L^p and weighted norms share (p = 2m = 2, 4)
    and one that they do not (2m = 6), and its Lipschitz candidates give
    the whole-grid max of interior_lipschitz."""
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
    theta = sp.mode_field(geom, 2, 1, amp=0.3)
    theta.coeffs[0, 0] = 1.0
    ps, ms = (2.0, 4.0, np.inf), (1, 2, 3)
    state = sv.SolverState(0.0, theta)
    rec = dg.record(state, ps=ps, ms=ms, alphas=(0.3, 0.6))
    assert rec.sup_norm == sp.inverse(theta).sup_norm()
    assert rec.lipschitz == dg.interior_lipschitz(theta)
    b1 = dg.boundary_ratio(theta)
    assert rec.b1_lp == {p: dg.ratio_lp_norm(b1, p) for p in ps}
    assert rec.weighted_norm == {m: dg.weighted_ratio_norm(theta, m)
                                 for m in ms}
    assert list(rec.b1_lp) == list(ps) and list(rec.weighted_norm) == list(ms)
    assert rec.holder == {a: dg.holder_seminorm(theta, a)
                          for a in (0.3, 0.6)}
    for bad in ({"ps": (2.0, 0.5)}, {"ms": (2, 0)}):
        with pytest.raises(ConfigurationError):
            dg.record(state, **bad)


def _bits(x):
    return np.float64(x).tobytes()


def _whole_grid_lipschitz(dx, dy, geometry):
    return float(np.max(geometry.distance * np.hypot(dx, dy)))


def _gradient_values(theta):
    dx, dy = sp.gradient(theta)
    return dx.values, dy.values


@pytest.mark.parametrize("N", [64, 257, 512])
def test_lipschitz_candidates_keep_the_whole_grid_bits(N):
    """The max over the candidates of s = d^2 |grad|^2 is the whole-grid
    max of d |grad|, bit for bit, on seeded spectra and on seeded node
    values."""
    g = build_square_geometry(N)
    rng = np.random.default_rng(N)
    shape = (g.n_interior,) * 2
    pairs = [_gradient_values(_random_field(g, N + k, modes=m))
             for k, m in enumerate((3, 12, 40))]
    pairs += [(rng.standard_normal(shape), rng.standard_normal(shape))
              for _ in range(3)]
    for dx, dy in pairs:
        want = _whole_grid_lipschitz(dx, dy, g)
        got = dg._lipschitz(dx.copy(), dy.copy(), g, np.empty(shape))
        assert _bits(got) == _bits(want)


def test_lipschitz_near_ties_need_the_margin():
    """d |grad| within a few ulp of 1 at every node, or of 3e-158, where
    s is subnormal: the largest s is not always at the whole-grid peak,
    and _lipschitz still has the whole-grid bits (through the 1e-12
    margin, or on the whole grid below its floor)."""
    g = build_square_geometry(64)
    d = g.distance
    for scale, rel in ((1.0, 1e-15), (3e-158, 1e-10)):
        missed = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dx, dy = (scale / d * (1.0 + rel * rng.standard_normal(d.shape))
                      for _ in range(2))
            want = _whole_grid_lipschitz(dx, dy, g)
            s = (dx * dx + dy * dy) * d * d
            at_top = np.max(d * np.hypot(dx, dy), where=s == s.max(),
                            initial=0.0)
            missed += _bits(at_top) != _bits(want)
            got = dg._lipschitz(dx.copy(), dy.copy(), g, np.empty(d.shape))
            assert _bits(got) == _bits(want)
        assert missed


def test_lipschitz_with_tied_maxima_zero_and_extreme_gradients():
    """Many nodes tied at the maximum, the zero field, gradients whose
    squares over- or underflow, and non-finite gradients all give the
    whole-grid value (NaN where it is NaN)."""
    g = build_square_geometry(64)
    shape = (g.n_interior,) * 2
    ones, zeros = np.ones(shape), np.zeros(shape)
    cases = [(ones, zeros), (ones, -ones), (zeros, zeros), (-zeros, zeros),
             (1e200 * ones, ones), (1e-170 * ones, 1e-170 * ones),
             (1e-300 * ones, zeros)]
    for value in (np.nan, np.inf, -np.inf):
        dx = np.random.default_rng(1).standard_normal(shape)
        dx[10, 20] = value
        cases += [(dx, ones), (ones, dx)]
    both = np.random.default_rng(2).standard_normal(shape)
    both[3, 4] = np.inf
    nan = both.copy()
    nan[3, 4] = np.nan
    cases.append((both, nan))
    for dx, dy in cases:
        want = _whole_grid_lipschitz(dx, dy, g)
        got = dg._lipschitz(dx.copy(), dy.copy(), g, np.empty(shape))
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert _bits(got) == _bits(want)
    # d |grad| = d / d on every node, equal to 1 within an ulp or two, and
    # exactly tied along the first row, where d is the same on every node
    d = g.distance
    row = zeros.copy()
    row[0] = 1.0
    for dx, dy in ((1.0 / d, zeros), (zeros, 1.0 / d), (row, zeros)):
        want = _whole_grid_lipschitz(dx, dy, g)
        got = dg._lipschitz(dx.copy(), dy.copy(), g, np.empty(shape))
        assert _bits(got) == _bits(want)
    assert dg._lipschitz(row.copy(), zeros, g, np.empty(shape)) == \
        float(d[0, 0])


def _random_field(geom, seed, modes=12):
    c = np.zeros((geom.n_interior,) * 2)
    c[:modes, :modes] = np.random.default_rng(seed).standard_normal((modes, modes))
    return sp.SpectralField(c, geom)


def _functionals_row(theta, ps, ms, alphas):
    """The CSV row of a record at t = 0, from the single functionals."""
    g = theta.geometry
    b1 = dg.boundary_ratio(theta)
    u = op.riesz_velocity(theta)
    slope, _ = dg._normal_slope(np.abs(u.u_x.values), np.abs(u.u_y.values), g)
    return ([0.0, sp.inverse(theta).sup_norm(), theta.l2_norm() ** 2,
             sv.half_norm_sq(theta), dg.interior_lipschitz(theta)]
            + [dg.ratio_lp_norm(b1, p) for p in ps]
            + [dg.weighted_ratio_norm(theta, m) for m in ms]
            + [dg.holder_seminorm(theta, a) for a in alphas]
            + [u.sup_norm(), slope])


def test_full_spectrum_record_keeps_the_fft_route_bits():
    """A spectrum wider than DENSE_MAX_NF (N = 257, every mode live) takes
    the FFT route and keeps the bits of the single functionals."""
    g = build_square_geometry(257)
    theta = _random_field(g, 257, modes=g.n_interior)
    theta.coeffs *= 1e-2 / (1.0 + g.eigenvalues)
    assert sv._support(theta.coeffs) > sp.DENSE_MAX_NF
    rec = dg.record(sv.SolverState(0.0, theta), ps=(2.0, 4.0), ms=(2,),
                    alphas=(0.4,))
    assert dg.csv_row(rec) == _functionals_row(theta, (2.0, 4.0), (2,),
                                               (0.4,))


# Largest relative gap between the routes, measured over every snapshot
# (output every 0.02, or every step at N = 512) of three seeded runs per N:
# 4.2e-14 for the Hölder seminorm, whose smallest displacement takes the
# difference of neighbouring node values, and 1.3e-15 for every other
# column.
ROUTE_RTOL = {"holder": 1e-13, "other": 3e-15}


@pytest.mark.parametrize("N, t_end", [(64, 0.6), (128, 0.6), (512, 0.012)])
def test_record_routes_agree_on_solver_states(monkeypatch, N, t_end):
    """Every CSV column of a record, dense route against FFT route, on the
    snapshots of a run."""
    g = build_square_geometry(N)
    theta0 = sp.mode_field(g, 1, 1)
    theta0.coeffs[1, 0] = 0.5
    res = sv.run(theta0, sv.SolverConfig(dt=2e-3, t_end=t_end,
                                         output_interval=t_end / 3))
    assert max(s.support for s in res.snapshots) <= sp.DENSE_MAX_NF
    for state in res.snapshots:
        monkeypatch.setattr(sp, "DENSE_MAX_NF", 1 << 30)
        dense = dg.record(state)
        monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
        fast = dg.record(state)
        for name, a, b in zip(dg.csv_columns(fast), dg.csv_row(dense),
                              dg.csv_row(fast)):
            rtol = ROUTE_RTOL["holder" if name.startswith("holder")
                              else "other"]
            assert abs(a - b) <= rtol * abs(b), name


def _holder_masked_overlap(values, alpha, h_budget):
    """The Hölder seminorm over each full overlap, masked by d h_budget >= |h|."""
    g = values.geometry
    vals, dx, n = values.values, g.spacing, g.n_interior
    best = 0.0
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
        steps *= 2
    return best


@pytest.mark.parametrize("n, h_budget",
                         [(n, dg._HOLDER_BUDGET) for n in (64, 257, 128)])
def test_holder_matches_masked_overlap(n, h_budget):
    g = build_square_geometry(n)
    values = sp.inverse(_random_field(g, n))
    for alpha in (0.3, 0.7):
        assert dg._holder(values, alpha) == \
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


def _shell_sup_masked(values, geometry, shells):
    """The dyadic shell sups with a whole-grid mask per shell."""
    d = geometry.distance
    logs_d, sups = [], []
    for top in (geometry.side_length / 8.0) * 0.5 ** np.arange(shells):
        sel = (d <= top) & (d > 0.5 * top)
        if sel.any():
            logs_d.append(float(np.log(top)))
            sups.append(float(np.max(values, where=sel, initial=-np.inf)))
    return logs_d, sups


@pytest.mark.parametrize("n", [64, 512])
def test_shell_sup_by_strips_matches_the_masks(n):
    """Four strips per shell give the masked sups with their bits, empty
    shells (shells=9 at N = 64) included."""
    g = build_square_geometry(n)
    rng = np.random.default_rng(n)
    for shells in (4, 6, 9):
        values = rng.standard_normal((g.n_interior,) * 2)
        got = dg._shell_sup(values, g, shells)
        assert got == _shell_sup_masked(values, g, shells)
        assert len(got[0]) >= 4


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


def test_record_peak_memory_at_n512(traced_peak):
    """A record that shares a workspace allocates less than half of one
    511^2 array (boolean masks and vectors), and the workspace is under
    four arrays (it is three); the geometry tables, the node tables among
    them, are built by the first record, so a later record builds none."""
    g = build_square_geometry(512)
    theta = sp.mode_field(g, 1, 1)
    theta.coeffs[1, 0] = 0.5
    state = sv.SolverState(0.0, theta)
    array_bytes = g.n_interior ** 2 * 8
    work = dg.record_workspace(g)
    assert sum(buf.nbytes for buf in work) < 4.1 * array_bytes
    warm = dg.record(state, work=work)
    assert g.node_sines.nbytes + g.node_cosines.nbytes <= 2 * 511 * 128 * 8
    tables = dict(vars(g))
    rec, peak = traced_peak(lambda: dg.record(state, work=work))
    assert vars(g).keys() == tables.keys()
    assert all(vars(g)[name] is table for name, table in tables.items())
    assert rec == warm == dg.record(state)
    assert peak < 0.5 * array_bytes
    ps, ms = (2.0, 4.0, np.inf), (1, 2, 3)
    rec, peak = traced_peak(lambda: dg.record(state, ps, ms, work=work))
    assert rec == dg.record(state, ps, ms)
    assert peak < 0.5 * array_bytes
