"""Transforms, differentiation, and alias-free products.

Oracles: analytic sine series of sin^2 (for the ground-mode product) and a
tensor Gauss-Legendre quadrature of <f*g, w_{m,n}> (independent of the DST
code paths).
"""
import types

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import fft

from sqgbounds.errors import NumericError, ShapeError
from sqgbounds.geometry import build_square_geometry
from sqgbounds import operators as op
from sqgbounds import spectral as sp


@pytest.fixture(scope="module")
def geom():
    return build_square_geometry(32)


def random_field(geom, max_mode, seed):
    rng = np.random.default_rng(seed)
    c = np.zeros((geom.n_interior, geom.n_interior))
    c[:max_mode, :max_mode] = rng.standard_normal((max_mode, max_mode))
    return sp.SpectralField(c, geom)


def gl_product_coeffs(f, g, nq=200):
    """<f*g, w_{m,n}> by tensor Gauss-Legendre quadrature."""
    geom = f.geometry
    L = geom.side_length
    xg, wg = leggauss(nq)
    xq = 0.5 * L * (xg + 1.0)
    wq = 0.5 * L * wg
    m = geom.modes
    S = np.sin(np.outer(xq, m * np.pi / L))
    fv = (2.0 / L) * S @ f.coeffs @ S.T
    gv = (2.0 / L) * S @ g.coeffs @ S.T
    Sw = S.T * wq
    return (2.0 / L) * Sw @ (fv * gv) @ Sw.T


def test_roundtrip_exact(geom):
    f = random_field(geom, geom.n_interior, seed=1)
    back = sp.forward(sp.inverse(f))
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-12


def test_parseval(geom):
    f = random_field(geom, geom.n_interior, seed=2)
    grid = sp.inverse(f)
    assert abs(geom.spacing ** 2 * (grid.values ** 2).sum()
               - f.l2_norm() ** 2) < 1e-12


def test_mode_field_evaluates_to_eigenfunction(geom):
    X, Y = geom.meshgrid()
    for m, n in [(1, 1), (3, 2), (7, 7)]:
        grid = sp.inverse(sp.mode_field(geom, m, n))
        exact = (2.0 / np.pi) * np.sin(m * X) * np.sin(n * Y)
        assert np.abs(grid.values - exact).max() < 1e-12


def test_gradient_of_single_mode(geom):
    X, Y = geom.meshgrid()
    dx, dy = sp.gradient(sp.mode_field(geom, 2, 3))
    assert np.abs(dx.values - (2.0 / np.pi) * 2 * np.cos(2 * X) * np.sin(3 * Y)).max() < 1e-12
    assert np.abs(dy.values - (2.0 / np.pi) * 3 * np.sin(2 * X) * np.cos(3 * Y)).max() < 1e-12


@pytest.mark.parametrize("n_nodes", [12, sp.fine_grid_size(12)])
@pytest.mark.parametrize("cos_axis", [0, 1])
def test_sin_cos_eval_matches_dense_double_sum(monkeypatch, n_nodes,
                                               cos_axis):
    """0.7 sum c sin(pi m x/L) cos(pi n y/L) of a 12-grid field on both grids.

    n_nodes = 12: the interior collocation nodes i L/12 (``eval_block``, on
    both of its routes); n_nodes = 18: the fine midpoints (i + 1/2) L/18
    (``eval_fine_mixed``).
    """
    rng = np.random.default_rng(7 + cos_axis)
    c = rng.standard_normal((11, 11))
    g = build_square_geometry(12)
    if n_nodes == 12:
        nodes = np.arange(1, n_nodes)
        got = _both_routes(monkeypatch,
                           lambda: sp.eval_block(c, g, cos_axis))
    else:
        nodes = np.arange(n_nodes) + 0.5
        got = [sp.eval_fine_mixed(c, g.side_length, n_nodes, cos_axis)]
    modes = np.arange(1, 12)
    S = np.sin(np.pi * np.outer(nodes, modes) / n_nodes)
    C = np.cos(np.pi * np.outer(nodes, modes) / n_nodes)
    dense = 0.7 * (S @ c @ C.T if cos_axis == 1 else C @ c @ S.T)
    for values in got:
        assert values.shape == (len(nodes), len(nodes))
        assert (np.abs(0.35 * g.side_length * values - dense).max()
                < 1e-12 * np.abs(c).sum())


def test_forward_fine_matches_full_transform_then_slice(geom):
    """DST-II projection against the dense midpoint sum over all Nf modes."""
    Nf = sp.fine_grid_size(geom.grid_size)
    L = geom.side_length
    vals = np.random.default_rng(5).standard_normal((Nf, Nf))
    # discrete <v, w_pq> with cell area (L/Nf)^2 and w_pq = (2/L) sin sin
    S = np.sin(np.pi * np.outer(np.arange(1, Nf + 1), np.arange(Nf) + 0.5) / Nf)
    full = (L / Nf) ** 2 * (2.0 / L) * S @ vals @ S.T
    kept = full[:geom.n_interior, :geom.n_interior]
    got = sp.forward_fine(vals.copy(), geom.side_length, geom.n_interior)
    assert got.shape == kept.shape
    assert np.abs(got - kept).max() < 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("cos_axis", [0, 1])
def test_eval_fine_mixed_out_matches_fresh_result(geom, cos_axis):
    """A reused buffer full of stale values gives the fresh result exactly."""
    Nf = sp.fine_grid_size(geom.grid_size)
    c = random_field(geom, geom.n_interior, seed=9 + cos_axis).coeffs
    fresh = sp.eval_fine_mixed(c, geom.side_length, Nf, cos_axis)
    buf = np.full((Nf, Nf), np.nan)
    got = sp.eval_fine_mixed(c, geom.side_length, Nf, cos_axis, out=buf)
    assert np.array_equal(got, fresh)
    assert np.shares_memory(got, buf)


@pytest.mark.parametrize("cos_axis", [0, 1])
def test_fine_transforms_do_not_rely_on_in_place_fft(geom, cos_axis,
                                                     monkeypatch):
    """Results of the FFT route stand when scipy returns new arrays
    instead of working in place."""
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
    Nf = sp.fine_grid_size(geom.grid_size)
    c = random_field(geom, geom.n_interior, seed=11 + cos_axis).coeffs
    L = geom.side_length
    values = sp.eval_fine_mixed(c, L, Nf, cos_axis)
    coeffs = sp.forward_fine(values.copy(), L, geom.n_interior)
    nodes = {axis: sp.eval_block(c, geom, axis) for axis in (None, cos_axis)}
    spec = sp.forward(sp.GridField(nodes[None], geom)).coeffs

    def copying(transform):
        return lambda x, *args, **kw: transform(
            np.array(x), *args, **{**kw, "overwrite_x": False})

    monkeypatch.setattr(sp, "fft", types.SimpleNamespace(
        dct=copying(fft.dct), dst=copying(fft.dst)))
    got = sp.eval_fine_mixed(c, L, Nf, cos_axis,
                             out=np.full((Nf, Nf), np.nan))
    assert np.array_equal(got, values)
    assert np.array_equal(sp.forward_fine(got, L, geom.n_interior), coeffs)
    for axis, ref in nodes.items():
        out = np.full_like(ref, np.nan)
        assert sp.eval_block(c, geom, axis, out=out) is out
        assert np.array_equal(out, ref)
    assert np.array_equal(
        sp.forward(sp.GridField(nodes[None], geom)).coeffs, spec)


def test_grad_norm_parseval(geom):
    """||grad f||^2 = sum lam a^2 with ``Geometry.eigenvalues``, against
    Gauss-Legendre quadrature of |grad f|^2."""
    f = random_field(geom, 10, seed=3)
    expected = float((geom.eigenvalues * f.coeffs ** 2).sum())
    L = geom.side_length
    xg, wg = leggauss(120)
    xq = 0.5 * L * (xg + 1.0)
    wq = 0.5 * L * wg
    m = geom.modes
    S = np.sin(np.outer(xq, m * np.pi / L))
    C = np.cos(np.outer(xq, m * np.pi / L)) * (m * np.pi / L)
    dxv = (2.0 / L) * C @ f.coeffs @ S.T
    dyv = (2.0 / L) * S @ f.coeffs @ C.T
    quad = wq @ (dxv ** 2 + dyv ** 2) @ wq
    assert np.isclose(quad, expected, rtol=1e-11)


def test_ground_mode_product_matches_analytic_series(geom):
    """w_{1,1}^2 has the classical sine expansion of sin^2 along each axis."""
    w11 = sp.mode_field(geom, 1, 1)
    prod = sp.dealiased_product(w11, w11)
    p = geom.modes.astype(float)
    denom = np.pi * p * (p ** 2 - 4.0)
    b = np.where(geom.modes % 2 == 1, -8.0 / np.where(denom == 0, 1.0, denom), 0.0)
    exact = (2.0 / np.pi) ** 3 * (np.pi / 2) ** 2 * np.outer(b, b)
    assert np.abs(prod.coeffs - exact).max() < 1e-10


def test_dealiased_product_matches_quadrature_oracle(geom):
    f = random_field(geom, 10, seed=4)   # modes <= N/3
    g = random_field(geom, 10, seed=5)
    prod = sp.dealiased_product(f, g)
    oracle = gl_product_coeffs(f, g)
    assert np.abs(prod.coeffs - oracle).max() < 1e-10


def _dctn_route_product(f, g):
    """dealiased_product as DCT-I analysis then the overlap projection, the
    route it folds into one cached matrix."""
    geom = f.geometry
    Mf = 2 * geom.grid_size
    A = fft.dctn(sp.eval_closed(f, Mf) * sp.eval_closed(g, Mf), type=1)
    A /= Mf ** 2
    for edge in (0, -1):
        A[edge, :] /= 2.0
        A[:, edge] /= 2.0
    p = np.arange(1, geom.n_interior + 1)[:, None]
    q = np.arange(Mf + 1)[None, :]
    odd = (p + q) % 2 == 1
    P = np.where(odd, 2.0 * p / np.where(odd, p ** 2 - q ** 2, 1), 0.0)
    return 2.0 * geom.side_length / np.pi ** 2 * (P @ A @ P.T)


@pytest.mark.parametrize("N", [16, 128, 256])
def test_dealiased_product_matches_the_dctn_route(N):
    """On random full spectra, to 1e-14 of the result's sup (1.5e-15
    measured at N = 128)."""
    geom = build_square_geometry(N)
    f = random_field(geom, geom.n_interior, seed=N)
    g = random_field(geom, geom.n_interior, seed=N + 1)
    want = _dctn_route_product(f, g)
    got = sp.dealiased_product(f, g).coeffs
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_dealiased_product_full_band(geom):
    """Exact projection even when both factors occupy every retained mode."""
    f = random_field(geom, geom.n_interior, seed=6)
    g = random_field(geom, geom.n_interior, seed=7)
    prod = sp.dealiased_product(f, g)
    oracle = gl_product_coeffs(f, g, nq=400)
    assert np.abs(prod.coeffs - oracle).max() < 1e-9


def test_mixed_parity_product_alias_free(geom):
    """(cos x sin y)-type times (sin x cos y)-type lands back in the sine basis."""
    rng = np.random.default_rng(8)
    a1 = np.zeros((geom.n_interior, geom.n_interior))
    a2 = np.zeros_like(a1)
    a1[:8, :8] = rng.standard_normal((8, 8))
    a2[:8, :8] = rng.standard_normal((8, 8))
    Nf = sp.fine_grid_size(geom.grid_size)
    v1 = sp.eval_fine_mixed(a1, geom.side_length, Nf, cos_axis=0)
    v2 = sp.eval_fine_mixed(a2, geom.side_length, Nf, cos_axis=1)
    got = sp.forward_fine(v1 * v2, geom.side_length, geom.n_interior)

    L = geom.side_length
    xg, wg = leggauss(200)
    xq = 0.5 * L * (xg + 1.0)
    wq = 0.5 * L * wg
    m = geom.modes
    S = np.sin(np.outer(xq, m * np.pi / L))
    C = np.cos(np.outer(xq, m * np.pi / L))
    V1 = (2.0 / L) * C @ a1 @ S.T
    V2 = (2.0 / L) * S @ a2 @ C.T
    Sw = S.T * wq
    oracle = (2.0 / L) * Sw @ (V1 * V2) @ Sw.T
    assert np.abs(got - oracle).max() < 1e-10


def test_forward_rejects_non_finite(geom):
    vals = np.zeros((geom.n_interior, geom.n_interior))
    vals[3, 3] = np.nan
    with pytest.raises(NumericError):
        sp.forward(sp.GridField(vals, geom))


def test_geometry_mismatch_rejected(geom):
    other = build_square_geometry(64)
    f = sp.mode_field(geom, 1, 1)
    g = sp.mode_field(other, 1, 1)
    with pytest.raises(ShapeError):
        sp.dealiased_product(f, g)
    with pytest.raises(ShapeError):
        sp.inverse(sp.SpectralField(f.coeffs, other))


def test_sup_norm_respects_valid_mask(geom):
    vals = np.ones((geom.n_interior, geom.n_interior))
    vals[0, 0] = 10.0
    mask = np.ones_like(vals, dtype=bool)
    mask[0, 0] = False
    assert sp.GridField(vals, geom).sup_norm() == 10.0
    assert sp.GridField(vals, geom, valid=mask).sup_norm() == 1.0


def _max_of_abs(v):
    return float(np.max(np.abs(v), initial=0.0))


def test_max_abs_has_the_bits_of_the_max_of_abs():
    """max(v.max(), -v.min()) is max |v| bit for bit: on all-negative
    values, signed zeros (0.0, never -0.0), infinities and empty arrays;
    a NaN anywhere makes it NaN, as it makes max |v|."""
    rng = np.random.default_rng(7)
    signed = rng.standard_normal((9, 11))
    cases = [signed, -np.abs(signed) - 1.0, np.abs(signed),
             np.array([-0.0]), np.array([0.0, -0.0]), np.array([-0.0, 0.0]),
             -np.zeros((4, 5)), np.array([-np.inf, 1.0]),
             np.array([np.inf, -2.0]), np.zeros((0, 3))]
    for v in cases:
        got = sp._max_abs(v)
        assert np.float64(got).tobytes() == \
            np.float64(_max_of_abs(v)).tobytes(), v
    for where in ((0, 0), (4, 7), (8, 10)):
        for base in (signed, -np.abs(signed)):
            v = base.copy()
            v[where] = np.nan
            assert np.isnan(sp._max_abs(v)) and np.isnan(_max_of_abs(v))


def test_sup_norms_propagate_nan_and_keep_the_valid_mask(geom):
    """GridField and BoxField sup norms see a NaN anywhere, so the
    overshoot monitor cannot miss a non-finite grid; with a ``valid`` mask
    the sup is the masked max |v| as before, a NaN outside the mask left
    out."""
    n = geom.n_interior
    vals = -np.abs(np.random.default_rng(3).standard_normal((n, n)))
    mask = np.ones((n, n), dtype=bool)
    mask[2, 5] = False
    assert sp.GridField(vals, geom).sup_norm() == _max_of_abs(vals)
    box = (slice(3, 20), slice(4, 9))
    assert sp.BoxField(vals[box], box, geom).sup_norm() == \
        _max_of_abs(vals[box])
    vals[2, 5] = np.nan
    assert np.isnan(sp.GridField(vals, geom).sup_norm())
    assert np.isnan(sp.BoxField(vals[1:4], (slice(1, 4), slice(0, n)),
                                geom).sup_norm())
    masked = sp.GridField(vals, geom, valid=mask).sup_norm()
    assert masked == float(np.max(np.abs(vals), where=mask, initial=0.0))
    assert masked == _max_of_abs(np.where(mask, vals, 0.0))


def test_sup_norms_allocate_no_grid_at_n512(traced_peak):
    """GridField.sup_norm without a mask and BoxField.sup_norm, on a whole
    511^2 array, a row band of it or a box's own array, allocate under 1 %
    of one array."""
    g = build_square_geometry(512)
    n = g.n_interior
    vals = np.random.default_rng(512).standard_normal((n, n))
    band = (slice(10, 400), slice(0, n))
    box = (slice(10, 400), slice(3, 500))
    budget = 0.01 * vals.nbytes
    for field in (sp.GridField(vals, g), sp.BoxField(vals[band], band, g),
                  sp.BoxField(vals[box].copy(), box, g)):
        sup, peak = traced_peak(field.sup_norm)
        assert sup == _max_of_abs(field.values)
        assert peak < budget


@pytest.mark.parametrize("n", [31, 47])
def test_restricted_dst_passes_match_dstn(n):
    a = np.zeros((31, 31))
    a[:, 9:20] = np.random.default_rng(n).standard_normal((31, 11))
    full = fft.dstn(a, type=1, s=(n, n))
    assert np.array_equal(sp._dst2(a, n), full)


@pytest.mark.parametrize("live", [(), (0,), (30,), tuple(range(9, 20)),
                                  (3, 25)],
                         ids=["zero", "first", "last", "band", "gap"])
def test_zero_column_skip_matches_dstn(geom, live, monkeypatch):
    """_dst2's automatic zero-column skip keeps forward and inverse on the
    FFT route bit-equal to dstn."""
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
    n = geom.n_interior
    a = np.zeros((n, n))
    a[:, list(live)] = np.random.default_rng(n).standard_normal((n, len(live)))
    for m in (n, 47):
        full = fft.dstn(a, type=1, s=(m, m))
        assert np.array_equal(sp._dst2(a, m), full)
    L, N = geom.side_length, geom.grid_size
    full = fft.dstn(a, type=1)
    assert np.array_equal(sp.forward(sp.GridField(a, geom)).coeffs,
                          (L / (2.0 * N ** 2)) * full)
    assert np.array_equal(sp.inverse(sp.SpectralField(a, geom)).values,
                          (2.0 / L) * full / 4.0)


@pytest.mark.parametrize("N", [128, 512])
def test_eval_closed_matches_padded_dstn(N, monkeypatch):
    """The closed-grid samples of a 40-mode field: on the FFT route the
    padded dstn's bits, on the dense route (the default at this block
    size) the same values to round-off, and zero on the boundary."""
    g = build_square_geometry(N)
    f = random_field(g, 40, seed=N)
    Mf = 2 * N
    padded = (2.0 / g.side_length) * fft.dstn(f.coeffs, type=1,
                                              s=(Mf - 1, Mf - 1)) / 4.0
    dense, fast = _both_routes(monkeypatch, lambda: sp.eval_closed(f, Mf))
    assert np.array_equal(fast[1:Mf, 1:Mf], padded)
    assert (np.abs(dense[1:Mf, 1:Mf] - padded).max()
            <= ROUTE_RTOL * np.abs(padded).max())
    for values in (dense, fast):
        assert not values[[0, Mf]].any() and not values[:, [0, Mf]].any()


def test_inverse_rows_and_forward_cols_match_dstn(geom, monkeypatch):
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
    f = random_field(geom, 20, seed=8)
    L, N = geom.side_length, geom.grid_size
    full = (2.0 / L) * fft.dstn(f.coeffs, type=1) / 4.0
    assert np.array_equal(sp.inverse(f).values, full)
    vals = np.zeros_like(full)
    vals[:, 3:11] = full[:, 3:11]
    got = sp.forward(sp.GridField(vals, geom)).coeffs
    assert np.array_equal(got, (L / (2.0 * N ** 2)) * fft.dstn(vals, type=1))


def _both_routes(monkeypatch, fn):
    """``fn()`` on the dense route and on the FFT route, at any size; a
    node-grid evaluation's dense route reads its node tables, so its block
    or grid may have at most NODE_TABLE_MODES modes per axis."""
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 1 << 30)
    dense = fn()
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
    return dense, fn()


# dense against FFT route of forward, inverse, gradient and riesz_velocity,
# relative to the result's sup: measured at most 1.4e-15 at N = 8..129
ROUTE_RTOL = 3e-15


@pytest.mark.parametrize("N, K", [(8, 7), (32, 31), (32, 5), (64, 21),
                                  (100, 99), (128, 127), (129, 128)])
def test_node_grid_routes_agree(monkeypatch, N, K):
    """forward, inverse, gradient and riesz_velocity give the same values
    on the table route and the FFT route."""
    g = build_square_geometry(N)
    rng = np.random.default_rng(N + K)
    c = np.zeros((N - 1, N - 1))
    c[:K, :K] = rng.standard_normal((K, K))
    f = sp.SpectralField(c, g)
    values = rng.standard_normal((N - 1, N - 1))

    def fields():
        u = op.riesz_velocity(f)
        return [sp.forward(sp.GridField(values, g)).coeffs,
                sp.inverse(f).values,
                *(grad.values for grad in sp.gradient(f)),
                u.u_x.values, u.u_y.values]

    for dense, fast in zip(*_both_routes(monkeypatch, fields)):
        assert dense.flags.c_contiguous and fast.flags.c_contiguous
        assert np.abs(dense - fast).max() <= ROUTE_RTOL * np.abs(fast).max()


def _plain_gradient(c, g, cos_axis):
    """One gradient component of the spectrum ``c`` by whole-array scipy
    transforms: DST-I along the sine axis, then DCT-I along the cosine
    axis with a zero line on each side."""
    kc = c * (g.wavenumbers[:, None] if cos_axis == 0
              else g.wavenumbers[None, :])
    sines = fft.dst(kc, type=1, axis=1 - cos_axis)
    pad = [(0, 0), (0, 0)]
    pad[cos_axis] = (1, 1)
    full = fft.dct(np.pad(sines, pad), type=1, axis=cos_axis)
    full *= 0.25 * (2.0 / g.side_length)
    return full[1:-1] if cos_axis == 0 else full[:, 1:-1]


@pytest.mark.parametrize("N", [256, 512])
def test_wide_gradient_keeps_the_whole_array_transform_bits(N):
    """A full spectrum wider than DENSE_MAX_NF takes the FFT route with the
    bits of the whole-array DST/DCT evaluation."""
    g = build_square_geometry(N)
    c = np.random.default_rng(N).standard_normal((N - 1, N - 1))
    for cos_axis, grad in enumerate(sp.gradient(sp.SpectralField(c, g))):
        assert grad.values.tobytes() == _plain_gradient(c, g,
                                                        cos_axis).tobytes()


# 3/2 grids of band-sized and whole spectra, below and above the
# crossover
@pytest.mark.parametrize("N, modes", [(36, 17), (64, 63), (72, 32),
                                      (86, 85), (100, 48), (128, 127)])
def test_dense_route_matches_the_fft_route(monkeypatch, N, modes):
    g = build_square_geometry(N)
    Nf = sp.fine_grid_size(N)
    rng = np.random.default_rng(N)
    c = rng.standard_normal((modes, modes))
    for cos_axis in (0, 1):
        dense, fast = _both_routes(
            monkeypatch,
            lambda: sp.eval_fine_mixed(c, g.side_length, Nf, cos_axis).copy())
        assert np.abs(dense - fast).max() <= 1e-14 * np.abs(fast).max()
    values = rng.standard_normal((Nf, Nf))
    dense, fast = _both_routes(
        monkeypatch,
        lambda: sp.forward_fine(values.copy(), g.side_length, g.n_interior))
    assert dense.shape == fast.shape == (N - 1, N - 1)
    assert np.abs(dense - fast).max() <= 1e-14 * np.abs(fast).max()


def test_dense_route_runs_up_to_the_crossover(monkeypatch):
    """Below the crossover no transform is called; above it no table is
    built.  eval_block goes by the block's larger side, not by N."""
    calls = []

    def counting(transform):
        return lambda *args, **kw: calls.append(1) or transform(*args, **kw)

    monkeypatch.setattr(sp, "fft", types.SimpleNamespace(
        dct=counting(fft.dct), dst=counting(fft.dst)))
    for N in (8, 2 * sp.DENSE_MAX_NF // 3):
        g = build_square_geometry(N)
        Nf = sp.fine_grid_size(N)
        assert Nf <= sp.DENSE_MAX_NF
        c = np.ones((N - 1, N - 1))
        sp.forward_fine(sp.eval_fine_mixed(c, g.side_length, Nf, 0),
                        g.side_length, g.n_interior)
        sp.eval_block(c, g)
        spec = sp.forward(sp.GridField(c, g))
        sp.inverse(spec), sp.gradient(spec)
    big = build_square_geometry(512)
    sp.eval_block(np.ones((24, 12)), big)
    assert "node_cosines" not in vars(big)     # built only when read
    for cos_axis in (0, 1):
        sp.eval_block(np.ones((24, 12)), big, cos_axis)
    assert not calls
    sp._midpoint_tables.cache_clear()
    g = build_square_geometry(2 * sp.DENSE_MAX_NF // 3 + 1)
    Nf = sp.fine_grid_size(g.grid_size)
    sp.forward_fine(sp.eval_fine_mixed(np.ones((3, 3)), g.side_length, Nf, 1),
                    g.side_length, g.n_interior)
    assert len(calls) == 4
    assert sp._midpoint_tables.cache_info().currsize == 0
    wide = build_square_geometry(512)
    for cos_axis in (None, 0, 1):
        sp.eval_block(np.ones((sp.DENSE_MAX_NF + 1, 12)), wide, cos_axis)
    assert len(calls) == 4 + 3 * 2
    assert not {"node_sines", "node_cosines"} & vars(wide).keys()


def test_midpoint_tables_are_cached_and_read_only():
    sin, cos = sp._midpoint_tables(54)
    assert sp._midpoint_tables(54)[0] is sin
    assert sin.shape == cos.shape == (54, 53)
    # the angles in extended precision: sin(m x_i) in double precision is
    # off by 2e-14 at the larger angles, the reduced tables by under 1e-15
    pi = np.longdouble("3.14159265358979323846264338327950288")
    x = pi * np.outer(np.arange(54) + 0.5, np.arange(1, 54)).astype(
        np.longdouble) / 54
    assert np.abs(np.sin(x.astype(float)) - np.sin(x)).max() > 1e-14
    assert np.abs(sin - np.sin(x)).max() < 1e-15
    assert np.abs(cos - np.cos(x)).max() < 1e-15
    for table in (sin, cos):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


@pytest.mark.parametrize("N, K, M", [(32, 31, 31), (128, 34, 17),
                                     (128, 5, 0), (256, 40, 20),
                                     (512, 24, 12), (512, 200, 12)])
def test_eval_block_matches_inverse(N, K, M):
    """The leading K x M block at the nodes, by either route, against the
    whole spectrum's dstn, and with a cosine factor against its gradient
    by whole-array transforms; a block wider than DENSE_MAX_NF has their
    bits."""
    g = build_square_geometry(N)
    c = np.zeros((N - 1, N - 1))
    c[:K, :M] = np.random.default_rng(K).standard_normal((K, M))
    k = g.wavenumbers
    blocks = {None: c[:K, :M], 0: (k[:, None] * c)[:K, :M],
              1: (c * k[None, :])[:K, :M]}
    refs = {None: (2.0 / g.side_length) * fft.dstn(c, type=1) / 4.0,
            0: _plain_gradient(c, g, 0), 1: _plain_gradient(c, g, 1)}
    for cos_axis, ref in refs.items():
        out = np.full_like(ref, np.nan)
        got = sp.eval_block(blocks[cos_axis], g, cos_axis, out=out)
        assert np.shares_memory(got, out)
        assert np.abs(got - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1.0)
        if max(K, M) > sp.DENSE_MAX_NF:
            assert got.tobytes() == ref.tobytes()
        fresh = sp.eval_block(blocks[cos_axis], g, cos_axis)
        assert fresh.flags.c_contiguous
        assert fresh.tobytes() == got.tobytes()


def test_eval_block_reads_a_block_that_lives_in_its_output():
    """With a cosine factor the block may sit in the leading memory of
    ``out``, and the product's intermediate in ``scratch``, on both routes."""
    for N, K in ((64, 20), (512, 24), (512, 200)):
        g = build_square_geometry(N)
        kc = np.random.default_rng(N + K).standard_normal((K, K))
        scratch = np.empty((N - 1, N - 1))
        for cos_axis in (0, 1):
            ref = sp.eval_block(kc, g, cos_axis)
            out = np.empty((N - 1, N - 1))
            block = sp._leading(out, K, K)
            block[...] = kc
            got = sp.eval_block(block, g, cos_axis, out=out, scratch=scratch)
            assert got is out and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cos_axis", [0, 1])
@pytest.mark.parametrize("top", [0, 1, 9, 31])
def test_sin_cos_eval_skips_zero_lines_bit_for_bit(geom, cos_axis, top,
                                                   monkeypatch):
    """The FFT route transforms only the lines of the support block, with
    the bits of the whole-array transforms."""
    monkeypatch.setattr(sp, "DENSE_MAX_NF", 0)
    c = np.zeros((31, 31))
    c[:top, :top] = np.random.default_rng(top).standard_normal((top, top))
    got = sp.gradient(sp.SpectralField(c, geom))[cos_axis].values
    assert got.tobytes() == _plain_gradient(c, geom, cos_axis).tobytes()
