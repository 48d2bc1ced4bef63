"""Fractional powers, heat objects, velocity, dissipation, cutoffs, commutator."""
import numpy as np
import pytest
from scipy import fft
from scipy import special

from sqgbounds.errors import (ConfigurationError, DomainError, NumericError,
                              PreconditionError, ShapeError)
from sqgbounds.geometry import build_square_geometry
from sqgbounds import operators as op
from sqgbounds import spectral as sp


@pytest.fixture(scope="module")
def geom():
    return build_square_geometry(128)


# ---------------------------------------------------------------------------
# apply_lambda_power / heat_semigroup
# ---------------------------------------------------------------------------

def test_lambda_power_on_modes(geom):
    w11 = sp.mode_field(geom, 1, 1)
    out = op.apply_lambda_power(w11, 1.0)
    assert np.isclose(out.coeffs[0, 0], np.sqrt(2.0), rtol=1e-14)
    w23 = sp.mode_field(geom, 2, 3)
    out = op.apply_lambda_power(w23, -1.0)
    assert np.isclose(out.coeffs[1, 2], 13.0 ** -0.5, rtol=1e-14)


def test_lambda_power_semigroup_property(geom):
    rng = np.random.default_rng(0)
    f = sp.SpectralField(rng.standard_normal((geom.n_interior,) * 2), geom)
    twice = op.apply_lambda_power(op.apply_lambda_power(f, 0.5), 0.5)
    once = op.apply_lambda_power(f, 1.0)
    assert np.abs(twice.coeffs - once.coeffs).max() < 1e-12 * np.abs(once.coeffs).max()


def test_lambda_power_monotone_positive(geom):
    f = sp.SpectralField(np.ones((geom.n_interior,) * 2), geom)
    out = op.apply_lambda_power(f, 1.0).coeffs
    assert (out > 0).all()
    assert (np.diff(out, axis=0) > 0).all() and (np.diff(out, axis=1) > 0).all()


@pytest.mark.parametrize("s", [-1.0, 1.0, 2.0])
def test_lambda_power_rows_keeps_the_bits_of_the_whole_table(s):
    """Whole spectrum or leading block, the product is that of the table."""
    g = build_square_geometry(300)           # 299 rows: 2 full blocks + 43
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal((g.n_interior,) * 2)
    want = g.eigenvalues ** (s / 2) * coeffs
    assert np.array_equal(op._lambda_power_rows(coeffs.copy(), g, s), want)
    block = op._lambda_power_rows(coeffs[:140, :40].copy(), g, s)
    assert np.array_equal(block, want[:140, :40])


def test_lambda_power_rows_allocates_one_block(traced_peak):
    g = build_square_geometry(2048)
    n = g.n_interior
    coeffs = np.ones((n, n))
    _, peak = traced_peak(lambda: op._lambda_power_rows(coeffs, g, 1.0))
    assert peak < 1.5 * op._LAMBDA_ROWS * n * 8


@pytest.mark.parametrize("s", [-1.5, 2.5])
def test_lambda_power_range_check(geom, s):
    with pytest.raises(ConfigurationError):
        op.apply_lambda_power(sp.mode_field(geom, 1, 1), s)


def test_heat_semigroup_basics(geom):
    f = sp.mode_field(geom, 3, 4)
    t = 0.2
    out = op.heat_semigroup(f, t)
    assert np.isclose(out.coeffs[2, 3], np.exp(-t * 25.0), rtol=1e-14)
    ident = op.heat_semigroup(f, 0.0)
    assert np.array_equal(ident.coeffs, f.coeffs)
    with pytest.raises(DomainError):
        op.heat_semigroup(f, -0.1)


def test_heat_semigroup_law(geom):
    rng = np.random.default_rng(1)
    f = sp.SpectralField(rng.standard_normal((geom.n_interior,) * 2), geom)
    a = op.heat_semigroup(op.heat_semigroup(f, 0.3), 0.4)
    b = op.heat_semigroup(f, 0.7)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-12


# ---------------------------------------------------------------------------
# lambda_via_heat
# ---------------------------------------------------------------------------

def test_lambda_via_heat_single_mode(geom):
    w11 = sp.mode_field(geom, 1, 1)
    out = op.lambda_via_heat(w11, 1.0)
    assert abs(out.coeffs[0, 0] - np.sqrt(2.0)) < 1e-8
    off = out.coeffs.copy()
    off[0, 0] = 0.0
    assert np.abs(off).max() < 1e-12


def test_lambda_via_heat_mixed_field(geom):
    f = sp.mode_field(geom, 1, 1)
    f.coeffs[2, 1] = 0.5
    for s in (0.5, 1.0, 1.5):
        got = op.lambda_via_heat(f, s)
        want = op.apply_lambda_power(f, s)
        err = np.abs(got.coeffs - want.coeffs).max() / np.abs(want.coeffs).max()
        assert err < 1e-8, f"s={s}: {err}"


def test_lambda_via_heat_zero_and_range(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    assert np.abs(op.lambda_via_heat(z, 1.0).coeffs).max() == 0.0
    with pytest.raises(ConfigurationError):
        op.lambda_via_heat(z, 2.0)
    with pytest.raises(ConfigurationError):
        op.lambda_via_heat(z, 0.0)


def test_lambda_via_heat_reports_quadrature_failure(geom):
    f = sp.mode_field(geom, 1, 1)
    bad = op.QuadratureConfig(panels=2, nodes_per_panel=2, tol=1e-12)
    with pytest.raises(NumericError):
        op.lambda_via_heat(f, 1.0, quadrature=bad)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def _heat_kernel(geometry, x, y, t):
    """H_D(t, x, y) on the square over all N-1 modes per axis: the product
    of the 1-d eigensums in each coordinate."""
    L, M = geometry.side_length, geometry.n_interior
    return float(op.eigensum_1d(t, x[0], y[0], L, M)
                 * op.eigensum_1d(t, x[1], y[1], L, M))


def test_heat_kernel_symmetry_and_domain(geom):
    x, y = (1.0, 1.2), (2.0, 0.7)
    assert _heat_kernel(geom, x, y, 0.3) == _heat_kernel(geom, y, x, 0.3)


def test_heat_kernel_mass_at_most_one(geom):
    """int H_D(t, x, y) dy <= 1: computed from the factorized eigensum with
    the closed-form mode integrals int_0^L sin(k_m y) dy."""
    L = geom.side_length
    m = geom.modes
    k = m * np.pi / L
    intw = (L / (m * np.pi)) * (1.0 - (-1.0) ** m)
    for t in (0.01, 0.1, 1.0):
        for x in [(0.3, 1.5), (1.6, 1.6), (2.9, 0.4)]:
            decay = np.exp(-t * k ** 2)
            f1 = float((decay * (2.0 / L) * np.sin(k * x[0]) * intw).sum())
            f2 = float((decay * (2.0 / L) * np.sin(k * x[1]) * intw).sum())
            assert f1 * f2 <= 1.0 + 1e-8
            assert f1 * f2 > 0.0


def test_heat_kernel_long_time_leading_mode(geom):
    t = 5.0
    x, y = (1.0, 1.2), (2.0, 0.7)
    h = _heat_kernel(geom, x, y, t)
    w1 = lambda p: (2.0 / np.pi) * np.sin(p[0]) * np.sin(p[1])
    assert abs(h * np.exp(geom.lam1 * t) - w1(x) * w1(y)) < 1e-6


def test_heat_of_one_images(geom):
    """Method-of-images e^{t Delta} 1 matches the sine eigensum."""
    L = geom.side_length
    x = geom.x
    t = 0.05
    m = geom.modes
    k = m * np.pi / L
    coeff = (2.0 / (m * np.pi)) * (1.0 - (-1.0) ** m) * np.exp(-t * k ** 2)
    series = np.sin(np.outer(x, k)) @ coeff
    assert np.abs(op.heat_of_one_1d(t, x, L) - series).max() < 1e-10


def _heat_of_one_uncut(t, x, L, n_images):
    """The image sum with every image at every time; t and x broadcast."""
    s = 2.0 * np.sqrt(t)
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, np.shape(s)))
    for n in range(-n_images, n_images + 1):
        out += (op.erf((x - 2 * n * L) / s)
                - 0.5 * op.erf((x - (2 * n + 1) * L) / s)
                - 0.5 * op.erf((x - (2 * n - 1) * L) / s))
    return out


def _saturation_times(x, L, n_images):
    """Times at which an image's extreme argument reaches -6 or 6 on x.

    Image n > 0 saturates once 2 sqrt(t) <= ((2n - 1) L - max x) / 6 and
    image -n once 2 sqrt(t) <= (min x + (2n - 1) L) / 6; each such time is
    returned with its neighbours on both sides.
    """
    out = []
    for n in range(1, n_images + 1):
        for gap in ((2 * n - 1) * L - x.max(), x.min() + (2 * n - 1) * L):
            if gap > 0:
                t = (gap / 12.0) ** 2
                out += [t * (1 - 1e-9), np.nextafter(t, 0.0), t,
                        np.nextafter(t, 1.0), t * (1 + 1e-9)]
    return np.array(out)


def test_erf_is_exactly_one_from_six_on():
    """The premise of the image skip in heat_of_one_1d, for the module's erf
    and for scipy's, and no jump where the module's erf saturates."""
    z = np.concatenate([np.linspace(op.ERF_SATURATION, 40.0, 2001),
                        [np.nextafter(6.0, 7.0), 1e3, 1e300, np.inf]])
    for erf in (op.erf, special.erf):
        assert erf(6.0) == 1.0 and erf(-6.0) == -1.0
        assert np.all(erf(z) == 1.0) and np.all(erf(-z) == -1.0)
    below = np.nextafter(op.ERF_SATURATION, 0.0)
    assert op.erf(below) == 1.0 and op.erf(-below) == -1.0


def test_erf_is_within_four_ulp_of_scipy():
    """math.erf against scipy's erf on a dense sweep (3 ulp measured)."""
    z = np.concatenate([np.linspace(-7.0, 7.0, 400001),
                        np.geomspace(1e-300, 1.0, 2001), [0.0, np.nan]])
    got, want = op.erf(z), special.erf(z)
    assert got.shape == z.shape and np.isnan(got[-1])
    ulp = np.spacing(np.abs(want[:-1]))
    assert np.all(np.abs(got[:-1] - want[:-1]) <= 4 * ulp)


@pytest.mark.parametrize("L", [1.0, np.pi, 2.5])
@pytest.mark.parametrize("inside", [True, False])
@pytest.mark.parametrize("n_images", [6, 20])
def test_heat_of_one_skip_keeps_every_bit(L, inside, n_images):
    """Skipping saturated images leaves the uncut image sum bit for bit."""
    x = (L * np.arange(1, 64) / 64 if inside
         else np.linspace(-0.4 * L, 1.3 * L, 41))
    t = np.concatenate([np.geomspace(1e-8, 50.0 * (L / np.pi) ** 2, 1500),
                        _saturation_times(x, L, n_images)])
    want = _heat_of_one_uncut(t[:, None], x, L, n_images)
    assert np.array_equal(op.heat_of_one_1d(t, x, L, n_images), want)
    order = np.random.default_rng(7).permutation(t.size)
    assert np.array_equal(op.heat_of_one_1d(t[order], x, L, n_images),
                          want[order])
    for i in order[:25]:
        got = op.heat_of_one_1d(t[i], x, L, n_images)
        assert got.shape == x.shape
        assert np.array_equal(got, _heat_of_one_uncut(t[i], x, L, n_images))


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------

def _divergence(u):
    """du_x/dx + du_y/dy via per-axis transforms independent of the velocity.

    Each component is analyzed back to sine coefficients along the axis it
    is differentiated in (an exact type-I DST inverse) and differentiated
    there with a zero-bordered DCT-I.
    """
    g = u.u_x.geometry
    k = g.modes * np.pi / g.side_length
    n = g.grid_size
    cx = fft.dst(u.u_x.values, type=1, axis=0) / n
    cy = fft.dst(u.u_y.values, type=1, axis=1) / n
    return _cos_eval(cx * k[:, None], 0) + _cos_eval(cy * k[None, :], 1)


def _cos_eval(c, axis):
    """sum_m c_m cos(pi m i / N) at the interior nodes along ``axis``: a
    DCT-I with the m = 0 and m = N terms zero."""
    pad = [(0, 0), (0, 0)]
    pad[axis] = (1, 1)
    full = 0.5 * fft.dct(np.pad(c, pad), type=1, axis=axis)
    return full[1:-1] if axis == 0 else full[:, 1:-1]


def test_riesz_velocity_ground_mode_closed_form(geom):
    """u of theta = a w_{m,n} at the nodes: u_x = -c k_n sin(k_m x)
    cos(k_n y) and u_y = c k_m cos(k_m x) sin(k_n y), c = (2/L) a lam^{-1/2}."""
    X, Y = geom.meshgrid()
    L = geom.side_length
    rng = np.random.default_rng(2)
    for m, n, a in [(1, 1, 1.0), (4, 7, rng.uniform(0.5, 2.0)),
                    (20, 3, rng.uniform(-2.0, -0.5))]:
        u = op.riesz_velocity(sp.mode_field(geom, m, n, amp=a))
        km, kn = m * np.pi / L, n * np.pi / L
        c = (2.0 / L) * a / np.sqrt(km ** 2 + kn ** 2)
        assert np.abs(u.u_x.values
                      + c * kn * np.sin(km * X) * np.cos(kn * Y)).max() < 1e-12
        assert np.abs(u.u_y.values
                      - c * km * np.cos(km * X) * np.sin(kn * Y)).max() < 1e-12


def test_riesz_velocity_zero_and_sign(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    u = op.riesz_velocity(z)
    assert u.sup_norm() == 0.0
    w = sp.mode_field(geom, 2, 1)
    plus = op.riesz_velocity(w, j_sign=1.0)
    minus = op.riesz_velocity(w, j_sign=-1.0)
    assert np.abs(plus.u_x.values + minus.u_x.values).max() < 1e-15


def test_riesz_velocity_isometry_divergence_trace(geom):
    rng = np.random.default_rng(2)
    f = sp.SpectralField(rng.standard_normal((geom.n_interior,) * 2), geom)
    u = op.riesz_velocity(f)
    scale = f.l2_norm()
    assert np.abs(_divergence(u)).max() < 1e-10 * scale


def test_velocities_keep_the_bits_of_the_whole_table_forms(geom):
    """riesz_velocity and short_time_velocity form psi on theta's support
    block from the cached lam^{-1/2} block, with the bits of psi formed on
    the whole spectrum, on a block-supported and a full-spectrum field."""
    n = geom.n_interior
    rng = np.random.default_rng(5)
    lam = geom.eigenvalues
    for K in (9, n):
        c = np.zeros((n, n))
        c[:K, :K] = rng.standard_normal((K, K))
        f = sp.SpectralField(c, geom)
        for j_sign in (1.0, -1.0):
            whole = op._stream_velocity(
                sp.SpectralField(c * lam ** -0.5, geom), j_sign)
            u = op.riesz_velocity(f, j_sign)
            assert u.u_x.values.tobytes() == whole.u_x.values.tobytes()
            assert u.u_y.values.tobytes() == whole.u_y.values.tobytes()
        whole = op._stream_velocity(sp.SpectralField(
            lam ** -0.5 * op.erf(np.sqrt(lam * 0.01)) * c, geom), 1.0)
        u = op.short_time_velocity(f, 0.01)
        assert u.u_x.values.tobytes() == whole.u_x.values.tobytes()
        assert u.u_y.values.tobytes() == whole.u_y.values.tobytes()


def test_short_time_velocity_limits(geom):
    w11 = sp.mode_field(geom, 1, 1)
    full = op.riesz_velocity(w11)
    late = op.short_time_velocity(w11, 50.0)
    assert np.abs(late.u_x.values - full.u_x.values).max() < 1e-8
    sups = [op.short_time_velocity(w11, tau).sup_norm()
            for tau in (1e-6, 1e-4, 1e-2, 1.0)]
    assert sups[0] < 1e-2
    assert all(a <= b + 1e-15 for a, b in zip(sups, sups[1:]))
    with pytest.raises(DomainError):
        op.short_time_velocity(w11, 0.0)


# ---------------------------------------------------------------------------
# nonlinear dissipation
# ---------------------------------------------------------------------------

def test_dissipation_ground_mode_boundary_repulsion(geom):
    w11 = sp.mode_field(geom, 1, 1)
    D = op.nonlinear_dissipation(w11)
    fv = sp.inverse(w11).values
    keep = geom.unmasked(min_distance=4 * geom.spacing)
    gamma1 = float((geom.distance[keep] * D.values[keep] / fv[keep] ** 2).min())
    assert gamma1 > 0.0
    assert gamma1 > 0.5    # frozen from the N=128 evaluation (0.563)


def test_dissipation_zero_scaling_positivity(geom):
    z = sp.SpectralField(np.zeros((geom.n_interior,) * 2), geom)
    assert np.abs(op.nonlinear_dissipation(z).values).max() == 0.0
    rng = np.random.default_rng(3)
    c = np.zeros((geom.n_interior,) * 2)
    c[:6, :6] = rng.standard_normal((6, 6))
    f = sp.SpectralField(c, geom)
    D1 = op.nonlinear_dissipation(f)
    D3 = op.nonlinear_dissipation(sp.SpectralField(3.0 * c, geom))
    scale = np.abs(D3.values).max()
    assert np.abs(D3.values - 9.0 * D1.values).max() < 1e-12 * scale
    sup = sp.inverse(f).sup_norm()
    assert D1.values.min() >= -1e-8 * sup ** 2
    assert geom.spacing ** 2 * D1.values.sum() >= -1e-12


# ---------------------------------------------------------------------------
# weighted convexity identity
# ---------------------------------------------------------------------------

def test_weighted_convexity_linear_is_equality_case(geom):
    w11 = sp.mode_field(geom, 1, 1)
    bv = sp.inverse(sp.mode_field(geom, 1, 2)).values / sp.inverse(w11).values
    lhs, rhs_core, defect = op.weighted_convexity_terms(
        sp.GridField(bv, geom), w11, op.PHI_LINEAR)
    assert np.abs(defect.values).max() < 1e-10
    assert np.abs(rhs_core.values).max() < 1e-10


def test_weighted_convexity_constant_ratio(geom):
    w11 = sp.mode_field(geom, 1, 1)
    ones = sp.GridField(np.ones((geom.n_interior,) * 2), geom)
    lhs, rhs_core, defect = op.weighted_convexity_terms(ones, w11, op.PHI_SQUARE)
    assert np.abs(defect.values).max() < 1e-10
    assert np.abs(lhs.values - np.sqrt(2.0) * geom.ground_state).max() < 1e-10


def test_weighted_convexity_defect_nonnegative(geom):
    w11 = sp.mode_field(geom, 1, 1)
    bv = sp.inverse(sp.mode_field(geom, 1, 2)).values / sp.inverse(w11).values
    b = sp.GridField(bv, geom)
    for phi in (op.PHI_SQUARE, op.softplus_hinge(0.5)):
        lhs, rhs_core, defect = op.weighted_convexity_terms(b, w11, phi)
        scale = np.abs(lhs.values).max()
        assert defect.values.min() >= -1e-8 * scale
        assert np.abs(lhs.values - rhs_core.values - defect.values).max() < 1e-10 * scale


def test_weighted_convexity_rejects_bad_inputs(geom):
    w11 = sp.mode_field(geom, 1, 1)
    ones = sp.GridField(np.ones((geom.n_interior,) * 2), geom)
    concave = op.ConvexFn(lambda z: -z * z, lambda z: -2.0 * z, "concave")
    with pytest.raises(PreconditionError):
        op.weighted_convexity_terms(ones, w11, concave)
    signed = sp.mode_field(geom, 2, 1)    # changes sign on the interior
    with pytest.raises(DomainError):
        op.weighted_convexity_terms(ones, signed, op.PHI_SQUARE)


def test_softplus_hinge_shape():
    phi = op.softplus_hinge(1.0, sharpness=0.05)
    assert abs(phi(0.0)) < 1e-12
    assert phi(2.0) > 0.9
    z = np.linspace(-1.0, 3.0, 200)
    assert (np.diff(phi.deriv(z)) >= 0).all()


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def test_standard_cutoff_values_and_nesting(geom):
    x0 = (np.pi / 2, np.pi / 2)
    ell = np.pi / 4
    cut = op.standard_cutoff(geom, x0, ell)
    i = geom.grid_size // 2 - 1   # node at the exact center
    assert cut.phi.values[i, i] == 1.0
    assert cut.chi.values[i, i] == 1.0
    assert (cut.phi.values >= 0).all() and (cut.chi.values <= 1).all()
    assert (cut.chi.values >= cut.phi.values).all()
    assert np.abs(cut.chi.values * cut.phi.values - cut.phi.values).max() == 0.0
    X, Y = geom.meshgrid()
    r = np.hypot(X - x0[0], Y - x0[1])
    assert np.abs(cut.phi.values[r >= 0.5 * ell]).max() == 0.0
    assert np.abs(cut.phi.values[r > (7.0 / 16.0) * ell]).max() == 0.0
    # chi is identically 1 wherever phi is supported (gradients disjoint)
    assert (cut.chi.values[cut.phi.values > 0] == 1.0).all()


def test_standard_cutoff_preconditions(geom):
    with pytest.raises(PreconditionError):
        op.standard_cutoff(geom, (0.3, np.pi / 2), 0.5)       # d(x0) < 2 ell
    with pytest.raises(PreconditionError):
        op.standard_cutoff(geom, (np.pi / 2, np.pi / 2), np.pi)  # ell > L/4
    with pytest.raises(PreconditionError):
        op.standard_cutoff(geom, (np.pi / 2, np.pi / 2), 0.0)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_difference_zero_and_linear(geom):
    X, Y = geom.meshgrid()
    f = sp.GridField(2.0 * X - 0.5 * Y, geom)
    dx = geom.spacing
    zero = op.finite_difference(f, (0.0, 0.0))
    assert np.abs(zero.values).max() == 0.0
    d = op.finite_difference(f, (3 * dx, -2 * dx))
    expect = 2.0 * (3 * dx) - 0.5 * (-2 * dx)
    assert np.abs(d.values[d.valid] - expect).max() < 1e-12
    assert not d.valid.all() and d.valid.any()


def test_finite_difference_antisymmetry(geom):
    rng = np.random.default_rng(4)
    f = sp.GridField(rng.standard_normal((geom.n_interior,) * 2), geom)
    dx = geom.spacing
    fwd = op.finite_difference(f, (2 * dx, dx))
    bwd = op.finite_difference(f, (-2 * dx, -dx))
    # delta_{-h} f(x + h) = -delta_h f(x)
    inner = fwd.valid & np.roll(bwd.valid, (-2, -1), axis=(0, 1))
    shifted = np.roll(bwd.values, (-2, -1), axis=(0, 1))
    assert np.abs(shifted[inner] + fwd.values[inner]).max() < 1e-14


def test_finite_difference_requires_commensurate_step(geom):
    f = sp.GridField(np.zeros((geom.n_interior,) * 2), geom)
    with pytest.raises(ConfigurationError):
        op.finite_difference(f, (0.5 * geom.spacing, 0.0))


def test_finite_difference_accepts_spectral_input(geom):
    w11 = sp.mode_field(geom, 1, 1)
    dx = geom.spacing
    d = op.finite_difference(w11, (dx, 0.0))
    vals = sp.inverse(w11).values
    assert np.abs(d.values[:-1, :] - (vals[1:, :] - vals[:-1, :])).max() < 1e-14


def test_finite_difference_reads_no_input_mask(geom):
    """Only the shift decides validity: an input's ``valid`` mask is not read."""
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((geom.n_interior,) * 2)
    mask = rng.random(vals.shape) < 0.5
    h = (2 * geom.spacing, -geom.spacing)
    plain = op.finite_difference(sp.GridField(vals, geom), h)
    masked = op.finite_difference(sp.GridField(vals, geom, valid=mask), h)
    assert np.array_equal(masked.valid, plain.valid)
    assert np.array_equal(masked.values, plain.values)


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [64, 128, 512, 2048])
def test_sqrt_of_eigenvalues_is_their_half_power(N):
    """Lambda's multiplier lam ** 0.5 equals np.sqrt(lam) bit for bit."""
    lam = build_square_geometry(N).eigenvalues
    assert np.array_equal(lam ** 0.5, np.sqrt(lam))


def _grid_pair(theta, box=None):
    """theta and Lambda theta on the node box ``box`` (default: all nodes).

    These are the inputs of the commutator: one box of nodes.
    """
    g = theta.geometry
    n = g.n_interior
    box = (slice(0, n), slice(0, n)) if box is None else box
    return (sp.BoxField(sp.inverse(theta).values[box], box, g),
            sp.BoxField(sp.inverse(op.apply_lambda_power(theta, 1.0))
                        .values[box], box, g))


def _one_commutator(theta, x0, ell, h):
    """The commutator of one case, on theta's values at every node."""
    [C] = op.commutator(*_grid_pair(theta), [(x0, ell, h)])
    return C


def test_commutator_zero_displacement(geom):
    C = _one_commutator(sp.mode_field(geom, 1, 1), (np.pi / 2, np.pi / 2),
                        np.pi / 4, (0.0, 0.0))
    assert C.sup_norm() == 0.0


def test_commutator_precondition(geom):
    with pytest.raises(PreconditionError):
        _one_commutator(sp.mode_field(geom, 1, 1), (np.pi / 2, np.pi / 2),
                        np.pi / 4, (np.pi / 8, 0.0))


def test_commutator_cancels_for_interior_supported_field(geom):
    """theta supported in {chi = 1} makes the two terms nearly cancel."""
    x0 = (np.pi / 2, np.pi / 2)
    ell = np.pi / 4
    X, Y = geom.meshgrid()
    r2 = (X - x0[0]) ** 2 + (Y - x0[1]) ** 2
    theta = sp.forward(sp.GridField(np.exp(-r2 / (2 * 0.08 ** 2)), geom))
    h = (geom.spacing, 0.0)
    C = _one_commutator(theta, x0, ell, h)
    uncut = op.finite_difference(
        sp.inverse(op.apply_lambda_power(theta, 1.0)), h)
    assert C.sup_norm() / uncut.sup_norm() < 0.1


def test_commutator_dyadic_stability(geom):
    """Gamma_0 = ||C_h|| d(x0) / |h| stays within 20% under h -> h/2."""
    x0 = (np.pi / 2, np.pi / 2)
    ell = np.pi / 4
    dx = geom.spacing
    w11 = sp.mode_field(geom, 1, 1)
    gammas = []
    for h in (2 * dx, dx):
        C = _one_commutator(w11, x0, ell, (h, 0.0))
        gammas.append(C.sup_norm() * (np.pi / 2) / h)
    assert abs(gammas[1] - gammas[0]) / gammas[0] < 0.2


# error of the sine-table commutator against the DST route, relative to the
# commutator's sup: measured at most 1.68e-13 over the cases below
COMMUTATOR_RTOL = 2e-13


def _full_grid_cutoffs(g, x0, ell):
    X, Y = g.meshgrid()
    r = np.hypot(X - x0[0], Y - x0[1])
    return op.smoothstep_profile(r / ell), op.smoothstep_profile(r / (2 * ell))


def _dstn_values(c, g):
    """The spectrum ``c`` at the nodes, by a plain two-dimensional DST."""
    return sp.GridField((2.0 / g.side_length) * fft.dstn(c, type=1) / 4.0, g)


def _full_grid_commutator(theta, x0, ell, h):
    """The commutator on the whole grid, with plain two-dimensional DSTs."""
    g = theta.geometry
    L, N = g.side_length, g.grid_size
    phi, chi = _full_grid_cutoffs(g, x0, ell)
    d_lam = op.finite_difference(
        _dstn_values(op.apply_lambda_power(theta, 1.0).coeffs, g), h)
    d_theta = op.finite_difference(_dstn_values(theta.coeffs, g), h)
    loc = (L / (2.0 * N ** 2)) * fft.dstn(chi * d_theta.values, type=1)
    lam_loc = _dstn_values(g.eigenvalues ** 0.5 * loc, g)
    vals = phi * (d_lam.values - lam_loc.values)
    valid = d_lam.valid | (phi == 0.0)
    vals[~valid] = 0.0
    return vals, valid


@pytest.mark.parametrize("N, x0, ell, steps", [
    (128, (np.pi / 2, np.pi / 2), np.pi / 4, (1, -1)),
    (128, (0.8, 1.9), 0.4, (1, 0)),
    (128, (2.2, 0.9), 0.45, (0, -1)),
    (256, (np.pi / 4, np.pi / 2), np.pi / 8, (-1, 1)),
    (256, (1.3, 2.05), 0.5, (0, 2)),
    (256, (2.4, 2.4), 0.35, (-1, 0)),
    (2048, (np.pi / 8, np.pi / 2), np.pi / 16, (4, 0)),   # verify's largest
])
def test_commutator_matches_full_grid_formula(N, x0, ell, steps):
    """The box-local commutator, by sine-table products, equals the
    whole-grid formula by DSTs to round-off relative to its sup, and is
    0.0 outside phi's box.

    Both sides read the node values of theta and Lambda theta from the same
    dstn: the commutator's cancellation would amplify a last-bit difference
    of its inputs past the tolerance.
    """
    g = build_square_geometry(N)
    theta = sp.SpectralField(np.zeros((N - 1, N - 1)), g)
    rng = np.random.default_rng(N)
    theta.coeffs[:6, :6] = rng.standard_normal((6, 6)) / 8.0
    theta.coeffs[0, 0] = 1.0
    h = (steps[0] * g.spacing, steps[1] * g.spacing)
    box = (slice(0, N - 1), slice(0, N - 1))
    [C] = op.commutator(
        sp.BoxField(_dstn_values(theta.coeffs, g).values, box, g),
        sp.BoxField(_dstn_values(op.apply_lambda_power(theta, 1.0).coeffs,
                                 g).values, box, g),
        [(x0, ell, h)])
    vals, valid = _full_grid_commutator(theta, x0, ell, h)
    embedded = np.zeros_like(vals)
    embedded[C.box] = C.values
    assert valid.all()          # the box result needs no validity mask
    outside = np.ones_like(valid)
    outside[C.box] = False
    assert not vals[outside].any()
    sup = sp.GridField(vals, g, valid=valid).sup_norm()
    assert sup > 0
    assert np.abs(embedded - vals).max() <= COMMUTATOR_RTOL * sup
    assert abs(C.sup_norm() - sup) <= COMMUTATOR_RTOL * sup


_BOX_CASES = [((1.0, 1.6), 0.45, (2, -1)), ((2.2, 0.9), 0.3, (0, 1)),
              ((1.3, 1.2), 0.5, (-1, 0))]


def _box_cases(g):
    return [(x0, ell, (p * g.spacing, q * g.spacing))
            for x0, ell, (p, q) in _BOX_CASES]


def _union_box(g, cases):
    boxes = [op.commutator_box(g, *case) for case in cases]
    return tuple(slice(min(b[axis].start for b in boxes),
                       max(b[axis].stop for b in boxes)) for axis in (0, 1))


def test_commutator_on_a_row_band_equals_all_rows():
    """Values on a row band over all columns, or on just the box the cases
    read, give the bits of values at every node."""
    g = build_square_geometry(256)
    theta = sp.mode_field(g, 1, 1)
    theta.coeffs[2, 1] = 0.3
    cases = _box_cases(g)
    box = _union_box(g, cases)
    assert all(0 < s.start and s.stop < g.n_interior for s in box)
    whole = op.commutator(*_grid_pair(theta), cases)
    for part in (box, (box[0], slice(0, g.n_interior))):
        for a, b in zip(whole, op.commutator(*_grid_pair(theta, part), cases)):
            assert a.box == b.box
            assert np.array_equal(a.values, b.values)


def test_batched_commutator_equals_one_case_passes():
    """Cases that share one pass keep the bits each has alone."""
    g = build_square_geometry(256)
    theta = sp.mode_field(g, 1, 1)
    theta.coeffs[1, 2] = -0.2
    cases = _box_cases(g)
    values, lam_values = _grid_pair(theta, _union_box(g, cases))
    batched = op.commutator(values, lam_values, cases)
    assert len(batched) == len(cases)
    for case, C in zip(cases, batched):
        [alone] = op.commutator(values, lam_values, [case])
        assert alone.box == C.box
        assert np.array_equal(alone.values, C.values)


@pytest.mark.parametrize("axis, side", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["first-row", "last-row", "first-column",
                              "last-column"])
def test_commutator_box_one_node_short_raises(axis, side):
    """A box one row or column short on either side is refused, so no
    shifted index can fall below the box and wrap silently."""
    g = build_square_geometry(256)
    theta = sp.mode_field(g, 1, 1)
    x0, ell, h = (1.0, 1.6), 0.45, (-2 * g.spacing, g.spacing)
    need = list(op.commutator_box(g, x0, ell, h))
    s = need[axis]
    need[axis] = slice(s.start + 1, s.stop) if side == 0 else \
        slice(s.start, s.stop - 1)
    with pytest.raises(ShapeError):
        op.commutator(*_grid_pair(theta, tuple(need)), [(x0, ell, h)])


def test_commutator_needs_its_rows_in_one_band():
    g = build_square_geometry(256)
    theta = sp.mode_field(g, 1, 1)
    x0, ell, h = (1.0, 1.6), 0.45, (2 * g.spacing, 0.0)
    rows, cols = op.commutator_box(g, x0, ell, h)
    short = (slice(rows.start, rows.stop - 1), cols)
    with pytest.raises(ShapeError):
        op.commutator(*_grid_pair(theta, short), [(x0, ell, h)])
    values, _ = _grid_pair(theta, (rows, cols))
    _, lam_values = _grid_pair(theta)
    with pytest.raises(ShapeError):
        op.commutator(values, lam_values, [(x0, ell, h)])


@pytest.mark.parametrize("x0, ell", [((np.pi / 2, np.pi / 2), np.pi / 4),
                                     ((0.7, 2.1), 0.3), ((1.0, 1.0), 0.01)])
def test_standard_cutoff_matches_full_grid_formula(geom, x0, ell):
    cut = op.standard_cutoff(geom, x0, ell)
    phi, chi = _full_grid_cutoffs(geom, x0, ell)
    assert np.array_equal(cut.phi.values, phi)
    assert np.array_equal(cut.chi.values, chi)
