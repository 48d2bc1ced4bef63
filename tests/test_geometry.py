"""Grid construction, eigenvalues, and the ground-state/distance equivalence."""
import dataclasses

import numpy as np
import pytest

from sqgbounds import spectral as sp
from sqgbounds.errors import ConfigurationError
from sqgbounds.geometry import (NODE_TABLE_MODES, Geometry,
                                build_square_geometry,
                                fit_ground_state_equivalence)


def test_basic_shapes_and_spacing():
    g = build_square_geometry(32)
    assert g.n_interior == 31
    assert g.x.shape == (31,)
    assert np.isclose(g.spacing, np.pi / 32)
    assert np.isclose(g.x[0], np.pi / 32)
    assert np.isclose(g.x[-1], np.pi - np.pi / 32)


def test_eigenvalues_unit_square_scaling():
    g = build_square_geometry(16, side_length=np.pi)
    # lam_{m,n} = m^2 + n^2 when L = pi
    assert np.isclose(g.eigenvalues[0, 0], 2.0)
    assert np.isclose(g.eigenvalues[2, 1], 9.0 + 4.0)
    assert np.isclose(g.lam1, 2.0)
    g2 = build_square_geometry(16, side_length=1.0)
    assert np.isclose(g2.lam1, 2.0 * np.pi ** 2)


def test_ground_state_samples_and_orthonormality():
    g = build_square_geometry(64)
    X, Y = g.meshgrid()
    w1 = (2.0 / np.pi) * np.sin(X) * np.sin(Y)
    assert np.allclose(g.ground_state, w1)
    # discrete quadrature is exact: ||w_1||_{L^2} = 1
    assert abs(g.spacing ** 2 * (g.ground_state ** 2).sum() - 1.0) < 1e-12


def test_distance_function():
    g = build_square_geometry(32)
    X, Y = g.meshgrid()
    d = np.minimum.reduce([X, np.pi - X, Y, np.pi - Y])
    assert np.allclose(g.distance, d)
    assert g.distance.max() <= np.pi / 2


def test_ground_state_distance_equivalence():
    g = build_square_geometry(128)
    c0, C0 = fit_ground_state_equivalence(g)
    assert fit_ground_state_equivalence(g) == (c0, C0)
    assert 0 < c0 < C0
    keep = g.unmasked()
    w1, d = g.ground_state[keep], g.distance[keep]
    assert np.all(w1 >= c0 * d - 1e-14)
    assert np.all(w1 <= C0 * d + 1e-14)
    # away from the corners the ratio stays order one
    assert c0 > 0.05
    assert C0 < 2.0 / np.pi + 1e-12  # sup of w_1/d is attained near the sides


def test_corner_mask_shrinks_with_radius():
    wide = build_square_geometry(64, corner_radius=0.5)
    narrow = build_square_geometry(64, corner_radius=0.1)
    assert wide.corner_mask.sum() > narrow.corner_mask.sum()
    assert not build_square_geometry(64, corner_radius=0.0).corner_mask.any()


def test_unmasked_with_min_distance():
    g = build_square_geometry(32)
    keep = g.unmasked(min_distance=4 * g.spacing)
    assert keep.sum() < g.unmasked().sum()
    assert np.all(g.distance[keep] >= 4 * g.spacing)


@pytest.mark.parametrize("kwargs", [
    dict(N=4),
    dict(N=32, side_length=-1.0),
    dict(N=32, corner_radius=np.pi),   # >= L/4
    dict(N=32, corner_radius=-0.1),
])
def test_invalid_geometry_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        build_square_geometry(**kwargs)


def test_compatible():
    a = build_square_geometry(32)
    b = build_square_geometry(32)
    c = build_square_geometry(64)
    assert a.compatible(b)
    assert not a.compatible(c)


@pytest.mark.parametrize("N", [8, 37, 128])
@pytest.mark.parametrize("frac", [0.0, None, 0.24])
def test_separable_fields_match_meshgrid_formulas(N, frac):
    rc = None if frac is None else frac * np.pi
    g = build_square_geometry(N, corner_radius=rc)
    L = g.side_length
    X, Y = g.meshgrid()
    ground = (2.0 / L) * np.sin(np.pi * X / L) * np.sin(np.pi * Y / L)
    distance = np.minimum.reduce([X, L - X, Y, L - Y])
    corner = np.zeros_like(distance, dtype=bool)
    for cx, cy in [(0.0, 0.0), (0.0, L), (L, 0.0), (L, L)]:
        corner |= np.hypot(X - cx, Y - cy) < g.corner_radius
    assert np.array_equal(g.ground_state, ground)
    assert np.array_equal(g.distance, distance)
    assert np.array_equal(g.corner_mask, corner)


@pytest.mark.parametrize("N", [8, 64, 512])
def test_distance_and_corner_mask_are_lazy_and_keep_their_bits(N):
    g = build_square_geometry(N)
    assert "distance" not in vars(g) and "corner_mask" not in vars(g)
    L = g.side_length
    e = np.minimum(g.x, L - g.x)
    distance = np.minimum.outer(e, e)       # the formulas built eagerly before
    near = e < g.corner_radius
    corner = np.zeros(distance.shape, dtype=bool)
    corner[np.ix_(near, near)] = np.hypot.outer(e[near], e[near]) < g.corner_radius
    assert np.array_equal(g.distance, distance)
    assert np.array_equal(g.corner_mask, corner)
    assert g.distance is g.distance and g.corner_mask is g.corner_mask


@pytest.mark.parametrize("N", [8, 64, 512, 2048])
def test_row_methods_give_the_lazy_tables_bit_for_bit(N):
    g = build_square_geometry(N)
    lam1 = g.lam1
    assert "eigenvalues" not in vars(g) and "ground_state" not in vars(g)
    n, L = g.n_interior, g.side_length
    k = g.modes * np.pi / L
    s = np.sin(np.pi * g.x / L)
    lam = g.eigenvalues
    assert "ground_state" not in vars(g)
    w1 = g.ground_state
    # the closed-form tables
    assert np.array_equal(lam, k[:, None] ** 2 + k[None, :] ** 2)
    assert np.array_equal(w1, (2.0 / L) * s[:, None] * s[None, :])
    assert g.eigenvalues is lam and g.ground_state is w1
    assert lam1 == lam[0, 0]
    for rows in (slice(0, 1), slice(0, 128), slice(n // 3, n // 2 + 1),
                 slice(n - 5, None), slice(None)):
        assert np.array_equal(g.eigenvalue_rows(rows), lam[rows])
        assert np.array_equal(g.ground_state_rows(rows), w1[rows])


def test_geometry_build_allocates_no_grid_table(traced_peak):
    n = 2047
    g, peak = traced_peak(lambda: build_square_geometry(n + 1))
    assert g.grid_size == n + 1
    assert g.lam1 == 2.0
    assert peak < 0.1 * n * n * 8


def test_geometry_has_three_inputs_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(Geometry)] == [
        "side_length", "grid_size", "corner_radius"]
    g = build_square_geometry(64, 2.5, 0.1)
    assert "x" not in vars(g) and "modes" not in vars(g)
    # the vectors the builder used to pass in, bit for bit
    assert np.array_equal(g.x, 2.5 * np.arange(1, 64) / 64)
    assert np.array_equal(g.modes, np.arange(1, 64))
    assert g.x is g.x and g.modes is g.modes
    fit_ground_state_equivalence(g)
    assert not hasattr(g, "c0") and not hasattr(g, "C0")


def test_node_sines_are_lazy_reduced_and_read_only():
    """The sin and cos node tables: each built on first read, modes capped
    at NODE_TABLE_MODES, angles reduced, read-only."""
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for N in (64, 512):
        g = build_square_geometry(N)
        width = min(N - 1, NODE_TABLE_MODES)
        i = np.arange(1, N).astype(np.longdouble)
        angle = pi * np.outer(i, i[:width]) / N
        for name, exact in (("node_sines", np.sin(angle)),
                            ("node_cosines", np.cos(angle))):
            assert name not in vars(g)
            table = getattr(g, name)
            assert getattr(g, name) is table
            assert table.shape == (N - 1, width)
            assert np.abs(table - exact).max() < 1e-15
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
    # at N = 64 nodes and modes share the indices 1..N-1: symmetric tables
    g = build_square_geometry(64)
    for table in (g.node_sines, g.node_cosines):
        assert np.array_equal(table, table.T)
    assert NODE_TABLE_MODES == sp.DENSE_MAX_NF
