"""Square-domain geometry: collocation grid, Dirichlet eigenpairs, ground state.

The domain is the open square (0, L)^2 discretized at the interior nodes of
the type-I discrete sine transform, x_i = i*L/N for i = 1..N-1 per axis.
Eigenfunctions of the Dirichlet Laplacian are

    w_{m,n}(x, y) = (2/L) sin(m pi x / L) sin(n pi y / L),  m, n = 1..N-1,

with eigenvalues lam_{m,n} = (m^2 + n^2) (pi/L)^2.  The ground state w_1 is
comparable to the boundary distance d(x) away from the corners; nodes within
``corner_radius`` of a corner are masked out of every comparison that relies
on that equivalence (w_1 vanishes quadratically at the corners).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

DEFAULT_CORNER_RADIUS_FRAC = 0.05


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Geometry:
    """Immutable description of the discretized square domain.

    Every (N-1, N-1) table (``eigenvalues``, ``ground_state``, ``distance``
    and ``corner_mask``) is built on first read and then kept: a geometry
    that never reads one (the fine commutator grid) never allocates it.
    ``eigenvalues`` and ``ground_state`` are the whole-grid cases of
    :meth:`eigenvalue_rows` and :meth:`ground_state_rows`, so a row block
    taken from those methods carries the bits of the table's rows.

    The mode multipliers ``wavenumbers`` (k_m = m pi / L),
    ``sqrt_eigenvalues`` and ``inv_sqrt_eigenvalues`` (lam^{+-1/2}) are kept
    the same way, read-only.  A geometry hashes by identity, so it can key a
    cache.
    """

    side_length: float
    grid_size: int                 # N; interior nodes are i*L/N, i=1..N-1
    corner_radius: float
    x: np.ndarray                  # (N-1,) interior coordinates (shared per axis)
    modes: np.ndarray              # (N-1,) mode indices 1..N-1
    c0: float | None = None        # fitted lower constant of w_1/d
    C0: float | None = None        # fitted upper constant of w_1/d

    def eigenvalue_rows(self, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of lam_{m,n} = k_m^2 + k_n^2, k_m = m pi / L."""
        k = self.wavenumbers
        return k[rows, None] ** 2 + k[None, :] ** 2

    def ground_state_rows(self, rows=slice(None)) -> np.ndarray:
        """Rows ``rows`` of the node samples of w_1 (the ground state)."""
        s = np.sin(np.pi * self.x / self.side_length)
        return (2.0 / self.side_length) * s[rows, None] * s[None, :]

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """(N-1,) k_m = m pi / L, read-only."""
        return _read_only(self.modes * np.pi / self.side_length)

    @cached_property
    def sqrt_eigenvalues(self) -> np.ndarray:
        """(N-1, N-1) lam^{1/2}, read-only."""
        table = self.eigenvalue_rows()
        table **= 0.5
        return _read_only(table)

    @cached_property
    def inv_sqrt_eigenvalues(self) -> np.ndarray:
        """(N-1, N-1) lam^{-1/2}, read-only."""
        table = self.eigenvalue_rows()
        table **= -0.5
        return _read_only(table)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """(N-1, N-1) lam_{m,n}, index [m-1, n-1]."""
        return self.eigenvalue_rows()

    @cached_property
    def ground_state(self) -> np.ndarray:
        """(N-1, N-1) samples of w_1."""
        return self.ground_state_rows()

    @cached_property
    def distance(self) -> np.ndarray:
        """(N-1, N-1) d(x) = min distance to the sides."""
        e = self.side_distance
        return np.minimum.outer(e, e)

    @cached_property
    def corner_mask(self) -> np.ndarray:
        """(N-1, N-1) bool, True near a corner."""
        # |x - c| for the nearer corner c is (e_i, e_j) exactly, so only
        # nodes with both e below the radius can lie near a corner
        e = self.side_distance
        near = e < self.corner_radius
        mask = np.zeros((e.size, e.size), dtype=bool)
        mask[np.ix_(near, near)] = (
            np.hypot.outer(e[near], e[near]) < self.corner_radius)
        return mask

    @property
    def spacing(self) -> float:
        return self.side_length / self.grid_size

    @property
    def n_interior(self) -> int:
        return self.grid_size - 1

    @property
    def lam1(self) -> float:
        return float(self.eigenvalue_rows(slice(1))[0, 0])

    @property
    def area(self) -> float:
        return self.side_length ** 2

    @property
    def side_distance(self) -> np.ndarray:
        """e_i = min(x_i, L - x_i) per axis; ``distance`` is min(e_i, e_j)."""
        return np.minimum(self.x, self.side_length - self.x)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates X[i,j] = x_i, Y[i,j] = y_j."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def quad(self, values: np.ndarray) -> float:
        """Rectangle-rule integral over the domain (exact for the sine basis)."""
        return float(self.spacing ** 2 * values.sum())

    def unmasked(self, min_distance: float = 0.0) -> np.ndarray:
        """Boolean node selector: away from corners and at least min_distance inside."""
        keep = ~self.corner_mask
        if min_distance > 0.0:
            keep = keep & (self.distance >= min_distance)
        return keep

    def compatible(self, other: "Geometry") -> bool:
        return (
            self.grid_size == other.grid_size
            and self.side_length == other.side_length
        )


def build_square_geometry(
    N: int,
    side_length: float = np.pi,
    corner_radius: float | None = None,
) -> Geometry:
    """Build the square geometry with N-1 interior nodes per axis."""
    if N < 8:
        raise ConfigurationError(f"grid size N must be >= 8, got {N}")
    if side_length <= 0:
        raise ConfigurationError(f"side_length must be positive, got {side_length}")
    if corner_radius is None:
        corner_radius = DEFAULT_CORNER_RADIUS_FRAC * side_length
    if not 0 <= corner_radius < side_length / 4:
        raise ConfigurationError(
            f"corner_radius must lie in [0, side_length/4), got {corner_radius}"
        )

    L = float(side_length)
    return Geometry(
        side_length=L,
        grid_size=int(N),
        corner_radius=float(corner_radius),
        x=L * np.arange(1, N) / N,
        modes=np.arange(1, N),
    )


def fit_ground_state_equivalence(geometry: Geometry) -> tuple[float, float]:
    """Fit c0, C0 with c0*d(x) <= w_1(x) <= C0*d(x) on unmasked interior nodes.

    The constants are stored on the geometry and returned.
    """
    keep = geometry.unmasked()
    if not keep.any():
        raise ConfigurationError("corner mask leaves no interior nodes to fit")
    ratio = geometry.ground_state[keep] / geometry.distance[keep]
    c0 = float(ratio.min())
    C0 = float(ratio.max())
    object.__setattr__(geometry, "c0", c0)
    object.__setattr__(geometry, "C0", C0)
    return c0, C0
