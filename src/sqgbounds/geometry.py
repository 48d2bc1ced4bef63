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
# modes per axis of the node tables, the widest block spectral.eval_block
# evaluates and the widest grid spectral.forward projects with them
# (spectral.DENSE_MAX_NF, where the crossover is measured)
NODE_TABLE_MODES = 128


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Geometry:
    """Immutable description of the discretized square domain.

    A geometry has three inputs: the side length L, the grid size N and the
    corner radius; every other attribute is derived from them.  The (N-1,)
    vectors ``x`` and ``modes`` and every (N-1, N-1) table (``eigenvalues``,
    ``ground_state``, ``distance`` and ``corner_mask``) are built on first
    read and then kept: a geometry that never reads a table (the fine
    commutator grid) never allocates it.  ``eigenvalues`` and
    ``ground_state`` are the whole-grid cases of :meth:`eigenvalue_rows` and
    :meth:`ground_state_rows`, so a block taken from those methods carries
    the bits of the table's block.

    The mode multipliers ``wavenumbers`` (k_m = m pi / L) and
    ``sqrt_eigenvalues`` (lam^{1/2}) and the node tables ``node_sines`` and
    ``node_cosines`` are kept the same way, read-only.  A geometry hashes by
    identity, so it can key a cache.
    """

    side_length: float
    grid_size: int                 # N; interior nodes are i*L/N, i=1..N-1
    corner_radius: float

    @cached_property
    def x(self) -> np.ndarray:
        """(N-1,) interior coordinates i L / N, shared per axis."""
        return self.side_length * np.arange(1, self.grid_size) / self.grid_size

    @cached_property
    def modes(self) -> np.ndarray:
        """(N-1,) mode indices 1..N-1."""
        return np.arange(1, self.grid_size)

    def eigenvalue_rows(self, rows=slice(None), cols=slice(None)):
        """Block ``rows`` x ``cols`` of lam_{m,n} = k_m^2 + k_n^2."""
        k = self.wavenumbers
        return k[rows, None] ** 2 + k[None, cols] ** 2

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

    def _node_angles(self, nodes: slice, modes: slice) -> np.ndarray:
        """m pi i / N at the nodes i and the modes m that the slices
        ``nodes`` and ``modes`` pick from 1..N-1, formed from the integer
        m i mod 2N, so every entry carries the rounding of one angle in
        [0, 2 pi) and a table's block has the bits of the whole table."""
        N = self.grid_size
        index = np.arange(1, N)
        reduced = np.outer(index[nodes], index[modes])
        reduced %= 2 * N
        return reduced * (np.pi / N)

    def sine_rows(self, nodes: slice, modes: slice) -> np.ndarray:
        """sin(m pi i / N) at the nodes and modes that ``nodes`` and
        ``modes`` pick from 1..N-1, with the bits of ``node_sines`` where
        both have them."""
        angles = self._node_angles(nodes, modes)
        return np.sin(angles, out=angles)

    @cached_property
    def node_sines(self) -> np.ndarray:
        """sin(m pi i / N) at node i and mode m = 1..min(N-1,
        NODE_TABLE_MODES), read-only."""
        return _read_only(self.sine_rows(slice(None),
                                         slice(NODE_TABLE_MODES)))

    @cached_property
    def node_cosines(self) -> np.ndarray:
        """cos(m pi i / N) at node i and mode m = 1..min(N-1,
        NODE_TABLE_MODES), read-only."""
        return _read_only(np.cos(self._node_angles(slice(None),
                                                   slice(NODE_TABLE_MODES))))

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

    return Geometry(side_length=float(side_length), grid_size=int(N),
                    corner_radius=float(corner_radius))


def fit_ground_state_equivalence(geometry: Geometry) -> tuple[float, float]:
    """Fit c0, C0 with c0*d(x) <= w_1(x) <= C0*d(x) on unmasked interior nodes."""
    keep = geometry.unmasked()
    if not keep.any():
        raise ConfigurationError("corner mask leaves no interior nodes to fit")
    ratio = geometry.ground_state[keep] / geometry.distance[keep]
    return float(ratio.min()), float(ratio.max())
