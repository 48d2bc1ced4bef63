"""Sine-spectral transforms: grid <-> eigenbasis, differentiation, products.

Conventions.  A scalar field is either a ``GridField`` (values at the interior
collocation nodes) or a ``SpectralField`` (coefficients a_{m,n} on the
orthonormal eigenbasis w_{m,n}).  The pair (forward, inverse) is an exact
round trip on the grid because the type-I DST quadrature is exact for the
retained modes, and Parseval holds: sum(a^2) == h^2 * sum(f^2).

Pointwise products of two fields are evaluated on a zero-padded grid (2N
nodes per axis, comfortably above the 3N/2 the quadratic nonlinearity needs)
and projected back onto the retained modes.  A product of two sine
polynomials is a cosine polynomial of bounded degree, so the closed fine
grid resolves it exactly and the projection onto the sine basis reduces to
the analytic overlap integrals int cos(q pi x/L) sin(p pi x/L) dx.  No
aliasing of retained-mode products survives.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import NumericError, ShapeError
from .geometry import Geometry


@dataclass
class SpectralField:
    """Field represented by real coefficients on the Dirichlet eigenbasis."""

    coeffs: np.ndarray           # (N-1, N-1), index [m-1, n-1]
    geometry: Geometry
    tag: str = ""

    def copy(self, tag: str | None = None) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.geometry,
                             self.tag if tag is None else tag)

    def l2_norm(self) -> float:
        return float(np.sqrt((self.coeffs ** 2).sum()))


@dataclass
class GridField:
    """Field sampled at the interior collocation nodes (zero on the boundary)."""

    values: np.ndarray           # (N-1, N-1), index [i-1, j-1]
    geometry: Geometry
    valid: np.ndarray | None = None   # optional bool mask (finite differences)

    def sup_norm(self) -> float:
        vals = self.values if self.valid is None else self.values[self.valid]
        return float(np.abs(vals).max()) if vals.size else 0.0


def mode_field(geometry: Geometry, m: int, n: int, amp: float = 1.0,
               tag: str = "") -> SpectralField:
    """The single eigenmode amp * w_{m,n} as a SpectralField."""
    c = np.zeros((geometry.n_interior, geometry.n_interior))
    c[m - 1, n - 1] = amp
    return SpectralField(c, geometry, tag=tag)


# ---------------------------------------------------------------------------
# Building blocks.  Sums run over modes m = 1..P against the interior nodes
# i = 1..N-1 of the grid with divisor N >= P+1 (i.e. sin(pi*m*i/N)).
# ---------------------------------------------------------------------------

def cos_eval(coeffs: np.ndarray, axis: int, n_nodes: int | None = None,
             scale: float = 1.0) -> np.ndarray:
    """scale * sum_m c_m cos(pi m i / N) at the interior nodes along ``axis``.

    Modes run m = 1..M with N = ``n_nodes`` (default M + 1).  They are written
    into a zero-bordered length-(N+1) buffer (the m = 0 slot and the slots
    above M stay zero), so the DCT-I evaluates the sum exactly.
    """
    n_nodes = n_nodes or coeffs.shape[axis] + 1
    shape = list(coeffs.shape)
    shape[axis] = n_nodes + 1
    buf = np.zeros(shape)
    inner = [slice(None)] * coeffs.ndim
    inner[axis] = slice(1, coeffs.shape[axis] + 1)
    buf[tuple(inner)] = coeffs
    full = fft.dct(buf, type=1, axis=axis, overwrite_x=True)
    full *= 0.5 * scale
    inner[axis] = slice(1, n_nodes)
    return full[tuple(inner)]


def sin_analyze(values: np.ndarray, axis: int) -> np.ndarray:
    """Recover c_m from samples of sum_m c_m sin(pi m i / N) (exact inverse)."""
    n = values.shape[axis] + 1
    return fft.dst(values, type=1, axis=axis) / n


def _sin_cos_eval(coeffs: np.ndarray, n_nodes: int, cos_axis: int,
                  scale: float) -> np.ndarray:
    """scale * sum c_{m,n} sin(pi m i/N) cos(pi n j/N) at the interior nodes.

    The sine factor runs along ``1 - cos_axis`` and the cosine factor along
    ``cos_axis``; N = ``n_nodes`` may exceed the mode count plus one (the
    higher modes are zero).  The DST-I pass transforms only the lines that
    hold modes.
    """
    sin_axis = 1 - cos_axis
    sin_vals = fft.dst(coeffs, type=1, n=n_nodes - 1, axis=sin_axis)
    return cos_eval(sin_vals, cos_axis, n_nodes, 0.5 * scale)


# ---------------------------------------------------------------------------
# Grid <-> spectrum
# ---------------------------------------------------------------------------

def _dst2(a: np.ndarray, n: int, cols=slice(None),
          rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of ``fft.dstn(a, type=1, s=(n, n))``, skipping zero lines.

    The axis-0 pass transforms only the columns ``cols`` of ``a`` (every
    other column of ``a`` must be zero) and the axis-1 pass only the rows
    ``rows``.  The passes keep dstn's order, axis 0 then axis 1, so the
    result equals dstn's bit for bit; the reverse order differs in the
    last bit.
    """
    first = fft.dst(a[:, cols], type=1, n=n, axis=0)
    if first.shape[1] < a.shape[1]:       # put the skipped zero columns back
        first, part = np.zeros((n, a.shape[1])), first
        first[:, cols] = part
    return fft.dst(first[rows], type=1, n=n, axis=1, overwrite_x=True)


def forward(grid: GridField, tag: str = "",
            cols=slice(None)) -> SpectralField:
    """Project grid samples onto the eigenbasis (discrete <f, w_{m,n}>).

    The values may be known to vanish outside the columns ``cols``; the
    transform then skips the other columns.
    """
    if not np.isfinite(grid.values).all():
        raise NumericError("forward transform of non-finite grid values")
    g = grid.geometry
    coeffs = _dst2(grid.values, g.n_interior, cols=cols)
    coeffs *= g.side_length / (2.0 * g.grid_size ** 2)
    return SpectralField(coeffs, g, tag=tag)


def inverse(spec: SpectralField) -> GridField:
    """Evaluate the eigen-expansion at the interior collocation nodes."""
    g = spec.geometry
    if spec.coeffs.shape != (g.n_interior, g.n_interior):
        raise ShapeError(
            f"coefficient block {spec.coeffs.shape} does not match geometry "
            f"with {g.n_interior} interior nodes per axis")
    return GridField(eval_fine(spec, g.grid_size), g)


def gradient(spec: SpectralField) -> tuple[GridField, GridField]:
    """Spectral gradient, sampled at the interior nodes.

    sin(k_m x) differentiates to k_m cos(k_m x); the cosine factor is
    evaluated with a zero-bordered DCT-I.
    """
    g = spec.geometry
    k = g.modes * np.pi / g.side_length
    scale = 2.0 / g.side_length
    dx = _sin_cos_eval(spec.coeffs * k[:, None], g.grid_size, 0, scale)
    dy = _sin_cos_eval(spec.coeffs * k[None, :], g.grid_size, 1, scale)
    return GridField(dx, g), GridField(dy, g)


def grad_l2_norm_sq(spec: SpectralField) -> float:
    """||grad f||^2_{L^2} via Parseval on the eigenbasis (= sum lam a^2)."""
    return float((spec.geometry.eigenvalues * spec.coeffs ** 2).sum())


# ---------------------------------------------------------------------------
# Fine-grid evaluation and dealiased products
# ---------------------------------------------------------------------------

def fine_grid_size(N: int, factor: float = 1.5) -> int:
    return int(np.ceil(factor * N))


def eval_fine(spec: SpectralField, Nf: int, rows=slice(None)) -> np.ndarray:
    """Evaluate the field at the node rows ``rows`` of the Nf-grid.

    Nf >= N; Nf = N evaluates at the collocation nodes themselves.
    """
    values = _dst2(spec.coeffs, Nf - 1, rows=rows)
    values *= 2.0 / spec.geometry.side_length
    values /= 4.0
    return values


def eval_fine_mixed(coeffs: np.ndarray, geometry: Geometry, Nf: int,
                    cos_axis: int) -> np.ndarray:
    """Evaluate (2/L) sum c_{m,n} with a cosine factor along ``cos_axis``."""
    return _sin_cos_eval(coeffs, Nf, cos_axis, 2.0 / geometry.side_length)


def forward_fine(values: np.ndarray, geometry: Geometry, Nf: int,
                 n_keep: int) -> np.ndarray:
    """Project fine-grid samples back onto the first ``n_keep`` modes per axis.

    Exact for samples of a sine polynomial of degree < 2*Nf - n_keep per
    axis, which covers quadratic products of opposite-parity factors (the
    advective flux).  Same-parity products carry cosine content and go
    through :func:`dealiased_product` instead.
    """
    rows = fft.dst(values, type=1, axis=0)[:n_keep]
    coeffs = fft.dst(rows, type=1, axis=1, overwrite_x=True)[:, :n_keep]
    return (geometry.side_length / (2.0 * Nf ** 2)) * coeffs


def eval_closed(spec: SpectralField, Mf: int) -> np.ndarray:
    """Evaluate the field at the closed nodes i = 0..Mf of the Mf-grid."""
    out = np.zeros((Mf + 1, Mf + 1))
    out[1:Mf, 1:Mf] = eval_fine(spec, Mf)
    return out


def cos_analyze_closed(values: np.ndarray) -> np.ndarray:
    """Cosine coefficients A_{q,r} from samples on the closed (Mf+1)^2 grid.

    Inverts values = sum_{q,r} A_{q,r} cos(pi q i/Mf) cos(pi r j/Mf), which
    is exact when the samples come from a cosine polynomial of degree <= Mf
    per axis.
    """
    Mf = values.shape[0] - 1
    coeffs = fft.dctn(values, type=1) / Mf ** 2
    coeffs[0, :] /= 2.0
    coeffs[-1, :] /= 2.0
    coeffs[:, 0] /= 2.0
    coeffs[:, -1] /= 2.0
    return coeffs


@lru_cache(maxsize=8)
def _sine_projection_matrix(n_keep: int, Mf: int) -> np.ndarray:
    """Overlap matrix P[p-1, q] = p (1 - (-1)^{p+q}) / (p^2 - q^2).

    Up to the prefactor (L/pi) this is int_0^L cos(q pi x/L) sin(p pi x/L) dx,
    the exact projection of each cosine mode onto the sine basis.
    """
    p = np.arange(1, n_keep + 1, dtype=float)[:, None]
    q = np.arange(0, Mf + 1, dtype=float)[None, :]
    odd = (p + q) % 2 == 1
    denom = np.where(odd, p ** 2 - q ** 2, 1.0)
    return np.where(odd, 2.0 * p / denom, 0.0)


def dealiased_product(f: SpectralField, g: SpectralField,
                      tag: str = "") -> SpectralField:
    """Pointwise product f*g, exactly projected onto the retained modes.

    The product of two degree-(N-1) sine polynomials is a cosine polynomial
    of degree at most 2N-2 per axis, so sampling on the closed 2N-grid
    recovers its cosine coefficients exactly and the analytic overlap matrix
    finishes the L^2 projection.  No aliasing error at any retained mode.
    """
    if f.geometry is not g.geometry and not f.geometry.compatible(g.geometry):
        raise ShapeError("dealiased_product requires fields on the same geometry")
    geom = f.geometry
    Mf = 2 * geom.grid_size
    prod = eval_closed(f, Mf) * eval_closed(g, Mf)
    A = cos_analyze_closed(prod)
    P = _sine_projection_matrix(geom.n_interior, Mf)
    scale = 2.0 * geom.side_length / np.pi ** 2
    coeffs = scale * (P @ A @ P.T)
    return SpectralField(coeffs, geom, tag=tag)
