"""Sine-spectral transforms: grid <-> eigenbasis, differentiation, products.

Conventions.  A scalar field is either a ``GridField`` (values at the interior
collocation nodes) or a ``SpectralField`` (coefficients a_{m,n} on the
orthonormal eigenbasis w_{m,n}).  The pair (forward, inverse) is an exact
round trip on the grid because the type-I DST quadrature is exact for the
retained modes, and Parseval holds: sum(a^2) == h^2 * sum(f^2).

Pointwise products of two fields go through one of two fine grids.
:func:`dealiased_product` samples both factors on the closed 2N-grid: a
product of two sine polynomials is a cosine polynomial of bounded degree,
which the closed grid resolves exactly, and the analytic overlap integrals
int cos(q pi x/L) sin(p pi x/L) dx project it onto the sine basis.  The
solver's advective flux multiplies factors of opposite parity, so it is a
sine polynomial of degree <= 2N-2 per axis; it is sampled at the midpoints
x_i = (i + 1/2) L/Nf, i = 0..Nf-1, of the grid with Nf = ceil(3N/2) nodes
(DCT-III and DST-III of length Nf) and projected back by DST-II.  Since
sum_i cos(r pi (i + 1/2)/Nf) = 0 for 0 < r < 2 Nf, that projection is exact
whenever the degree plus the kept mode count stays below 2 Nf, and here
(2N-2) + (N-1) < 3N <= 2 Nf.  No aliasing of retained-mode products survives.
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
        where = True if self.valid is None else self.valid
        return float(np.max(np.abs(self.values), where=where, initial=0.0))


@dataclass
class BoxField:
    """Field sampled on the box ``box`` of interior nodes only.

    A localized field (the commutator) is zero outside its box; a row band
    over all columns carries a field's values where a computation reads it.
    """

    values: np.ndarray           # the box's nodes, index [i - rows.start, ...]
    box: tuple[slice, slice]     # node rows and columns of the box
    geometry: Geometry

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))


def mode_field(geometry: Geometry, m: int, n: int, amp: float = 1.0,
               tag: str = "") -> SpectralField:
    """The single eigenmode amp * w_{m,n} as a SpectralField."""
    c = np.zeros((geometry.n_interior, geometry.n_interior))
    c[m - 1, n - 1] = amp
    return SpectralField(c, geometry, tag=tag)


# ---------------------------------------------------------------------------
# Building blocks.  Sums run over modes m = 1..N-1 against the interior nodes
# i = 1..N-1 of the N-grid (i.e. sin(pi*m*i/N)).
# ---------------------------------------------------------------------------

def cos_eval(coeffs: np.ndarray, axis: int, scale: float = 1.0) -> np.ndarray:
    """scale * sum_m c_m cos(pi m i / N) at the interior nodes along ``axis``.

    Modes run m = 1..N-1.  They are written into a zero-bordered
    length-(N+1) buffer (the m = 0 and m = N slots stay zero), so the DCT-I
    evaluates the sum exactly.
    """
    shape = list(coeffs.shape)
    shape[axis] += 2
    buf = np.zeros(shape)
    inner = [slice(None)] * coeffs.ndim
    inner[axis] = slice(1, coeffs.shape[axis] + 1)
    buf[tuple(inner)] = coeffs
    full = fft.dct(buf, type=1, axis=axis, overwrite_x=True)
    full *= 0.5 * scale
    return full[tuple(inner)]


def _sin_cos_eval(coeffs: np.ndarray, cos_axis: int,
                  scale: float) -> np.ndarray:
    """scale * sum c_{m,n} sin(pi m i/N) cos(pi n j/N) at the interior nodes.

    The sine factor runs along ``1 - cos_axis`` and the cosine factor along
    ``cos_axis``.
    """
    sin_vals = fft.dst(coeffs, type=1, axis=1 - cos_axis)
    return cos_eval(sin_vals, cos_axis, 0.5 * scale)


# ---------------------------------------------------------------------------
# Grid <-> spectrum
# ---------------------------------------------------------------------------

_BLOCK = 128    # columns per block of a row band's axis-0 pass


def _dst2(a: np.ndarray, n: int, rows=slice(None), col0: int = 0) -> np.ndarray:
    """Rows ``rows`` of ``fft.dstn(A, type=1, s=(n, n))``, skipping zero lines.

    A holds ``a`` in its columns from ``col0`` on and is zero elsewhere, so
    a column band of an n x n array can be passed without its zero columns.
    The axis-0 pass transforms only the span of columns of ``a`` from its
    first to its last nonzero column: every column outside that span is
    zero and transforms to zero, so an all-zero ``a`` costs no transform.
    When ``rows`` is a band, the axis-0 pass runs over blocks of columns,
    each transformed as a transposed view so its output lines are
    contiguous, and keeps only the band: no n-row intermediate of the whole
    width is materialised.  The axis-1 pass transforms only the rows
    ``rows``.  The passes keep dstn's order, axis 0 then axis 1, so the
    result equals dstn's bit for bit; the reverse order differs in the last
    bit.
    """
    live = np.flatnonzero(a.any(axis=0))
    if live.size == 0:
        return np.zeros((n, n))[rows]
    lo, hi = live[0], live[-1] + 1
    picked = range(n)[rows]
    whole = picked == range(n)
    # the axis-1 pass would zero-pad a narrower input into a copy, so an
    # axis-0 output that needs its own array gets all n columns and that
    # pass runs in place
    if whole and col0 + lo == 0:
        first = fft.dst(a[:, :hi], type=1, n=n, axis=0)
    elif whole:
        first = np.zeros((n, n))
        first[:, col0 + lo:col0 + hi] = fft.dst(a[:, lo:hi], type=1, n=n,
                                                axis=0)
    else:
        first = np.zeros((len(picked), n))
        for c in range(lo, hi, _BLOCK):
            blk = fft.dst(a[:, c:min(c + _BLOCK, hi)].T, type=1, n=n, axis=1)
            first[:, col0 + c:col0 + c + blk.shape[0]] = blk[:, rows].T
    return fft.dst(first, type=1, n=n, axis=1, overwrite_x=True)


def _forward_coeffs(values: np.ndarray, geometry: Geometry,
                    col0: int = 0) -> np.ndarray:
    """Coefficients of the grid field equal to ``values`` from column ``col0`` on.

    ``values`` has N-1 rows and may be a column band; the field is zero in
    every column outside it.
    """
    if not np.isfinite(values).all():
        raise NumericError("forward transform of non-finite grid values")
    coeffs = _dst2(values, geometry.n_interior, col0=col0)
    coeffs *= geometry.side_length / (2.0 * geometry.grid_size ** 2)
    return coeffs


def forward(grid: GridField, tag: str = "") -> SpectralField:
    """Project grid samples onto the eigenbasis (discrete <f, w_{m,n}>).

    The transform skips the all-zero columns before the first and after the
    last nonzero column (see :func:`_dst2`), so values that vanish outside
    a band of columns cost the transform of that band.
    """
    return SpectralField(_forward_coeffs(grid.values, grid.geometry),
                         grid.geometry, tag=tag)


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
    k = g.wavenumbers
    scale = 2.0 / g.side_length
    dx = _sin_cos_eval(spec.coeffs * k[:, None], 0, scale)
    dy = _sin_cos_eval(spec.coeffs * k[None, :], 1, scale)
    return GridField(dx, g), GridField(dy, g)


def grad_l2_norm_sq(spec: SpectralField) -> float:
    """||grad f||^2_{L^2} via Parseval on the eigenbasis (= sum lam a^2)."""
    return float((spec.geometry.eigenvalues * spec.coeffs ** 2).sum())


# ---------------------------------------------------------------------------
# Fine-grid evaluation and dealiased products
# ---------------------------------------------------------------------------

def fine_grid_size(N: int) -> int:
    """Nodes per axis of the advective flux's midpoint grid, ceil(3N/2)."""
    return int(np.ceil(1.5 * N))


def eval_fine(spec: SpectralField, Nf: int, rows=slice(None)) -> np.ndarray:
    """Evaluate the field at the node rows ``rows`` of the Nf-grid.

    Nf >= N; Nf = N evaluates at the collocation nodes themselves.
    """
    values = _dst2(spec.coeffs, Nf - 1, rows=rows)
    values *= 2.0 / spec.geometry.side_length
    values /= 4.0
    return values


def eval_fine_mixed(coeffs: np.ndarray, geometry: Geometry, Nf: int,
                    cos_axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """(2/L) sum c_{m,n} (sine factor)(cosine factor) at the Nf x Nf midpoints.

    The cosine factor cos(k x) runs along ``cos_axis`` and the sine factor
    sin(k x) along the other axis; the nodes are x_i = (i + 1/2) L/Nf,
    i = 0..Nf-1, and Nf must exceed the mode count.  The coefficients go
    into an Nf x Nf buffer (``out`` if given, else a new array) behind a
    zero leading line along ``cos_axis``; a DCT-III along ``cos_axis`` over
    the lines that hold modes and a DST-III along the other axis, both of
    length Nf, evaluate the sum in place.  Use the returned array: it is
    ``out`` unless scipy declined to work in place.
    """
    n = coeffs.shape[0]
    buf = np.empty((Nf, Nf)) if out is None else out
    # cosine axis last: each of the first n lines holds one sine mode
    view, coeffs = (buf, coeffs) if cos_axis == 1 else (buf.T, coeffs.T)
    view[n:] = 0.0
    lines = view[:n]
    lines[:, 0] = 0.0
    lines[:, n + 1:] = 0.0
    np.copyto(lines[:, 1:n + 1], coeffs)
    cos_vals = fft.dct(lines, type=3, axis=1, overwrite_x=True)
    if not np.may_share_memory(cos_vals, lines):   # not done in place
        lines[...] = cos_vals
    values = fft.dst(view, type=3, axis=0, overwrite_x=True)
    # each type-III pass doubles the sum; scaling the whole contiguous
    # result in place avoids numpy's buffer for a strided multiply
    values *= 0.5 / geometry.side_length
    return values if cos_axis == 1 else values.T


def forward_fine(values: np.ndarray, geometry: Geometry, Nf: int,
                 n_keep: int) -> np.ndarray:
    """Project midpoint samples back onto the first ``n_keep`` modes per axis.

    ``values`` holds samples at the nodes of :func:`eval_fine_mixed` and is
    overwritten: the transforms run in place.  The DST-II pair is exact for
    a sine polynomial of degree < 2*Nf - n_keep per axis, which covers
    quadratic products of opposite-parity factors (the advective flux).
    Same-parity products carry cosine content and go through
    :func:`dealiased_product` instead.
    """
    rows = fft.dst(values, type=2, axis=0, overwrite_x=True)[:n_keep]
    coeffs = fft.dst(rows, type=2, axis=1, overwrite_x=True)
    coeffs *= geometry.side_length / (2.0 * Nf ** 2)
    return coeffs[:, :n_keep].copy()


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
