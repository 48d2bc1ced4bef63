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
The argument holds for any band: factors with modes <= M multiply into a
sine polynomial of degree <= 2M, whose projection onto the modes <= 2M is
exact on any midpoint grid with 2M + 2M < 2 Nf, that is Nf > 2M, so the
solver advects the live band of a spectrum on such a grid and zero-pads the
result (see ``solver``).

One evaluator, one rule.  Every node evaluation of a spectrum is a call of
:func:`eval_block` on the leading block that holds its nonzero coefficients
(:func:`_support`): :func:`inverse`, :func:`gradient` (a cosine factor along
one axis) and the closed-grid samples of :func:`dealiased_product`.  A block
of at most DENSE_MAX_NF modes per axis is two products with the geometry's
cached, read-only node tables, at any N; a wider block takes the FFT route,
scipy.fft, imported on its first use (:func:`__getattr__`).  :func:`forward`
is the transposed product by the same rule, and the midpoint sums of
:func:`eval_fine_mixed` and :func:`forward_fine` go by theirs, at most
DENSE_MAX_NF nodes per axis.  Every table angle is formed from an integer
reduced modulo its period, so the routes agree to under 1e-14 (tested).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ShapeError
from .geometry import NODE_TABLE_MODES, Geometry, _read_only

# Transforms of at most DENSE_MAX_NF nodes per axis, and node evaluations of
# spectrum blocks of at most DENSE_MAX_NF modes per axis, run as two products
# with cached sine/cosine tables (Boyd, Chebyshev and Fourier Spectral
# Methods, 2nd ed., ch. 10, matrix-multiplication transforms): at these sizes
# scipy's per-call dispatch, or the transform of a mostly-zero spectrum,
# costs more than the products.  Measured crossover, one thread,
# BENCH_17.json "crossover": on band grids dense takes 0.22-0.45 of the FFT
# time for eval_fine_mixed up to Nf = 162 and 0.26-0.69 for forward_fine up
# to Nf = 120, whose gain closes at Nf = 135-162; the whole 3/2 grid of
# N = 128 (Nf = 192) is faster by FFT.  BENCH_19.json "crossover": a K x K
# block at the N-grid nodes takes, dense against FFT, 0.60 / 0.90 of the
# time at N = 256 (K = 128 / 192), 0.54 / 0.81 at N = 512 and 0.43 / 0.64 at
# N = 1024; the cap keeps the node tables at (N-1) x 128 per geometry.
DENSE_MAX_NF = NODE_TABLE_MODES


def __getattr__(name: str):
    """PEP 562: ``fft`` is scipy.fft, imported on first use and then kept as
    the module global that :func:`_fft` reads and a tracer may replace."""
    if name != "fft":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global fft
    from scipy import fft
    return fft


def _fft():
    """The module's ``fft`` binding, imported on first use."""
    return globals().get("fft") or __getattr__("fft")


@dataclass
class SpectralField:
    """Field represented by real coefficients on the Dirichlet eigenbasis."""

    coeffs: np.ndarray           # (N-1, N-1), index [m-1, n-1]
    geometry: Geometry
    tag: str = ""

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.geometry, self.tag)

    def l2_norm(self) -> float:
        return float(np.sqrt((self.coeffs ** 2).sum()))


@dataclass
class GridField:
    """Field sampled at the interior collocation nodes (zero on the boundary)."""

    values: np.ndarray           # (N-1, N-1), index [i-1, j-1]
    geometry: Geometry
    valid: np.ndarray | None = None   # optional bool mask (finite differences)

    def sup_norm(self) -> float:
        if self.valid is None:
            return _max_abs(self.values)
        return float(np.max(np.abs(self.values), where=self.valid,
                            initial=0.0))


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
        return _max_abs(self.values)


def _max_abs(v: np.ndarray) -> float:
    """max |v|, 0.0 when ``v`` is empty and NaN when it holds a NaN: the
    bits of ``np.max(np.abs(v), initial=0.0)`` from two reductions, with no
    |v| temporary.  Each reduction returns NaN when it reads one; the
    final + 0.0 turns a -0.0 into 0.0."""
    return max(float(v.max(initial=0.0)), -float(v.min(initial=0.0))) + 0.0


def mode_field(geometry: Geometry, m: int, n: int, amp: float = 1.0,
               tag: str = "") -> SpectralField:
    """The single eigenmode amp * w_{m,n} as a SpectralField."""
    c = np.zeros((geometry.n_interior, geometry.n_interior))
    c[m - 1, n - 1] = amp
    return SpectralField(c, geometry, tag)


# ---------------------------------------------------------------------------
# Building blocks.  Sums run over modes m = 1..N-1 against the interior nodes
# i = 1..N-1 of the N-grid (i.e. sin(pi*m*i/N)).
# ---------------------------------------------------------------------------

def _support(c: np.ndarray) -> int:
    """Side K of the leading K x K block of ``c`` outside which every
    coefficient is exactly 0.0 (a NaN counts as nonzero)."""
    if c[-1:].any() or c[:, -1:].any():     # a full spectrum, read in O(N)
        return c.shape[0]
    rows = np.flatnonzero(c.any(axis=1))
    cols = np.flatnonzero(c.any(axis=0))
    return 1 + int(max(rows[-1], cols[-1])) if rows.size else 0


def _times_k(c: np.ndarray, k: np.ndarray, axis: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """``c`` times the wavenumbers ``k`` along ``axis``.

    Equal to ``c * k[:, None]`` (axis 0) or ``c * k[None, :]`` (axis 1) bit
    for bit, but einsum needs no iterator buffer, where numpy allocates one
    for every broadcast product.
    """
    return np.einsum("ij,i->ij" if axis == 0 else "ij,j->ij", c, k, out=out)


def _dst2(a: np.ndarray, n: int, out: np.ndarray | None = None
          ) -> np.ndarray:
    """``fft.dstn(A, type=1, s=(n, n))``, A zero but for its leading
    block ``a``, skipping zero lines.

    The axis-0 pass transforms only the span of columns of ``a`` from its
    first to its last nonzero column, in place in an n x n array (``out``
    if given) that is zero elsewhere: every column outside that span is
    zero and transforms to zero, so an all-zero ``a`` costs no transform.
    The axis-1 pass then runs in place as well.  The passes keep dstn's
    order, axis 0 then axis 1, so the result equals dstn's bit for bit; the
    reverse order differs in the last bit.
    """
    first = np.empty((n, n)) if out is None else out
    live = np.flatnonzero(a.any(axis=0))
    if live.size == 0:
        first.fill(0.0)
        return first
    lo, hi = live[0], live[-1] + 1
    m = a.shape[0]
    first[m:] = 0.0
    first[:, :lo] = 0.0
    first[:, hi:] = 0.0
    band = first[:, lo:hi]
    np.copyto(band[:m], a[:, lo:hi])
    vals = _fft().dst(band, type=1, axis=0, overwrite_x=True)
    if not np.may_share_memory(vals, band):    # not done in place
        band[...] = vals
    return _fft().dst(first, type=1, axis=1, overwrite_x=True)


def _leading(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A rows x cols array in the leading memory of ``buf``, C-contiguous."""
    return buf.reshape(-1)[:rows * cols].reshape(rows, cols)


def _sandwich(left: np.ndarray, c: np.ndarray, right: np.ndarray,
              scale: float, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """scale * left @ c @ right.T, into ``out`` if given.

    The scale multiplies the intermediate product left @ c, the smaller
    array, which goes into the leading memory of ``scratch`` if given.
    ``c`` is read only for that product, so it may live in ``out``.
    """
    half = None if scratch is None else _leading(scratch, left.shape[0],
                                                 c.shape[1])
    half = np.matmul(left, c, out=half)
    half *= scale
    return np.matmul(half, right.T, out=out)


# ---------------------------------------------------------------------------
# Node-grid evaluation
# ---------------------------------------------------------------------------

def eval_block(coeffs: np.ndarray, geometry: Geometry,
               cos_axis: int | None = None, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """(2/L) sum c_{m,n} (factor in x)(factor in y) at the interior nodes,
    from ``coeffs``, the leading K x M block of the spectrum (every
    coefficient outside it zero).

    Both factors are sin(k x), or, with ``cos_axis`` 0 or 1, the factor
    along that axis is cos(k x): the block of k (x) c along that axis gives
    a gradient component (see :func:`gradient`).  The route goes by the
    block's larger side.  Up to DENSE_MAX_NF it is the dense route,
    (2/L) A c B^T with columns of the geometry's ``node_sines`` and
    ``node_cosines``; its intermediate (N-1) x K product goes into the
    leading memory of ``scratch`` when given (an (N-1) x (N-1) array will
    do).  Above it, :func:`_fft_block` runs.  ``out``, an (N-1) x (N-1)
    array, takes the values; with a cosine factor ``coeffs`` may live in
    ``out``'s memory.
    """
    K, M = coeffs.shape
    if max(K, M) > DENSE_MAX_NF:
        return _fft_block(coeffs, geometry, cos_axis, out)
    left = geometry.node_cosines if cos_axis == 0 else geometry.node_sines
    right = geometry.node_cosines if cos_axis == 1 else geometry.node_sines
    return _sandwich(left[:, :K], coeffs, right[:, :M],
                     2.0 / geometry.side_length, out, scratch)


def _fft_block(coeffs: np.ndarray, geometry: Geometry,
               cos_axis: int | None, out: np.ndarray | None) -> np.ndarray:
    """The FFT route of :func:`eval_block`, for a block wider than
    DENSE_MAX_NF.

    Sine-sine it is the DST-I pair of :func:`_dst2`, in place in ``out``
    if given.  With a cosine factor the block goes into the interior of a
    buffer with a zero line on each side along ``cos_axis`` (the m = 0 and
    m = N terms of the DCT-I), where a DST-I along the other axis over the
    block's lines and a DCT-I along ``cos_axis`` evaluate the sum in place.
    The values are scaled in place when ``out`` is None and they are
    C-contiguous (the buffer's interior for ``cos_axis`` 0), else as they
    are written to ``out`` or a new array.
    """
    n = geometry.n_interior
    scale = 0.5 / geometry.side_length      # (2/L) / 4: each pass doubles
    if cos_axis is None:
        values = _dst2(coeffs, n, out)
    else:
        buf = np.zeros((n + 2, n) if cos_axis == 0 else (n, n + 2))
        inner = buf[1:-1] if cos_axis == 0 else buf[:, 1:-1]
        K, M = coeffs.shape
        inner[:K, :M] = coeffs
        sines = inner[:K] if cos_axis == 0 else inner[:, :M]
        for transform, part, axis in ((_fft().dst, sines, 1 - cos_axis),
                                      (_fft().dct, buf, cos_axis)):
            vals = transform(part, type=1, axis=axis, overwrite_x=True)
            if not np.may_share_memory(vals, part):    # not done in place
                part[...] = vals
        values = inner
    if out is None and values.flags.c_contiguous:
        values *= scale
        return values
    return np.multiply(values, scale, out=out)


def forward(grid: GridField) -> SpectralField:
    """Project grid samples onto the eigenbasis (discrete <f, w_{m,n}>).

    Up to DENSE_MAX_NF nodes per axis it is the transposed product
    (2L/N^2) S^T values S with S the geometry's ``node_sines``; above it
    the DST-I pair of :func:`_dst2`, which skips the all-zero columns
    before the first and after the last nonzero column, so values that
    vanish outside a band of columns cost the transform of that band.
    """
    g = grid.geometry
    if not np.isfinite(grid.values).all():
        raise NumericError("forward transform of non-finite grid values")
    scale = g.side_length / (2.0 * g.grid_size ** 2)  # dstn doubles per pass
    if g.n_interior <= DENSE_MAX_NF:
        sin_t = g.node_sines.T
        coeffs = _sandwich(sin_t, grid.values, sin_t, 4.0 * scale)
    else:
        coeffs = _dst2(grid.values, g.n_interior)
        coeffs *= scale
    return SpectralField(coeffs, g)


def inverse(spec: SpectralField) -> GridField:
    """Evaluate the eigen-expansion at the interior collocation nodes: its
    support block by :func:`eval_block`."""
    g = spec.geometry
    if spec.coeffs.shape != (g.n_interior, g.n_interior):
        raise ShapeError(
            f"coefficient block {spec.coeffs.shape} does not match geometry "
            f"with {g.n_interior} interior nodes per axis")
    K = _support(spec.coeffs)
    return GridField(eval_block(spec.coeffs[:K, :K], g), g)


def gradient(spec: SpectralField) -> tuple[GridField, GridField]:
    """Spectral gradient, sampled at the interior nodes.

    sin(k_m x) differentiates to k_m cos(k_m x): each component is the
    support block times k along its axis, evaluated by :func:`eval_block`
    with the cosine factor there.  Both components are C-contiguous.
    """
    g = spec.geometry
    K = _support(spec.coeffs)
    c, k = spec.coeffs[:K, :K], g.wavenumbers[:K]
    grads = np.empty((2, g.n_interior, g.n_interior))
    for axis, out in enumerate(grads):    # each block in its output's memory
        eval_block(_times_k(c, k, axis, out=_leading(out, K, K)), g, axis,
                   out=out)
    return GridField(grads[0], g), GridField(grads[1], g)


# ---------------------------------------------------------------------------
# Fine-grid evaluation and dealiased products
# ---------------------------------------------------------------------------

def fine_grid_size(N: int) -> int:
    """Nodes per axis of the advective flux's midpoint grid, ceil(3N/2)."""
    return int(np.ceil(1.5 * N))


@lru_cache(maxsize=16)
def _midpoint_tables(Nf: int) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of m pi (i + 1/2) / Nf at the midpoints i = 0..Nf-1 and
    modes m = 1..Nf-1, each Nf x (Nf-1) and read-only.

    The angle is formed from the integer m (2i + 1) mod 4 Nf, so every entry
    carries the rounding of one angle in [0, 2 pi): at Nf = 54, sin(m x_i)
    in double precision is off by over 1e-14, these tables by under 1e-15.
    """
    reduced = np.outer(2 * np.arange(Nf) + 1, np.arange(1, Nf)) % (4 * Nf)
    angle = reduced * (np.pi / (2 * Nf))
    tables = np.sin(angle), np.cos(angle)
    for table in tables:
        table.setflags(write=False)
    return tables


def eval_fine_mixed(coeffs: np.ndarray, side_length: float, Nf: int,
                    cos_axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """(2/L) sum c_{m,n} (sine factor)(cosine factor) at the Nf x Nf midpoints.

    The cosine factor cos(k x) runs along ``cos_axis`` and the sine factor
    sin(k x) along the other axis; the nodes are x_i = (i + 1/2) L/Nf, with
    L = ``side_length``, and Nf must exceed the mode count.  Up to DENSE_MAX_NF
    nodes the sum is two products with the cached tables of
    :func:`_midpoint_tables`, written into ``out`` (else a new array).
    Above it the coefficients go into an Nf x Nf buffer (``out`` if given)
    behind a zero leading line along ``cos_axis``; a DCT-III along
    ``cos_axis`` over the lines that hold modes and a DST-III along the
    other axis, both of length Nf, evaluate the sum in place.  Use the
    returned array: it is ``out`` unless scipy declined to work in place.
    """
    n = coeffs.shape[0]
    buf = np.empty((Nf, Nf)) if out is None else out
    if Nf <= DENSE_MAX_NF:
        sin, cos = _midpoint_tables(Nf)
        left, right = (sin, cos) if cos_axis == 1 else (cos, sin)
        return _sandwich(left[:, :n], coeffs, right[:, :n],
                         2.0 / side_length, buf)
    # cosine axis last: each of the first n lines holds one sine mode
    view, coeffs = (buf, coeffs) if cos_axis == 1 else (buf.T, coeffs.T)
    view[n:] = 0.0
    lines = view[:n]
    lines[:, 0] = 0.0
    lines[:, n + 1:] = 0.0
    np.copyto(lines[:, 1:n + 1], coeffs)
    cos_vals = _fft().dct(lines, type=3, axis=1, overwrite_x=True)
    if not np.may_share_memory(cos_vals, lines):   # not done in place
        lines[...] = cos_vals
    values = _fft().dst(view, type=3, axis=0, overwrite_x=True)
    # each type-III pass doubles the sum; scaling the whole contiguous
    # result in place avoids numpy's buffer for a strided multiply
    values *= 0.5 / side_length
    return values if cos_axis == 1 else values.T


def forward_fine(values: np.ndarray, side_length: float,
                 n_keep: int) -> np.ndarray:
    """Project midpoint samples back onto the modes 1..n_keep < Nf per axis.

    ``values`` holds samples at the Nf x Nf nodes of :func:`eval_fine_mixed`
    and may be overwritten.  The projection, (2L/Nf^2) S^T values S with
    S the midpoint sine table, is exact for a sine polynomial of degree
    < 2*Nf - n_keep per axis, which covers quadratic products of
    opposite-parity factors (the advective flux).  Same-parity products
    carry cosine content and go through :func:`dealiased_product` instead.
    Up to DENSE_MAX_NF nodes it is two products with the table; above it a
    DST-II pair in place.
    """
    Nf = values.shape[0]
    if Nf <= DENSE_MAX_NF:
        sin_t = _midpoint_tables(Nf)[0][:, :n_keep].T
        return _sandwich(sin_t, values, sin_t, 2.0 * side_length / Nf ** 2)
    rows = _fft().dst(values, type=2, axis=0, overwrite_x=True)[:n_keep]
    coeffs = _fft().dst(rows, type=2, axis=1, overwrite_x=True)
    coeffs *= side_length / (2.0 * Nf ** 2)
    return coeffs[:, :n_keep].copy()


@lru_cache(maxsize=4)
def _closed_grid(side_length: float, Mf: int) -> Geometry:
    """The Mf-grid of the side-L square, whose node tables serve
    :func:`eval_closed`."""
    return Geometry(side_length, Mf, 0.0)


def eval_closed(spec: SpectralField, Mf: int) -> np.ndarray:
    """Evaluate the field at the closed nodes i = 0..Mf of the Mf-grid: its
    support block by :func:`eval_block` on that grid's geometry, zero on
    the boundary."""
    K = _support(spec.coeffs)
    out = np.zeros((Mf + 1, Mf + 1))
    out[1:Mf, 1:Mf] = eval_block(
        spec.coeffs[:K, :K], _closed_grid(spec.geometry.side_length, Mf))
    return out


@lru_cache(maxsize=8)
def _closed_projection(n_keep: int, Mf: int) -> np.ndarray:
    """Q = P D C / Mf, read-only: (2L/pi^2) Q V Q^T projects samples V on
    the closed (Mf+1)^2 grid of a cosine polynomial of degree <= Mf per axis
    onto the sine modes 1..n_keep.  C is the DCT-I, D halves rows q = 0 and
    Mf (D C V C^T D / Mf^2 are the cosine coefficients), and P[p-1, q] =
    2p / (p^2 - q^2) for odd p + q is (pi/L) int cos(q pi x/L) sin(p pi x/L).
    """
    p = np.arange(1, n_keep + 1, dtype=float)[:, None]
    q = np.arange(0, Mf + 1)
    odd = (p + q) % 2 == 1
    P = np.where(odd, 2.0 * p / np.where(odd, p ** 2 - q ** 2, 1.0), 0.0)
    C = np.cos((np.outer(q, q) % (2 * Mf)) * (np.pi / Mf))
    C[:, 1:Mf] *= 2.0
    C[[0, Mf]] *= 0.5
    return _read_only(P @ C / Mf)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product f*g, exactly projected onto the retained modes.

    The product of two degree-(N-1) sine polynomials is a cosine polynomial
    of degree at most 2N-2 per axis, so its samples on the closed 2N-grid
    determine it, and the cached :func:`_closed_projection` Q takes them to
    the exact L^2 projection.  No aliasing error at any retained mode.
    """
    if f.geometry is not g.geometry and not f.geometry.compatible(g.geometry):
        raise ShapeError("dealiased_product requires fields on the same geometry")
    geom = f.geometry
    Mf = 2 * geom.grid_size
    prod = eval_closed(f, Mf) * eval_closed(g, Mf)
    Q = _closed_projection(geom.n_interior, Mf)
    coeffs = _sandwich(Q, prod, Q, 2.0 * geom.side_length / np.pi ** 2)
    return SpectralField(coeffs, geom)
