"""Flat binary checkpoints: magic "SQGB", version byte, little-endian payload.

Layout after the 5 header bytes:
    uint32  grid size N
    float64 side length L
    float64 corner radius
    float64 time t
    uint64  step count
    8 bytes config hash (caller-supplied digest prefix)
    uint32  rows, uint32 cols
    rows*cols float64 coefficients, row-major

Round trips are bit-exact.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .geometry import Geometry, build_square_geometry
from .spectral import SpectralField

MAGIC = b"SQGB"
VERSION = 1
_HEADER = struct.Struct("<IdddQ8sII")


@dataclass
class Checkpoint:
    theta: SpectralField
    t: float
    step: int
    config_hash: bytes


def save_checkpoint(path, theta: SpectralField, t: float, step: int,
                    config_hash: bytes = b"\x00" * 8) -> None:
    g = theta.geometry
    coeffs = np.ascontiguousarray(theta.coeffs, dtype="<f8")
    if len(config_hash) != 8:
        raise ConfigurationError("config hash must be exactly 8 bytes")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(_HEADER.pack(g.grid_size, g.side_length, g.corner_radius,
                              float(t), int(step), config_hash,
                              coeffs.shape[0], coeffs.shape[1]))
        fh.write(coeffs.data)     # the buffer itself: no bytes copy


def load_checkpoint(path, geometry: Geometry | None = None) -> Checkpoint:
    """Read a checkpoint; rebuilds the geometry unless a matching one is given."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ConfigurationError(f"bad checkpoint magic {magic!r}")
        header = fh.read(1 + _HEADER.size)
        if len(header) != 1 + _HEADER.size:
            raise ConfigurationError("truncated checkpoint header")
        version = header[0]
        if version != VERSION:
            raise ConfigurationError(f"unsupported checkpoint version {version}")
        N, L, radius, t, step_count, config_hash, rows, cols = _HEADER.unpack(
            header[1:])
        payload = fh.read(rows * cols * 8)
    if len(payload) != rows * cols * 8:
        raise ConfigurationError("truncated checkpoint payload")
    coeffs = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if geometry is None:
        geometry = build_square_geometry(N, side_length=L, corner_radius=radius)
    elif geometry.grid_size != N or geometry.side_length != L:
        raise ShapeError("checkpoint geometry does not match the supplied one")
    if (rows, cols) != (geometry.n_interior, geometry.n_interior):
        raise ShapeError("coefficient block does not match the geometry")
    return Checkpoint(theta=SpectralField(coeffs, geometry, tag="theta"),
                      t=t, step=step_count, config_hash=config_hash)
