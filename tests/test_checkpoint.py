"""Binary checkpoint format round trips."""
import struct

import numpy as np
import pytest

from sqgbounds.checkpoint import load_checkpoint, save_checkpoint
from sqgbounds.cli import main
from sqgbounds.errors import ConfigurationError, ShapeError
from sqgbounds.geometry import build_square_geometry
from sqgbounds import spectral as sp


def test_round_trip_bit_exact(tmp_path):
    g = build_square_geometry(32)
    rng = np.random.default_rng(0)
    theta = sp.SpectralField(rng.standard_normal((g.n_interior,) * 2), g)
    path = tmp_path / "state.sqgb"
    save_checkpoint(path, theta, t=0.375, step=1234, config_hash=b"abcdefgh")
    ck = load_checkpoint(path)
    assert np.array_equal(ck.theta.coeffs, theta.coeffs)
    assert ck.t == 0.375 and ck.step == 1234
    assert ck.config_hash == b"abcdefgh"
    assert ck.theta.geometry.grid_size == 32
    assert ck.theta.geometry.side_length == g.side_length


def test_load_with_supplied_geometry(tmp_path):
    g = build_square_geometry(16)
    theta = sp.mode_field(g, 1, 1)
    path = tmp_path / "s.sqgb"
    save_checkpoint(path, theta, t=0.0, step=0)
    ck = load_checkpoint(path, geometry=g)
    assert ck.theta.geometry is g
    other = build_square_geometry(32)
    with pytest.raises(ShapeError):
        load_checkpoint(path, geometry=other)


def test_rejects_bad_magic_and_hash(tmp_path):
    g = build_square_geometry(16)
    theta = sp.mode_field(g, 1, 1)
    path = tmp_path / "s.sqgb"
    with pytest.raises(ConfigurationError):
        save_checkpoint(path, theta, t=0.0, step=0, config_hash=b"short")
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    g = build_square_geometry(16)
    theta = sp.mode_field(g, 1, 1)
    path = tmp_path / "s.sqgb"
    save_checkpoint(path, theta, t=0.0, step=0)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_rejects_truncated_header(tmp_path, capsys):
    g = build_square_geometry(16)
    path = tmp_path / "s.sqgb"
    save_checkpoint(path, sp.mode_field(g, 1, 1), t=0.0, step=0)
    data = path.read_bytes()
    for size in (4, 5, 7, 40):
        path.write_bytes(data[:size])
        with pytest.raises(ConfigurationError, match="truncated"):
            load_checkpoint(path)
    assert main(["diag", str(path)]) == 2
    assert "truncated checkpoint header" in capsys.readouterr().err


def test_save_writes_the_coefficient_buffer_without_a_copy(tmp_path,
                                                           traced_peak):
    """The file is the header and the raw row-major float64 coefficients,
    written from the array's own buffer: no whole-array bytes copy."""
    g = build_square_geometry(512)
    rng = np.random.default_rng(1)
    theta = sp.SpectralField(rng.standard_normal((g.n_interior,) * 2), g)
    path = tmp_path / "big.sqgb"
    save_checkpoint(path, theta, t=0.125, step=7)     # warm the code path
    _, peak = traced_peak(lambda: save_checkpoint(
        path, theta, t=0.125, step=7, config_hash=b"abcdefgh"))
    header = struct.pack("<IdddQ8sII", 512, g.side_length, g.corner_radius,
                         0.125, 7, b"abcdefgh", 511, 511)
    assert path.read_bytes() == (b"SQGB\x01" + header
                                 + theta.coeffs.astype("<f8").tobytes())
    assert peak < 0.5 * theta.coeffs.nbytes
