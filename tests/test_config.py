"""Config parsing: defaults, collected violations, hashing."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from sqgbounds.config import _SCHEMA, RunConfig, SolverConfig, load_config
from sqgbounds.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[1]


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[geometry]\ngrid_size = 64\n"))
    assert cfg.grid_size == 64
    assert cfg.side_length == pytest.approx(np.pi)
    assert cfg.cfl == 0.5
    assert cfg.dt == 5e-4
    assert cfg.schema_version == 1


def test_empty_config_is_all_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.grid_size == 128 and cfg.drift_mode == "sqg"


def test_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_config("/nonexistent/run.cfg")


def test_small_grid_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="N >= 8"):
        load_config(write(tmp_path, "[geometry]\ngrid_size = 4\n"))


def test_unknown_key_rejected_by_name(tmp_path):
    with pytest.raises(ConfigurationError, match="geometry.gird_size"):
        load_config(write(tmp_path, "[geometry]\ngird_size = 64\n"))


def test_all_violations_collected(tmp_path):
    text = ("[geometry]\ngrid_size = 4\nside_length = -1\ncorner_radius = 1\n"
            "[solver]\ncfl = 2.0\ndrift_mode = warp\n")
    with pytest.raises(ConfigurationError) as err:
        load_config(write(tmp_path, text))
    msg = str(err.value)
    for frag in ("N >= 8", "side_length", "corner_radius: must be < L/4",
                 "cfl", "drift_mode"):
        assert frag in msg


def test_schema_version_checked(tmp_path):
    with pytest.raises(ConfigurationError, match="schema_version"):
        load_config(write(tmp_path, "[meta]\nschema_version = 9\n"))


def test_modes_parsing(tmp_path):
    cfg = load_config(write(tmp_path,
                            "[initial]\nmodes = 1,1,1.0; 3,2,-0.25\n"))
    assert cfg.modes == ((1, 1, 1.0), (3, 2, -0.25))
    with pytest.raises(ConfigurationError, match="modes"):
        load_config(write(tmp_path, "[initial]\nmodes = 0,1,1.0\n"))
    with pytest.raises(ConfigurationError, match="exceeds the grid"):
        load_config(write(tmp_path,
                          "[geometry]\ngrid_size = 8\n"
                          "[initial]\nmodes = 99,1,1.0\n"))


def test_verify_names_validated(tmp_path):
    cfg = load_config(write(tmp_path,
                            "[verify]\nnames = cordoba, kernel_bounds\n"))
    assert cfg.verify_names == ("cordoba", "kernel_bounds")
    with pytest.raises(ConfigurationError, match="mystery"):
        load_config(write(tmp_path, "[verify]\nnames = mystery\n"))


def test_env_output_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SQGBOUNDS_OUTPUT_DIR", "/tmp/elsewhere")
    cfg = load_config(write(tmp_path, "[output]\ndirectory = here\n"))
    assert cfg.output_dir == "/tmp/elsewhere"


def test_config_hash_is_stable_and_sensitive(tmp_path, monkeypatch):
    monkeypatch.delenv("SQGBOUNDS_OUTPUT_DIR", raising=False)
    a = load_config(write(tmp_path, "[geometry]\ngrid_size = 64\n"))
    b = load_config(write(tmp_path, "[geometry]\ngrid_size = 64\n"))
    c = load_config(write(tmp_path, "[geometry]\ngrid_size = 32\n"))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 8
    # where a run writes is not part of the problem
    d = load_config(write(tmp_path, "[geometry]\ngrid_size = 64\n"
                                    "[output]\ndirectory = elsewhere\n"))
    assert d.output_dir != a.output_dir
    assert d.config_hash() == a.config_hash()


def test_initial_field_matches_modes(tmp_path):
    cfg = load_config(write(tmp_path, "[geometry]\ngrid_size = 16\n"
                                      "[initial]\nmodes = 2,3,0.7\n"))
    g = cfg.geometry()
    theta = cfg.initial_field(g)
    assert theta.coeffs[1, 2] == 0.7
    assert np.count_nonzero(theta.coeffs) == 1


FLOAT_KEYS = (("geometry", "side_length"), ("geometry", "corner_radius"),
              ("solver", "dt"), ("solver", "t_end"), ("solver", "cfl"),
              ("solver", "output_interval"), ("solver", "max_overshoot"),
              ("diagnostics", "ps"), ("diagnostics", "alphas"),
              ("verify", "hinge_threshold"))


def test_non_finite_numbers_rejected(tmp_path):
    for section, key in FLOAT_KEYS:
        for value in ("nan", "inf", "-inf"):
            text = f"[{section}]\n{key} = {value}\n"
            with pytest.raises(ConfigurationError,
                               match=f"{section}.{key}: numbers must be"):
                load_config(write(tmp_path, text))
    with pytest.raises(ConfigurationError, match="initial.modes"):
        load_config(write(tmp_path, "[initial]\nmodes = 1,1,nan\n"))


def test_empty_lists_rejected(tmp_path):
    for section, key in (("diagnostics", "ps"), ("diagnostics", "ms"),
                         ("diagnostics", "alphas"), ("verify", "names")):
        with pytest.raises(ConfigurationError,
                           match=f"{section}.{key}: the list must not be"):
            load_config(write(tmp_path, f"[{section}]\n{key} = , \n"))


def test_out_of_range_values_rejected(tmp_path):
    for text, where in (("[verify]\nseed = -1\n", "verify.seed"),
                        ("[solver]\nmax_overshoot = -1\n",
                         "solver.max_overshoot"),
                        ("[diagnostics]\nms = 2.7\n", "diagnostics.ms"),
                        ("[solver]\nj_sign = 0\n", "solver.j_sign"),
                        ("[solver]\nj_sign = 0.5\n", "solver.j_sign")):
        with pytest.raises(ConfigurationError, match=where):
            load_config(write(tmp_path, text))
    cfg = load_config(write(tmp_path, "[solver]\nj_sign = -1\n"
                                      "[diagnostics]\nms = 2, 3\n"
                                      "[verify]\nseed = 0\nphi = cubic\n"))
    assert cfg.j_sign == -1.0 and cfg.ms == (2, 3) and cfg.seed == 0
    assert all(type(m) is int for m in cfg.ms)


def test_config_hash_is_pinned_and_each_field_has_one_key(
        tmp_path, monkeypatch, import_perfbench):
    """Checkpoint headers carry these digests; the schema must keep them."""
    monkeypatch.delenv("SQGBOUNDS_OUTPUT_DIR", raising=False)
    default = load_config(REPO / "configs" / "default.cfg")
    assert default.config_hash().hex() == "624119708a4cf5a7"
    workloads = import_perfbench("workloads")
    path = tmp_path / "large.cfg"
    workloads.write_config("run_large_dense", 0, tmp_path / "out", path)
    assert load_config(path).config_hash().hex() == "586a5513560d7eca"
    assert sorted(row.field for row in _SCHEMA) == sorted(
        f.name for f in dataclasses.fields(RunConfig))


def test_every_solver_setting_has_a_config_key():
    """Each SolverConfig field is a RunConfig field with a schema row, so an
    INI file reaches every solver setting."""
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    keyed = {row.field for row in _SCHEMA}
    for f in dataclasses.fields(SolverConfig):
        assert f.name in run_fields and f.name in keyed, f.name
