"""INI run configuration: parsing, validation, and canonical hashing.

A config file has sections [geometry], [solver], [initial], [diagnostics],
[verify], [output]; every key is optional and defaults are filled in.
Validation collects every violation before failing, so a bad file is
reported in full rather than one key at a time.
"""
from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import Geometry, build_square_geometry
from .solver import SolverConfig
from .spectral import SpectralField

SCHEMA_VERSION = 1

ENV_OUTPUT_DIR = "SQGBOUNDS_OUTPUT_DIR"

_KNOWN = {
    "meta": {"schema_version"},
    "geometry": {"grid_size", "side_length", "corner_radius"},
    "solver": {"dt", "t_end", "cfl", "drift_mode", "j_sign",
               "output_interval", "max_overshoot"},
    "initial": {"modes"},
    "diagnostics": {"ps", "ms", "alphas"},
    "verify": {"names", "seed", "sample_count", "phi", "hinge_threshold"},
    "output": {"directory"},
}

VERIFY_NAMES = (
    "cordoba", "weighted_identity", "lambda_one_lower", "decay_envelope",
    "weighted_lp_control", "weight_norm_bridge", "velocity_log_bound",
    "velocity_conditional_bound", "short_time_smallness",
    "finite_difference_velocity", "normal_velocity_rate",
    "commutator_scaling", "kernel_bounds",
)


@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    grid_size: int = 128
    side_length: float = float(np.pi)
    corner_radius: float | None = None      # None: geometry default
    dt: float = 5e-4
    t_end: float = 1.0
    cfl: float = 0.5
    drift_mode: str = "sqg"
    j_sign: float = 1.0
    output_interval: float = 0.1
    max_overshoot: float = 0.01
    modes: tuple = ((1, 1, 1.0), (2, 1, 0.5))
    ps: tuple = (2.0, 4.0)
    ms: tuple = (2,)
    alphas: tuple = (0.4,)
    verify_names: tuple = VERIFY_NAMES
    seed: int = 0
    sample_count: int = 1200
    phi: str = "square"
    hinge_threshold: float = 0.5
    output_dir: str = "out"

    def geometry(self) -> Geometry:
        if self.corner_radius is None:
            return build_square_geometry(self.grid_size, self.side_length)
        return build_square_geometry(self.grid_size, self.side_length,
                                     self.corner_radius)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(dt=self.dt, t_end=self.t_end, cfl=self.cfl,
                            drift_mode=self.drift_mode, j_sign=self.j_sign,
                            output_interval=self.output_interval,
                            max_overshoot=self.max_overshoot)

    def initial_field(self, geometry: Geometry) -> SpectralField:
        c = np.zeros((geometry.n_interior,) * 2)
        for m, n, amp in self.modes:
            c[m - 1, n - 1] = amp
        return SpectralField(c, geometry, tag="initial")

    def canonical_text(self) -> str:
        """Every setting but ``output_dir``: where a run writes is not the problem."""
        items = sorted(self.__dict__.items())
        return "\n".join(f"{k}={v!r}" for k, v in items if k != "output_dir")

    def config_hash(self) -> bytes:
        return hashlib.blake2b(self.canonical_text().encode(),
                               digest_size=8).digest()


def _parse_modes(text: str, errors: list) -> tuple:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        try:
            m, n, amp = int(parts[0]), int(parts[1]), float(parts[2])
        except (ValueError, IndexError):
            errors.append(f"initial.modes: cannot parse entry {chunk!r}")
            continue
        if m < 1 or n < 1:
            errors.append(f"initial.modes: indices must be >= 1 in {chunk!r}")
            continue
        out.append((m, n, amp))
    return tuple(out)


def _parse_floats(text: str, key: str, errors: list) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        errors.append(f"{key}: expected comma-separated numbers, got {text!r}")
        return ()


def load_config(path) -> RunConfig:
    """Parse and validate; raises ConfigurationError listing all violations."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _KNOWN[section]:
                errors.append(f"unknown key {section}.{key}")

    cfg = RunConfig()

    def get(section, key, cast, current):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError:
                errors.append(f"{section}.{key}: cannot parse {raw!r}")
        return current

    cfg.schema_version = get("meta", "schema_version", int, cfg.schema_version)
    cfg.grid_size = get("geometry", "grid_size", int, cfg.grid_size)
    cfg.side_length = get("geometry", "side_length", float, cfg.side_length)
    cfg.corner_radius = get("geometry", "corner_radius", float,
                            cfg.corner_radius)
    cfg.dt = get("solver", "dt", float, cfg.dt)
    cfg.t_end = get("solver", "t_end", float, cfg.t_end)
    cfg.cfl = get("solver", "cfl", float, cfg.cfl)
    cfg.drift_mode = get("solver", "drift_mode", str, cfg.drift_mode)
    cfg.j_sign = get("solver", "j_sign", float, cfg.j_sign)
    cfg.output_interval = get("solver", "output_interval", float,
                              cfg.output_interval)
    cfg.max_overshoot = get("solver", "max_overshoot", float,
                            cfg.max_overshoot)
    if parser.has_option("initial", "modes"):
        cfg.modes = _parse_modes(parser.get("initial", "modes"), errors)
    for key in ("ps", "ms", "alphas"):
        if parser.has_option("diagnostics", key):
            vals = _parse_floats(parser.get("diagnostics", key),
                                 f"diagnostics.{key}", errors)
            setattr(cfg, key, tuple(int(v) for v in vals)
                    if key == "ms" else vals)
    if parser.has_option("verify", "names"):
        names = tuple(n.strip() for n in
                      parser.get("verify", "names").split(",") if n.strip())
        cfg.verify_names = names
    cfg.seed = get("verify", "seed", int, cfg.seed)
    cfg.sample_count = get("verify", "sample_count", int, cfg.sample_count)
    cfg.phi = get("verify", "phi", str, cfg.phi)
    cfg.hinge_threshold = get("verify", "hinge_threshold", float,
                              cfg.hinge_threshold)
    cfg.output_dir = get("output", "directory", str, cfg.output_dir)
    if os.environ.get(ENV_OUTPUT_DIR):
        cfg.output_dir = os.environ[ENV_OUTPUT_DIR]

    # range validation, collecting everything
    if cfg.schema_version != SCHEMA_VERSION:
        errors.append(f"meta.schema_version: expected {SCHEMA_VERSION}, "
                      f"got {cfg.schema_version}")
    if cfg.grid_size < 8:
        errors.append(f"geometry.grid_size: N >= 8 required, got {cfg.grid_size}")
    if cfg.side_length <= 0:
        errors.append("geometry.side_length: must be positive")
    if cfg.corner_radius is not None and not (
            0 <= cfg.corner_radius < cfg.side_length / 4):
        errors.append("geometry.corner_radius: must lie in [0, L/4)")
    if cfg.dt <= 0:
        errors.append("solver.dt: must be positive")
    if cfg.t_end <= 0:
        errors.append("solver.t_end: must be positive")
    if not 0 < cfg.cfl <= 1:
        errors.append("solver.cfl: must lie in (0, 1]")
    if cfg.drift_mode not in ("sqg", "none"):
        errors.append(f"solver.drift_mode: 'sqg' or 'none', got {cfg.drift_mode!r}")
    if cfg.output_interval <= 0:
        errors.append("solver.output_interval: must be positive")
    for m, n, _ in cfg.modes:
        if max(m, n) > cfg.grid_size - 1:
            errors.append(f"initial.modes: mode ({m},{n}) exceeds the grid")
    if any(not 0 < a < 1 for a in cfg.alphas):
        errors.append("diagnostics.alphas: exponents must lie in (0, 1)")
    if any(p < 1 for p in cfg.ps):
        errors.append("diagnostics.ps: exponents must be >= 1")
    if any(m < 1 for m in cfg.ms):
        errors.append("diagnostics.ms: moment indices must be >= 1")
    for name in cfg.verify_names:
        if name not in VERIFY_NAMES:
            errors.append(f"verify.names: unknown operation {name!r}")
    if cfg.sample_count < 1:
        errors.append("verify.sample_count: must be >= 1")
    if cfg.phi not in ("square", "hinge", "cubic"):
        errors.append(f"verify.phi: 'square', 'hinge' or 'cubic', got {cfg.phi!r}")

    if errors:
        raise ConfigurationError(
            "invalid config:\n  " + "\n  ".join(errors))
    return cfg
