"""INI run configuration: parsing, validation, and canonical hashing.

``RunConfig`` holds every setting of a run, and ``SolverConfig`` the
integration parameters of :func:`solver.run`.

A config file has sections [meta], [geometry], [solver], [initial],
[diagnostics], [verify], [output]; every key is optional and defaults are
filled in.  Each key is declared once, in ``_SCHEMA``, with the field it
sets, its parser and its rule.  Validation collects every violation before
failing, so a bad file is reported in full rather than one key at a time.
"""
from __future__ import annotations

import configparser
import hashlib
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .geometry import Geometry, build_square_geometry
from .spectral import SpectralField

SCHEMA_VERSION = 1

ENV_OUTPUT_DIR = "SQGBOUNDS_OUTPUT_DIR"

VERIFY_NAMES = (
    "cordoba", "weighted_identity", "lambda_one_lower", "decay_envelope",
    "weighted_lp_control", "weight_norm_bridge", "velocity_log_bound",
    "velocity_conditional_bound", "short_time_smallness",
    "finite_difference_velocity", "normal_velocity_rate",
    "commutator_scaling", "kernel_bounds",
)


@dataclass
class SolverConfig:
    """Integration parameters; drift_mode is "sqg" or "none"."""

    dt: float = 5e-4
    t_end: float = 1.0
    cfl: float = 0.5
    drift_mode: str = "sqg"
    j_sign: float = 1.0
    output_interval: float = 0.1
    max_overshoot: float = 0.01

    def validate(self) -> None:
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigurationError("dt must be positive and t_end nonnegative")
        if self.drift_mode not in ("sqg", "none"):
            raise ConfigurationError(f"unknown drift mode {self.drift_mode!r}")


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


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"numbers must be finite, got {raw.strip()!r}")
    return value


def _nonempty(item: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of ``item``s that must not be empty."""
    def parse(raw: str) -> tuple:
        values = tuple(item(v.strip()) for v in raw.split(",") if v.strip())
        if not values:
            raise ValueError("the list must not be empty")
        return values
    return parse


def _modes(raw: str) -> tuple:
    modes = []
    for chunk in filter(str.strip, raw.split(";")):
        try:
            m, n, amp = chunk.split(",")
            modes.append((int(m), int(n), _finite(amp)))
        except ValueError:
            raise ValueError(f"cannot parse entry {chunk.strip()!r}") from None
    return tuple(modes)


class _Key(NamedTuple):
    """One INI key: where it lives, the field it sets and what it accepts."""

    section: str
    key: str
    field: str
    parse: Callable[[str], object]
    rule: Callable[[object], bool] = lambda value: True
    requirement: str = ""


_POSITIVE = (lambda v: v > 0, "must be positive")

_SCHEMA = (
    _Key("meta", "schema_version", "schema_version", int,
         lambda v: v == SCHEMA_VERSION, f"expected {SCHEMA_VERSION}"),
    _Key("geometry", "grid_size", "grid_size", int,
         lambda v: v >= 8, "N >= 8 required"),
    _Key("geometry", "side_length", "side_length", _finite, *_POSITIVE),
    _Key("geometry", "corner_radius", "corner_radius", _finite,
         lambda v: v >= 0, "must be >= 0"),
    _Key("solver", "dt", "dt", _finite, *_POSITIVE),
    _Key("solver", "t_end", "t_end", _finite, *_POSITIVE),
    _Key("solver", "cfl", "cfl", _finite,
         lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    _Key("solver", "drift_mode", "drift_mode", str,
         lambda v: v in ("sqg", "none"), "'sqg' or 'none'"),
    _Key("solver", "j_sign", "j_sign", _finite,
         lambda v: v in (1, -1), "must be 1 or -1"),
    _Key("solver", "output_interval", "output_interval", _finite, *_POSITIVE),
    _Key("solver", "max_overshoot", "max_overshoot", _finite,
         lambda v: v >= 0, "must be >= 0"),
    _Key("initial", "modes", "modes", _modes,
         lambda v: all(min(m, n) >= 1 for m, n, _ in v),
         "mode indices must be >= 1"),
    _Key("diagnostics", "ps", "ps", _nonempty(_finite),
         lambda v: min(v) >= 1, "exponents must be >= 1"),
    _Key("diagnostics", "ms", "ms", _nonempty(int),
         lambda v: min(v) >= 1, "moment indices must be >= 1"),
    _Key("diagnostics", "alphas", "alphas", _nonempty(_finite),
         lambda v: all(0 < a < 1 for a in v), "exponents must lie in (0, 1)"),
    _Key("verify", "names", "verify_names", _nonempty(str),
         lambda v: set(v) <= set(VERIFY_NAMES),
         f"operations must come from {', '.join(VERIFY_NAMES)}"),
    _Key("verify", "seed", "seed", int, lambda v: v >= 0, "must be >= 0"),
    _Key("verify", "sample_count", "sample_count", int,
         lambda v: v >= 1, "must be >= 1"),
    _Key("verify", "phi", "phi", str,
         lambda v: v in ("square", "hinge", "cubic"),
         "'square', 'hinge' or 'cubic'"),
    _Key("verify", "hinge_threshold", "hinge_threshold", _finite),
    _Key("output", "directory", "output_dir", str),
)


def load_config(path) -> RunConfig:
    """Parse and validate; raises ConfigurationError listing all violations."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    known = {(row.section, row.key) for row in _SCHEMA}
    errors: list[str] = []
    for section in parser.sections():
        if section not in {row.section for row in _SCHEMA}:
            errors.append(f"unknown section [{section}]")
            continue
        errors += [f"unknown key {section}.{key}" for key in parser[section]
                   if (section, key) not in known]

    cfg = RunConfig()
    for row in _SCHEMA:
        if not parser.has_option(row.section, row.key):
            continue
        where = f"{row.section}.{row.key}"
        try:
            value = row.parse(parser.get(row.section, row.key))
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            continue
        if row.rule(value):
            setattr(cfg, row.field, value)
        else:
            errors.append(f"{where}: {row.requirement}, got {value!r}")
    if os.environ.get(ENV_OUTPUT_DIR):
        cfg.output_dir = os.environ[ENV_OUTPUT_DIR]

    # the rules that read two fields
    if cfg.corner_radius is not None and (
            cfg.corner_radius >= cfg.side_length / 4):
        errors.append(f"geometry.corner_radius: must be < L/4, "
                      f"got {cfg.corner_radius!r}")
    errors += [f"initial.modes: mode ({m},{n}) exceeds the grid"
               for m, n, _ in cfg.modes if max(m, n) > cfg.grid_size - 1]

    if errors:
        raise ConfigurationError(
            "invalid config:\n  " + "\n  ".join(errors))
    return cfg
