"""Workload inputs, fine-dt references and output checks for the benchmark.

A workload is one ``sqgbounds`` CLI command on a config derived from
``configs/default.cfg``.  The seed picks one entry of a fixed pool of initial
data: pool entry 0 is the default config's modes, and every other entry adds
small seeded amplitudes to the four lowest modes.  Each run-workload input has
a committed fine-dt reference under ``refs/``, generated only by
``make_refs.py``, because a dt/16 Heun reference costs far longer than one
benchmark run; an input without one fails its accuracy check.

Importing this module does not import ``sqgbounds``; the functions that need
it import it when called, after ``src/`` is on ``sys.path``.
"""
from __future__ import annotations

import configparser
import hashlib
import math
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
DEFAULT_CFG = REPO_ROOT / "configs" / "default.cfg"
WORK_DIR = BENCH_DIR / "_work"
REFS_DIR = BENCH_DIR / "refs"
MANIFEST = REFS_DIR / "manifest.json"

POOL_SIZE = 8               # distinct inputs; seed -> seed % POOL_SIZE
PERTURBATION = 0.01         # max |amplitude| added to each low mode
REF_FACTOR = 16             # reference dt = dt / REF_FACTOR
REF_BLOCK = 63              # leading modes per axis stored in a reference
REF_TAIL_LIMIT = 1e-14      # max relative L2 norm of the discarded modes

# Correctness gates of one run invocation.
LEDGER_GATE = 1e-6          # the acceptance suite's energy-ledger gate
ACCURACY_BOUND = 1e-6       # max final_rel_err against the fine-dt reference
COMMUTATOR_SLOPE = -1.0     # analytic log-log slope of ||C_h|| against d

# Pinned here rather than read from sqgbounds.config, so that verify_all and
# its per-family metric names stay fixed when the program changes.
VERIFY_FAMILIES = (
    "cordoba", "weighted_identity", "lambda_one_lower", "decay_envelope",
    "weighted_lp_control", "weight_norm_bridge", "velocity_log_bound",
    "velocity_conditional_bound", "short_time_smallness",
    "finite_difference_velocity", "normal_velocity_rate",
    "commutator_scaling", "kernel_bounds",
)

# name -> (CLI command, config overrides on top of configs/default.cfg)
WORKLOADS = {
    "run_default": ("run", {}),
    "run_large_dense": ("run", {"geometry": {"grid_size": "512"},
                                "solver": {"t_end": "0.06",
                                           "output_interval": "0.004"}}),
    "verify_all": ("verify", {}),
}


def pool_index(seed: int) -> int:
    return seed % POOL_SIZE


def initial_modes(seed: int) -> tuple:
    """(m, n, amplitude) triples of the initial field for ``seed``."""
    amps = {(1, 1): 1.0, (2, 1): 0.5}
    k = pool_index(seed)
    if k:
        rng = np.random.default_rng(k)
        for mode in ((1, 1), (1, 2), (2, 1), (2, 2)):
            amps[mode] = amps.get(mode, 0.0) + float(
                rng.uniform(-PERTURBATION, PERTURBATION))
    return tuple((m, n, a) for (m, n), a in sorted(amps.items()))


def write_config(workload: str, seed: int, output_dir, path) -> None:
    """Write the INI config of ``workload`` at ``seed`` to ``path``."""
    _, overrides = WORKLOADS[workload]
    cp = configparser.ConfigParser()
    cp.read(DEFAULT_CFG)
    for section, items in overrides.items():
        for key, value in items.items():
            cp[section][key] = value
    cp["initial"]["modes"] = "; ".join(
        f"{m},{n},{a!r}" for m, n, a in initial_modes(seed))
    cp["verify"]["seed"] = str(pool_index(seed))
    cp["output"]["directory"] = str(output_dir)
    with open(path, "w") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# Fine-dt references
# ---------------------------------------------------------------------------

def reference_key(cfg) -> str:
    """Digest of the inputs that determine a run's reference final state."""
    text = (f"N={cfg.grid_size};L={cfg.side_length!r};"
            f"radius={cfg.geometry().corner_radius!r};dt={cfg.dt!r};"
            f"t_end={cfg.t_end!r};cfl={cfg.cfl!r};drift={cfg.drift_mode};"
            f"j_sign={cfg.j_sign!r};modes={tuple(cfg.modes)!r};"
            f"factor={REF_FACTOR}")
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def reference_path(cfg) -> Path | None:
    """The committed reference of ``cfg``, or None if there is none."""
    path = REFS_DIR / f"{reference_key(cfg)}.sqgb"
    return path if path.exists() else None


def make_reference(cfg, directory: Path) -> tuple[Path, dict]:
    """Integrate ``cfg`` with Heun at dt/REF_FACTOR and save its final state.

    Only the leading REF_BLOCK x REF_BLOCK modes are stored, as a checkpoint
    on the (REF_BLOCK + 1)-grid; the discarded modes must carry less than
    REF_TAIL_LIMIT of the state's L2 norm.
    """
    from sqgbounds.checkpoint import save_checkpoint
    from sqgbounds.geometry import build_square_geometry
    from sqgbounds.solver import run
    from sqgbounds.spectral import SpectralField

    key = reference_key(cfg)
    g = cfg.geometry()
    sc = cfg.solver_config()
    sc.dt = cfg.dt / REF_FACTOR
    sc.output_interval = cfg.t_end
    t0 = time.perf_counter()
    result = run(cfg.initial_field(g), sc)
    seconds = time.perf_counter() - t0
    if result.rejected_steps:
        raise RuntimeError(f"reference {key} needed CFL rejections")
    final = result.snapshots[-1]
    coeffs = final.theta.coeffs
    block = coeffs[:REF_BLOCK, :REF_BLOCK].copy()
    outside = float((coeffs[REF_BLOCK:] ** 2).sum()
                    + (coeffs[:REF_BLOCK, REF_BLOCK:] ** 2).sum())
    tail = math.sqrt(outside / float((coeffs ** 2).sum()))
    if tail > REF_TAIL_LIMIT:
        raise RuntimeError(f"reference {key}: discarded modes carry {tail:.2e}")
    small = build_square_geometry(REF_BLOCK + 1, g.side_length)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.sqgb"
    save_checkpoint(path, SpectralField(block, small), final.t, final.step,
                    bytes.fromhex(key))
    info = {"grid_size": cfg.grid_size, "dt": cfg.dt, "t_end": cfg.t_end,
            "modes": [list(m) for m in cfg.modes], "factor": REF_FACTOR,
            "steps": final.step, "generate_s": round(seconds, 3),
            "tail_rel": tail}
    return path, info


def final_rel_err(final_path, ref_path) -> float:
    """Relative coefficient L2 error of a final checkpoint against a reference."""
    from sqgbounds.checkpoint import load_checkpoint

    ref = load_checkpoint(ref_path)
    final = load_checkpoint(final_path)
    if abs(final.t - ref.t) > 1e-9:
        raise ValueError(f"final time {final.t} differs from reference {ref.t}")
    diff = final.theta.coeffs.copy()
    k = ref.theta.coeffs.shape[0]
    diff[:k, :k] -= ref.theta.coeffs
    return float(np.linalg.norm(diff) / np.linalg.norm(ref.theta.coeffs))


# ---------------------------------------------------------------------------
# Output checks: each returns (attempted, failed, values, reasons)
# ---------------------------------------------------------------------------

def read_fields(path) -> dict:
    """``key: value`` lines of a run summary or a verify report."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def check_run(output_dir, exit_code: int, ref_path, n_records: int):
    """One run invocation: exit code, monitors, ledger gate, accuracy, files."""
    from sqgbounds.errors import SqgError

    output_dir = Path(output_dir)
    reasons = []
    values = {}
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    try:
        summary = read_fields(output_dir / "run_summary.txt")
        values["ledger_residual"] = float(summary["ledger_residual"])
        if summary["overshoot_flag"] != "False":
            reasons.append("overshoot monitor flagged")
        if summary["holder_flag"] != "False":
            reasons.append("Hölder monitor flagged")
        if not values["ledger_residual"] < LEDGER_GATE:
            reasons.append(f"ledger residual {values['ledger_residual']:.3e}")
        if ref_path is None:
            reasons.append("no committed reference for this input; "
                           "generate it with perfbench/make_refs.py")
        else:
            values["final_rel_err"] = final_rel_err(
                output_dir / "final.sqgb", ref_path)
            if not values["final_rel_err"] <= ACCURACY_BOUND:
                reasons.append(f"final_rel_err {values['final_rel_err']:.3e} "
                               f"above {ACCURACY_BOUND:.1e}")
        with open(output_dir / "diagnostics.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n_records:
            reasons.append(f"{rows} diagnostics rows, expected {n_records}")
    except (OSError, KeyError, ValueError, SqgError) as exc:
        reasons.append(f"unreadable output: {exc}")
    return 1, int(bool(reasons)), values, reasons


def check_verify(output_dir, exit_code: int):
    """One verify invocation: each family is one operation."""
    output_dir = Path(output_dir)
    reasons = []
    failing = set()
    values = {}
    for name in VERIFY_FAMILIES:
        try:
            report = read_fields(output_dir / f"{name}.txt")
            if report.get("pass") != "True":
                reasons.append(f"{name}: verdict {report.get('pass')}")
                failing.add(name)
            if name == "commutator_scaling":
                slope = float(report["constant slope"])
                values["final_rel_err"] = \
                    abs(slope - COMMUTATOR_SLOPE) / abs(COMMUTATOR_SLOPE)
        except (OSError, KeyError, ValueError) as exc:
            reasons.append(f"{name}: unreadable report ({exc})")
            failing.add(name)
    if exit_code != 0 and not failing:
        reasons.append(f"exit code {exit_code} with every report passing")
        failing.add("exit code")
    return len(VERIFY_FAMILIES), len(failing), values, reasons
