"""Command-line entry points: run, verify, diag.

``run`` writes each snapshot as the solver takes it, on the solver's
thread: its diagnostics row and its checkpoint, in snapshot order.  No state
array is kept per snapshot, only the four scalars the Hölder monitor reads.
``final.sqgb`` and ``run_summary.txt`` are written last and mark a finished
run.

``verify`` runs its families in two lanes, which take about equally long:
``commutator_scaling``, the largest, on the calling thread, and every other
requested family, in request order, on one helper thread.  In process, on a
2-core VM with one BLAS thread, the commutator lane takes 0.23-0.34 s and
the helper lane 0.22-0.35 s (11 runs each).  The lanes share
no mutable state: they read separate geometries (the config's N and a 2048
grid), and only the helper lane runs the drift-free solver run that the
decay families share.  The reports come back in request order, so what is
printed and written, and the exit code, do not depend on the lanes; an
exception in either lane reaches the caller after the helper thread has
finished.

Exit codes: 0 clean, 1 when ``verify`` finds a failing family, 2 on
configuration/numeric failure, 3 when a run finishes but a monitor
(overshoot, energy ledger or Hölder persistence) flagged it; the outputs
are fully written before a code-1 or code-3 exit.  After a code-2 numeric
failure the rows and checkpoints up to the last snapshot remain, and
neither marker exists.
"""
from __future__ import annotations

import argparse
import glob
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from . import inequalities as iq
from .checkpoint import load_checkpoint, save_checkpoint
from .config import VERIFY_NAMES, RunConfig, load_config
from .diagnostics import (DiagnosticsRecord, append_csv, boundary_ratio,
                          csv_columns, csv_row, record, record_workspace)
from .errors import ConfigurationError, NumericError, SqgError
from .geometry import build_square_geometry
from .operators import PHI_SQUARE, ConvexFn, riesz_velocity, softplus_hinge
from .solver import SolverState, run
from .spectral import inverse, mode_field

# largest energy-ledger residual of a run that exits 0; not a config key,
# so that config_hash and the checkpoints' bytes do not depend on it
LEDGER_TOL = 1e-6


def _phi(cfg: RunConfig) -> ConvexFn:
    if cfg.phi == "square":
        return PHI_SQUARE
    if cfg.phi == "hinge":
        return softplus_hinge(cfg.hinge_threshold)
    return ConvexFn(lambda z: z ** 3, lambda z: 3.0 * z ** 2, "cubic")


class _HolderSample(NamedTuple):
    """The part of one diagnostics record that the Hölder monitor reads."""

    t: float
    holder: float       # Hölder seminorm at the first configured alpha
    b1_lp: float        # ||b_1||_p at the largest configured p
    lipschitz: float


def _holder_sample(rec: DiagnosticsRecord, cfg: RunConfig) -> _HolderSample:
    return _HolderSample(rec.t, rec.holder[cfg.alphas[0]],
                        rec.b1_lp[max(cfg.ps)], rec.lipschitz)


def _holder_monitor(samples, cfg: RunConfig) -> tuple[bool, float]:
    """Fit K on the first 10% of the run, then check every later sample."""
    h0 = samples[0].holder
    B = max(s.b1_lp for s in samples)
    M = max(s.lipschitz for s in samples)
    unit = B * (M + 1.0)
    k_fit = 0.0
    for s in samples:
        if s.t <= 0.1 * cfg.t_end and unit > 0:
            k_fit = max(k_fit, (s.holder - 2.0 * h0) / unit)
    bound = 2.0 * h0 + k_fit * unit
    violated = any(s.holder > bound * (1.0 + 1e-9) + 1e-12 for s in samples)
    return violated, k_fit


def cmd_run(cfg: RunConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    g = cfg.geometry()
    theta0 = cfg.initial_field(g)
    csv_path = os.path.join(cfg.output_dir, "diagnostics.csv")
    final_path = os.path.join(cfg.output_dir, "final.sqgb")
    summary = os.path.join(cfg.output_dir, "run_summary.txt")
    # rows are appended, final.sqgb and run_summary.txt mark a finished run,
    # and the checkpoints must be this run's: none of them may survive from
    # an older run (a resumed run must spare the checkpoint it resumes from)
    stale = glob.glob(os.path.join(glob.escape(cfg.output_dir),
                                   "checkpoint_*.sqgb"))
    for path in (csv_path, final_path, summary, *stale):
        if os.path.exists(path):
            os.remove(path)
    config_hash = cfg.config_hash()
    samples: list[_HolderSample] = []
    work = record_workspace(g)          # every record's grid arrays

    def write_snapshot(state: SolverState) -> None:
        rec = record(state, ps=cfg.ps, ms=cfg.ms, alphas=cfg.alphas,
                     work=work)
        samples.append(_holder_sample(rec, cfg))
        append_csv(csv_path, rec)
        ck = os.path.join(cfg.output_dir, f"checkpoint_{state.step:06d}.sqgb")
        save_checkpoint(ck, state.theta, state.t, state.step, config_hash)

    result = run(theta0, cfg.solver_config(), on_snapshot=write_snapshot)
    final = result.snapshots[-1]
    save_checkpoint(final_path, final.theta, final.t, final.step, config_hash)
    holder_flag, k_fit = _holder_monitor(samples, cfg)
    ledger_flag = result.ledger_residual > LEDGER_TOL
    with open(summary, "w") as fh:
        fh.write(f"t_end: {final.t!r}\n"
                 f"steps: {final.step}\n"
                 f"ledger_residual: {result.ledger_residual!r}\n"
                 f"ledger_flag: {ledger_flag}\n"
                 f"max_overshoot: {result.max_overshoot!r}\n"
                 f"overshoot_flag: {result.overshoot_flag}\n"
                 f"holder_flag: {holder_flag}\n"
                 f"holder_k_fit: {k_fit!r}\n"
                 f"rejected_steps: {result.rejected_steps}\n"
                 f"live_modes: {result.live_modes}\n"
                 f"seed: {cfg.seed}\n")
    if result.overshoot_flag or ledger_flag or holder_flag:
        print("monitor violation; outputs written", file=sys.stderr)
        return 3
    return 0


def _verify_dispatch(cfg: RunConfig, names) -> list:
    """Run the named families, each of which is in ``VERIFY_NAMES``.

    ``commutator_scaling`` runs on the calling thread and every other
    family, in request order, on one helper thread; the reports come back
    in request order.
    """
    g = cfg.geometry()
    theta0 = cfg.initial_field(g)
    phi = _phi(cfg)
    L = g.side_length
    p = max(cfg.ps)
    # the decay families check one drift-free run and the config it ran
    # with; both run on the helper lane, the only one to reach the cache
    decay_config = cfg.solver_config()
    decay_config.drift_mode = "none"
    run_cache = {}

    def decay_run():
        if "run" not in run_cache:
            run_cache["run"] = run(theta0, decay_config)
        return run_cache["run"]

    families = {
        "cordoba": lambda: iq.verify_cordoba(
            g, iq.seeded_family(g, 10, 12, cfg.seed), phi),
        "weighted_identity": lambda: iq.verify_weighted_identity(
            [boundary_ratio(f) for f in iq.seeded_family(g, 3, 12, cfg.seed)],
            mode_field(g, 1, 1), [phi]),
        "lambda_one_lower": lambda: iq.verify_lambda_one_lower(g),
        "decay_envelope": lambda: iq.verify_decay_envelope(
            decay_run(), decay_config, boundary_ratio(theta0).sup_norm() + 1e-9),
        "weighted_lp_control": lambda: iq.verify_weighted_lp_control(
            decay_run(), m=cfg.ms[0]),
        "weight_norm_bridge": lambda: iq.verify_weight_norm_bridge(
            theta0, m=2, p=p),
        "velocity_log_bound": lambda: iq.verify_velocity_log_bound(
            iq.constant_field(g)),
        "velocity_conditional_bound":
            lambda: iq.verify_velocity_conditional_bound(
                iq.conditional_family(g), p=p),
        "short_time_smallness": lambda: iq.verify_short_time_smallness(
            theta0, 0.1 * riesz_velocity(theta0).sup_norm()),
        "finite_difference_velocity":
            lambda: iq.verify_finite_difference_velocity(
                theta0, (L / 2, L / 2), L / 8, p=p),
        "normal_velocity_rate": lambda: iq.verify_normal_velocity_rate(
            theta0, p=p, alpha=cfg.alphas[0]),
        "commutator_scaling": lambda: iq.verify_commutator_scaling(
            mode_field(build_square_geometry(max(cfg.grid_size, 2048), L),
                       1, 1, tag="mode-1-1")),
        "kernel_bounds": lambda: iq.verify_kernel_bounds(
            g, n_samples=cfg.sample_count, seed=cfg.seed, horizon=cfg.t_end),
    }
    # commutator_scaling alone takes about as long as the other families
    # together, so the two lanes overlap the halves of the work.  Leaving
    # the block waits for the helper lane, also on an exception.
    lane = [name for name in names if name != "commutator_scaling"]
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(lambda: [families[name]() for name in lane])
        own = [families[name]() for name in names
               if name == "commutator_scaling"]
        others = pending.result()
    own, others = iter(own), iter(others)
    return [next(own if name == "commutator_scaling" else others)
            for name in names]


def cmd_verify(cfg: RunConfig, names) -> int:
    names = list(names) or list(cfg.verify_names)
    unknown = [name for name in names if name not in VERIFY_NAMES]
    if unknown:
        raise ConfigurationError(
            f"unknown verification {', '.join(map(repr, unknown))}; "
            f"operations must come from {', '.join(VERIFY_NAMES)}")
    reports = _verify_dispatch(cfg, names)
    os.makedirs(cfg.output_dir, exist_ok=True)
    all_pass = True
    for rep in reports:
        iq.write_report(rep, cfg.output_dir)
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} (min_margin={rep.min_margin:.3e})")
        all_pass &= rep.passed
    return 0 if all_pass else 1


def cmd_diag(path, csv_out=None, dump=None) -> int:
    ck = load_checkpoint(path)
    rec = record(SolverState(ck.t, ck.theta, step=ck.step))
    header = ",".join(csv_columns(rec))
    row = ",".join(repr(float(v)) for v in csv_row(rec))
    print(header)
    print(row)
    if csv_out:
        append_csv(csv_out, rec)
    if dump:
        g = ck.theta.geometry
        X, Y = g.meshgrid()
        vals = inverse(ck.theta).values
        with open(dump, "w") as fh:
            fh.write("x[1],y[1],theta[1]\n")
            for i in range(g.n_interior):
                for j in range(g.n_interior):
                    fh.write(f"{X[i, j]!r},{Y[i, j]!r},{vals[i, j]!r}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqgbounds",
        description="critical SQG on the square: runs, bound checks, diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate and write diagnostics")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", help="check the named bound families")
    p_ver.add_argument("config")
    p_ver.add_argument("names", nargs="*")
    p_diag = sub.add_parser("diag", help="diagnostics for one checkpoint")
    p_diag.add_argument("checkpoint")
    p_diag.add_argument("--csv", default=None)
    p_diag.add_argument("--dump", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(load_config(args.config))
        if args.command == "verify":
            return cmd_verify(load_config(args.config), args.names)
        return cmd_diag(args.checkpoint, args.csv, args.dump)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except SqgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
