"""One benchmark measurement in a fresh process.

    python3 perfbench/worker.py setup CONFIG RESULT
    python3 perfbench/worker.py invoke {run,verify} CONFIG RESULT [--trace]

``setup`` times importing ``sqgbounds``, ``load_config``, building the
geometry and building the initial field.  ``invoke`` imports the package
first, then times ``sqgbounds.cli.main([command, CONFIG])``, optionally under
the span tracer.  The measurements are written as JSON to RESULT.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Versions, BLAS build, thread caps and CPU as this process sees them."""
    import numpy
    import scipy
    import scipy.fft

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
            "scipy_fft_workers": scipy.fft.get_workers(),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def setup(config: str) -> dict:
    t0 = time.perf_counter()
    import sqgbounds  # noqa: F401
    from sqgbounds.config import load_config

    cfg = load_config(config)
    cfg.initial_field(cfg.geometry())
    return {"setup_s": time.perf_counter() - t0}


def invoke(command: str, config: str, trace: bool) -> dict:
    import sqgbounds  # noqa: F401
    import sqgbounds.cli as cli

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    # Keep each solver run's result: verify writes no run summary.
    runs = []
    solver_run = cli.run

    def keep_result(*args, **kwargs):
        result = solver_run(*args, **kwargs)
        runs.append(result)
        return result

    cli.run = keep_result
    t0 = time.perf_counter()
    code = cli.main([command, config])
    wall = time.perf_counter() - t0
    out = {"exit_code": code, "wall_s": wall, "peak_rss_mb": peak_rss_mb(),
           "solver_runs": [{"ledger_residual": r.ledger_residual,
                            "rejected_steps": r.rejected_steps,
                            "steps": r.snapshots[-1].step} for r in runs]}
    if tracer is not None:
        out["trace"] = tracer.export()
    out["environment"] = environment()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("config")
    p_setup.add_argument("result")
    p_inv = sub.add_parser("invoke")
    p_inv.add_argument("command", choices=("run", "verify"))
    p_inv.add_argument("config")
    p_inv.add_argument("result")
    p_inv.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = setup(args.config)
    else:
        out = invoke(args.command, args.config, args.trace)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
