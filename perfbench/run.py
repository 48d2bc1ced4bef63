"""Benchmark of the sqgbounds CLI on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop: one caller runs one CLI invocation at a time, each in a fresh
process (``worker.py``), until the next invocation would overrun ``--seconds``.
Every invocation's outputs are checked.  With ``--trace 0`` the run reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of the
traced invocations (traced and untraced invocations alternate, so the
tracing overhead is measured in the same run).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

WORKER = BENCH_DIR / "worker.py"
THREAD_CAP = "1"
SETUP_REPEATS = 5
INVOKE_TIMEOUT = 150.0      # seconds; one invocation takes about 5-12 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "final_rel_err": "ratio", "ledger_residual": "ratio"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its stat suffix."""
    if name.endswith((".calls", ".points", "rejected_steps", ".spans")):
        return "count"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREAD_CAP for var in THREAD_VARS})
    env.pop("SQGBOUNDS_OUTPUT_DIR", None)    # the config names the directory
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(wl.SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list, run_dir: Path) -> tuple[int, dict | None, float]:
    """Run the worker once; returns its exit code, result and duration."""
    result = run_dir / "worker.json"
    result.unlink(missing_ok=True)
    t0 = time.perf_counter()
    with open(run_dir / "worker.log", "ab") as log:
        try:
            code = subprocess.run(
                [sys.executable, str(WORKER), *args, str(result)],
                env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                cwd=run_dir, timeout=INVOKE_TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            code = -1
    duration = time.perf_counter() - t0
    if code != 0 or not result.exists():
        return code, None, duration
    with open(result) as fh:
        return code, json.load(fh), duration


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Measurement:
    """Runs and checks the invocations of one benchmark run."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        from sqgbounds.config import load_config

        self.command = wl.WORKLOADS[workload][0]
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.config = run_dir / "workload.cfg"
        wl.write_config(workload, seed, self.out_dir, self.config)
        cfg = load_config(self.config)
        self.n_records = round(cfg.t_end / cfg.output_interval) + 1
        self.ref_path = wl.reference_path(cfg) if self.command == "run" \
            else None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.environment: dict = {}     # as the first invocation saw it

    def setup_sample(self) -> float | None:
        _, res, _ = spawn(["setup", str(self.config)], self.run_dir)
        return None if res is None else res["setup_s"]

    def invoke(self, traced: bool) -> dict:
        """One checked CLI invocation; returns its measurements."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = ["invoke", self.command, str(self.config)]
        code, res, duration = spawn(args + (["--trace"] if traced else []),
                                    self.run_dir)
        exit_code = res["exit_code"] if res else 2
        if self.command == "run":
            attempted, failed, values, reasons = wl.check_run(
                self.out_dir, exit_code, self.ref_path, self.n_records)
        else:
            attempted, failed, values, reasons = wl.check_verify(
                self.out_dir, exit_code)
            if res and res["solver_runs"]:
                values["ledger_residual"] = \
                    res["solver_runs"][0]["ledger_residual"]
        if res is None:
            reasons.append(f"worker exited with code {code}")
            failed = max(failed, 1)
        self.attempted += attempted
        self.failed += failed
        self.reasons += reasons
        inv = {"traced": traced, "duration": duration, "values": values}
        if res:
            self.environment = self.environment or res["environment"]
            inv.update(wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"])
            if traced:
                inv["layers"] = self.layer_metrics(res)
        return inv

    def layer_metrics(self, res: dict) -> dict:
        from spans import summarize

        layers = summarize(res["trace"])
        layers["checkpoint.bytes"] = sum(
            p.stat().st_size for p in self.out_dir.glob("*.sqgb"))
        steps = sum(r["steps"] for r in res["solver_runs"])
        rejected = sum(r["rejected_steps"] for r in res["solver_runs"])
        layers["solver.rejected_steps"] = rejected
        layers["solver.accepted_ratio"] = \
            steps / (steps + rejected) if steps + rejected else 1.0
        return layers


def end_to_end(invs: list, setups: list) -> dict:
    done = [i for i in invs if "wall_s" in i]
    samples = {"wall_s": [i["wall_s"] for i in done],
               "peak_rss_mb": [i["peak_rss_mb"] for i in done],
               "setup_s": setups}
    for key in ("final_rel_err", "ledger_residual"):
        samples[key] = [i["values"][key] for i in invs if key in i["values"]]
    return samples


def per_layer(invs: list) -> dict:
    traced = [i["layers"] for i in invs if "layers" in i]
    samples = {name: [t[name] for t in traced] for name in traced[0]} \
        if traced else {}
    walls = {flag: [i["wall_s"] for i in invs
                    if i["traced"] is flag and "wall_s" in i]
             for flag in (True, False)}
    if walls[True] and walls[False]:
        samples["trace.overhead_s"] = [statistics.median(walls[True])
                                       - statistics.median(walls[False])]
    return samples


def report(samples: dict, units) -> tuple[dict, dict]:
    """(metrics for the JSON line, quartiles for the table) from samples."""
    metrics, spread = {}, {}
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": units(name)}
        spread[name] = {"q1": q1, "median": med, "q3": q3, "n": len(values)}
    return metrics, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (wl.SRC_DIR / "sqgbounds" / "cli.py").exists() \
            or not wl.DEFAULT_CFG.exists():
        print(f"error: no sqgbounds sources under {wl.SRC_DIR.parent}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC_DIR))

    wl.WORK_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=wl.WORK_DIR))
    try:
        m = Measurement(args.workload, args.seed, run_dir)
        m.setup_sample()                      # warm-up, not reported
        invs = []
        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(invs) % 2 == 0
            invs.append(m.invoke(traced))
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(i["duration"] for i in invs)
            paired = not args.trace or len(invs) >= 2
            if paired and elapsed + typical > args.seconds:
                break
        if args.trace:
            samples, units = per_layer(invs), unit_of
        else:
            setups = [s for s in (m.setup_sample()
                                  for _ in range(SETUP_REPEATS))
                      if s is not None]
            samples, units = end_to_end(invs, setups), END_TO_END.get
        metrics, spread = report(samples, units)
        missing = set(END_TO_END) - set(metrics)
        if not args.trace and missing:
            m.reasons.append(f"no samples for {sorted(missing)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = m.failed == 0 and not m.reasons
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "invocations": len(invs),
               "failed_ratio": m.failed / m.attempted,
               "environment": {**m.environment, "seed": args.seed},
               "quartiles": spread,
               "failures": m.reasons}
    results = wl.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({**summary, "metrics": metrics}, fh, indent=1)

    print(json.dumps({"environment": summary["environment"]}))
    print(f"{args.workload} seed {args.seed}: {len(invs)} invocations, "
          f"failed_ratio {summary['failed_ratio']:.3g} "
          f"({m.failed}/{m.attempted})")
    for reason in m.reasons:
        print(f"  FAILED: {reason}")
    for name, q in spread.items():
        print(f"  {name:42s} {q['median']:<12.6g} {units(name):6s} "
              f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  n={q['n']}")
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
