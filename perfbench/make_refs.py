"""Generate the committed fine-dt references of the run workloads.

    python3 perfbench/make_refs.py [--workload NAME ...] [--pool K ...]

Each reference is the Heun solution at dt/16 of one (workload, pool entry)
input, stored under ``perfbench/refs/<digest>.sqgb`` and described in
``perfbench/refs/manifest.json`` with the seconds it took to generate.
"""
from __future__ import annotations

import argparse
import fcntl
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC_DIR))


def _record(key: str, info: dict) -> None:
    with open(wl.WORK_DIR / "manifest.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        manifest = {}
        if wl.MANIFEST.exists():
            with open(wl.MANIFEST) as fh:
                manifest = json.load(fh)
        manifest[key] = info
        with open(wl.MANIFEST, "w") as fh:
            json.dump(dict(sorted(manifest.items())), fh, indent=1)
            fh.write("\n")


def main(argv=None) -> int:
    from sqgbounds.config import load_config

    runs = [name for name, (cmd, _) in wl.WORKLOADS.items() if cmd == "run"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=runs, choices=runs)
    parser.add_argument("--pool", nargs="*", type=int,
                        default=list(range(wl.POOL_SIZE)))
    args = parser.parse_args(argv)
    wl.WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.WORK_DIR) as tmp:
        for workload in args.workload:
            for k in args.pool:
                cfg_path = Path(tmp) / "ref.cfg"
                wl.write_config(workload, k, Path(tmp) / "out", cfg_path)
                cfg = load_config(cfg_path)
                path, info = wl.make_reference(cfg, wl.REFS_DIR)
                info.update(workload=workload, pool_index=k)
                _record(path.stem, info)
                print(f"{workload} pool {k}: {path.name} "
                      f"({info['generate_s']:.1f} s, {info['steps']} steps, "
                      f"tail {info['tail_rel']:.1e})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
