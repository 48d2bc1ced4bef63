"""Self-tests of the benchmark: exact span counts and checks that can fail.

    python3 -m pytest perfbench -q

Each fixture makes one traced CLI invocation through the benchmark's own
machinery, so a wrapper patched at the wrong binding shows up here as a zero
count.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from spans import self_time_sum  # noqa: E402

sys.path.insert(0, str(wl.SRC_DIR))


def _traced(workload: str):
    wl.WORK_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="test-", dir=wl.WORK_DIR))
    m = bench.Measurement(workload, 0, run_dir)
    code, res, _ = bench.spawn(["invoke", m.command, str(m.config), "--trace"],
                               run_dir)
    assert code == 0 and res is not None
    yield m, res
    shutil.rmtree(run_dir, ignore_errors=True)


@pytest.fixture(scope="module")
def run_default():
    yield from _traced("run_default")


@pytest.fixture(scope="module")
def verify_all():
    yield from _traced("verify_all")


def test_run_default_span_counts(run_default):
    m, res = run_default
    layers = m.layer_metrics(res)
    assert layers["solver.step.calls"] == 500
    assert layers["solver.advection_coeffs.calls"] == 1000
    assert layers["spectral.eval_fine_mixed.calls"] == 4000
    assert layers["diagnostics.record.calls"] == 11
    assert layers["checkpoint.save_checkpoint.calls"] == 12
    assert layers["solver.accepted_ratio"] == 1.0
    assert self_time_sum(res["trace"]) <= res["wall_s"]


def test_verify_all_span_counts(verify_all):
    _, res = verify_all
    names = [span[0] for span in res["trace"]["spans"]]
    families = [n for n in names if n.startswith("inequalities.")]
    assert sorted(families) == sorted(f"inequalities.{f}"
                                      for f in wl.VERIFY_FAMILIES)
    assert self_time_sum(res["trace"]) <= res["wall_s"]


def test_wrong_reference_raises_failed_ratio(run_default):
    m, res = run_default
    good = wl.check_run(m.out_dir, res["exit_code"], m.ref_path, m.n_records)
    assert good[:2] == (1, 0)
    # The reference of another pool entry disagrees far beyond the bound.
    from sqgbounds.config import load_config
    other = m.run_dir / "other.cfg"
    wl.write_config("run_default", 1, m.out_dir, other)
    wrong_ref = wl.reference_path(load_config(other))
    bad = wl.check_run(m.out_dir, res["exit_code"], wrong_ref, m.n_records)
    assert bad[:2] == (1, 1)
    assert bad[1] / bad[0] > good[1] / good[0]
    assert any("final_rel_err" in r for r in bad[3])


def test_missing_reference_fails(run_default):
    m, res = run_default
    attempted, failed, values, reasons = wl.check_run(
        m.out_dir, res["exit_code"], None, m.n_records)
    assert (attempted, failed) == (1, 1)
    assert "final_rel_err" not in values
    assert any("make_refs.py" in r for r in reasons)


def test_failing_verdict_raises_failed_ratio(verify_all):
    m, res = verify_all
    good = wl.check_verify(m.out_dir, res["exit_code"])
    assert good[:2] == (13, 0)
    broken = m.run_dir / "broken"
    shutil.copytree(m.out_dir, broken)
    report = broken / "kernel_bounds.txt"
    report.write_text(report.read_text().replace("pass: True", "pass: False"))
    bad = wl.check_verify(broken, 1)
    assert bad[:2] == (13, 1)
    assert bad[1] / bad[0] > good[1] / good[0]
    # A family with two faults is still one failed operation.
    report = broken / "commutator_scaling.txt"
    report.write_text("".join(
        line.replace("pass: True", "pass: False")
        for line in report.read_text().splitlines(keepends=True)
        if not line.startswith("constant slope")))
    worse = wl.check_verify(broken, 1)
    assert worse[:2] == (13, 2)
    assert len(worse[3]) == 3


def test_metric_names_match_benchmark_json(run_default):
    m, res = run_default
    with open(wl.REPO_ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    per_layer = {x["name"] for x in spec["per_layer"]}
    assert per_layer == set(m.layer_metrics(res)) | {"trace.overhead_s"}
    for x in spec["per_layer"]:
        assert x["unit"] == bench.unit_of(x["name"])
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} \
        == bench.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
