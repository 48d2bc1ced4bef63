"""Command-line entry points: exit codes and output files."""
import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from sqgbounds import cli
from sqgbounds import inequalities as iq
from sqgbounds import solver
from sqgbounds import spectral
from sqgbounds.checkpoint import save_checkpoint
from sqgbounds.cli import _HolderSample, _holder_monitor, cmd_run, main
from sqgbounds.config import VERIFY_NAMES, RunConfig, load_config
from sqgbounds.diagnostics import append_csv, record
from sqgbounds.errors import NumericError
from sqgbounds.geometry import build_square_geometry

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

# Constants that verify writes for configs/default.cfg, as repr strings.
# Work skipped because its result is exactly zero must leave every bit of
# them in place.
PINNED_CONSTANTS = {
    "lambda_one_lower": {"c0": "0.06343630877056101",
                         "quadrature_residual": "3.2929377430221496e-15",
                         "symmetry_residual": "8.881784197001252e-14"},
    "commutator_scaling": {"slope": "-1.0969669985586887",
                           "Gamma0": "1.9525137451702765"},
    "decay_envelope": {"B": "1.9996988196962064"},
}


def _write_run_cfg(path, out, grid_size, dt, t_end, output_interval):
    path.write_text(
        f"[geometry]\ngrid_size = {grid_size}\n"
        f"[solver]\ndt = {dt}\nt_end = {t_end}\n"
        f"output_interval = {output_interval}\n"
        "[initial]\nmodes = 1,1,1.0; 2,1,0.3\n"
        f"[output]\ndirectory = {out}\n")
    return path


@pytest.fixture()
def run_cfg(tmp_path):
    out = tmp_path / "out"
    return _write_run_cfg(tmp_path / "run.cfg", out, 64, 2e-3, 0.2, 0.1), out


def test_rerun_removes_checkpoints_of_an_older_run(tmp_path):
    out = tmp_path / "out"
    dense = _write_run_cfg(tmp_path / "dense.cfg", out, 16, 1e-2, 0.2, 0.05)
    sparse = _write_run_cfg(tmp_path / "sparse.cfg", out, 16, 1e-2, 0.2, 0.1)
    assert main(["run", str(dense)]) == 0
    assert "checkpoint_000005.sqgb" in os.listdir(out)
    assert main(["run", str(sparse)]) == 0
    checkpoints = sorted(n for n in os.listdir(out)
                         if n.startswith("checkpoint_"))
    assert checkpoints == [f"checkpoint_{k:06d}.sqgb" for k in (0, 10, 20)]


def test_run_writes_everything(run_cfg):
    path, out = run_cfg
    assert main(["run", str(path)]) == 0
    names = os.listdir(out)
    assert "diagnostics.csv" in names
    assert "final.sqgb" in names
    assert "run_summary.txt" in names
    assert any(n.startswith("checkpoint_") for n in names)
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t[1],")
    assert len(lines) >= 3


def test_run_summary_reports_the_live_extent(run_cfg, import_perfbench):
    """``live_modes`` is the run's largest live extent, and the benchmark's
    summary reader still finds every field it checks."""
    path, out = run_cfg
    assert main(["run", str(path)]) == 0
    fields = import_perfbench("workloads").read_fields(out / "run_summary.txt")
    cfg = load_config(path)
    res = solver.run(cfg.initial_field(cfg.geometry()), cfg.solver_config())
    assert fields["live_modes"] == str(res.live_modes)
    assert 2 <= res.live_modes < cfg.grid_size // 2
    assert float(fields["ledger_residual"]) == res.ledger_residual
    assert fields["overshoot_flag"] == fields["holder_flag"] == "False"


def test_run_gates_its_energy_ledger(tmp_path, monkeypatch,
                                     import_perfbench):
    """Twice the dissipation breaks the energy balance: ``run`` writes
    every output, reports ``ledger_flag: True`` and exits 3.  The default
    run passes the gate."""
    read_fields = import_perfbench("workloads").read_fields
    cfg = load_config(DEFAULT_CFG)
    cfg.output_dir = str(tmp_path / "clean")
    assert cmd_run(cfg) == 0
    summary = read_fields(tmp_path / "clean" / "run_summary.txt")
    assert summary["ledger_flag"] == "False"
    assert float(summary["ledger_residual"]) <= cli.LEDGER_TOL

    monkeypatch.setattr(solver, "_decay", lambda geometry, dt, K: np.exp(
        -2.0 * dt * geometry.sqrt_eigenvalues[:K, :K]))
    cfg.output_dir = str(tmp_path / "doubled")
    assert cmd_run(cfg) == 3
    summary = read_fields(tmp_path / "doubled" / "run_summary.txt")
    assert summary["ledger_flag"] == "True"
    assert float(summary["ledger_residual"]) == pytest.approx(0.4986,
                                                              abs=1e-4)
    assert summary["overshoot_flag"] == summary["holder_flag"] == "False"
    assert os.path.exists(tmp_path / "doubled" / "final.sqgb")


def test_numeric_failure_leaves_outputs_up_to_last_snapshot(tmp_path,
                                                            monkeypatch):
    """Rows and checkpoints are written as snapshots are taken; a run that
    fails keeps them, and the finished-run markers, even stale ones, are
    absent."""
    whole = _write_run_cfg(tmp_path / "whole.cfg", tmp_path / "whole",
                           32, 5e-3, 1.0, 0.1)
    assert main(["run", str(whole)]) == 0
    path = _write_run_cfg(tmp_path / "cut.cfg", tmp_path / "cut",
                          32, 5e-3, 1.0, 0.1)
    real_step = solver.step

    def failing_step(*args, **kwargs):
        new = real_step(*args, **kwargs)
        if new.t > 0.5 + 1e-9:
            raise NumericError(f"injected failure at t={new.t:.6g}")
        return new

    monkeypatch.setattr(solver, "step", failing_step)
    cut, ref = tmp_path / "cut", tmp_path / "whole"
    cut.mkdir()
    for marker in ("final.sqgb", "run_summary.txt"):    # from an older run
        (cut / marker).write_text("stale")
    assert main(["run", str(path)]) == 2
    names = set(os.listdir(cut))
    assert "final.sqgb" not in names
    assert "run_summary.txt" not in names
    rows = (cut / "diagnostics.csv").read_text().splitlines()
    assert rows == (ref / "diagnostics.csv").read_text().splitlines()[:7]
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.5)
    checkpoints = sorted(n for n in names if n.startswith("checkpoint_"))
    assert checkpoints == [f"checkpoint_{k:06d}.sqgb"
                           for k in range(0, 101, 20)]
    for name in checkpoints:
        assert (cut / name).read_bytes() == (ref / name).read_bytes()


def test_record_failure_reaches_the_caller(tmp_path, monkeypatch, capsys):
    """A record that fails at the third snapshot ends the run with code 2;
    the two snapshots before it are fully written, no finish marker exists
    and no thread is left behind."""
    whole = _write_run_cfg(tmp_path / "whole.cfg", tmp_path / "whole",
                           32, 5e-3, 1.0, 0.1)
    assert main(["run", str(whole)]) == 0
    path = _write_run_cfg(tmp_path / "cut.cfg", tmp_path / "cut",
                          32, 5e-3, 1.0, 0.1)
    calls = []

    def failing_record(state, **kwargs):
        calls.append(state.step)
        if len(calls) == 3:
            raise NumericError(f"injected failure at step {state.step}")
        return record(state, **kwargs)

    monkeypatch.setattr(cli, "record", failing_record)
    threads = threading.active_count()
    assert main(["run", str(path)]) == 2
    assert threading.active_count() == threads
    assert "injected failure at step 40" in capsys.readouterr().err
    cut, ref = tmp_path / "cut", tmp_path / "whole"
    rows = (cut / "diagnostics.csv").read_text().splitlines()
    assert rows == (ref / "diagnostics.csv").read_text().splitlines()[:3]
    names = set(os.listdir(cut))
    assert "final.sqgb" not in names and "run_summary.txt" not in names
    assert sorted(n for n in names if n.startswith("checkpoint_")) == [
        "checkpoint_000000.sqgb", "checkpoint_000020.sqgb"]


def test_record_failure_at_the_last_snapshot_reaches_the_caller(
        tmp_path, monkeypatch):
    """A record that fails at the final snapshot, the one the solver takes
    at t_end, ends the run with code 2 and no finish marker."""
    path = _write_run_cfg(tmp_path / "run.cfg", tmp_path / "out",
                          32, 1e-2, 0.2, 0.1)

    def failing_record(state, **kwargs):
        if state.t > 0.15:
            raise NumericError("injected failure at the last snapshot")
        return record(state, **kwargs)

    monkeypatch.setattr(cli, "record", failing_record)
    assert main(["run", str(path)]) == 2
    names = set(os.listdir(tmp_path / "out"))
    assert "final.sqgb" not in names and "run_summary.txt" not in names
    assert len((tmp_path / "out" / "diagnostics.csv").read_text()
               .splitlines()) == 3


def test_run_outputs_equal_a_serial_replay(tmp_path):
    """The rows and checkpoints that ``cmd_run`` writes, and no other
    snapshot file, equal byte for byte those of the same run replayed with
    a plain record-and-save snapshot callback and a fresh workspace per
    record."""
    path = _write_run_cfg(tmp_path / "run.cfg", tmp_path / "out",
                          64, 1e-2, 1.0, 0.1)
    cfg = load_config(path)
    assert cmd_run(cfg) == 0
    replay = tmp_path / "replay"
    replay.mkdir()
    config_hash = cfg.config_hash()

    def write_inline(state):
        rec = record(state, ps=cfg.ps, ms=cfg.ms, alphas=cfg.alphas)
        append_csv(replay / "diagnostics.csv", rec)
        save_checkpoint(replay / f"checkpoint_{state.step:06d}.sqgb",
                        state.theta, state.t, state.step, config_hash)

    g = cfg.geometry()
    solver.run(cfg.initial_field(g), cfg.solver_config(),
               on_snapshot=write_inline)
    out = tmp_path / "out"
    written = sorted(n for n in os.listdir(replay))
    assert len(written) == 12                   # 11 checkpoints and the CSV
    assert written == sorted(n for n in os.listdir(out)
                             if n.startswith("checkpoint_")
                             or n == "diagnostics.csv")
    for name in written:
        assert (out / name).read_bytes() == (replay / name).read_bytes()


def test_run_writes_each_snapshot_on_the_calling_thread(tmp_path,
                                                        monkeypatch):
    """While ``cmd_run`` runs, every record, row and checkpoint is made on
    the thread that called it, and no thread is started."""
    caller = threading.get_ident()
    threads = threading.active_count()
    seen = {"record": 0, "append_csv": 0, "save_checkpoint": 0}

    def on_caller(name, fn):
        def wrapped(*args, **kwargs):
            assert threading.get_ident() == caller
            assert threading.active_count() == threads
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in seen:
        monkeypatch.setattr(cli, name, on_caller(name, getattr(cli, name)))
    path = _write_run_cfg(tmp_path / "run.cfg", tmp_path / "out",
                          32, 1e-2, 0.3, 0.1)
    assert cmd_run(load_config(path)) == 0
    assert threading.active_count() == threads
    # 4 snapshots: 4 records and rows, 4 checkpoints and final.sqgb
    assert seen == {"record": 4, "append_csv": 4, "save_checkpoint": 5}


def test_run_memory_does_not_grow_with_snapshot_count(tmp_path, monkeypatch):
    """The traced memory held when the last of 11 or of 101 snapshots of
    one N = 64 run is taken differs by less than one state array.

    Each snapshot is written before the next step and garbage is collected
    before the reading, so at the last snapshot every earlier one is
    written and gone; what a run keeps per snapshot (one Hölder sample of
    four floats) is all that may differ."""
    taken = {"count": 0}

    def traced_run(theta0, config, on_snapshot):
        def take(state):
            taken["count"] += 1
            if state.t >= config.t_end - 1e-12:
                gc.collect()
                taken["held"] = tracemalloc.get_traced_memory()[0]
            on_snapshot(state)
        return solver.run(theta0, config, on_snapshot=take)

    monkeypatch.setattr(cli, "run", traced_run)

    def held_at_last_snapshot(name, output_interval):
        path = _write_run_cfg(tmp_path / f"{name}.cfg", tmp_path / name,
                              64, 1e-2, 1.0, output_interval)
        cfg = load_config(path)
        taken["count"] = 0
        tracemalloc.start()
        try:
            assert cmd_run(cfg) == 0
        finally:
            tracemalloc.stop()
        rows = (tmp_path / name / "diagnostics.csv").read_text().splitlines()
        assert taken["count"] == len(rows) - 1
        return taken["held"], taken["count"]

    assert main(["run", str(_write_run_cfg(tmp_path / "warm.cfg",
                                           tmp_path / "warm",
                                           64, 1e-2, 0.02, 0.01))]) == 0
    sparse, n_sparse = held_at_last_snapshot("sparse", 0.1)
    dense, n_dense = held_at_last_snapshot("dense", 0.01)
    assert (n_sparse, n_dense) == (11, 101)
    assert abs(dense - sparse) < 63 * 63 * 8


def test_diag_reproduces_last_row(run_cfg, capsys):
    path, out = run_cfg
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["diag", str(out / "final.sqgb")]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    csv_lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert printed[0] == csv_lines[0]
    assert printed[1] == csv_lines[-1]


@pytest.mark.parametrize("grid_size, t_end, output_interval",
                         [(64, 0.2, 0.02), (512, 0.012, 0.004)])
def test_diag_reproduces_every_row(tmp_path, capsys, grid_size, t_end,
                                   output_interval):
    """A record depends on theta's coefficients alone: diag on each
    checkpoint prints that snapshot's row byte for byte."""
    out = tmp_path / "out"
    path = _write_run_cfg(tmp_path / "run.cfg", out, grid_size, 2e-3, t_end,
                          output_interval)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    checkpoints = sorted(out.glob("checkpoint_*.sqgb"))
    assert len(checkpoints) == len(rows) == round(t_end / output_interval) + 1
    for ck, row in zip(checkpoints, rows):
        assert main(["diag", str(ck)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == row


def test_diag_dump(run_cfg, tmp_path):
    path, out = run_cfg
    main(["run", str(path)])
    dump = tmp_path / "field.csv"
    assert main(["diag", str(out / "final.sqgb"), "--dump", str(dump)]) == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "x[1],y[1],theta[1]"
    assert len(lines) == 63 * 63 + 1


def test_verify_subset_passes(run_cfg, capsys):
    path, out = run_cfg
    rc = main(["verify", str(path), "cordoba", "weight_norm_bridge",
               "kernel_bounds"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "cordoba: pass" in printed
    assert os.path.exists(out / "cordoba.txt")
    assert os.path.exists(out / "cordoba_margins.csv")


def _fresh_interpreter(script: str) -> str:
    """stdout of ``script`` run by a fresh interpreter on this source tree,
    because this test process may have imported scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_paths_do_not_import_scipy_integrate(run_cfg):
    """``run`` and the run-based verify families stay clear of scipy.integrate."""
    path, _ = run_cfg
    script = (
        "import sys\n"
        "from sqgbounds.cli import main\n"
        f"assert main(['run', {str(path)!r}]) == 0\n"
        f"assert main(['verify', {str(path)!r}, 'decay_envelope',"
        " 'weighted_lp_control']) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('scipy.integrate')))\n")
    assert _fresh_interpreter(script).splitlines()[-1] == "[]"


def test_import_run_and_verify_load_no_scipy(tmp_path):
    """``import sqgbounds``, ``run`` at N = 64 and at N = 512, and all 13
    verify families at N = 128 leave no scipy module loaded: scipy serves
    only the FFT route of wider blocks."""
    small = _write_run_cfg(tmp_path / "small.cfg", tmp_path / "small", 64,
                           2e-3, 0.2, 0.1)
    large = _write_run_cfg(tmp_path / "large.cfg", tmp_path / "large", 512,
                           2e-3, 0.01, 0.01)
    cfg = tmp_path / "default.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace(
        "directory = out", f"directory = {tmp_path / 'verify'}"))
    script = (
        "import sys\n"
        "import sqgbounds\n"
        "loaded = lambda: sorted(m for m in sys.modules"
        " if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "from sqgbounds.cli import main\n"
        f"assert main(['run', {str(small)!r}]) == 0\n"
        f"assert main(['run', {str(large)!r}]) == 0\n"
        "print(loaded())\n"
        f"assert main(['verify', {str(cfg)!r}]) == 0\n"
        "print(loaded())\n")
    printed = _fresh_interpreter(script).splitlines()
    assert printed[0] == printed[1] == printed[-1] == "[]"


def test_import_and_config_path_load_only_what_they_read():
    """``import sqgbounds`` loads no submodule, and loading a config and
    building its geometry and initial field loads ``config``, ``errors``,
    ``geometry`` and ``spectral`` only: none of the solver, operator or
    check modules, nor the libraries only they use."""
    script = (
        "import sys\n"
        "import sqgbounds\n"
        "mine = lambda: sorted(m for m in sys.modules"
        " if m.startswith('sqgbounds.'))\n"
        "print(mine())\n"
        "from sqgbounds.config import load_config\n"
        f"cfg = load_config({str(DEFAULT_CFG)!r})\n"
        "cfg.initial_field(cfg.geometry())\n"
        "print(mine())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('statistics', 'scipy') or m.startswith(('numpy.random',"
        " 'numpy.polynomial'))))\n")
    printed = _fresh_interpreter(script).splitlines()
    assert printed[-3] == "[]"
    assert printed[-2] == str([f"sqgbounds.{name}" for name in
                               ("config", "errors", "geometry", "spectral")])
    assert printed[-1] == "[]"


def test_verify_makes_no_fft_call_at_n128(tmp_path, monkeypatch):
    """At N = 128 all 13 verify families evaluate and project every
    spectrum by table products: none reaches the FFT route.  Counted, as
    the benchmark does, through a proxy in place of the ``scipy.fft`` that
    ``spectral`` binds as ``fft``."""
    callers = []
    real = spectral.fft
    proxy = types.ModuleType(real.__name__)
    proxy.__dict__.update(real.__dict__)
    for name in ("dst", "dct", "dstn", "dctn", "idst", "idct", "idstn",
                 "idctn"):
        def counted(*args, _transform=getattr(real, name), **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return _transform(*args, **kwargs)
        setattr(proxy, name, counted)
    monkeypatch.setattr(spectral, "fft", proxy)
    assert spectral._fft() is proxy
    cfg = tmp_path / "default.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace(
        "directory = out", f"directory = {tmp_path}"))
    assert len(VERIFY_NAMES) == 13
    assert main(["verify", str(cfg), *VERIFY_NAMES]) == 0
    assert callers == []
    spectral.forward(spectral.GridField(np.ones((255, 255)),
                                        build_square_geometry(256)))
    assert callers == ["_dst2", "_dst2"]


@pytest.fixture(scope="module")
def default_verify(tmp_path_factory):
    """All 13 verify families on configs/default.cfg, reports in a temp dir."""
    out = tmp_path_factory.mktemp("verify")
    cfg = out / "default.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace(
        "directory = out", f"directory = {out}"))
    return main(["verify", str(cfg)]), out


def _report_constants(path):
    prefix = "constant "
    return dict(line[len(prefix):].split(": ", 1)
                for line in path.read_text().splitlines()
                if line.startswith(prefix))


def test_verify_reports_write_plain_floats(default_verify):
    rc, out = default_verify
    assert rc == 0
    reports = sorted(out.glob("*.txt"))
    assert len(reports) == 13
    for path in reports:
        assert "np." not in path.read_text(), path.name
        for key, value in _report_constants(path).items():
            float(value)


def test_verify_constants_keep_their_bits(default_verify):
    _, out = default_verify
    for name, pinned in PINNED_CONSTANTS.items():
        got = _report_constants(out / f"{name}.txt")
        assert {key: got[key] for key in pinned} == pinned, name


def test_decay_envelope_reports_the_drift_free_run(default_verify):
    _, out = default_verify
    text = (out / "decay_envelope.txt").read_text()
    assert "plan drift_mode: none\n" in text


def test_verify_rejects_every_unknown_name_before_running(tmp_path, capsys,
                                                         monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("cordoba ran before the names were checked")

    monkeypatch.setattr(iq, "verify_cordoba", ran)
    out = tmp_path / "o"
    cfg = tmp_path / "default.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace(
        "directory = out", f"directory = {out}"))
    assert main(["verify", str(cfg), "cordoba", "mystery", "other"]) == 2
    err = capsys.readouterr().err
    assert "'mystery'" in err and "'other'" in err
    assert not out.exists()


def test_verify_nonconvex_profile_surfaces_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\ngrid_size = 64\n"
                    "[verify]\nphi = cubic\n"
                    f"[output]\ndirectory = {tmp_path / 'o'}\n")
    rc = main(["verify", str(path), "weighted_identity"])
    assert rc == 2
    assert "not convex" in capsys.readouterr().err


def _verify_line(rep):
    status = "pass" if rep.passed else "FAIL"
    return f"{rep.name}: {status} (min_margin={rep.min_margin:.3e})"


@pytest.fixture(scope="module")
def serial_verify(tmp_path_factory):
    """Each family of configs/default.cfg dispatched alone, and its line."""
    out = tmp_path_factory.mktemp("serial")
    cfg = load_config(DEFAULT_CFG)
    lines = {}
    for name in VERIFY_NAMES:
        [rep] = cli._verify_dispatch(cfg, [name])
        iq.write_report(rep, out)
        lines[name] = _verify_line(rep)
    return out, lines


def _assert_outputs_equal_serial(out, serial, names):
    written = sorted(os.listdir(out))
    assert written == sorted(f"{name}{suffix}" for name in names
                             for suffix in (".txt", "_margins.csv"))
    for file in written:
        assert (out / file).read_bytes() == (serial / file).read_bytes(), file


@pytest.mark.parametrize("names", [
    [],
    ["commutator_scaling", "cordoba", "kernel_bounds"],
], ids=["all", "reordered"])
def test_verify_lanes_equal_each_family_run_alone(tmp_path, capsys,
                                                  serial_verify, names):
    """The two lanes print and write, byte for byte, what each family run
    alone writes, and print in request order."""
    serial, lines = serial_verify
    out = tmp_path / "o"
    cfg = tmp_path / "default.cfg"
    cfg.write_text(DEFAULT_CFG.read_text().replace(
        "directory = out", f"directory = {out}"))
    assert main(["verify", str(cfg), *names]) == 0
    names = names or list(VERIFY_NAMES)
    assert capsys.readouterr().out.splitlines() == [lines[n] for n in names]
    _assert_outputs_equal_serial(out, serial, names)


@pytest.mark.parametrize("target", ["verify_kernel_bounds",
                                    "verify_commutator_scaling"])
def test_verify_failure_in_either_lane_reaches_the_caller(
        run_cfg, monkeypatch, capsys, target):
    """A numeric failure on the helper lane or on the calling thread exits
    2 with its message, writes no report and leaves no thread behind."""
    def failing(*args, **kwargs):
        raise NumericError(f"injected failure in {target}")

    monkeypatch.setattr(iq, target, failing)
    path, out = run_cfg
    threads = threading.active_count()
    assert main(["verify", str(path), "cordoba", "kernel_bounds",
                 "commutator_scaling"]) == 2
    assert threading.active_count() == threads
    assert f"injected failure in {target}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\ngrid_size = 4\n")
    assert main(["run", str(path)]) == 2
    assert "N >= 8" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, line", [
    ("run", "diagnostics", "ps ="),
    ("verify", "verify", "names ="),
    ("verify", "verify", "seed = -1"),
])
def test_empty_list_or_negative_seed_exits_2(tmp_path, capsys, command,
                                             section, line):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\ngrid_size = 16\n"
                    "[solver]\nt_end = 0.01\noutput_interval = 0.01\n"
                    f"[{section}]\n{line}\n"
                    f"[output]\ndirectory = {tmp_path / 'o'}\n")
    assert main([command, str(path)]) == 2
    assert f"{section}.{line.split()[0]}" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert main(["run", "/nonexistent.cfg"]) == 2


def _rec(t, holder, b=1.0, m=1.0):
    return _HolderSample(t=t, holder=holder, b1_lp=b, lipschitz=m)


def test_holder_monitor_flags_late_growth():
    cfg = RunConfig(t_end=1.0)
    quiet = [_rec(0.0, 1.0), _rec(0.1, 1.1), _rec(0.9, 1.5)]
    violated, k_fit = _holder_monitor(quiet, cfg)
    assert not violated and k_fit == 0.0
    early = [_rec(0.0, 1.0), _rec(0.05, 3.0), _rec(0.9, 2.9)]
    violated, k_fit = _holder_monitor(early, cfg)
    assert not violated and k_fit == pytest.approx(0.5)
    noisy = [_rec(0.0, 1.0), _rec(0.1, 1.1), _rec(0.9, 50.0)]
    violated, _ = _holder_monitor(noisy, cfg)
    assert violated
