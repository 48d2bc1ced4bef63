"""Command-line entry points: exit codes and output files."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqgbounds.cli import _holder_monitor, main
from sqgbounds.config import RunConfig
from sqgbounds.diagnostics import DiagnosticsRecord

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"

# Constants that verify writes for configs/default.cfg, as repr strings.
# Work skipped because its result is exactly zero must leave every bit of
# them in place.
PINNED_CONSTANTS = {
    "lambda_one_lower": {"c0": "0.06343630877056101",
                         "quadrature_residual": "3.196086632933262e-15",
                         "symmetry_residual": "9.947598300641403e-14"},
    "commutator_scaling": {"slope": "-1.0969669985584025",
                           "Gamma0": "1.95251374517055"},
}


@pytest.fixture()
def run_cfg(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(
        "[geometry]\ngrid_size = 64\n"
        "[solver]\ndt = 2e-3\nt_end = 0.2\noutput_interval = 0.1\n"
        "[initial]\nmodes = 1,1,1.0; 2,1,0.3\n"
        f"[output]\ndirectory = {out}\n")
    return path, out


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


def test_diag_reproduces_last_row(run_cfg, capsys):
    path, out = run_cfg
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["diag", str(out / "final.sqgb")]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    csv_lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert printed[0] == csv_lines[0]
    assert printed[1] == csv_lines[-1]


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


def test_cli_paths_do_not_import_scipy_integrate(run_cfg):
    """``run`` and the run-based verify families stay clear of scipy.integrate.

    A fresh interpreter, because this test process may have imported it.
    """
    path, _ = run_cfg
    script = (
        "import sys\n"
        "from sqgbounds.cli import main\n"
        f"assert main(['run', {str(path)!r}]) == 0\n"
        f"assert main(['verify', {str(path)!r}, 'decay_envelope',"
        " 'weighted_lp_control']) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('scipy.integrate')))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


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


def test_verify_nonconvex_profile_surfaces_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\ngrid_size = 64\n"
                    "[verify]\nphi = cubic\n"
                    f"[output]\ndirectory = {tmp_path / 'o'}\n")
    rc = main(["verify", str(path), "weighted_identity"])
    assert rc == 2
    assert "not convex" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[geometry]\ngrid_size = 4\n")
    assert main(["run", str(path)]) == 2
    assert "N >= 8" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert main(["run", "/nonexistent.cfg"]) == 2


def _rec(t, holder, b=1.0, m=1.0):
    return DiagnosticsRecord(t=t, sup_norm=1.0, energy=1.0, half_norm=1.0,
                             lipschitz=m, b1_lp={4.0: b},
                             weighted_norm={2: 1.0}, holder={0.4: holder},
                             u_sup=1.0, normal_rate=1.0)


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
