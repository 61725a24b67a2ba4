"""CLI subcommands, exit codes, and the Fig.-1 scenario regression."""
import ast
import contextlib
import io
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsim import PropagationError
from ecsim.cli import main
from ecsim.scenario import parse_flat_config
from test_scenario import _KEYS, _VALUES, BASE, GEOMETRY, SCANS

FIG1_SCENARIO = """
# doubly excited pair, no laser: Gamma = 0.7818 V, gamma = 0.6884 V
initial.kind = doubly_excited
params.V = 1.2790995139421846
params.gamma = 0.8805321053978
time.t_final = 8.0
time.samples = 400
"""

GEOMETRY_FILE = """
geometry.mu1 = 0 0 1
geometry.mu2 = 0 0 1
geometry.r12_hat = 1 0 0
geometry.r12_over_lambda0 = 0.108
"""


def test_cli_import_leaves_out_integrate_and_optimize():
    # a fresh interpreter, so that modules other tests imported do not count;
    # start-up loads no scipy module at all
    code = ("import sys, ecsim.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_package_imports_no_scipy():
    # the runtime needs numpy only: no module of the package names scipy in an
    # import statement, at module level or inside a function
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "ecsim"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_public_names_resolve():
    import ecsim

    assert len(set(ecsim.__all__)) == len(ecsim.__all__)
    assert [name for name in ecsim.__all__ if not hasattr(ecsim, name)] == []
    namespace = {}
    exec("from ecsim import *", namespace)
    assert set(ecsim.__all__) <= set(namespace)


def test_couplings_command(tmp_path, capsys):
    path = tmp_path / "geometry.cfg"
    path.write_text(GEOMETRY_FILE)
    assert main(["couplings", str(path)]) == 0
    out = capsys.readouterr().out
    values = {line.split("=")[0].strip(): float(line.split("=")[1].split()[0])
              for line in out.strip().splitlines()}
    assert values["V"] == pytest.approx(2.03, rel=0.02)
    assert values["gamma"] == pytest.approx(0.91, rel=0.02)
    assert values["z"] == pytest.approx(2 * np.pi * 0.108, abs=1e-9)


def test_couplings_command_orthogonal_dipoles(tmp_path, capsys):
    path = tmp_path / "geometry.cfg"
    path.write_text(GEOMETRY_FILE.replace("geometry.mu2 = 0 0 1",
                                          "geometry.mu2 = 0 1 0"))
    assert main(["couplings", str(path)]) == 0
    assert "V      = 0 " in capsys.readouterr().out


def test_couplings_command_invalid_geometry(tmp_path, capsys):
    path = tmp_path / "geometry.cfg"
    path.write_text(GEOMETRY_FILE.replace("geometry.mu1 = 0 0 1",
                                          "geometry.mu1 = 0 0 3"))
    assert main(["couplings", str(path)]) == 1


def test_evolve_fig1_sudden_birth(tmp_path):
    scenario = tmp_path / "fig1.cfg"
    scenario.write_text(FIG1_SCENARIO)
    out = tmp_path / "out.csv"
    assert main(["evolve", str(scenario), "-o", str(out)]) == 0

    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    t_col, c_col = header.index("t"), header.index("C")
    rows = [line.split(",") for line in lines[1:]]
    ts = np.array([float(r[t_col]) for r in rows])
    cs = np.array([float(r[c_col]) for r in rows])
    # entanglement sudden birth near 5/V: zero, then positive within [4/V, 6/V]
    v = 1.2790995139421846
    born = cs > 1e-9
    assert born.any()
    tau = ts[int(np.argmax(born))]
    assert 4.0 / v <= tau <= 6.0 / v
    assert cs[ts < 4.0 / v].max() <= 1e-9


def test_evolve_missing_file_is_validation_error(capsys):
    assert main(["evolve", "/nonexistent/path.cfg"]) == 1


def test_evolve_rejects_scan_scenarios(tmp_path):
    scenario = tmp_path / "scan.cfg"
    scenario.write_text(FIG1_SCENARIO + "scan.axis = laser_amplitude\n"
                        "scan.start = 0\nscan.stop = 1\nscan.steps = 2\n")
    assert main(["evolve", str(scenario)]) == 1
    assert main(["scan", str(scenario), "-o", str(tmp_path / "s.csv")]) == 0


GEOMETRY_SCENARIO = ("initial.kind = doubly_excited\n"
                     "time.t_final = 8.0\ntime.samples = 40\n" + GEOMETRY_FILE)
MATRIX_SCENARIO = ("initial.kind = matrix\n"
                   "initial.row0 = 1 0 0 0\ninitial.row1 = 0 0 0 0\n"
                   "initial.row2 = 0 0 0 0\ninitial.row3 = 0 0 0 0\n"
                   "params.V = 1.2\nparams.gamma = 0.88\n"
                   "time.t_final = 8.0\ntime.samples = 40\n")


@pytest.mark.parametrize("text", [
    FIG1_SCENARIO.replace("params.V = 1.2790995139421846", "params.V = nan"),
    FIG1_SCENARIO.replace("time.t_final = 8.0", "time.t_final = inf"),
    GEOMETRY_SCENARIO.replace("r12_over_lambda0 = 0.108", "r12_over_lambda0 = inf"),
    MATRIX_SCENARIO.replace("initial.row3 = 0 0 0 0", "initial.row3 = 0 0 0 nan"),
], ids=["V=nan", "t_final=inf", "r12=inf", "matrix-nan"])
def test_evolve_rejects_non_finite_input(tmp_path, capsys, text):
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(text)
    assert main(["evolve", str(scenario)]) == 1
    assert "not finite" in capsys.readouterr().err


NON_PSD_MATRIX = (MATRIX_SCENARIO
                  .replace("initial.row0 = 1 0 0 0", "initial.row0 = 0.6 0 0 0")
                  .replace("initial.row1 = 0 0 0 0", "initial.row1 = 0 0.5 0 0")
                  .replace("initial.row2 = 0 0 0 0", "initial.row2 = 0 0 -0.1 0"))


@pytest.mark.parametrize("command,text", [
    ("evolve", NON_PSD_MATRIX),
    ("scan", NON_PSD_MATRIX + "scan.axis = laser_amplitude\n"
             "scan.start = 0\nscan.stop = 1\nscan.steps = 3\n"),
], ids=["evolve", "laser-scan"])
def test_non_psd_matrix_initial_state_exits_1(tmp_path, capsys, command, text):
    # diag(0.6, 0.5, -0.1, 0) has unit trace but a negative eigenvalue: exit 1
    # with one stderr line that names the initial state
    scenario = tmp_path / "non_psd.cfg"
    scenario.write_text(text)
    assert main([command, str(scenario), "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: initial state violates invariants: hermiticity defect 0.00e+00, "
        "trace defect 0.00e+00, min eigenvalue -1.00e-01"]
    assert not (tmp_path / "out.csv").exists()


def test_evolve_rejects_too_many_states(tmp_path, capsys):
    scenario = tmp_path / "huge.cfg"
    scenario.write_text(FIG1_SCENARIO.replace("time.samples = 400",
                                              "time.samples = 1000000000000"))
    assert main(["evolve", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_scan_requires_scan_section(tmp_path):
    scenario = tmp_path / "noscan.cfg"
    scenario.write_text(FIG1_SCENARIO)
    assert main(["scan", str(scenario)]) == 1


def test_bad_usage_is_validation_error(capsys, tmp_path):
    scenario = tmp_path / "fig1.cfg"
    scenario.write_text(FIG1_SCENARIO)
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["evolve", str(scenario), "--project"]) == 1


def test_numerical_failure_exit_code(monkeypatch, tmp_path):
    scenario = tmp_path / "fig1.cfg"
    scenario.write_text(FIG1_SCENARIO)
    import ecsim.cli as cli_mod

    def explode(*args, **kwargs):
        raise PropagationError("synthetic divergence")

    monkeypatch.setattr(cli_mod, "run_scenario", explode)
    assert main(["evolve", str(scenario)]) == 2


def test_verify_filter_runs_named_check(capsys):
    assert main(["verify", "--filter", "coupling_formulas"]) == 0
    out = capsys.readouterr().out
    assert "coupling_formulas ... PASS" in out
    assert "expected" in out


def test_verify_unknown_filter_fails(capsys):
    # a filter that matches no check is invalid input: exit 1, one stderr line
    assert main(["verify", "--filter", "definitely_not_a_check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: no checks match filter 'definitely_not_a_check'"]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(base=st.sampled_from([BASE, GEOMETRY, *SCANS.values()]),
       overrides=st.dictionaries(st.sampled_from(_KEYS), _VALUES, min_size=1, max_size=2),
       dropped=st.sets(st.sampled_from(_KEYS), max_size=1),
       samples=st.integers(2, 12), steps=st.integers(1, 3))
def test_exit_code_map(tmp_path_factory, base, overrides, dropped, samples, steps):
    # nan, inf, huge and garbage values over the scenario keys, through evolve
    # or scan as the text has a scan section: exit 0, 1 or 2, no exception, and
    # on failure exactly one stderr line (a warning counts as one).
    # time.samples and scan.steps stay small so that each example runs fast;
    # the state cap keeps its own test
    entries = parse_flat_config(base)
    entries.update(overrides)
    for key, value in (("time.samples", samples), ("scan.steps", steps)):
        if key in entries:
            entries[key] = str(value)
    text = "".join(f"{k} = {v}\n" for k, v in entries.items() if k not in dropped)
    folder = tmp_path_factory.getbasetemp()
    scenario = folder / "exit_code_map.cfg"
    scenario.write_text(text)
    command = "scan" if "scan." in text else "evolve"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, str(scenario), "-o", str(folder / "exit_code_map.csv")])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    assert len(lines) == (1 if code else 0), lines
