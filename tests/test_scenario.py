"""Scenario parsing, the run pipeline, and CSV output guarantees."""
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecsim.scenario as scenario_mod
from ecsim import (GeometryError, Scenario, ScenarioError, conditional_entropy,
                   load_geometry, load_scenario, parse_scenario, run_scenario)
from ecsim.scenario import _apply_scan_point, parse_flat_config

BASE = """
# Fig.-4 parameter point
initial.kind = alpha_state
initial.alpha = 0.5
initial.phi = 0.0
params.V = 2.03
params.gamma = 0.91
time.t_final = 2.0
time.samples = 5
"""

GEOMETRY = """
initial.kind = doubly_excited
geometry.mu1 = 0 0 1
geometry.mu2 = 0 0 1
geometry.r12_hat = 1 0 0
geometry.r12_over_lambda0 = 0.108
time.t_final = 1.0
time.samples = 4
"""


def test_parse_flat_config_basics():
    entries = parse_flat_config("a.b = 1  # trailing comment\n\n# full comment\nc = x y\n")
    assert entries == {"a.b": "1", "c": "x y"}
    with pytest.raises(ScenarioError):
        parse_flat_config("no equals sign here\n")
    with pytest.raises(ScenarioError):
        parse_flat_config("k = 1\nk = 2\n")


def test_parse_scenario_params_route():
    s = parse_scenario(BASE)
    assert s.initial_kind == "alpha_state"
    assert s.params.V == 2.03
    assert s.params.gamma == 0.91
    assert s.params.ell1 == 0.0
    assert s.t_final == 2.0
    assert s.sample_count == 5
    assert s.scan is None


def test_parse_scenario_geometry_route():
    s = parse_scenario(GEOMETRY)
    assert s.geometry is not None
    assert s.params.V == pytest.approx(2.030439540251, abs=1e-9)
    assert s.params.gamma == pytest.approx(0.910150925199, abs=1e-9)


def test_parse_scenario_rejects_defects():
    with pytest.raises(ScenarioError):
        parse_scenario(BASE + "params.bogus = 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario(BASE.replace("initial.kind = alpha_state",
                                    "initial.kind = mystery"))
    with pytest.raises(ScenarioError):
        parse_scenario(BASE.replace("params.V = 2.03", ""))
    with pytest.raises(ScenarioError):
        parse_scenario(GEOMETRY + "params.V = 1.0\n")
    with pytest.raises(ScenarioError):
        parse_scenario(BASE.replace("time.t_final = 2.0", "time.t_final = -1"))
    # gamma above sqrt(Gamma1 Gamma2) is a config-level validation error
    with pytest.raises(ScenarioError):
        parse_scenario(BASE.replace("params.gamma = 0.91", "params.gamma = 1.5"))


def test_parse_scenario_matrix_initial():
    text = """
initial.kind = matrix
initial.row0 = 0.5 0 0 0.5j
initial.row1 = 0 0 0 0
initial.row2 = 0 0 0 0
initial.row3 = -0.5j 0 0 0.5
params.V = 1.0
params.gamma = 0.0
time.t_final = 1.0
time.samples = 3
"""
    s = parse_scenario(text)
    rho = s.initial_density()
    assert rho[0, 3] == 0.5j
    assert rho[3, 0] == -0.5j
    with pytest.raises(ScenarioError):
        parse_scenario(text.replace("initial.row3 = -0.5j 0 0 0.5", ""))


def test_parse_scenario_bell_diagonal_initial():
    text = BASE.replace("initial.kind = alpha_state",
                        "initial.kind = bell_diagonal") \
               .replace("initial.alpha = 0.5", "initial.h1 = 0.8\ninitial.h2 = 0.8") \
               .replace("initial.phi = 0.0", "initial.h3 = -0.6")
    rho = parse_scenario(text).initial_density()
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), [0.0, 0.1, 0.1, 0.8],
                       atol=1e-12)


def test_scan_section_validation():
    scan_text = BASE + "scan.axis = alpha\nscan.start = 0\nscan.stop = 1\nscan.steps = 3\n"
    s = parse_scenario(scan_text)
    assert s.scan.axis == "alpha"
    assert np.allclose(s.scan.values(), [0.0, 0.5, 1.0])
    with pytest.raises(ScenarioError):
        parse_scenario(scan_text.replace("scan.axis = alpha", "scan.axis = sideways"))
    with pytest.raises(ScenarioError):
        parse_scenario(scan_text.replace("scan.stop = 1", "scan.stop = -2"))
    # distance scan needs a geometry block
    with pytest.raises(ScenarioError):
        parse_scenario(BASE + "scan.axis = distance\nscan.start = 0.1\n"
                              "scan.stop = 0.4\nscan.steps = 2\n")
    # alpha scan needs an alpha_state initial condition
    with pytest.raises(ScenarioError):
        parse_scenario(scan_text.replace("initial.kind = alpha_state",
                                         "initial.kind = doubly_excited"))


def test_run_scenario_ground_state_all_zero():
    text = (BASE.replace("initial.kind = alpha_state", "initial.kind = ground")
            .replace("initial.alpha = 0.5\n", "").replace("initial.phi = 0.0\n", ""))
    table = run_scenario(parse_scenario(text))
    assert table.header == ("t", "MI", "CC", "QD", "C", "EoF", "theta_m", "phi_m")
    for row in table.rows:
        assert len(row) == len(table.header)
        for column in ("MI", "CC", "QD", "C", "EoF"):
            assert abs(float(row[table.header.index(column)])) <= 1e-9


def test_run_scenario_deterministic():
    scenario = parse_scenario(BASE)
    assert run_scenario(scenario).to_csv() == run_scenario(scenario).to_csv()


def test_run_scenario_csv_shape():
    table = run_scenario(parse_scenario(BASE))
    text = table.to_csv()
    lines = text.split("\n")
    assert lines[0] == "t,MI,CC,QD,C,EoF,theta_m,phi_m"
    assert len(lines) == 1 + 5 + 1  # header + rows + trailing newline
    assert text.endswith("\n")
    assert "\r" not in text
    # 15-significant-digit decimal text
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "0.5"


SCANS = {
    "alpha": BASE + "scan.axis = alpha\nscan.start = 0\nscan.stop = 1\nscan.steps = 3\n",
    "laser_amplitude": BASE + ("scan.axis = laser_amplitude\nscan.start = 0\n"
                               "scan.stop = 0.5\nscan.steps = 2\n"),
    "distance": GEOMETRY + ("scan.axis = distance\nscan.start = 0.2\n"
                            "scan.stop = 0.4\nscan.steps = 2\n"),
}


@pytest.mark.parametrize("axis", sorted(SCANS))
def test_run_scenario_scan_matches_point_runs(axis):
    scenario = parse_scenario(SCANS[axis])
    table = run_scenario(scenario)
    values = scenario.scan.values()
    assert table.header == (axis, "t", "MI", "CC", "QD", "C", "EoF", "theta_m", "phi_m")
    assert len(table.rows) == len(values) * scenario.sample_count
    # rows ordered by scan value, then time
    keys = [(float(r[0]), float(r[1])) for r in table.rows]
    assert keys == sorted(keys)
    # one search over all points gives each point's own evolve rows, byte for byte
    expected = [",".join(table.header)]
    for value in values:
        point = replace(_apply_scan_point(scenario, float(value)), scan=None)
        expected.extend(format(value, ".15g") + "," + line
                        for line in run_scenario(point).to_csv().splitlines()[1:])
    assert table.to_csv() == "\n".join(expected) + "\n"


def test_run_scenario_scan_is_one_search_pass(monkeypatch):
    calls = {"propagate": 0, "correlation_records": 0}

    def counted(name):
        original = getattr(scenario_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scenario_mod, name, counted(name))
    scenario = parse_scenario(SCANS["alpha"])
    run_scenario(scenario)
    assert calls == {"propagate": scenario.scan.steps, "correlation_records": 1}


def test_state_count_is_capped():
    with pytest.raises(ScenarioError, match="exceeds"):
        parse_scenario(BASE.replace("time.samples = 5", "time.samples = 1000000000000"))
    scan = BASE.replace("time.samples = 5", "time.samples = 100000") + (
        "scan.axis = laser_amplitude\nscan.start = 0\nscan.stop = 1\n")
    with pytest.raises(ScenarioError, match="exceeds"):
        parse_scenario(scan + "scan.steps = 11\n")
    assert parse_scenario(scan + "scan.steps = 10\n").scan.steps == 10


def test_distance_scan_default_window():
    s = parse_scenario(GEOMETRY + "scan.axis = distance\nscan.steps = 4\n")
    assert s.scan.start == 0.1
    assert s.scan.stop == 0.4


SHIPPED = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
PINNED = pathlib.Path(__file__).resolve().parent / "data"


def test_shipped_scenarios_parse():
    for name in ("sudden_birth.cfg", "subradiant_bell.cfg",
                 "driven_stationary.cfg", "distance_scan.cfg"):
        scenario = load_scenario(str(SHIPPED / name))
        assert scenario.sample_count >= 2
    geometry = load_geometry(str(SHIPPED / "geometry.cfg"))
    assert geometry.r12_over_lambda0 == 0.108


@pytest.mark.parametrize("name", ["sudden_birth", "driven_stationary",
                                  "subradiant_bell", "distance_scan"])
def test_shipped_scenario_outputs_are_pinned(monkeypatch, name):
    # data/<name>.csv is the committed output of scenarios/<name>.cfg. The
    # scan value and t must match exactly and MI, CC, QD, C, EoF within
    # 1e-12. theta_m and phi_m are compared as measurements, not as labels:
    # the conditional entropy at the pinned and at the new angles must agree
    # within 1e-12, so a mirror relabel or a flat-phi row passes and a
    # different measurement fails. A change that moves outputs on purpose
    # regenerates the files
    searched, records = [], scenario_mod.correlation_records

    def capture(rhos):
        searched.append(rhos)
        return records(rhos)

    monkeypatch.setattr(scenario_mod, "correlation_records", capture)
    table = run_scenario(load_scenario(str(SHIPPED / f"{name}.cfg")))
    header, *pinned = (line.split(",") for line in
                       (PINNED / f"{name}.csv").read_text(encoding="utf-8").splitlines())
    assert table.header == tuple(header)
    got, want = np.array(table.rows), np.array(pinned)
    assert got.shape == want.shape
    labels = header.index("t") + 1           # the scan value, if any, then t
    assert (got[:, :labels] == want[:, :labels]).all()
    measures = slice(labels, labels + 5)
    assert np.abs(got[:, measures].astype(float)
                  - want[:, measures].astype(float)).max() <= 1e-12
    angles = slice(labels + 5, labels + 7)
    (rhos,) = searched
    for rho, new, old in zip(rhos, got[:, angles].astype(float),
                             want[:, angles].astype(float)):
        at_new, at_old = conditional_entropy(rho, *np.transpose([new, old]))
        assert abs(at_new - at_old) <= 1e-12


_KEYS = (["initial.kind", "initial.alpha", "initial.phi"]
         + [f"initial.h{i}" for i in (1, 2, 3)]
         + [f"initial.row{i}" for i in range(4)]
         + [f"params.{k}" for k in scenario_mod._PARAM_KEYS]
         + [f"geometry.{k}" for k in scenario_mod._GEOMETRY_KEYS]
         + ["time.t_final", "time.samples",
            "scan.axis", "scan.start", "scan.stop", "scan.steps"])
_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e400",
                     "1e-320", "0", "-1", "1", "0.5", "3", "0 0 1", "1 0 0",
                     "nan 0 1", "0 inf 0", "1 2", "0.5 0 0 0.5j", "nan+1j 0 0 0",
                     "1e400j 0 0 0", "9" * 5000, *scenario_mod._INITIAL_KINDS,
                     *scenario_mod._SCAN_AXES]),
    st.floats().map(repr),
    st.integers(-10, 10 ** 13).map(str),
    st.text(max_size=12),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(base=st.sampled_from([BASE, GEOMETRY, SCANS["alpha"], SCANS["distance"]]),
       overrides=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4),
       dropped=st.sets(st.sampled_from(_KEYS), max_size=2))
def test_parser_returns_scenario_or_config_error(base, overrides, dropped):
    # nan, inf, huge and garbage values over the scenario keys: a Scenario or
    # a configuration error, never another exception type
    entries = parse_flat_config(base)
    entries.update(overrides)
    text = "".join(f"{k} = {v}\n" for k, v in entries.items() if k not in dropped)
    try:
        assert isinstance(parse_scenario(text), Scenario)
    except (ScenarioError, GeometryError):
        pass
