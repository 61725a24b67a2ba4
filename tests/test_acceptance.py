"""Acceptance gate: the ten release criteria, one test per criterion.

Each test prints `ACCEPTANCE nn` and the check's report as `ecsim verify`
prints it (verdict, then expected/got/tolerance for every sub-check), then
asserts. The same checks back the `ecsim verify` subcommand.
"""
import pytest

import ecsim.correlations
from ecsim import verify


def _run(number, name):
    result = verify.run_check(name)
    print(f"\nACCEPTANCE {number:02d} {result}")
    failures = [line.label for line in result.lines if line.ok is False]
    assert result.passed, f"criterion {number} failed: {failures}"


def test_criterion_01_bell_diagonal_counterexamples():
    _run(1, "bell_diagonal_counterexamples")


def test_criterion_02_coupling_formulas():
    _run(2, "coupling_formulas")


def test_criterion_03_analytic_numeric_equivalence():
    _run(3, "analytic_numeric_equivalence")


def test_criterion_04_correlation_hierarchy():
    _run(4, "correlation_hierarchy")


def test_criterion_05_decay_rate_laws():
    _run(5, "decay_rate_laws")


def test_criterion_06_entanglement_sudden_birth():
    _run(6, "entanglement_sudden_birth")


def test_criterion_07_concurrence_exceeds_mutual_information():
    _run(7, "concurrence_exceeds_mutual_information")


def test_criterion_08_driven_stationarity():
    _run(8, "driven_stationarity")


def test_criterion_09_optimizer_soundness():
    _run(9, "optimizer_soundness")


def test_criterion_10_state_validity():
    _run(10, "state_validity")


def test_entanglement_checks_do_not_run_the_measurement_search(monkeypatch):
    # criteria 6 and 7 need C, MI and EoF only
    def no_search(rhos):
        raise AssertionError("measurement search called")

    monkeypatch.setattr(ecsim.correlations, "_minimize_batch", no_search)
    for name in ("entanglement_sudden_birth", "concurrence_exceeds_mutual_information"):
        assert verify.run_check(name).passed
