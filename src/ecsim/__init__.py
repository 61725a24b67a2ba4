"""ecsim: correlation dynamics of two dipole-dipole coupled, optically driven
quantum emitters under a Markovian master equation.

Quantifies total (mutual information), classical (measurement-optimized), and
quantum (discord, concurrence, entanglement of formation) correlations along
dissipative trajectories, with closed-form cross-checks for the
single-excitation family and a scenario-driven CLI.
"""
from .correlations import (CorrelationRecord, concurrence, conditional_entropy,
                           correlation_records, eof_from_concurrence,
                           mutual_information, xstate_concurrence,
                           xstate_conditional_entropy_branches)
from .couplings import (CouplingSet, EmitterGeometry, collective_decay,
                        coupling_strength, couplings)
from .dynamics import (AlphaState, EvolutionResult, SystemParams,
                       analytic_evolution, build_bell_diagonal,
                       build_hamiltonian, liouvillian, propagate, stationary_state)
from .errors import (AnalyticFormError, EmitterSimError, GeometryError,
                     NonPhysicalStateError, NumericsError, PropagationError,
                     ScenarioError, XStructureError)
from .scenario import (OutputTable, ScanSpec, Scenario, load_geometry,
                       load_scenario, parse_scenario, run_scenario)
from .states import (StateReport, alpha_ket, bell_ket, binary_entropy,
                     density_from_ket, doubly_excited_state, ground_state,
                     partial_trace, validate_state, von_neumann_entropy)

__version__ = "0.1.0"

__all__ = [
    "AlphaState", "AnalyticFormError", "CorrelationRecord", "CouplingSet",
    "EmitterGeometry", "EmitterSimError", "EvolutionResult", "GeometryError",
    "NonPhysicalStateError", "NumericsError", "OutputTable", "PropagationError",
    "ScanSpec", "Scenario", "ScenarioError", "StateReport", "SystemParams",
    "XStructureError", "alpha_ket", "analytic_evolution", "bell_ket",
    "binary_entropy", "build_bell_diagonal", "build_hamiltonian",
    "collective_decay", "concurrence", "conditional_entropy",
    "correlation_records", "coupling_strength", "couplings", "density_from_ket",
    "doubly_excited_state", "eof_from_concurrence", "ground_state",
    "liouvillian", "load_geometry", "load_scenario", "mutual_information",
    "parse_scenario", "partial_trace", "propagate", "run_scenario",
    "stationary_state", "validate_state", "von_neumann_entropy",
    "xstate_concurrence", "xstate_conditional_entropy_branches",
]
