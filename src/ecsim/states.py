"""Two-qubit state primitives: basis conventions, validation, partial trace, entropies.

The product basis is ordered {|00>, |01>, |10>, |11>} with qubit A as the left
factor, so index = 2*a + b for single-qubit labels a, b in {0, 1}. All
entropies are base 2 (bits).
"""
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalStateError

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
# eigenvalues in [-NEGATIVITY_TOL, 0) are treated as roundoff and clamped to 0;
# anything more negative is an error, not silently fixed
NEGATIVITY_TOL = 1e-8

_LN2 = np.log(2.0)


def ground_state() -> np.ndarray:
    """Density matrix |00><00|."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def doubly_excited_state() -> np.ndarray:
    """Density matrix |11><11|."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    return rho


def alpha_ket(alpha: float, phi: float = 0.0) -> np.ndarray:
    """Single-excitation ket sqrt(alpha)|01> + e^{i phi} sqrt(1-alpha)|10>."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    ket = np.zeros(4, dtype=complex)
    ket[1] = np.sqrt(alpha)
    ket[2] = np.exp(1j * phi) * np.sqrt(1.0 - alpha)
    return ket


def bell_ket(kind: str) -> np.ndarray:
    """One of the four Bell kets: 'phi+', 'phi-', 'psi+', 'psi-'."""
    ket = np.zeros(4, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    if kind == "phi+":
        ket[0] = ket[3] = s
    elif kind == "phi-":
        ket[0], ket[3] = s, -s
    elif kind == "psi+":
        ket[1] = ket[2] = s
    elif kind == "psi-":
        ket[1], ket[2] = s, -s
    else:
        raise ValueError(f"unknown Bell state {kind!r}")
    return ket


def density_from_ket(ket: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| from a normalized ket."""
    ket = np.asarray(ket, dtype=complex)
    norm = np.linalg.norm(ket)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"ket norm deviates from 1 by {abs(norm - 1.0):.2e}")
    return np.outer(ket, ket.conj())


@dataclass(frozen=True)
class StateReport:
    """Diagnostics from validate_state; `ok` means all three invariants hold."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian: bool
    unit_trace: bool
    positive: bool

    @property
    def ok(self) -> bool:
        return self.hermitian and self.unit_trace and self.positive


def validate_state(rho: np.ndarray,
                   herm_tol: float = HERMITICITY_TOL,
                   trace_tol: float = TRACE_TOL,
                   neg_tol: float = NEGATIVITY_TOL) -> StateReport:
    """Check Hermiticity, unit trace, and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = float(abs(rho.trace() - 1.0))
    # eigenvalues of the Hermitian part; a non-Hermitian input is already
    # flagged by herm, and the symmetrized spectrum is the meaningful one
    evmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    return StateReport(
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=evmin,
        hermitian=herm <= herm_tol,
        unit_trace=trace <= trace_tol,
        positive=evmin >= -neg_tol,
    )


def assert_physical(rho: np.ndarray, context: str = "state") -> None:
    """Raise NonPhysicalStateError unless validate_state passes."""
    report = validate_state(rho)
    if not report.ok:
        raise NonPhysicalStateError(
            f"{context} violates invariants: hermiticity defect "
            f"{report.hermiticity_defect:.2e}, trace defect {report.trace_defect:.2e}, "
            f"min eigenvalue {report.min_eigenvalue:.2e}")


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced 2x2 state of subsystem `keep` ('A' or 'B')."""
    rho = np.asarray(rho, dtype=complex)
    tensor = rho.reshape(2, 2, 2, 2)  # indices (a, b, a', b')
    if keep == "A":
        return np.trace(tensor, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(tensor, axis1=0, axis2=2)
    raise ValueError(f"subsystem label must be 'A' or 'B', got {keep!r}")


def clamped_spectrum(rho: np.ndarray, neg_tol: float = NEGATIVITY_TOL) -> np.ndarray:
    """Eigenvalues with roundoff negatives clamped to 0.

    Eigenvalues in [-neg_tol, 0) become 0; anything below -neg_tol raises
    NonPhysicalStateError (that is a numerical failure, not roundoff).
    """
    ev = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    if ev.min() < -neg_tol:
        raise NonPhysicalStateError(
            f"eigenvalue {ev.min():.3e} below -{neg_tol:.0e}: non-physical state")
    return np.clip(ev, 0.0, None)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -tr(rho log2 rho) in bits, with 0*log(0) := 0."""
    ev = clamped_spectrum(rho)
    ev = ev[ev > 0.0]
    return float(-(ev * np.log(ev)).sum() / _LN2)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x)."""
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x}")
    x = min(max(x, 0.0), 1.0)
    total = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            total -= p * np.log(p)
    return float(total / _LN2)
