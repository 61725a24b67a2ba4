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
    """Diagnostics from validate_state: floats and bools for one state, arrays
    over the leading axes for a stack; `ok` means all three invariants hold."""

    hermiticity_defect: float | np.ndarray
    trace_defect: float | np.ndarray
    min_eigenvalue: float | np.ndarray
    hermitian: bool | np.ndarray
    unit_trace: bool | np.ndarray
    positive: bool | np.ndarray

    @property
    def ok(self) -> bool | np.ndarray:
        return self.hermitian & self.unit_trace & self.positive


def validate_state(rho: np.ndarray) -> StateReport:
    """Check Hermiticity, unit trace and positivity of an (n, n) density
    matrix, or of each state of an (..., n, n) stack.

    A state with a non-finite entry reads NaN in all three defects and so
    fails all three invariants.
    """
    rho = np.asarray(rho, dtype=complex)
    adjoint = np.swapaxes(rho, -1, -2).conj()
    finite = np.isfinite(rho).all(axis=(-2, -1))
    # eigenvalues of the Hermitian part; a non-Hermitian input is already
    # flagged by herm, and the symmetrized spectrum is the meaningful one.
    # eigvalsh does not converge on non-finite input, so such states are zeroed
    hermitian_part = np.where(finite[..., None, None], 0.5 * (rho + adjoint), 0.0)
    defects = (np.abs(rho - adjoint).max(axis=(-2, -1)),
               np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0),
               np.linalg.eigvalsh(hermitian_part)[..., 0])
    herm, trace, evmin = (_float_or_array(np.where(finite, d, np.nan)) for d in defects)
    return StateReport(hermiticity_defect=herm, trace_defect=trace,
                       min_eigenvalue=evmin, hermitian=herm <= HERMITICITY_TOL,
                       unit_trace=trace <= TRACE_TOL,
                       positive=evmin >= -NEGATIVITY_TOL)


def assert_physical(rho: np.ndarray, context: str = "state") -> None:
    """Raise NonPhysicalStateError unless validate_state passes."""
    report = validate_state(rho)
    if not report.ok:
        raise NonPhysicalStateError(
            f"{context} violates invariants: hermiticity defect "
            f"{report.hermiticity_defect:.2e}, trace defect {report.trace_defect:.2e}, "
            f"min eigenvalue {report.min_eigenvalue:.2e}")


def _float_or_array(value):
    """A 0-d result as a Python float, anything larger unchanged."""
    return float(value) if np.ndim(value) == 0 else value


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced 2x2 state(s) of subsystem `keep` ('A' or 'B') of a (..., 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"need (..., 4, 4) two-qubit states, got shape {rho.shape}")
    tensor = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))  # indices (..., a, b, a', b')
    if keep == "A":
        return np.trace(tensor, axis1=-3, axis2=-1)
    if keep == "B":
        return np.trace(tensor, axis1=-4, axis2=-2)
    raise ValueError(f"subsystem label must be 'A' or 'B', got {keep!r}")


def _require_finite(rho: np.ndarray) -> np.ndarray:
    """The (..., n, n) stack as complex; NonPhysicalStateError if any entry is
    NaN or infinite, which no eigenvalue routine reports on its own."""
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise NonPhysicalStateError("state has a non-finite entry: non-physical state")
    return rho


def clamped_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (..., n, n) stack with roundoff negatives clamped to 0.

    Eigenvalues in [-NEGATIVITY_TOL, 0) become 0; anything below, or a
    non-finite entry, raises NonPhysicalStateError (that is a numerical
    failure, not roundoff).
    """
    ev = np.linalg.eigvalsh(_require_finite(rho))
    if ev.min(initial=0.0) < -NEGATIVITY_TOL:
        raise NonPhysicalStateError(
            f"eigenvalue {ev.min():.3e} below -{NEGATIVITY_TOL:.0e}: non-physical state")
    return np.clip(ev, 0.0, None)


def von_neumann_entropy(rho: np.ndarray):
    """S(rho) = -tr(rho log2 rho) in bits, with 0*log(0) := 0.

    A float for one (n, n) state, an array for a (..., n, n) stack.
    """
    ev = clamped_spectrum(rho)
    log_ev = np.log(np.where(ev > 0.0, ev, 1.0))
    return _float_or_array(-(ev * log_ev).sum(axis=-1) / _LN2)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), elementwise; a float for a float."""
    x = np.asarray(x, dtype=float)
    bad = ~((x >= -1e-12) & (x <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"binary_entropy argument outside [0, 1]: {x[bad].flat[0]}")
    x = np.clip(x, 0.0, 1.0)
    total = np.zeros_like(x)
    for p in (x, 1.0 - x):
        total -= np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return _float_or_array(total / _LN2)
