"""Rotating-frame Hamiltonian, Lindblad generator, exact propagation, and
the closed-form evolution of the single-excitation family.

Units: hbar = 1, all rates and energies in units of the reference decay rate
Gamma, times in 1/Gamma. The frame rotates at the laser frequency, which makes
the generator time independent.
"""
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, null_space

from . import states
from .couplings import EmitterGeometry, couplings
from .errors import (AnalyticFormError, NonPhysicalStateError, NumericsError,
                     PropagationError)

# raising/lowering operators in the ordered product basis, qubit A first
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
_SM = _SP.conj().T
_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
SP1 = np.kron(_SP, _I2)
SM1 = np.kron(_SM, _I2)
SP2 = np.kron(_I2, _SP)
SM2 = np.kron(_I2, _SM)
_N1 = SP1 @ SM1
_N2 = SP2 @ SM2


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of the master equation, all in units of Gamma.

    delta_minus = nu1 - nu2 (molecular detuning), delta_plus = (nu1+nu2)/2 - nu_L
    (laser detuning), ell1/ell2 are the laser Rabi amplitudes.
    """

    V: float
    gamma: float
    Gamma1: float = 1.0
    Gamma2: float = 1.0
    delta_minus: float = 0.0
    delta_plus: float = 0.0
    ell1: float = 0.0
    ell2: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.Gamma1 <= 0.0 or self.Gamma2 <= 0.0:
            raise ValueError("Gamma1 and Gamma2 must be > 0")
        bound = np.sqrt(self.Gamma1 * self.Gamma2)
        if abs(self.gamma) > bound + 1e-9:
            raise ValueError(
                f"|gamma| = {abs(self.gamma)} exceeds sqrt(Gamma1 Gamma2) = {bound}")

    @classmethod
    def from_geometry(cls, geometry: EmitterGeometry, delta_minus: float = 0.0,
                      delta_plus: float = 0.0, ell1: float = 0.0,
                      ell2: float = 0.0) -> "SystemParams":
        """Derive V and gamma from the geometry; drive terms passed through."""
        cs = couplings(geometry)
        return cls(V=cs.V, gamma=cs.gamma, Gamma1=geometry.Gamma1,
                   Gamma2=geometry.Gamma2, delta_minus=delta_minus,
                   delta_plus=delta_plus, ell1=ell1, ell2=ell2)


@dataclass(frozen=True)
class AlphaState:
    """Initial single-excitation superposition sqrt(alpha)|01> + e^{i phi} sqrt(1-alpha)|10>."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    def ket(self) -> np.ndarray:
        return states.alpha_ket(self.alpha, self.phi)

    def density(self) -> np.ndarray:
        return states.density_from_ket(self.ket())


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """Sampled trajectory: times (n,) in 1/Gamma and states (n, 4, 4)."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian (4x4 Hermitian, units of Gamma).

    Detunings sit on the diagonal through the excitation numbers, the exchange
    coupling V connects |01> and |10>, and the resonant drive couples each
    emitter's ground and excited levels.
    """
    d1 = params.delta_plus + 0.5 * params.delta_minus
    d2 = params.delta_plus - 0.5 * params.delta_minus
    h = d1 * _N1 + d2 * _N2
    h = h + params.V * (SP1 @ SM2 + SM1 @ SP2)
    h = h + params.ell1 * (SP1 + SM1) + params.ell2 * (SP2 + SM2)
    return h


def _dissipator_terms(params: SystemParams):
    return ((params.Gamma1, _N1, SM1, SP1),
            (params.Gamma2, _N2, SM2, SP2),
            (params.gamma, SP1 @ SM2, SM1, SP2),
            (params.gamma, SP2 @ SM1, SM2, SP1))


def lindblad_rhs(rho: np.ndarray, params: SystemParams) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + L(rho) with individual and collective decay."""
    rho = np.asarray(rho, dtype=complex)
    h = build_hamiltonian(params)
    out = -1j * (h @ rho - rho @ h)
    for rate, anti, jump_l, jump_r in _dissipator_terms(params):
        out = out - 0.5 * rate * (rho @ anti + anti @ rho
                                  - 2.0 * (jump_l @ rho @ jump_r))
    return out


def liouvillian(params: SystemParams) -> np.ndarray:
    """16x16 generator acting on column-stacked rho: d vec(rho)/dt = L vec(rho)."""
    h = build_hamiltonian(params)
    lio = -1j * (np.kron(_I4, h) - np.kron(h.T, _I4))
    for rate, anti, jump_l, jump_r in _dissipator_terms(params):
        lio = lio - 0.5 * rate * (np.kron(anti.T, _I4) + np.kron(_I4, anti)
                                  - 2.0 * np.kron(jump_r.T, jump_l))
    return lio


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(16, order="F")


def _unvec(vec: np.ndarray) -> np.ndarray:
    return vec.reshape(4, 4, order="F")


def propagate(rho0: np.ndarray, params: SystemParams, t_final: float,
              sample_count: int, project: bool = False) -> EvolutionResult:
    """Evolve under the master equation and sample the state on a uniform grid.

    The laser-frame generator is time independent, so sample k is exactly
    exp(L dt)^k rho0; the one-step propagator comes from scaling and squaring
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)), and the
    samples are exact however coarse the grid.

    Parameters
    ----------
    rho0 : initial density matrix (validated).
    params : master-equation coefficients.
    t_final : final time in 1/Gamma; samples cover [0, t_final].
    sample_count : number of samples, >= 2.
    project : symmetrize each sample as (rho + rho^dagger)/2 before validation
        (exploratory runs only; invariant violations otherwise fail loudly).

    Returns an EvolutionResult whose every sample satisfies the density-matrix
    invariants; raises PropagationError otherwise.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    states.assert_physical(rho0, "initial state")
    if t_final <= 0.0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")

    times = np.linspace(0.0, t_final, sample_count)
    step = expm(liouvillian(params) * (times[1] - times[0]))
    vecs = np.empty((sample_count, 16), dtype=complex)
    vec = vecs[0] = _vec(rho0)
    for k in range(1, sample_count):
        vec = vecs[k] = step @ vec
    # rows are column-stacked, so the C-order reshape holds each rho transposed
    sampled = np.ascontiguousarray(
        vecs.reshape(sample_count, 4, 4).transpose(0, 2, 1))
    if project:
        sampled = 0.5 * (sampled + sampled.conj().transpose(0, 2, 1))
    _validate_samples(sampled, times)
    return EvolutionResult(times=times, states=sampled)


def _validate_samples(sampled: np.ndarray, times: np.ndarray) -> None:
    """Batched validate_state over (n, 4, 4) samples; raise PropagationError
    naming the first sample that breaks an invariant (NaN breaks all three)."""
    adjoint = sampled.conj().transpose(0, 2, 1)
    herm = np.abs(sampled - adjoint).max(axis=(1, 2))
    trace = np.abs(np.trace(sampled, axis1=1, axis2=2) - 1.0)
    # eigvalsh does not converge on non-finite input; such samples fail anyway
    finite = np.isfinite(sampled).all(axis=(1, 2))
    hermitian_part = np.where(finite[:, None, None],
                              0.5 * (sampled + adjoint), 0.0)
    evmin = np.where(finite, np.linalg.eigvalsh(hermitian_part)[:, 0], np.nan)
    ok = ((herm <= states.HERMITICITY_TOL) & (trace <= states.TRACE_TOL)
          & (evmin >= -states.NEGATIVITY_TOL))
    if not ok.all():
        k = int(np.argmin(ok))
        raise PropagationError(
            f"propagation diverged at sample {k} (t = {times[k]:.6g}): "
            f"hermiticity defect {herm[k]:.2e}, trace defect "
            f"{trace[k]:.2e}, min eigenvalue {evmin[k]:.2e}")


def analytic_evolution(state: AlphaState, params: SystemParams, t):
    """Closed-form evolution of the alpha family without laser drive.

    Valid for ell1 = ell2 = 0, delta_minus = 0, and Gamma1 = Gamma2. The state
    stays in the X class with zero doubly-excited population; accepts a scalar
    t (returns 4x4) or an array of times (returns (n, 4, 4)).
    """
    if params.ell1 != 0.0 or params.ell2 != 0.0:
        raise AnalyticFormError("closed form requires zero laser amplitudes")
    if params.delta_minus != 0.0:
        raise AnalyticFormError("closed form requires identical emitters (delta_minus = 0)")
    if params.Gamma1 != params.Gamma2:
        raise AnalyticFormError("closed form requires Gamma1 = Gamma2")

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    big_gamma, gam, v = params.Gamma1, params.gamma, params.V
    alpha, phi = state.alpha, state.phi
    f = np.sqrt(alpha * (1.0 - alpha))
    theta = 2.0 * v * t_arr

    e_gt = np.exp(gam * t_arr)
    e_mgt = np.exp(-gam * t_arr)
    e_mGt = np.exp(-big_gamma * t_arr)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)

    rho = np.zeros((t_arr.size, 4, 4), dtype=complex)
    # ground population grows as the excitation decays; the symmetric and
    # antisymmetric channels empty at Gamma + gamma and Gamma - gamma
    rho[:, 0, 0] = 1.0 - e_mGt * (e_mgt * (0.5 + f * cos_phi)
                                  + e_gt * (0.5 - f * cos_phi))
    common = e_mgt * (0.5 + f * cos_phi) + e_gt * (0.5 - f * cos_phi)
    osc_pop = (1.0 - 2.0 * alpha) * np.cos(theta) - 2.0 * f * sin_phi * np.sin(theta)
    rho[:, 1, 1] = 0.5 * e_mGt * (common - osc_pop)
    rho[:, 2, 2] = 0.5 * e_mGt * (common + osc_pop)
    coh_re = e_mgt * (0.5 + f * cos_phi) - e_gt * (0.5 - f * cos_phi)
    coh_im = 2.0 * f * sin_phi * np.cos(theta) + (1.0 - 2.0 * alpha) * np.sin(theta)
    rho[:, 1, 2] = 0.5 * e_mGt * coh_re - 0.5j * e_mGt * coh_im
    rho[:, 2, 1] = np.conj(rho[:, 1, 2])

    return rho[0] if np.isscalar(t) or np.ndim(t) == 0 else rho


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def build_bell_diagonal(h1: float, h2: float, h3: float) -> np.ndarray:
    """State (1/4)(I + sum_i h_i sigma_i x sigma_i) with maximally mixed marginals."""
    rho = 0.25 * np.eye(4, dtype=complex)
    for h, sigma in zip((h1, h2, h3), _PAULI):
        rho = rho + 0.25 * h * np.kron(sigma, sigma)
    if np.linalg.eigvalsh(rho).min() < -1e-12:
        raise NonPhysicalStateError(
            f"invalid Bell-diagonal coefficients ({h1}, {h2}, {h3}): not PSD")
    return rho


def stationary_state(params: SystemParams) -> np.ndarray:
    """Unique fixed point of the generator, from the Liouvillian null space."""
    kernel = null_space(liouvillian(params), rcond=1e-10)
    if kernel.shape[1] != 1:
        raise NumericsError(
            f"stationary state not unique: null space dimension {kernel.shape[1]}")
    rho = _unvec(kernel[:, 0])
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / rho.trace().real
    states.assert_physical(rho, "stationary state")
    return rho
