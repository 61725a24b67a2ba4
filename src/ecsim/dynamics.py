"""Rotating-frame Hamiltonian, Lindblad generator, exact propagation, and
the closed-form evolution of the single-excitation family.

Units: hbar = 1, all rates and energies in units of the reference decay rate
Gamma, times in 1/Gamma. The frame rotates at the laser frequency, which makes
the generator time independent.
"""
from dataclasses import dataclass

import numpy as np

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
# the five Hamiltonian terms, weighted by the first five generator coefficients:
# detunings on the excitation numbers, the exchange coupling, and the drives
_H_TERMS = np.stack((_N1, _N2, SP1 @ SM2 + SM1 @ SP2, SP1 + SM1, SP2 + SM2))


def _commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[h, .] on column-stacked rho."""
    return -1j * (np.kron(_I4, h) - np.kron(h.T, _I4))


def _dissipator(anti: np.ndarray, jump_l: np.ndarray, jump_r: np.ndarray) -> np.ndarray:
    """Superoperator of jump_l rho jump_r - {anti, rho}/2 on column-stacked rho."""
    return -0.5 * (np.kron(anti.T, _I4) + np.kron(_I4, anti)
                   - 2.0 * np.kron(jump_r.T, jump_l))


# the generator is linear in its eight coefficients (_coefficients): the five
# Hamiltonian commutators, then individual decay of A and B, then the sum of
# the two collective cross terms
_GENERATOR_TERMS = np.stack(
    [_commutator(h) for h in _H_TERMS]
    + [_dissipator(_N1, SM1, SP1), _dissipator(_N2, SM2, SP2),
       _dissipator(SP1 @ SM2, SM1, SP2) + _dissipator(SP2 @ SM1, SM2, SP1)])


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


def _coefficients(params: SystemParams) -> np.ndarray:
    """(d1, d2, V, ell1, ell2, Gamma1, Gamma2, gamma): the weights of
    _GENERATOR_TERMS, the first five also those of _H_TERMS. d1, d2 =
    delta_plus +- delta_minus/2 are the emitters' detunings from the laser."""
    return np.array((params.delta_plus + 0.5 * params.delta_minus,
                     params.delta_plus - 0.5 * params.delta_minus,
                     params.V, params.ell1, params.ell2,
                     params.Gamma1, params.Gamma2, params.gamma))


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """Rotating-frame Hamiltonian (4x4 Hermitian, units of Gamma).

    Detunings sit on the diagonal through the excitation numbers, the exchange
    coupling V connects |01> and |10>, and the resonant drive couples each
    emitter's ground and excited levels.
    """
    return np.tensordot(_coefficients(params)[:5], _H_TERMS, axes=1)


def liouvillian(params: SystemParams) -> np.ndarray:
    """16x16 generator acting on column-stacked rho: d vec(rho)/dt = L vec(rho).

    L is linear in the eight coefficients (delta_plus +- delta_minus/2, V,
    ell1, ell2, Gamma1, Gamma2, gamma): it is their combination of a fixed
    table of superoperators built once at import, -i[H_k, .] for the five
    Hamiltonian terms and the dissipators of individual and collective decay.
    """
    return np.tensordot(_coefficients(params), _GENERATOR_TERMS, axes=1)


# Pade-13 numerator coefficients b_0..b_13 and the 1-norm up to which the
# unscaled approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)); all-NaN for a non-finite input or
    result."""
    norm = np.abs(a).sum(axis=0).max()
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # (V - U)^-1 (V + U) written as I + 2 (V - U)^-1 U: the solve carries only
    # the departure from I, so its rounding stays off the unit diagonal. The
    # first form loses ~1 ulp per short step, 10x scipy's error over a
    # 200-sample trajectory
    r = 2.0 * np.linalg.solve(v - u, u)
    r[np.diag_indices_from(r)] += 1.0
    # squarings can overflow on a generator too stiff for double precision
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r if np.isfinite(r).all() else np.full_like(r, np.nan)


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(16, order="F")


def _unvec(vec: np.ndarray) -> np.ndarray:
    return vec.reshape(4, 4, order="F")


def propagate(rho0: np.ndarray, params: SystemParams, t_final: float,
              sample_count: int) -> EvolutionResult:
    """Evolve under the master equation and sample the state on a uniform grid.

    The laser-frame generator is time independent, so sample k is exactly
    exp(L dt)^k rho0, and the samples are exact however coarse the grid. The
    one-step propagator is a Pade-13 approximant with scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)). The samples are
    filled by doubling: with rows 0..m-1 known, rows m..2m-1 are those rows
    times exp(L dt)^m, so about log2(sample_count) products replace one per
    sample.

    Parameters
    ----------
    rho0 : initial density matrix; it is sample 0, validated with the others.
    params : master-equation coefficients.
    t_final : final time in 1/Gamma; samples cover [0, t_final].
    sample_count : number of samples, >= 2.

    Returns an EvolutionResult whose every sample satisfies the density-matrix
    invariants, checked by one validate_state call on the whole stack. Sample 0
    is rho0 bit for bit, so a bad rho0 raises NonPhysicalStateError ("initial
    state violates invariants"); any later failing sample, PropagationError.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if t_final <= 0.0:
        raise ValueError(f"t_final must be > 0, got {t_final}")
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")

    times = np.linspace(0.0, t_final, sample_count)
    power = _expm(liouvillian(params) * (times[1] - times[0]))
    vecs = np.empty((sample_count, 16), dtype=complex)
    vecs[0] = _vec(rho0)
    filled = 1
    while filled < sample_count:
        count = min(filled, sample_count - filled)
        vecs[filled:filled + count] = vecs[:count] @ power.T
        filled += count
        power = power @ power
    # rows are column-stacked, so the C-order reshape holds each rho transposed
    sampled = np.ascontiguousarray(
        vecs.reshape(sample_count, 4, 4).transpose(0, 2, 1))
    report = states.validate_state(sampled)
    if not report.ok.all():
        k = int(np.argmin(report.ok))
        defects = (f"hermiticity defect {report.hermiticity_defect[k]:.2e}, "
                   f"trace defect {report.trace_defect[k]:.2e}, "
                   f"min eigenvalue {report.min_eigenvalue[k]:.2e}")
        if k == 0:
            raise NonPhysicalStateError(f"initial state violates invariants: {defects}")
        raise PropagationError(
            f"propagation diverged at sample {k} (t = {times[k]:.6g}): {defects}")
    return EvolutionResult(times=times, states=sampled)


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
    """Unique fixed point of the generator: the right singular vector of the
    Liouvillian's smallest singular value. The null space counts the singular
    values at or below 1e-10 times the largest; it must be one-dimensional."""
    _, sv, vh = np.linalg.svd(liouvillian(params))
    dimension = int((sv <= 1e-10 * sv[0]).sum())
    if dimension != 1:
        raise NumericsError(
            f"stationary state not unique: null space dimension {dimension}")
    rho = _unvec(vh[-1].conj())
    # the singular vector has an arbitrary phase; dividing by the complex trace
    # removes it before the Hermitian part is taken
    rho = rho / rho.trace()
    rho = 0.5 * (rho + rho.conj().T)
    states.assert_physical(rho, "stationary state")
    return rho
