"""Hamiltonian construction, Lindblad generator, propagation, closed forms."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ecsim.dynamics
from ecsim import (AlphaState, AnalyticFormError, NonPhysicalStateError,
                   PropagationError, SystemParams, analytic_evolution,
                   build_bell_diagonal, build_hamiltonian, bell_ket, density_from_ket,
                   doubly_excited_state, ground_state, lindblad_rhs,
                   liouvillian, partial_trace, propagate, stationary_state,
                   validate_state)
from helpers import random_density_matrix


def test_hamiltonian_trivial_cases():
    zero = build_hamiltonian(SystemParams(V=0.0, gamma=0.0))
    assert np.allclose(zero, 0.0, atol=1e-15)

    exchange = build_hamiltonian(SystemParams(V=1.0, gamma=0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.allclose(exchange, expected, atol=1e-15)


def test_hamiltonian_detuning_diagonal():
    p = SystemParams(V=0.0, gamma=0.0, delta_plus=0.7, delta_minus=0.3)
    h = build_hamiltonian(p)
    # nu_i - nu_L on each excitation, summed for |11>
    assert np.allclose(np.diag(h), [0.0, 0.55, 0.85, 1.4], atol=1e-15)
    assert np.allclose(h, np.diag(np.diag(h)), atol=1e-15)


def test_hamiltonian_driven_spectrum():
    # traceless on resonance; exact spectrum from block diagonalization in the
    # symmetric/antisymmetric basis: {0, -V, (V +- sqrt(V^2 + 16 l^2))/2}
    v, ell = 2.03, 10.0
    h = build_hamiltonian(SystemParams(V=v, gamma=0.0, ell1=ell, ell2=ell))
    assert abs(np.trace(h)) < 1e-12
    root = np.sqrt(v * v + 16.0 * ell * ell)
    expected = np.sort([0.0, -v, 0.5 * (v + root), 0.5 * (v - root)])
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), expected, atol=1e-9)


def test_hamiltonian_hermitian(rng):
    for _ in range(5):
        p = SystemParams(V=rng.normal(), gamma=0.0,
                         delta_minus=rng.normal(), delta_plus=rng.normal(),
                         ell1=rng.normal(), ell2=rng.normal())
        h = build_hamiltonian(p)
        assert np.allclose(h, h.conj().T, atol=1e-14)


def test_lindblad_ground_state_stationary_without_drive():
    p = SystemParams(V=2.0, gamma=0.8, delta_plus=0.4)
    assert np.allclose(lindblad_rhs(ground_state(), p), 0.0, atol=1e-15)


def test_lindblad_doubly_excited_decay_rate():
    p = SystemParams(V=0.0, gamma=0.0, Gamma1=1.0, Gamma2=1.5)
    rate = lindblad_rhs(doubly_excited_state(), p)[3, 3]
    assert rate == pytest.approx(-(1.0 + 1.5), abs=1e-14)


def test_lindblad_trace_and_hermiticity_preserved(rng):
    p = SystemParams(V=1.7, gamma=0.6, ell1=0.8, ell2=0.3, delta_minus=0.2)
    for _ in range(100):
        rho = random_density_matrix(rng)
        out = lindblad_rhs(rho, p)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_liouvillian_matches_rhs(rng):
    p = SystemParams(V=1.1, gamma=0.4, ell1=0.5, ell2=0.5, delta_plus=0.3)
    lio = liouvillian(p)
    for _ in range(10):
        rho = random_density_matrix(rng)
        direct = lindblad_rhs(rho, p)
        vectorized = (lio @ rho.reshape(16, order="F")).reshape(4, 4, order="F")
        assert np.allclose(direct, vectorized, atol=1e-13)


def test_propagate_ground_state_constant():
    p = SystemParams(V=2.0, gamma=0.9)
    result = propagate(ground_state(), p, 5.0, 20)
    assert np.abs(result.states - ground_state()).max() < 1e-10


def test_propagate_decay_rates_of_bell_states():
    p = SystemParams(V=2.03, gamma=0.91)
    sym = propagate(density_from_ket(bell_ket("psi+")), p, 2.0, 60)
    excited = np.real(sym.states[:, 1, 1] + sym.states[:, 2, 2])
    assert np.abs(excited - np.exp(-(1 + 0.91) * sym.times)).max() < 1e-8

    antisym = propagate(density_from_ket(bell_ket("psi-")), p, 2.0, 60)
    excited = np.real(antisym.states[:, 1, 1] + antisym.states[:, 2, 2])
    assert np.abs(excited - np.exp(-(1 - 0.91) * antisym.times)).max() < 1e-8


def test_propagate_validates_samples(rng):
    p = SystemParams(V=1.0, gamma=0.5, ell1=1.0, ell2=1.0)
    result = propagate(random_density_matrix(rng), p, 8.0, 80)
    for rho in result.states:
        assert validate_state(rho).ok
    assert len(result) == 80
    assert np.all(np.diff(result.times) > 0)


def test_propagate_rejects_bad_input():
    p = SystemParams(V=1.0, gamma=0.0)
    with pytest.raises(NonPhysicalStateError):
        propagate(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex), p, 1.0, 10)
    with pytest.raises(ValueError):
        propagate(ground_state(), p, -1.0, 10)
    with pytest.raises(ValueError):
        propagate(ground_state(), p, 1.0, 1)


def test_propagate_project_flag():
    p = SystemParams(V=2.0, gamma=0.9, ell1=3.0, ell2=3.0)
    result = propagate(doubly_excited_state(), p, 4.0, 40, project=True)
    for rho in result.states:
        assert np.abs(rho - rho.conj().T).max() == 0.0


def test_propagate_coarse_sampling_of_long_driven_run():
    # 201 samples over t = 280: spacing 1.4/Gamma, far wider than the fastest
    # oscillation of the generator; every sample is still an exact power
    p = SystemParams(V=4.226785501521201, gamma=0.8515733198807643,
                     Gamma2=0.8886386486798366, delta_plus=0.8700097433467899,
                     delta_minus=0.42038176521060944, ell1=1.7247283633305956,
                     ell2=1.8039190281433009)
    result = propagate(ground_state(), p, 280.43143516679487, 201)
    for rho in result.states:
        assert validate_state(rho).ok
    assert np.abs(result.states[-1] - stationary_state(p)).max() < 1e-8


def test_propagate_matches_independent_integration(rng):
    # the ODE route through lindblad_rhs shares no code with liouvillian/expm
    p = SystemParams(V=1.3, gamma=0.35, Gamma1=1.0, Gamma2=0.6,
                     delta_minus=0.45, delta_plus=-0.7, ell1=1.1, ell2=0.4)
    rho0 = random_density_matrix(rng)
    result = propagate(rho0, p, 6.0, 61)
    sol = solve_ivp(lambda _t, y: lindblad_rhs(y.reshape(4, 4), p).ravel(),
                    (0.0, 6.0), rho0.ravel(), method="DOP853", rtol=1e-12,
                    atol=1e-14, t_eval=result.times)
    assert sol.success
    reference = sol.y.T.reshape(-1, 4, 4)
    assert np.abs(result.states - reference).max() < 1e-8


def test_propagate_names_first_failing_sample(monkeypatch):
    # a uniform leak of 3e-11 per unit time breaks the 1e-9 trace tolerance
    # between t = 33 (defect 9.9e-10) and t = 34 (defect 1.02e-9)
    exact = ecsim.dynamics.liouvillian
    monkeypatch.setattr(ecsim.dynamics, "liouvillian",
                        lambda params: exact(params) - 3e-11 * np.eye(16))
    p = SystemParams(V=2.0, gamma=0.5)
    with pytest.raises(PropagationError, match=r"at sample 34 \(t = 34\)"):
        propagate(AlphaState(0.3, 0.7).density(), p, 40.0, 41)


def test_batched_validation_matches_validate_state(rng):
    # each defect alone, on one sample of an otherwise valid stack: the batch
    # must stop at the first sample validate_state rejects and report its defects
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 2e-9                                   # Hermiticity
    leaky = random_density_matrix(rng) * (1.0 + 2e-9)  # trace
    negative = np.diag([0.6, 0.4 + 2e-8, -2e-8, 0.0]).astype(complex)
    for defect in (bad, leaky, negative):
        stack = np.stack([random_density_matrix(rng) for _ in range(6)])
        stack[4] = defect
        stack[5] = defect
        reports = [validate_state(rho) for rho in stack]
        assert [r.ok for r in reports] == [True] * 4 + [False] * 2
        r = reports[4]
        expected = (f"at sample 4 (t = 2): hermiticity defect "
                    f"{r.hermiticity_defect:.2e}, trace defect {r.trace_defect:.2e}, "
                    f"min eigenvalue {r.min_eigenvalue:.2e}")
        with pytest.raises(PropagationError) as info:
            ecsim.dynamics._validate_samples(stack, np.arange(6) * 0.5)
        assert str(info.value).endswith(expected)


def test_propagate_non_finite_generator_fails_first_step(monkeypatch):
    # SystemParams rejects non-finite fields, so the generator is made
    # non-finite directly
    exact = ecsim.dynamics.liouvillian
    monkeypatch.setattr(ecsim.dynamics, "liouvillian",
                        lambda params: exact(params) * np.nan)
    p = SystemParams(V=1.0, gamma=0.5)
    with pytest.raises(PropagationError, match="at sample 1 "):
        propagate(ground_state(), p, 1.0, 5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["V", "gamma", "Gamma1", "Gamma2", "delta_minus",
                                   "delta_plus", "ell1", "ell2"])
def test_system_params_reject_non_finite(field, value):
    kwargs = dict(V=1.0, gamma=0.5)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SystemParams(**kwargs)


def test_analytic_evolution_initial_condition(rng):
    for alpha, phi in [(0.0, 0.0), (0.3, 1.2), (0.5, np.pi), (1.0, 0.4)]:
        state = AlphaState(alpha, phi)
        assert np.abs(analytic_evolution(state, SystemParams(V=2.0, gamma=0.5), 0.0)
                      - state.density()).max() < 1e-12


def test_analytic_evolution_symmetric_bell_v_independent():
    state = AlphaState(0.5, 0.0)
    t = np.linspace(0.0, 6.0, 40)
    a = analytic_evolution(state, SystemParams(V=0.4, gamma=0.91), t)
    b = analytic_evolution(state, SystemParams(V=3.7, gamma=0.91), t)
    assert np.abs(a - b).max() < 1e-12
    assert np.abs(a[:, 1, 2].imag).max() < 1e-12  # coherence stays real


def test_analytic_evolution_alpha0_oscillations():
    # separable |10> start: populations oscillate at 2V under the e^{-Gamma t} envelope
    v = 2.0
    state = AlphaState(0.0, 0.0)
    params = SystemParams(V=v, gamma=0.0)
    t = np.linspace(0.0, 5.0, 200)
    rho = analytic_evolution(state, params, t)
    p01 = np.real(rho[:, 1, 1])
    expected = 0.5 * np.exp(-t) * (1.0 - np.cos(2.0 * v * t))
    assert np.abs(p01 - expected).max() < 1e-12


def test_analytic_evolution_matches_propagator():
    # exact powers of exp(L dt): agreement to roundoff, on any sample grid
    params = SystemParams(V=2.03, gamma=0.91)
    for samples in (60, 200):
        for alpha, phi in [(0.0, 0.0), (0.25, np.pi / 2), (0.5, np.pi), (1.0, 0.0)]:
            state = AlphaState(alpha, phi)
            numeric = propagate(state.density(), params, 10.0, samples)
            exact = analytic_evolution(state, params, numeric.times)
            assert np.abs(numeric.states - exact).max() < 1e-12


def test_analytic_evolution_preconditions():
    state = AlphaState(0.5)
    with pytest.raises(AnalyticFormError):
        analytic_evolution(state, SystemParams(V=1.0, gamma=0.0, ell1=0.1), 1.0)
    with pytest.raises(AnalyticFormError):
        analytic_evolution(state, SystemParams(V=1.0, gamma=0.0, delta_minus=0.1), 1.0)
    with pytest.raises(AnalyticFormError):
        analytic_evolution(state, SystemParams(V=1.0, gamma=0.0, Gamma2=2.0), 1.0)


def test_analytic_trace_and_structure(rng):
    params = SystemParams(V=1.3, gamma=0.7)
    for _ in range(10):
        state = AlphaState(rng.uniform(), rng.uniform(0, 2 * np.pi))
        rho = analytic_evolution(state, params, rng.uniform(0, 8))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert rho[3, 3] == 0.0
        assert validate_state(rho).ok


def test_bell_diagonal_construction():
    singlet = build_bell_diagonal(-1.0, -1.0, -1.0)
    assert np.abs(singlet - density_from_ket(bell_ket("psi-"))).max() < 1e-12

    incoherent = build_bell_diagonal(0.0, 0.0, 0.6)
    assert validate_state(incoherent).ok

    rho = build_bell_diagonal(0.8, 0.8, -0.6)
    eigs = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(eigs, [0.0, 0.1, 0.1, 0.8], atol=1e-12)
    for keep in ("A", "B"):
        assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-12)


def test_bell_diagonal_rejects_non_psd():
    with pytest.raises(NonPhysicalStateError):
        build_bell_diagonal(1.0, 1.0, 1.0)


def test_bell_diagonal_evolution_v_independent():
    # the maximally-mixed-marginal family evolves identically for any V
    rho0 = build_bell_diagonal(0.8, 0.8, -0.6)
    a = propagate(rho0, SystemParams(V=0.5, gamma=0.3), 5.0, 50)
    b = propagate(rho0, SystemParams(V=2.5, gamma=0.3), 5.0, 50)
    assert np.abs(a.states - b.states).max() < 1e-8


def test_driven_evolution_reaches_stationary_state():
    params = SystemParams(V=1.0, gamma=0.5, ell1=2.0, ell2=2.0)
    result = propagate(doubly_excited_state(), params, 100.0, 101)
    assert np.linalg.norm(result.states[-1] - result.states[-2]) < 1e-8
    assert np.abs(result.states[-1] - stationary_state(params)).max() < 1e-8


def test_stationary_state_without_drive_is_ground():
    rho = stationary_state(SystemParams(V=2.0, gamma=0.5))
    assert np.abs(rho - ground_state()).max() < 1e-10


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(V=1.0, gamma=0.0, Gamma1=0.0)
    with pytest.raises(ValueError):
        SystemParams(V=1.0, gamma=1.2)  # exceeds sqrt(Gamma1 Gamma2)
    with pytest.raises(ValueError):
        AlphaState(1.5)
