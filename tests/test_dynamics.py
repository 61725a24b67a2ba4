"""Hamiltonian construction, Lindblad generator, propagation, closed forms."""
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import ecsim.dynamics
from ecsim import (AlphaState, AnalyticFormError, NonPhysicalStateError,
                   NumericsError, PropagationError, SystemParams, analytic_evolution,
                   build_bell_diagonal, build_hamiltonian, bell_ket, density_from_ket,
                   correlation_records, doubly_excited_state, ground_state,
                   liouvillian, partial_trace, propagate, stationary_state,
                   validate_state)
from helpers import lindblad_rhs, random_density_matrix


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


def test_liouvillian_matches_rhs_over_random_parameters(rng):
    # all eight coefficients distinct (Gamma1 != Gamma2, ell1 != ell2,
    # delta_minus != 0, gamma of both signs), so a coefficient in the wrong
    # slot of the generator changes its action on a random state
    for k in range(50):
        gamma1, gamma2 = rng.uniform(0.8, 1.2, 2)
        gamma = (-1) ** k * rng.uniform(0.1, 0.9) * np.sqrt(gamma1 * gamma2)
        delta_minus = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)
        p = SystemParams(V=rng.uniform(0.5, 12.0), gamma=gamma, Gamma1=gamma1,
                         Gamma2=gamma2, delta_minus=delta_minus,
                         delta_plus=rng.uniform(-1.0, 1.0),
                         ell1=rng.uniform(0.0, 10.0), ell2=rng.uniform(0.0, 10.0))
        detunings = (p.delta_plus + 0.5 * delta_minus, p.delta_plus - 0.5 * delta_minus)
        assert len({*detunings, p.V, p.ell1, p.ell2, gamma1, gamma2, gamma}) == 8
        lio = liouvillian(p)
        for _ in range(3):
            rho = random_density_matrix(rng)
            vectorized = (lio @ rho.reshape(16, order="F")).reshape(4, 4, order="F")
            assert np.abs(vectorized - lindblad_rhs(rho, p)).max() <= 1e-12


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


def test_propagate_validates_once_with_initial_state_as_sample_zero(monkeypatch):
    # one validate_state call per propagate covers rho0 too: a non-PSD rho0
    # is still NonPhysicalStateError, also when the generator overflows
    calls = []
    exact = ecsim.states.validate_state
    monkeypatch.setattr(ecsim.states, "validate_state",
                        lambda rho: calls.append(np.shape(rho)) or exact(rho))
    p = SystemParams(V=1.0, gamma=0.5, ell1=1.0, ell2=0.5)
    propagate(ground_state(), p, 2.0, 9)
    assert calls == [(9, 4, 4)]
    bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    for params in (p, SystemParams(V=2.03, gamma=0.91, delta_minus=1e20)):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysicalStateError,
                               match=r"^initial state violates invariants: .*"
                                     r"min eigenvalue -1\.00e-01"):
                propagate(bad, params, 2.0, 5)
        assert calls == [(5, 4, 4)]


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
    # the ODE route through the helpers' lindblad_rhs shares no code with
    # build_hamiltonian, liouvillian or expm
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


# uncoupled emitters (V = gamma = 0) with unequal rates, drives and detunings
_UNCOUPLED = (dict(Gamma1=1.0, Gamma2=0.6, delta_plus=0.3, delta_minus=0.8,
                   ell1=1.1, ell2=0.4),
              dict(Gamma1=0.7, Gamma2=1.3, delta_plus=-0.5, delta_minus=0.2,
                   ell1=0.25, ell2=2.0),
              dict(Gamma1=1.0, Gamma2=2.5, delta_plus=0.0, delta_minus=-1.5,
                   ell1=3.0, ell2=0.6))


def _atom_terms(fields):
    """(Gamma, detuning from the laser, ell) of emitters A and B: the detunings
    nu_i - nu_L follow from delta_plus = (nu1 + nu2)/2 - nu_L and
    delta_minus = nu1 - nu2."""
    return ((fields["Gamma1"], fields["delta_plus"] + 0.5 * fields["delta_minus"],
             fields["ell1"]),
            (fields["Gamma2"], fields["delta_plus"] - 0.5 * fields["delta_minus"],
             fields["ell2"]))


def _atom_generator(rate, detuning, ell):
    """4x4 generator on the row-major 2x2 state of one driven, decaying
    two-level atom: H = detuning |1><1| + ell (|1><0| + |0><1|), decay at rate."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = detuning * lower.T @ lower + ell * (lower + lower.T)

    def rhs(rho):
        return (-1j * (h @ rho - rho @ h)
                + rate * (lower @ rho @ lower.T
                          - 0.5 * (lower.T @ lower @ rho + rho @ lower.T @ lower)))

    return np.stack([rhs(unit).ravel() for unit in np.eye(4).reshape(4, 2, 2)], axis=1)


def test_uncoupled_driven_emitters_evolve_as_independent_atoms(rng):
    # an oracle for the drive and detuning conventions that builds nothing
    # from liouvillian or build_hamiltonian: without coupling the pair stays
    # a product of two single-atom evolutions, and carries no correlations
    samples = []
    for fields in _UNCOUPLED:
        factors = [random_density_matrix(rng, 2) for _ in range(2)]
        result = propagate(np.kron(*factors), SystemParams(V=0.0, gamma=0.0, **fields),
                           8.0, 81)
        generators = [_atom_generator(*terms) for terms in _atom_terms(fields)]
        for t, rho in zip(result.times, result.states):
            atoms = [(expm(g * t) @ f.ravel()).reshape(2, 2)
                     for g, f in zip(generators, factors)]
            assert np.abs(rho - np.kron(*atoms)).max() < 1e-13
        samples.append(result.states)
    rec = correlation_records(np.concatenate(samples))
    for values in (rec.mi, rec.cc, np.abs(rec.qd), rec.concurrence):
        assert values.max() <= 1e-13


def test_uncoupled_stationary_populations_follow_torrey():
    # steady excited population of a driven two-level atom,
    # ell^2 / (Gamma^2/4 + detuning^2 + 2 ell^2) (Rabi frequency 2 ell)
    for fields in _UNCOUPLED:
        rho = stationary_state(SystemParams(V=0.0, gamma=0.0, **fields))
        excited = (rho[2, 2] + rho[3, 3], rho[1, 1] + rho[3, 3])   # A, B
        for population, (rate, detuning, ell) in zip(excited, _atom_terms(fields)):
            torrey = ell**2 / (rate**2 / 4.0 + detuning**2 + 2.0 * ell**2)
            assert abs(population.real - torrey) <= 1e-14


def test_propagate_doubling_fill_matches_step_loop(rng):
    # reference: one scipy-expm step per sample, applied in a loop; sample
    # counts on both sides of powers of two exercise the partial last block
    p = SystemParams(V=2.4, gamma=-0.6, Gamma2=1.1, delta_minus=0.3,
                     delta_plus=0.8, ell1=3.5, ell2=1.2)
    rho0 = random_density_matrix(rng)
    for samples in (2, 3, 64, 65, 601):
        result = propagate(rho0, p, 30.0, samples)
        step = expm(liouvillian(p) * (result.times[1] - result.times[0]))
        vec = rho0.reshape(16, order="F")
        for k in range(samples):
            assert np.abs(result.states[k] - vec.reshape(4, 4, order="F")).max() < 1e-12
            vec = step @ vec


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
    # each defect alone, on two samples of an otherwise valid stack: every
    # field of the stacked report equals the per-state report exactly, also
    # with two leading axes
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 2e-9                                   # Hermiticity
    leaky = random_density_matrix(rng) * (1.0 + 2e-9)  # trace
    negative = np.diag([0.6, 0.4 + 2e-8, -2e-8, 0.0]).astype(complex)
    fields = ("hermiticity_defect", "trace_defect", "min_eigenvalue",
              "hermitian", "unit_trace", "positive", "ok")
    for defect in (bad, leaky, negative):
        stack = np.stack([random_density_matrix(rng) for _ in range(6)])
        stack[4] = defect
        stack[5] = defect
        reports = [validate_state(rho) for rho in stack]
        assert [r.ok for r in reports] == [True] * 4 + [False] * 2
        for shape in ((6,), (2, 3)):
            stacked = validate_state(stack.reshape(shape + (4, 4)))
            for name in fields:
                values = getattr(stacked, name)
                assert values.shape == shape
                assert values.ravel().tolist() == [getattr(r, name) for r in reports]


def test_propagate_non_finite_generator_fails_first_step(monkeypatch):
    # SystemParams rejects non-finite fields, so the generator is made
    # non-finite directly
    exact = ecsim.dynamics.liouvillian
    monkeypatch.setattr(ecsim.dynamics, "liouvillian",
                        lambda params: exact(params) * np.nan)
    p = SystemParams(V=1.0, gamma=0.5)
    with pytest.raises(PropagationError, match="at sample 1 "):
        propagate(ground_state(), p, 1.0, 5)


def test_propagate_overflowing_generator_fails_without_warning():
    # a detuning too large for double precision overflows the squarings of
    # exp(L dt): a PropagationError at the first step, and no numpy warning
    p = SystemParams(V=2.03, gamma=0.91, delta_minus=1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError, match="at sample 1 "):
            propagate(AlphaState(0.5, 0.0).density(), p, 2.0, 2)


def test_expm_matches_scipy_over_benchmark_ranges(rng):
    # reference: scipy's expm (Al-Mohy & Higham 2009), a separate algorithm.
    # Steps up to 10/Gamma give ||L dt||_1 of several hundred, so up to ~7
    # squarings run
    norms = []
    for _ in range(60):
        gamma2 = rng.uniform(0.8, 1.2)
        bound = 0.9 * np.sqrt(gamma2)
        p = SystemParams(V=rng.uniform(0.0, 12.0), gamma=rng.uniform(-bound, bound),
                         Gamma2=gamma2, delta_minus=rng.uniform(-0.5, 0.5),
                         delta_plus=rng.uniform(-1.0, 1.0),
                         ell1=rng.uniform(0.0, 10.0), ell2=rng.uniform(0.0, 10.0))
        a = liouvillian(p) * 10.0 ** rng.uniform(-3.0, 1.0)
        norms.append(np.abs(a).sum(axis=0).max())
        reference = expm(a)
        assert (np.abs(ecsim.dynamics._expm(a) - reference).max()
                <= 1e-13 * np.abs(reference).max())
    assert max(norms) > 100.0


def test_expm_fig7b_step_matches_mpmath():
    # one step of criterion 10's Fig. 7b trajectory (dt = 2, ||L dt||_1 = 126,
    # 5 squarings) against a 40-digit exponential of the same float matrix
    a = liouvillian(SystemParams(V=10.45, gamma=0.97, ell1=10.0, ell2=10.0)) * 2.0
    with mpmath.workdps(40):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        reference = np.array(exact.tolist(), dtype=complex)
    assert np.abs(ecsim.dynamics._expm(a) - reference).max() <= 3e-15


def test_expm_zero_and_defective_generators():
    zero = np.zeros((16, 16), dtype=complex)
    assert np.array_equal(ecsim.dynamics._expm(zero), np.eye(16))
    # a nilpotent Jordan block has no eigenbasis; N^2 = 0, so exp(N) = I + N.
    # Scale 3e3 takes 10 squarings
    for scale in (0.5, 40.0, 3e3):
        n = np.array([[0.0, scale], [0.0, 0.0]], dtype=complex)
        exact = np.eye(2) + n
        assert np.abs(ecsim.dynamics._expm(n) - exact).max() <= 1e-13 * scale


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


def test_stationary_state_rejects_degenerate_fixed_point():
    # gamma = Gamma: the antisymmetric state |Psi-> does not decay and is an
    # eigenstate of H, so it is a second fixed point beside the ground state
    with pytest.raises(NumericsError, match="not unique: null space dimension 2"):
        stationary_state(SystemParams(V=1.0, gamma=1.0))


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(V=1.0, gamma=0.0, Gamma1=0.0)
    with pytest.raises(ValueError):
        SystemParams(V=1.0, gamma=1.2)  # exceeds sqrt(Gamma1 Gamma2)
    with pytest.raises(ValueError):
        AlphaState(1.5)
