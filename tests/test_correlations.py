"""Correlation quantifiers: MI, CC, QD, concurrence, EoF, X-state closed forms."""
import tracemalloc

import numpy as np
import pytest

from ecsim import (AlphaState, MeasurementBasis, NumericsError, SystemParams,
                   XStructureError, ZeroProbabilityOutcomeError, alpha_ket,
                   analytic_evolution, bell_ket, binary_entropy, build_bell_diagonal,
                   classical_correlations, concurrence, conditional_entropy,
                   correlation_record, correlation_records, density_from_ket,
                   entanglement_of_formation, entropy_bound_check,
                   eof_from_concurrence, ground_state,
                   minimize_conditional_entropy, mutual_information,
                   partial_trace, post_measurement_state, propagate,
                   quantum_discord, von_neumann_entropy, xstate_concurrence,
                   xstate_conditional_entropy_branches)
from ecsim.correlations import (GRID_SHAPE, _cond_entropy_values, _grid_seed,
                                _minimize_batch, _reorder)
from helpers import (oracle_min_conditional_entropy, random_density_matrix,
                     random_pure_ket)

# frozen oracle values for the Bell-diagonal counterexample states
I_RHO_M = 1.078071905112638
CC_RHO_M = 0.531004406410719
D_RHO_M = 0.547067498701919
I_INCOH = 0.278071905112638

BELL = density_from_ket(bell_ket("psi+"))
RHO_M = build_bell_diagonal(0.8, 0.8, -0.6)
RHO_INCOH = build_bell_diagonal(0.0, 0.0, 0.6)


def random_product_state(rng):
    return np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))


# ---------------------------------------------------------------- MI

def test_mutual_information_bell():
    assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product_state(rng):
    for _ in range(5):
        assert mutual_information(random_product_state(rng)) < 1e-9


def test_mutual_information_bell_diagonal():
    assert mutual_information(RHO_M) == pytest.approx(I_RHO_M, abs=1e-9)
    assert mutual_information(RHO_M) == pytest.approx(1.078, abs=2e-3)


# ------------------------------------------------- measurement bases

def test_measurement_basis_orthonormal(rng):
    for _ in range(20):
        basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        ket_a, ket_b = basis.vectors()
        assert abs(ket_a.conj() @ ket_b) < 1e-12
        proj_a, proj_b = basis.projectors()
        assert np.abs(proj_a + proj_b - np.eye(2)).max() < 1e-12


def test_post_measurement_bell_computational():
    cond, prob = post_measurement_state(BELL, MeasurementBasis(0.0, 0.0), "a")
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.abs(cond - np.diag([0.0, 1.0])).max() < 1e-12


def test_post_measurement_product_state(rng):
    rho_a = random_density_matrix(rng, 2)
    rho = np.kron(rho_a, random_density_matrix(rng, 2))
    basis = MeasurementBasis(0.7, 1.9)
    for outcome in ("a", "b"):
        cond, _ = post_measurement_state(rho, basis, outcome)
        assert np.abs(cond - rho_a).max() < 1e-12


def test_post_measurement_probabilities_sum_to_one(rng):
    rho = random_density_matrix(rng)
    basis = MeasurementBasis(1.1, 4.2)
    _, pa = post_measurement_state(rho, basis, "a")
    _, pb = post_measurement_state(rho, basis, "b")
    assert pa + pb == pytest.approx(1.0, abs=1e-12)


def test_post_measurement_zero_probability_branch():
    # B is definitely |0>, so outcome 'a' of the theta = pi/2 basis (|1>) is empty
    with pytest.raises(ZeroProbabilityOutcomeError):
        post_measurement_state(ground_state(), MeasurementBasis(np.pi / 2, 0.0), "a")


# ------------------------------------------------ conditional entropy

def test_conditional_entropy_pure_product(rng):
    rho = np.kron(density_from_ket(random_pure_ket(rng, 2)),
                  density_from_ket(random_pure_ket(rng, 2)))
    for _ in range(5):
        basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        assert conditional_entropy(rho, basis) < 1e-10


def test_conditional_entropy_bell_any_basis(rng):
    # conditional states of a Bell pair are pure for every projective basis
    for _ in range(10):
        basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        assert conditional_entropy(BELL, basis) < 1e-10


def test_conditional_entropy_incoherent_mixture():
    value = conditional_entropy(RHO_INCOH, MeasurementBasis(0.0, 0.0))
    assert value == pytest.approx(1.0 - I_INCOH, abs=1e-12)


def test_conditional_entropy_matches_definition(rng):
    # spot-check the optimizer kernel against the op-level route
    rho = random_density_matrix(rng)
    for theta, phi in [(0.3, 0.5), (1.2, 3.3), (0.0, 0.0), (np.pi / 2, 5.1)]:
        basis = MeasurementBasis(theta, phi)
        total = 0.0
        for outcome in ("a", "b"):
            cond, prob = post_measurement_state(rho, basis, outcome)
            total += prob * von_neumann_entropy(cond)
        assert conditional_entropy(rho, basis) == pytest.approx(total, abs=1e-12)


# ------------------------------------------- classical correlations / QD

def test_classical_correlations_bell():
    cc, _ = classical_correlations(BELL)
    assert cc == pytest.approx(1.0, abs=1e-7)


def test_classical_correlations_bell_diagonal_states():
    cc_incoh, _ = classical_correlations(RHO_INCOH)
    assert cc_incoh == pytest.approx(I_INCOH, abs=1e-6)
    cc_m, _ = classical_correlations(RHO_M)
    assert cc_m == pytest.approx(CC_RHO_M, abs=1e-6)
    assert cc_m == pytest.approx(0.531, abs=2e-3)


def test_quantum_discord_reference_states():
    assert quantum_discord(BELL) == pytest.approx(1.0, abs=1e-7)
    assert quantum_discord(RHO_M) == pytest.approx(D_RHO_M, abs=1e-6)
    assert quantum_discord(RHO_M) == pytest.approx(0.547, abs=2e-3)
    assert quantum_discord(RHO_INCOH) == pytest.approx(0.0, abs=1e-7)


def test_quantum_discord_pure_states(rng):
    # for pure states the discord equals the measured subsystem's entropy
    for _ in range(10):
        rho = density_from_ket(random_pure_ket(rng))
        s_b = von_neumann_entropy(partial_trace(rho, "B"))
        assert quantum_discord(rho) == pytest.approx(s_b, abs=1e-6)


def test_quantum_discord_zero_for_classical_on_b(rng):
    for _ in range(5):
        q = rng.uniform(0.1, 0.9)
        rho = (q * np.kron(random_density_matrix(rng, 2), np.diag([1.0, 0.0]))
               + (1 - q) * np.kron(random_density_matrix(rng, 2), np.diag([0.0, 1.0])))
        assert quantum_discord(rho) <= 1e-6


def test_discord_bounds_and_additivity(rng):
    states = np.stack([random_density_matrix(rng) for _ in range(1000)])
    records = correlation_records(np.zeros(len(states)), states)
    for rho, rec in zip(states, records):
        assert rec.mi >= 0.0
        assert rec.cc >= 0.0
        assert rec.qd >= -1e-7
        assert rec.qd <= von_neumann_entropy(partial_trace(rho, "B")) + 1e-7
        assert abs(rec.mi - (rec.qd + rec.cc)) <= 1e-6
        assert rec.eof == eof_from_concurrence(rec.concurrence)


def test_optimizer_against_independent_oracle(rng):
    for _ in range(10):
        rho = random_density_matrix(rng)
        fast, _ = minimize_conditional_entropy(rho)
        assert fast == pytest.approx(oracle_min_conditional_entropy(rho), abs=1e-5)


# driven trajectories whose 64x64 grid best sits on the theta_m = pi/2 pole of
# the (theta, phi) chart, with the true minimum about 0.011 rad off the pole:
# (params, alpha, phi, t_final, samples, sample index)
POLE_CASES = (
    (dict(V=2.4406972461864864, gamma=0.43590913784183927,
          delta_plus=-0.50451727081532, ell1=2.97067697396973,
          ell2=2.97067697396973),
     0.06002114299431538, 1.9400067550059932, 7.139642466842947, 90, 3),
    (dict(V=3.3082009922093585, gamma=-0.6966994633765234,
          delta_minus=0.34661664707033235, delta_plus=0.023199098430765286,
          ell1=4.197796209782541, ell2=3.5546574754461044),
     0.5245358217456259, 5.801829986704557, 6.56437995030004, 224, 54),
)


@pytest.mark.parametrize("params, alpha, phi, t_final, samples, k", POLE_CASES,
                         ids=["t=0.2407", "t=1.5896"])
def test_optimizer_leaves_chart_pole(params, alpha, phi, t_final, samples, k):
    rho = propagate(AlphaState(alpha, phi).density(), SystemParams(**params),
                    t_final, samples).states[k]
    value, _ = minimize_conditional_entropy(rho)
    assert value == pytest.approx(oracle_min_conditional_entropy(rho), abs=1e-6)


def test_cond_entropy_mirror_symmetry(rng):
    # outcome b at (theta, phi) is outcome a at (pi/2 - theta, phi + pi)
    thetas = rng.uniform(0.0, np.pi / 2, 200)
    phis = rng.uniform(0.0, 2.0 * np.pi, 200)
    for _ in range(10):
        reordered = _reorder(random_density_matrix(rng))
        direct = _cond_entropy_values(reordered, thetas, phis)
        mirrored = _cond_entropy_values(reordered, np.pi / 2 - thetas, phis + np.pi)
        assert np.abs(direct - mirrored).max() <= 1e-14


def test_half_grid_seed_matches_full_grid(rng):
    rhos = [random_density_matrix(rng) for _ in range(50)]
    rhos += [propagate(AlphaState(alpha, phi).density(), SystemParams(**params),
                       t_final, samples).states[k]
             for params, alpha, phi, t_final, samples, k in POLE_CASES]
    rhos += [build_bell_diagonal(*h)
             for h in ((0.8, 0.8, -0.6), (0.0, 0.0, 0.6), (-1.0, -1.0, -1.0))]
    reordered = _reorder(np.stack(rhos))
    th_axis = np.linspace(0.0, np.pi / 2, GRID_SHAPE[0])
    ph_axis = np.linspace(0.0, 2.0 * np.pi, GRID_SHAPE[1], endpoint=False)
    th_grid, ph_grid = np.meshgrid(th_axis, ph_axis, indexing="ij")
    full = _cond_entropy_values(reordered, th_grid.ravel(), ph_grid.ravel())
    seed, seed_th, seed_ph = _grid_seed(reordered)
    assert np.abs(seed - full.min(axis=1)).max() <= 1e-13
    assert (seed_th < np.pi / 4).all()
    at_seed = _cond_entropy_values(reordered, seed_th[:, None], seed_ph[:, None])
    assert np.abs(at_seed[:, 0] - seed).max() <= 1e-14


def test_search_value_independent_of_batch_position(rng):
    batch = np.stack([random_density_matrix(rng) for _ in range(9)])
    for rho in batch[:5]:
        alone, _, _ = _minimize_batch(rho[None])
        batch[5] = rho
        among, _, _ = _minimize_batch(batch)
        assert abs(alone[0] - among[5]) <= 1e-14


def test_search_memory_peak_is_bounded(rng):
    # guards the seed block size: larger blocks need several MiB per thread
    rhos = np.stack([random_density_matrix(rng) for _ in range(400)])
    _minimize_batch(rhos[:1])
    tracemalloc.start()
    try:
        _minimize_batch(rhos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_minimize_returns_achieving_basis(rng):
    rho = random_density_matrix(rng)
    value, basis = minimize_conditional_entropy(rho)
    assert conditional_entropy(rho, basis) == pytest.approx(value, abs=1e-9)


# ------------------------------------------------------- concurrence / EoF

def test_concurrence_bell():
    assert concurrence(BELL) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_product_pure(rng):
    for _ in range(5):
        rho = np.kron(density_from_ket(random_pure_ket(rng, 2)),
                      density_from_ket(random_pure_ket(rng, 2)))
        assert concurrence(rho) <= 1e-8


def test_concurrence_alpha_state():
    rho = density_from_ket(alpha_ket(0.25))
    # 2 sqrt(alpha(1-alpha)) = sqrt(3)/2
    assert concurrence(rho) == pytest.approx(0.8660254037844386, abs=1e-9)


def test_concurrence_pure_state_entropy_route(rng):
    # cross-check: C(psi) = sqrt(2 (1 - tr rho_A^2)) for pure two-qubit states
    for _ in range(10):
        rho = density_from_ket(random_pure_ket(rng))
        red = partial_trace(rho, "A")
        expected = np.sqrt(max(2.0 * (1.0 - np.real(np.trace(red @ red))), 0.0))
        assert concurrence(rho) == pytest.approx(expected, abs=1e-9)


def test_concurrence_rejects_garbage():
    junk = np.triu(np.full((4, 4), 1.0 + 0.5j))
    with pytest.raises(NumericsError):
        concurrence(junk)


def test_eof_endpoints_and_reference():
    assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(0.1) == pytest.approx(0.025266127727120, abs=1e-12)
    with pytest.raises(ValueError):
        eof_from_concurrence(1.5)
    for bad in (np.nan, [0.3, np.nan], [0.3, 1.5], [[0.3], [-0.1]]):
        with pytest.raises(ValueError):
            eof_from_concurrence(bad)


def test_eof_strictly_monotone_in_concurrence():
    grid = np.linspace(0.0, 1.0, 10_000)
    values = np.array([eof_from_concurrence(c) for c in grid])
    assert np.all(np.diff(values) > 0.0)


def test_entanglement_of_formation_bell():
    assert entanglement_of_formation(BELL) == pytest.approx(1.0, abs=1e-9)
    assert entanglement_of_formation(ground_state()) == 0.0


# ------------------------------------------------------ X-state closed forms

def test_xstate_branches_bell_initial():
    s1, s2 = xstate_conditional_entropy_branches(density_from_ket(bell_ket("psi+")))
    assert s1 == pytest.approx(0.0, abs=1e-12)
    assert s2 == pytest.approx(0.0, abs=1e-12)


def test_xstate_branches_symmetric_family_ordering():
    params = SystemParams(V=2.03, gamma=0.91)
    state = AlphaState(0.5, 0.0)
    for t in np.linspace(0.0, 8.0, 60):
        s1, s2 = xstate_conditional_entropy_branches(
            analytic_evolution(state, params, float(t)))
        assert s2 <= s1 + 1e-12


def test_xstate_branch_equals_equatorial_measurement():
    rho = analytic_evolution(AlphaState(0.3, 0.0), SystemParams(V=2.0, gamma=0.5), 0.8)
    _, s2 = xstate_conditional_entropy_branches(rho)
    # real coherence: the second branch is the theta = pi/4, phi = 0 measurement
    assert conditional_entropy(rho, MeasurementBasis(np.pi / 4, 0.0)) == \
        pytest.approx(s2, abs=1e-12)


def test_xstate_branches_match_general_optimizer(rng):
    params = SystemParams(V=2.03, gamma=0.91)
    for _ in range(12):
        state = AlphaState(rng.uniform(), rng.uniform(0, 2 * np.pi))
        rho = analytic_evolution(state, params, rng.uniform(0, 6))
        s1, s2 = xstate_conditional_entropy_branches(rho)
        general, _ = minimize_conditional_entropy(rho)
        assert min(s1, s2) == pytest.approx(general, abs=1e-6)


def test_xstate_branches_reject_non_x_states(rng):
    with pytest.raises(XStructureError):
        xstate_conditional_entropy_branches(RHO_M)  # doubly excited population
    with pytest.raises(XStructureError):
        xstate_concurrence(random_density_matrix(rng))


def test_xstate_concurrence_reference_cases():
    assert xstate_concurrence(density_from_ket(bell_ket("psi+"))) == \
        pytest.approx(1.0, abs=1e-12)
    assert xstate_concurrence(density_from_ket(alpha_ket(1.0))) == 0.0

    rho = analytic_evolution(AlphaState(0.0, 0.0), SystemParams(V=2.0, gamma=0.0), 1.0)
    assert xstate_concurrence(rho) == pytest.approx(concurrence(rho), abs=1e-9)


def test_xstate_concurrence_matches_general(rng):
    params = SystemParams(V=1.5, gamma=0.7)
    for _ in range(10):
        state = AlphaState(rng.uniform(), rng.uniform(0, 2 * np.pi))
        rho = analytic_evolution(state, params, rng.uniform(0, 5))
        assert xstate_concurrence(rho) == pytest.approx(concurrence(rho), abs=1e-9)


# ------------------------------------------------------- entropy bound

def test_entropy_bound_product_state(rng):
    assert abs(entropy_bound_check(random_product_state(rng))) <= 1e-7


def test_entropy_bound_bell_diagonal():
    assert entropy_bound_check(RHO_M) == pytest.approx(D_RHO_M - CC_RHO_M, abs=1e-6)
    assert entropy_bound_check(RHO_M) == pytest.approx(0.016, abs=1e-3)


def test_entropy_bound_nonnegative_on_symmetric_trajectory():
    params = SystemParams(V=2.03, gamma=0.91)
    state = AlphaState(0.5, 0.0)
    for t in np.linspace(0.0, 6.0, 25):
        rho = analytic_evolution(state, params, float(t))
        assert entropy_bound_check(rho) >= -1e-7


def test_hierarchy_on_alpha_family_demonstrated_region():
    # CC <= EoF <= QD along no-laser trajectories, with and without gamma, for
    # real relative phases and alpha <= 1/2, where discord dominance holds at
    # every sample of the criterion-4 grid; alpha = 0.60, phi = pi already
    # fails (see the test below)
    for v, gamma in ((2.0, 0.0), (2.03, 0.91)):
        params = SystemParams(V=v, gamma=gamma)
        for alpha in (0.0, 0.25, 0.5):
            for phi in (0.0, np.pi):
                times = np.linspace(0.0, 10.0, 30)
                rhos = analytic_evolution(AlphaState(alpha, phi), params, times)
                for rec in correlation_records(times, rhos):
                    assert rec.cc <= rec.qd + 1e-6
                    if rec.eof > 0.01:
                        assert rec.cc <= rec.eof + 1e-6


def _closed_form_bound(rho):
    """S_B + 2 min(s1, s2) - S_A - S_AB from the two-branch X-state form."""
    return (von_neumann_entropy(partial_trace(rho, "B"))
            + 2.0 * min(xstate_conditional_entropy_branches(rho))
            - von_neumann_entropy(partial_trace(rho, "A"))
            - von_neumann_entropy(rho))


def test_hierarchy_fails_outside_demonstrated_region():
    # discord dominance does NOT extend to the whole alpha family: classical
    # correlations exceed the discord at early times for near-separable
    # preparations (even with real phase), for complex relative phases, and
    # for real phases close to the Bell preparations (alpha = 0.60, phi = pi,
    # CC - QD = +5.5e-4); the closed two-branch form gives the same bound, so
    # the sign is the model's, not the search's
    cases = ((0.95, 0.0, 2.0, 0.0, 0.10050251256281408, 0.05),
             (0.55, np.pi / 2, 2.03, 0.91, 0.2512562814070352, 0.03),
             (0.60, np.pi, 2.0, 0.91, 0.05025125628140704, 5e-4))
    for alpha, phi, v, gamma, t, margin in cases:
        rho = analytic_evolution(AlphaState(alpha, phi),
                                 SystemParams(V=v, gamma=gamma), t)
        bound = entropy_bound_check(rho)
        assert bound < -margin
        assert bound == pytest.approx(_closed_form_bound(rho), abs=1e-9)
        cc, _ = classical_correlations(rho)
        assert cc > quantum_discord(rho) + margin


# ------------------------------------------------------ record bundling

def test_correlation_record_bell():
    rec = correlation_record(BELL, t=0.0)
    assert rec.mi == pytest.approx(2.0, abs=1e-7)
    assert rec.cc == pytest.approx(1.0, abs=1e-7)
    assert rec.qd == pytest.approx(1.0, abs=1e-7)
    assert rec.concurrence == pytest.approx(1.0, abs=1e-9)
    assert rec.eof == pytest.approx(1.0, abs=1e-9)


def test_correlation_record_ground_state():
    rec = correlation_record(ground_state())
    for value in (rec.mi, rec.cc, rec.qd, rec.concurrence, rec.eof):
        assert abs(value) <= 1e-9


def test_correlation_record_bell_diagonal():
    rec = correlation_record(RHO_M)
    assert rec.mi == pytest.approx(I_RHO_M, abs=1e-6)
    assert rec.cc == pytest.approx(CC_RHO_M, abs=1e-6)
    assert rec.qd == pytest.approx(D_RHO_M, abs=1e-6)
    # Bell-diagonal concurrence is 2 max(lambda) - 1 = 0.6 here
    assert rec.concurrence == pytest.approx(0.6, abs=1e-9)
    assert rec.eof == pytest.approx(eof_from_concurrence(0.6), abs=1e-12)
    assert abs(rec.mi - (rec.qd + rec.cc)) <= 1e-6


def test_stacked_measures_equal_per_state_measures(rng):
    # one implementation per measure: a stack gives exactly the per-state values
    rhos = np.stack([random_density_matrix(rng) for _ in range(50)]
                    + [ground_state(), BELL])
    for fn in (mutual_information, von_neumann_entropy, concurrence):
        stacked = fn(rhos)
        assert stacked.shape == (len(rhos),)
        singles = [fn(rho) for rho in rhos]
        assert all(type(value) is float for value in singles)
        assert (stacked == np.array(singles)).all()
    for keep in ("A", "B"):
        reduced = partial_trace(rhos, keep)
        assert reduced.shape == (len(rhos), 2, 2)
        assert all((reduced[k] == partial_trace(rho, keep)).all()
                   for k, rho in enumerate(rhos))
        stacked = von_neumann_entropy(reduced)
        assert (stacked == np.array([von_neumann_entropy(r) for r in reduced])).all()
    cs = concurrence(rhos)
    for fn, values in ((eof_from_concurrence, cs), (binary_entropy, cs / 2 + 0.25)):
        singles = [fn(float(x)) for x in values]
        assert all(type(value) is float for value in singles)
        assert (fn(values) == np.array(singles)).all()


def test_correlation_records_match_single_state_path(rng):
    states = np.stack([random_density_matrix(rng) for _ in range(6)])
    times = np.arange(6.0)
    records = correlation_records(times, states)
    for rho, rec in zip(states, records):
        single = correlation_record(rho, rec.t)
        assert rec.mi == pytest.approx(single.mi, abs=1e-12)
        assert rec.cc == pytest.approx(single.cc, abs=1e-12)
        assert rec.qd == pytest.approx(single.qd, abs=1e-12)
        assert rec.concurrence == pytest.approx(single.concurrence, abs=1e-12)
