"""Correlation quantifiers: MI, CC, QD, concurrence, EoF, X-state closed forms."""
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsim import (AlphaState, NumericsError, SystemParams, XStructureError,
                   alpha_ket, analytic_evolution, bell_ket, binary_entropy,
                   build_bell_diagonal, concurrence, conditional_entropy,
                   correlation_records, density_from_ket, eof_from_concurrence,
                   ground_state, liouvillian, mutual_information, partial_trace,
                   propagate, stationary_state, von_neumann_entropy,
                   xstate_concurrence, xstate_conditional_entropy_branches)
from ecsim.correlations import (GRID_SHAPE, _branch_entropy, _cond_entropy,
                                _grid_seed, _measurement_weights, _minimize_batch,
                                _reorder, _seed_grid)
from ecsim.verify import FIG7B
from helpers import (oracle_conditional_entropy, oracle_min_conditional_entropy,
                     random_density_matrix, random_pure_ket, random_unitary)

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


# ------------------------------------------------ conditional entropy

def random_angles(rng, count):
    return rng.uniform(0, np.pi / 2, count), rng.uniform(0, 2 * np.pi, count)


def test_measurement_basis_orthonormal():
    # the measurement is defined for theta_m in [0, pi/2] and finite phi_m only
    for theta, phi in ((-0.1, 0.0), (np.nan, 0.0), (0.3, np.nan), (0.3, np.inf),
                       (np.pi / 2 + 1e-9, 0.0), ([0.3, -0.1], 0.0), (0.3, [0.0, np.inf])):
        with pytest.raises(ValueError):
            conditional_entropy(BELL, theta, phi)
    assert type(conditional_entropy(BELL, np.pi / 2 + 1e-13, -1e3)) is float


def test_post_measurement_product_state(rng):
    # measuring B leaves A in rho_A whatever the basis
    rho_a = random_density_matrix(rng, 2)
    rho = np.kron(rho_a, random_density_matrix(rng, 2))
    values = conditional_entropy(rho, *random_angles(rng, 50))
    assert np.abs(values - von_neumann_entropy(rho_a)).max() < 1e-12


def test_post_measurement_zero_probability_branch():
    # B is definitely |0>, so outcome 'a' of the theta = pi/2 basis (|1>) is
    # empty and contributes 0; the other outcome leaves A maximally mixed
    rho = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert conditional_entropy(rho, np.pi / 2, 0.0) == 1.0
    assert conditional_entropy(ground_state(), np.pi / 2, 1.3) == 0.0


def test_conditional_entropy_pure_product(rng):
    rho = np.kron(density_from_ket(random_pure_ket(rng, 2)),
                  density_from_ket(random_pure_ket(rng, 2)))
    assert (conditional_entropy(rho, *random_angles(rng, 5)) < 1e-10).all()


def test_conditional_entropy_bell_any_basis(rng):
    # conditional states of a Bell pair are pure for every projective basis
    assert (conditional_entropy(BELL, *random_angles(rng, 10)) < 1e-10).all()


def test_conditional_entropy_incoherent_mixture():
    value = conditional_entropy(RHO_INCOH, 0.0, 0.0)
    assert value == pytest.approx(1.0 - I_INCOH, abs=1e-12)


def definition_cases(rng):
    """Ginibre, pure, Bell, Bell-diagonal and X states, and angles with both
    poles and the equator of the chart."""
    rhos = ([random_density_matrix(rng) for _ in range(5)]
            + [density_from_ket(random_pure_ket(rng)) for _ in range(5)]
            + [density_from_ket(bell_ket(kind)) for kind in ("phi+", "phi-", "psi+", "psi-")]
            + [RHO_M, RHO_INCOH, ground_state()]
            + [analytic_evolution(AlphaState(alpha, phi), SystemParams(V=2.03, gamma=0.91), t)
               for alpha, phi, t in ((0.3, 0.0, 0.8), (0.9, 2.0, 0.1), (0.5, np.pi, 4.0))])
    thetas = np.concatenate([[0.0, np.pi / 4, np.pi / 2], rng.uniform(0, np.pi / 2, 20)])
    phis = np.concatenate([[0.0, 1.0, 5.1], rng.uniform(0, 2 * np.pi, 20)])
    return rhos, thetas, phis


def test_conditional_entropy_matches_definition(rng):
    # the Bloch form against the full-projection route
    rhos, thetas, phis = definition_cases(rng)
    for rho in rhos:
        expected = oracle_conditional_entropy(rho, thetas, phis)
        assert np.abs(conditional_entropy(rho, thetas, phis) - expected).max() <= 1e-12
        grid = conditional_entropy(rho, thetas[:, None], phis)
        assert np.abs(grid - oracle_conditional_entropy(rho, thetas[:, None], phis)).max() <= 1e-12


def test_search_kernel_matches_definition(rng):
    # the search's real component kernel against the full-projection route;
    # the hot loop carries no complex array
    rhos, thetas, phis = definition_cases(rng)
    for rho in rhos:
        kernel = _reorder(rho)
        assert kernel.dtype == np.float64
        value = _cond_entropy(kernel, _measurement_weights(thetas, phis))
        assert np.abs(value - oracle_conditional_entropy(rho, thetas, phis)).max() <= 1e-12


# ------------------------------------------- classical correlations / QD

def test_classical_correlations_bell():
    assert correlation_records(BELL).cc == pytest.approx(1.0, abs=1e-7)


def test_classical_correlations_bell_diagonal_states():
    cc_incoh = correlation_records(RHO_INCOH).cc
    assert cc_incoh == pytest.approx(I_INCOH, abs=1e-6)
    cc_m = correlation_records(RHO_M).cc
    assert cc_m == pytest.approx(CC_RHO_M, abs=1e-6)
    assert cc_m == pytest.approx(0.531, abs=2e-3)


def test_quantum_discord_reference_states():
    qd = correlation_records(np.stack([BELL, RHO_M, RHO_INCOH])).qd
    assert qd[0] == pytest.approx(1.0, abs=1e-7)
    assert qd[1] == pytest.approx(D_RHO_M, abs=1e-6)
    assert qd[1] == pytest.approx(0.547, abs=2e-3)
    assert qd[2] == pytest.approx(0.0, abs=1e-7)


def test_quantum_discord_clamped_at_zero():
    # a roundoff-size discord of a classical-quantum state is clamped like MI
    # and CC, not printed as a negative zero
    assert correlation_records(RHO_INCOH).qd == 0.0


def test_quantum_discord_pure_states(rng):
    # for pure states the discord equals the measured subsystem's entropy
    rhos = np.stack([density_from_ket(random_pure_ket(rng)) for _ in range(10)])
    s_b = von_neumann_entropy(partial_trace(rhos, "B"))
    assert np.abs(correlation_records(rhos).qd - s_b).max() <= 1e-6


def test_quantum_discord_zero_for_classical_on_b(rng):
    rhos = []
    for _ in range(5):
        q = rng.uniform(0.1, 0.9)
        rhos.append(q * np.kron(random_density_matrix(rng, 2), np.diag([1.0, 0.0]))
                    + (1 - q) * np.kron(random_density_matrix(rng, 2), np.diag([0.0, 1.0])))
    assert (correlation_records(np.stack(rhos)).qd <= 1e-6).all()


def test_discord_bounds_and_additivity(rng):
    states = np.stack([random_density_matrix(rng) for _ in range(1000)])
    rec = correlation_records(states)
    assert (rec.mi >= 0.0).all()
    assert (rec.cc >= 0.0).all()
    assert (rec.qd >= -1e-7).all()
    assert (rec.qd <= von_neumann_entropy(partial_trace(states, "B")) + 1e-7).all()
    assert np.abs(rec.mi - (rec.qd + rec.cc)).max() <= 1e-6
    assert (rec.eof == eof_from_concurrence(rec.concurrence)).all()


def searched_minimum(rho):
    """min S(A|B) from the search, as S_A - CC."""
    return von_neumann_entropy(partial_trace(rho, "A")) - correlation_records(rho).cc


def test_optimizer_against_independent_oracle(rng):
    rhos = np.stack([random_density_matrix(rng) for _ in range(10)])
    fast = searched_minimum(rhos)
    for k, rho in enumerate(rhos):
        assert fast[k] == pytest.approx(oracle_min_conditional_entropy(rho), abs=1e-5)


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
    assert searched_minimum(rho) == pytest.approx(oracle_min_conditional_entropy(rho),
                                                  abs=1e-6)


def test_cond_entropy_mirror_symmetry(rng):
    # outcome b at (theta, phi) is outcome a at (pi/2 - theta, phi + pi): the
    # kernel takes outcome b as rho_A - M_a, the mirror point as a direct projector
    thetas = rng.uniform(0.0, np.pi / 2, 200)
    phis = rng.uniform(0.0, 2.0 * np.pi, 200)
    weights = _measurement_weights(thetas, phis)
    mirror = _measurement_weights(np.pi / 2 - thetas, phis + np.pi)
    assert weights.shape == (4, 200)
    # the real weights (c^2, s^2, cs cos phi, cs sin phi) of the two sum to
    # those of the identity
    assert np.abs(weights + mirror - np.array([[1], [1], [0], [0]])).max() <= 1e-15
    for _ in range(10):
        kernel = _reorder(random_density_matrix(rng))
        direct = _cond_entropy(kernel, weights)
        mirrored = _cond_entropy(kernel, mirror)
        assert np.abs(direct - mirrored).max() <= 1e-14


def test_branch_entropy_closed_form(rng):
    # p S from trace and determinant against p sum -x log2 x over the
    # eigenvalues lambda of m, x = lambda/p
    def reference(op):
        lam = np.clip(np.linalg.eigvalsh(op), 0.0, None)
        x = lam[lam > 0.0] / lam.sum()
        return -lam.sum() * (x * np.log2(x)).sum()

    def components(ops):
        # the kernel's (4, N) layout: rows m_00, m_11, Re m_01, Im m_01
        ops = np.stack(ops)
        return np.stack([ops[:, 0, 0].real, ops[:, 1, 1].real,
                         ops[:, 0, 1].real, ops[:, 0, 1].imag])

    ops = []
    for scale in (1.0, 1e-3, 1e-8, 1e-13):
        ops += [scale * random_density_matrix(rng, 2) for _ in range(50)]
        ops += [scale * density_from_ket(random_pure_ket(rng, 2)) for _ in range(10)]
        ops.append(scale * np.eye(2) / 2)
    value = _branch_entropy(components(ops))
    assert np.abs(value - [reference(op) for op in ops]).max() <= 1e-14
    # exact zeros: no probability (trace 1e-14 exactly, and below), and a pure
    # diagonal conditional state
    empty = [0.5e-14 * np.eye(2)] + [scale * random_density_matrix(rng, 2)
                                     for scale in (1e-15, 0.0)]
    pure = [np.diag(d) for p in (1.0, 0.3, 1e-8, 1e-13) for d in ((p, 0.0), (0.0, p))]
    assert (_branch_entropy(components(empty + pure)) == 0.0).all()


def test_half_grid_seed_matches_full_grid(rng):
    rhos = [random_density_matrix(rng) for _ in range(50)]
    rhos += [propagate(AlphaState(alpha, phi).density(), SystemParams(**params),
                       t_final, samples).states[k]
             for params, alpha, phi, t_final, samples, k in POLE_CASES]
    rhos += [build_bell_diagonal(*h)
             for h in ((0.8, 0.8, -0.6), (0.0, 0.0, 0.6), (-1.0, -1.0, -1.0))]
    kernels = _reorder(np.stack(rhos))
    th_axis = np.linspace(0.0, np.pi / 2, GRID_SHAPE[0])
    ph_axis = np.linspace(0.0, 2.0 * np.pi, GRID_SHAPE[1], endpoint=False)
    th_grid, ph_grid = np.meshgrid(th_axis, ph_axis, indexing="ij")
    full = _cond_entropy(kernels,
                         _measurement_weights(th_grid.ravel(), ph_grid.ravel()))
    seed, seed_th, seed_ph = _grid_seed(kernels)
    assert np.abs(seed - full.min(axis=1)).max() <= 1e-13
    assert (seed_th < np.pi / 4).all()
    # the theta = 0 row is one measurement at every phi: one point stands for it
    grid_th, grid_ph, _ = _seed_grid()
    assert grid_th.size == 1985
    assert grid_th[grid_th == 0.0].tolist() == [0.0]
    assert grid_ph[grid_th == 0.0].tolist() == [0.0]
    at_seed = _cond_entropy(kernels,
                            _measurement_weights(seed_th[:, None], seed_ph[:, None]))
    assert np.abs(at_seed[:, 0] - seed).max() <= 1e-14


def test_search_value_independent_of_batch_position(rng):
    # one scan pass searches all points' states at once; its rows equal the
    # per-point rows only if value, theta and phi ignore the batch position,
    # at offsets inside a seed block as well as at its start
    batch = np.stack([random_density_matrix(rng) for _ in range(11)])
    for rho in [random_density_matrix(rng) for _ in range(3)]:
        alone = _minimize_batch(rho[None])
        for offset in range(8):
            placed = batch.copy()
            placed[offset] = rho
            among = _minimize_batch(placed)
            assert [a[offset] for a in among] == [a[0] for a in alone]


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
    rec = correlation_records(rho)
    assert conditional_entropy(rho, rec.theta_m, rec.phi_m) == \
        pytest.approx(searched_minimum(rho), abs=1e-9)


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
    bell, ground = correlation_records(np.stack([BELL, ground_state()])).eof
    assert bell == pytest.approx(1.0, abs=1e-9)
    assert ground == 0.0


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
    assert conditional_entropy(rho, np.pi / 4, 0.0) == pytest.approx(s2, abs=1e-12)


def test_xstate_branches_match_general_optimizer(rng):
    params = SystemParams(V=2.03, gamma=0.91)
    for _ in range(12):
        state = AlphaState(rng.uniform(), rng.uniform(0, 2 * np.pi))
        rho = analytic_evolution(state, params, rng.uniform(0, 6))
        s1, s2 = xstate_conditional_entropy_branches(rho)
        assert min(s1, s2) == pytest.approx(searched_minimum(rho), abs=1e-6)


def test_xstate_branches_reject_non_x_states(rng):
    with pytest.raises(XStructureError):
        xstate_conditional_entropy_branches(RHO_M)  # doubly excited population
    with pytest.raises(XStructureError):
        xstate_concurrence(random_density_matrix(rng))


def test_xstate_closed_forms_stacked_equal_per_state(rng):
    params = SystemParams(V=2.03, gamma=0.91)
    stack = np.stack([analytic_evolution(AlphaState(rng.uniform(), rng.uniform(0, 2 * np.pi)),
                                         params, rng.uniform(0, 6))
                      for _ in range(60)]
                     + [density_from_ket(alpha_ket(1.0)),   # p00 + p10 = 0
                        density_from_ket(bell_ket("psi-")), ground_state()])
    s1, s2 = xstate_conditional_entropy_branches(stack)
    c = xstate_concurrence(stack)
    assert s1.shape == s2.shape == c.shape == (len(stack),)
    for k, rho in enumerate(stack):
        one = xstate_conditional_entropy_branches(rho)
        assert all(type(value) is float for value in one)
        assert one == (s1[k], s2[k])
        assert xstate_concurrence(rho) == c[k]
    # one bad state rejects the stack, with the message a single state gets
    bad = stack.copy()
    bad[41, 3, 0] = 1e-3
    message = r"element \(3,0\) = 1\.000e-03\+0\.000e\+00j breaks the required X"
    for rhos in (bad, bad[41]):
        with pytest.raises(XStructureError, match=message):
            xstate_conditional_entropy_branches(rhos)


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

# the entropy bound S(rho_B) + 2 min S(A|B) - S(rho_A) - S(rho_AB) is QD - CC

def test_entropy_bound_product_state(rng):
    rec = correlation_records(random_product_state(rng))
    assert abs(rec.qd - rec.cc) <= 1e-7


def test_entropy_bound_bell_diagonal():
    rec = correlation_records(RHO_M)
    assert rec.qd - rec.cc == pytest.approx(D_RHO_M - CC_RHO_M, abs=1e-6)
    assert rec.qd - rec.cc == pytest.approx(0.016, abs=1e-3)


def test_entropy_bound_nonnegative_on_symmetric_trajectory():
    params = SystemParams(V=2.03, gamma=0.91)
    rec = correlation_records(analytic_evolution(AlphaState(0.5, 0.0), params,
                                                 np.linspace(0.0, 6.0, 25)))
    assert (rec.qd - rec.cc >= -1e-7).all()


def test_hierarchy_on_alpha_family_demonstrated_region():
    # CC <= EoF <= QD along no-laser trajectories, with and without gamma, for
    # real relative phases and alpha <= 1/2, where discord dominance holds at
    # every sample of the criterion-4 grid; alpha = 0.60, phi = pi already
    # fails (see the test below)
    times = np.linspace(0.0, 10.0, 30)
    rhos = np.stack([analytic_evolution(AlphaState(alpha, phi),
                                        SystemParams(V=v, gamma=gamma), times)
                     for v, gamma in ((2.0, 0.0), (2.03, 0.91))
                     for alpha in (0.0, 0.25, 0.5) for phi in (0.0, np.pi)])
    rec = correlation_records(rhos)
    assert rec.cc.shape == (12, 30)
    assert (rec.cc <= rec.qd + 1e-6).all()
    visible = rec.eof > 0.01
    assert (rec.cc[visible] <= rec.eof[visible] + 1e-6).all()


def _closed_form_bound(rho):
    """S_B + 2 min(s1, s2) - S_A - S_AB from the two-branch X-state form."""
    return (von_neumann_entropy(partial_trace(rho, "B"))
            + 2.0 * min(xstate_conditional_entropy_branches(rho))
            - von_neumann_entropy(partial_trace(rho, "A"))
            - von_neumann_entropy(rho))


# (alpha, phi, V, gamma, t, margin) where CC exceeds QD by more than margin
OFF_DOMINANCE_CASES = ((0.95, 0.0, 2.0, 0.0, 0.10050251256281408, 0.05),
                       (0.55, np.pi / 2, 2.03, 0.91, 0.2512562814070352, 0.03),
                       (0.60, np.pi, 2.0, 0.91, 0.05025125628140704, 5e-4))


def test_hierarchy_fails_outside_demonstrated_region():
    # discord dominance does NOT extend to the whole alpha family: classical
    # correlations exceed the discord at early times for near-separable
    # preparations (even with real phase), for complex relative phases, and
    # for real phases close to the Bell preparations (alpha = 0.60, phi = pi,
    # CC - QD = +5.5e-4); the closed two-branch form gives the same bound, so
    # the sign is the model's, not the search's
    for alpha, phi, v, gamma, t, margin in OFF_DOMINANCE_CASES:
        rho = analytic_evolution(AlphaState(alpha, phi),
                                 SystemParams(V=v, gamma=gamma), t)
        rec = correlation_records(rho)
        assert rec.qd - rec.cc < -margin
        assert rec.qd - rec.cc == pytest.approx(_closed_form_bound(rho), abs=1e-9)


def _mp_binary_entropy(x):
    return -sum(p * mpmath.log(p, 2) for p in (x, 1 - x) if p > 0)


def _mp_closed_form_bound(alpha, phi, v, gamma, t):
    """S_B + 2 min(s1, s2) - S_A - S_AB of analytic_evolution's state, in
    mpmath at the current precision, with Gamma = 1 and no laser."""
    alpha, phi, v, gamma, t = map(mpmath.mpf, (alpha, phi, v, gamma, t))
    f = mpmath.sqrt(alpha * (1 - alpha))
    cos_vt, sin_vt = mpmath.cos(2 * v * t), mpmath.sin(2 * v * t)
    plus = mpmath.exp(-gamma * t) * (mpmath.mpf(1) / 2 + f * mpmath.cos(phi))
    minus = mpmath.exp(gamma * t) * (mpmath.mpf(1) / 2 - f * mpmath.cos(phi))
    osc_pop = (1 - 2 * alpha) * cos_vt - 2 * f * mpmath.sin(phi) * sin_vt
    osc_coh = 2 * f * mpmath.sin(phi) * cos_vt + (1 - 2 * alpha) * sin_vt
    decay = mpmath.exp(-t)
    p01 = decay * (plus + minus - osc_pop) / 2             # rho[1, 1]
    p10 = decay * (plus + minus + osc_pop) / 2             # rho[2, 2]
    p00 = 1 - p01 - p10
    coh = decay * mpmath.mpc(plus - minus, -osc_coh) / 2   # rho[1, 2]
    # spectrum of diag(p00) + [[p01, coh], [conj(coh), p10]]
    mean, half = (p01 + p10) / 2, mpmath.sqrt(((p01 - p10) / 2) ** 2 + abs(coh) ** 2)
    s_ab = -sum(lam * mpmath.log(lam, 2) for lam in (p00, mean + half, mean - half)
                if lam > 0)
    s1 = (p00 + p10) * _mp_binary_entropy(p00 / (p00 + p10))
    xi = min(mpmath.sqrt((1 - 2 * p10) ** 2 + 4 * abs(coh) ** 2), 1)
    s2 = _mp_binary_entropy((1 + xi) / 2)
    return _mp_binary_entropy(p01) + 2 * min(s1, s2) - _mp_binary_entropy(p10) - s_ab


@pytest.mark.parametrize("alpha, phi, v, gamma, t, margin", OFF_DOMINANCE_CASES)
def test_off_dominance_bound_at_60_digits(alpha, phi, v, gamma, t, margin):
    with mpmath.workdps(60):
        exact = _mp_closed_form_bound(alpha, phi, v, gamma, t)
    assert exact < -margin
    rec = correlation_records(analytic_evolution(AlphaState(alpha, phi),
                                                 SystemParams(V=v, gamma=gamma), t))
    assert abs(rec.qd - rec.cc - float(exact)) <= 1e-9


def _mp_stationary_state(params):
    """Fixed point of the 16x16 generator at the working precision: L vec(rho)
    = 0 on column-stacked rho, with the first row replaced by tr rho = 1."""
    generator = liouvillian(params)
    matrix = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in generator])
    rhs = mpmath.matrix(16, 1)
    for j in range(16):
        matrix[0, j] = 1 if j % 5 == 0 else 0
    rhs[0] = 1
    vec = mpmath.lu_solve(matrix, rhs)
    return mpmath.matrix([[vec[i + 4 * j] for j in range(4)] for i in range(4)])


_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1, -1]))


def _mp_fano(rho):
    """R[mu][nu] = tr(rho sigma_mu (x) sigma_nu) of an mpmath 4x4 state."""
    return [[mpmath.re(sum(product[i, j] * rho[j, i] for i in range(4) for j in range(4)
                           if product[i, j] != 0))
             for product in (np.kron(s, t) for t in _PAULI)] for s in _PAULI]


def _mp_conditional_entropy(fano, theta, phi):
    """The Bloch form of conditional_entropy at the working precision."""
    n = (mpmath.sin(2 * theta) * mpmath.cos(phi), mpmath.sin(2 * theta) * mpmath.sin(phi),
         mpmath.cos(2 * theta))
    total = 0
    for sign in (1, -1):
        prob = (1 + sign * sum(fano[0][j + 1] * n[j] for j in range(3))) / 2
        bloch = [fano[i + 1][0] + sign * sum(fano[i + 1][j + 1] * n[j] for j in range(3))
                 for i in range(3)]
        length = mpmath.sqrt(sum(x * x for x in bloch)) / (2 * prob)
        total += prob * _mp_binary_entropy((1 + length) / 2)
    return total


def test_stationary_discord_gap_certified_at_50_digits():
    # criterion 8's "stationary QD > CC" passes on a gap of ~1.3e-12; the
    # fixed point and the minimized conditional entropy at 50 digits certify
    # its sign, and the double-precision gap matches to 1e-14
    params = SystemParams(**FIG7B)
    thetas = np.linspace(0.0, np.pi / 2, 129)
    phis = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    grid = conditional_entropy(stationary_state(params), thetas[:, None], phis)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    with mpmath.workdps(50):
        rho = _mp_stationary_state(params)
        fano = _mp_fano(rho)

        def gradient(theta, phi):
            return [mpmath.diff(lambda x: _mp_conditional_entropy(fano, x, phi), theta),
                    mpmath.diff(lambda y: _mp_conditional_entropy(fano, theta, y), phi)]

        theta, phi = mpmath.findroot(gradient, (thetas[i], phis[j]))
        least = _mp_conditional_entropy(fano, theta, phi)
        s_a, s_b = (_mp_binary_entropy((1 + mpmath.norm(vector)) / 2)
                    for vector in ([fano[k][0] for k in (1, 2, 3)], fano[0][1:]))
        s_ab = -sum(lam * mpmath.log(lam, 2) for lam in mpmath.eighe(rho, eigvals_only=True)
                    if lam > 0)
        gap = s_b - s_ab - s_a + 2 * least
    assert gap > 0
    assert least <= grid.min()
    rec = correlation_records(stationary_state(params))
    assert abs(rec.qd - rec.cc - float(gap)) <= 1e-14


# ------------------------------------------------------ record bundling

def test_correlation_record_bell():
    rec = correlation_records(BELL)
    assert rec.mi == pytest.approx(2.0, abs=1e-7)
    assert rec.cc == pytest.approx(1.0, abs=1e-7)
    assert rec.qd == pytest.approx(1.0, abs=1e-7)
    assert rec.concurrence == pytest.approx(1.0, abs=1e-9)
    assert rec.eof == pytest.approx(1.0, abs=1e-9)


def test_correlation_record_ground_state():
    rec = correlation_records(ground_state())
    for value in (rec.mi, rec.cc, rec.qd, rec.concurrence, rec.eof):
        assert abs(value) <= 1e-9


def test_correlation_record_bell_diagonal():
    rec = correlation_records(RHO_M)
    assert rec.mi == pytest.approx(I_RHO_M, abs=1e-6)
    assert rec.cc == pytest.approx(CC_RHO_M, abs=1e-6)
    assert rec.qd == pytest.approx(D_RHO_M, abs=1e-6)
    # Bell-diagonal concurrence is 2 max(lambda) - 1 = 0.6 here
    assert rec.concurrence == pytest.approx(0.6, abs=1e-9)
    assert rec.eof == pytest.approx(eof_from_concurrence(0.6), abs=1e-12)
    assert abs(rec.mi - (rec.qd + rec.cc)) <= 1e-6


def test_stacked_measures_equal_per_state_measures(rng):
    # one implementation per measure: a stack gives exactly the per-state
    # values, and an empty stack an empty array
    rhos = np.stack([random_density_matrix(rng) for _ in range(50)]
                    + [ground_state(), BELL])
    for stack in (rhos, rhos[:0]):
        for fn in (mutual_information, von_neumann_entropy, concurrence):
            stacked = fn(stack)
            assert stacked.shape == (len(stack),)
            singles = [fn(rho) for rho in stack]
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
    # a (2, 3) stack gives, field by field, the floats of each state on its
    # own; a (2, 0) stack gives empty fields
    stack = np.stack([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    for states in (stack, stack[:, :0]):
        stacked = vars(correlation_records(states))
        assert set(stacked) == {"mi", "cc", "qd", "concurrence", "eof", "theta_m", "phi_m"}
        assert all(values.shape == states.shape[:2] for values in stacked.values())
        for index in np.ndindex(states.shape[:2]):
            single = vars(correlation_records(states[index]))
            for name, values in stacked.items():
                assert type(single[name]) is float
                assert single[name] == pytest.approx(values[index], abs=1e-12)


# ------------------------------------------------------ properties

@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["ginibre", "mixed-pure"]))
def test_measures_obey_identities_and_local_invariance(seed, kind):
    # MI = QD + CC and 0 <= CC <= min(S_A, S_B); MI, C and EoF are invariant
    # under U_A x U_B, and QD and CC under U_A x I (the measured qubit is B)
    rng = np.random.default_rng(seed)
    rhos = np.stack([density_from_ket(random_pure_ket(rng))
                     if kind == "mixed-pure" and k % 2 else random_density_matrix(rng)
                     for k in range(12)])
    u_a = np.stack([np.kron(random_unitary(rng, 2), np.eye(2)) for _ in rhos])
    u_b = np.stack([np.kron(np.eye(2), random_unitary(rng, 2)) for _ in rhos])
    both = u_a @ u_b
    rec = correlation_records(np.stack([
        rhos, both @ rhos @ both.conj().swapaxes(-1, -2),
        u_a @ rhos @ u_a.conj().swapaxes(-1, -2)]))
    tol = 1e-9
    assert np.abs(rec.mi[0] - (rec.qd[0] + rec.cc[0])).max() <= tol
    bound = np.minimum(von_neumann_entropy(partial_trace(rhos, "A")),
                       von_neumann_entropy(partial_trace(rhos, "B")))
    assert (rec.cc[0] >= 0.0).all() and (rec.cc[0] <= bound + tol).all()
    for values in (rec.mi, rec.concurrence, rec.eof):
        assert np.abs(values[1] - values[0]).max() <= tol
    for values in (rec.qd, rec.cc):
        assert np.abs(values[2] - values[0]).max() <= tol
