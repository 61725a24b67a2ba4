"""State primitives: partial trace, entropies, validation."""
import numpy as np
import pytest

from ecsim import (NonPhysicalStateError, alpha_ket, bell_ket, binary_entropy,
                   build_bell_diagonal, correlation_record, correlation_records,
                   density_from_ket, ground_state, partial_trace, validate_state,
                   von_neumann_entropy)
from helpers import random_density_matrix, random_pure_ket, random_unitary


def test_partial_trace_product_state():
    rho = ground_state()
    assert np.allclose(partial_trace(rho, "A"), [[1, 0], [0, 0]], atol=1e-14)
    assert np.allclose(partial_trace(rho, "B"), [[1, 0], [0, 0]], atol=1e-14)


def test_partial_trace_bell_marginal_is_maximally_mixed():
    rho = density_from_ket(bell_ket("psi+"))
    assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_bell_diagonal_marginals():
    # the Bell-diagonal family has maximally mixed marginals
    rho = build_bell_diagonal(0.8, 0.8, -0.6)
    assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_recovers_product_factors(rng):
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(rho, "A"), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(rho, "B"), rho_b, atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    for _ in range(20):
        rho = random_density_matrix(rng)
        for keep in ("A", "B"):
            assert abs(np.trace(partial_trace(rho, keep)) - np.trace(rho)) < 1e-12


def test_partial_trace_is_linear(rng):
    x, y = random_density_matrix(rng), random_density_matrix(rng)
    lhs = partial_trace(0.3 * x + 0.7 * y, "A")
    rhs = 0.3 * partial_trace(x, "A") + 0.7 * partial_trace(y, "A")
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_partial_trace_rejects_bad_label():
    with pytest.raises(ValueError):
        partial_trace(ground_state(), "C")


def test_entropy_pure_state_is_zero(rng):
    for _ in range(5):
        rho = density_from_ket(random_pure_ket(rng))
        assert abs(von_neumann_entropy(rho)) < 1e-10


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_known_diagonal():
    # direct evaluation of -sum lambda log2 lambda for (0.8, 0.2)
    rho = np.diag([0.8, 0.2]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.7219280948873623, abs=1e-12)


def test_entropy_unitarily_invariant(rng):
    for _ in range(10):
        rho = random_density_matrix(rng)
        u = random_unitary(rng)
        assert abs(von_neumann_entropy(u @ rho @ u.conj().T)
                   - von_neumann_entropy(rho)) < 1e-9


def test_entropy_schmidt_symmetry(rng):
    # both marginals of a pure state share the nonzero spectrum
    for _ in range(20):
        rho = density_from_ket(random_pure_ket(rng))
        diff = abs(von_neumann_entropy(partial_trace(rho, "A"))
                   - von_neumann_entropy(partial_trace(rho, "B")))
        assert diff < 1e-10


def test_entropy_rejects_negative_eigenvalue(rng):
    rho = np.diag([0.55, 0.5, -0.05, 0.0]).astype(complex)
    with pytest.raises(NonPhysicalStateError):
        von_neumann_entropy(rho)
    # the same type for a single state, inside a stack, and from the records
    slightly = np.diag([0.5 + 1e-6, 0.5, -1e-6, 0.0]).astype(complex)
    stack = np.stack([random_density_matrix(rng), slightly, random_density_matrix(rng)])
    for call in (lambda: von_neumann_entropy(slightly), lambda: von_neumann_entropy(stack),
                 lambda: correlation_record(slightly),
                 lambda: correlation_records(np.arange(3.0), stack)):
        with pytest.raises(NonPhysicalStateError):
            call()


def test_entropy_clamps_roundoff_negativity():
    rho = np.diag([1.0 + 5e-9, -5e-9, 0.0, 0.0]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-6)


def test_binary_entropy_reference_points():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


def test_binary_entropy_symmetric(rng):
    for x in rng.uniform(0, 1, 25):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    # 1e-12 slack around the endpoints is accepted
    assert binary_entropy(1.0 + 5e-13) == 0.0
    for bad in (np.nan, [0.2, np.nan], [0.2, 1.01], [[0.5], [-0.01]]):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_validate_state_accepts_bell():
    report = validate_state(density_from_ket(bell_ket("phi+")))
    assert report.ok
    assert report.hermiticity_defect < 1e-15
    assert report.trace_defect < 1e-15


def test_validate_state_flags_trace_defect():
    rho = np.diag([0.6, 0.5, 0.0, 0.0]).astype(complex)
    report = validate_state(rho)
    assert not report.ok
    assert not report.unit_trace
    assert report.trace_defect == pytest.approx(0.1, abs=1e-12)


def test_validate_state_flags_negativity():
    rho = np.diag([0.55, 0.5, -0.05, 0.0]).astype(complex)
    report = validate_state(rho)
    assert not report.ok
    assert not report.positive
    assert report.min_eigenvalue == pytest.approx(-0.05, abs=1e-12)


def test_validate_state_flags_non_hermitian():
    rho = ground_state()
    rho[0, 1] = 0.1
    report = validate_state(rho)
    assert not report.hermitian
    assert report.hermiticity_defect == pytest.approx(0.1, abs=1e-12)


def test_alpha_ket_endpoints():
    assert np.allclose(alpha_ket(1.0), [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(alpha_ket(0.0), [0, 0, 1, 0], atol=1e-15)
    with pytest.raises(ValueError):
        alpha_ket(1.2)
