"""Shared test utilities: random-state generators, an independent
conditional-entropy oracle built from full-space projections, and an
independent master-equation right-hand side."""
import numpy as np
from scipy.optimize import minimize

from ecsim import conditional_entropy


def random_density_matrix(rng, dim=4):
    """Full-rank random state from a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_pure_ket(rng, dim=4):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def oracle_conditional_entropy(rho, thetas, phis):
    """Measured conditional entropy at broadcast (theta_m, phi_m) angles,
    through explicit 4x4 projections I (x) |v><v| and reduced-state
    diagonalization: an algebra route independent of both the package's
    closed-form 2x2 search kernel and its Bloch-form conditional_entropy."""
    rho = np.asarray(rho, dtype=complex)
    thetas, phis = np.broadcast_arrays(np.asarray(thetas, dtype=float),
                                       np.asarray(phis, dtype=float))
    tf, pf = thetas.ravel(), phis.ravel()
    ct, st, ep = np.cos(tf), np.sin(tf), np.exp(1j * pf)
    kets = (np.stack([ct + 0j, ep * st], axis=1),
            np.stack([np.conj(ep) * st, -ct + 0j], axis=1))

    total = np.zeros(tf.size)
    for v in kets:
        proj = v[:, :, None] * v.conj()[:, None, :]            # (G,2,2) |v><v|
        full = np.zeros((tf.size, 4, 4), dtype=complex)        # I (x) |v><v|
        full[:, 0:2, 0:2] = proj
        full[:, 2:4, 2:4] = proj
        sandwich = full @ rho @ full
        reduced = np.einsum("gabcb->gac", sandwich.reshape(-1, 2, 2, 2, 2))
        probs = np.real(reduced[:, 0, 0] + reduced[:, 1, 1])
        eigs = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
        safe = np.where(probs > 1e-14, probs, 1.0)[:, None]
        x = np.clip(eigs / safe, 0.0, 1.0)
        entr = -(x * np.log2(np.where(x > 0.0, x, 1.0))).sum(axis=1)
        total += np.where(probs > 1e-14, probs * entr, 0.0)
    return total.reshape(thetas.shape)


def nelder_mead_minimum(rho, theta, phi):
    """scipy's Nelder-Mead minimum of the public conditional_entropy from
    (theta, phi), with theta clipped to [0, pi/2] and phi wrapped into
    [0, 2 pi); xatol 1e-10, fatol 1e-13."""
    def objective(angles):
        return conditional_entropy(rho, float(np.clip(angles[0], 0.0, np.pi / 2)),
                                   float(np.mod(angles[1], 2.0 * np.pi)))

    return float(minimize(objective, [theta, phi], method="Nelder-Mead",
                          options=dict(xatol=1e-10, fatol=1e-13)).fun)


def oracle_min_conditional_entropy(rho, n_grid=256):
    """Grid + Nelder-Mead reference minimum of the measured conditional entropy:
    the full-projection grid, polished through the public conditional_entropy."""
    thetas = np.linspace(0.0, np.pi / 2, n_grid)
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    values = oracle_conditional_entropy(rho, thetas[:, None], phis)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return min(float(values[i, j]), nelder_mead_minimum(rho, thetas[i], phis[j]))


# lowering operators |0><1| of emitters A (left factor) and B, built here apart
# from the package's operators
_LOWER = (np.kron([[0.0, 1.0], [0.0, 0.0]], np.eye(2)).astype(complex),
          np.kron(np.eye(2), [[0.0, 1.0], [0.0, 0.0]]).astype(complex))


def lindblad_rhs(rho, params):
    """d(rho)/dt = -i[H, rho] + sum_ij G_ij (s_j rho s_i^+ - {s_i^+ s_j, rho}/2)
    with s_i the lowering operator of emitter i and G = [[Gamma1, gamma],
    [gamma, Gamma2]]. H = sum_i (d_i s_i^+ s_i + ell_i (s_i^+ + s_i))
    + V (s_1^+ s_2 + s_2^+ s_1), with the emitter detunings
    d_1,2 = delta_plus +- delta_minus / 2 from the laser. Shares no code with
    build_hamiltonian or liouvillian."""
    rho = np.asarray(rho, dtype=complex)
    lower, raise_ = _LOWER, tuple(s.conj().T for s in _LOWER)
    detunings = (params.delta_plus + 0.5 * params.delta_minus,
                 params.delta_plus - 0.5 * params.delta_minus)
    h = params.V * (raise_[0] @ lower[1] + raise_[1] @ lower[0])
    for s, s_dag, det, ell in zip(lower, raise_, detunings, (params.ell1, params.ell2)):
        h = h + det * (s_dag @ s) + ell * (s_dag + s)
    rates = ((params.Gamma1, params.gamma), (params.gamma, params.Gamma2))
    out = -1j * (h @ rho - rho @ h)
    for i in range(2):
        for j in range(2):
            anti = raise_[i] @ lower[j]
            out = out + rates[i][j] * (lower[j] @ rho @ raise_[i]
                                       - 0.5 * (anti @ rho + rho @ anti))
    return out
