"""Shared test utilities: random-state generators and an independent
conditional-entropy oracle built from full-space projections."""
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


def oracle_min_conditional_entropy(rho, n_grid=256):
    """Grid + Nelder-Mead reference minimum of the measured conditional entropy:
    the full-projection grid, polished through the public conditional_entropy."""
    thetas = np.linspace(0.0, np.pi / 2, n_grid)
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    values = oracle_conditional_entropy(rho, thetas[:, None], phis)
    i, j = np.unravel_index(np.argmin(values), values.shape)

    def objective(angles):
        return conditional_entropy(rho, float(np.clip(angles[0], 0.0, np.pi / 2)),
                                   float(np.mod(angles[1], 2.0 * np.pi)))

    polish = minimize(objective, [thetas[i], phis[j]], method="Nelder-Mead",
                      options=dict(xatol=1e-10, fatol=1e-13))
    return min(float(values[i, j]), float(polish.fun))
