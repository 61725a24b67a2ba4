"""Total, classical, and quantum correlation measures for the emitter pair:
mutual information, classical correlations (optimized over projective
measurements on qubit B), quantum discord, concurrence, entanglement of
formation, and the X-state closed forms.
"""
import functools
from dataclasses import dataclass

import numpy as np

from . import states
from .errors import NumericsError, XStructureError

_LN2 = np.log(2.0)
_ZERO_PROB = 1e-14

# optimizer configuration: coarse grid, then compass search with shrinking step
GRID_SHAPE = (64, 64)
STEP_TOL = 1e-8

# sigma_mu (x) sigma_nu for mu, nu = 0..3 with sigma_0 = I, as [mu, nu, row, col]
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULI_PRODUCTS = np.einsum("mac,nbd->mnabcd", _PAULI, _PAULI).reshape(4, 4, 4, 4)
_SYY = _PAULI_PRODUCTS[2, 2]


def mutual_information(rho: np.ndarray):
    """I = S(rho_A) + S(rho_B) - S(rho_AB), total correlations in bits: a float
    for one state, an array for a (..., 4, 4) stack."""
    value = (states.von_neumann_entropy(states.partial_trace(rho, "A"))
             + states.von_neumann_entropy(states.partial_trace(rho, "B"))
             - states.von_neumann_entropy(rho))
    return states._float_or_array(np.maximum(value, 0.0))


def conditional_entropy(rho: np.ndarray, theta_m, phi_m):
    """Measured conditional entropy sum_k p_k S(rho_A | k), in bits, of one
    (4, 4) state for the measurement of B on cos(theta_m)|0> + e^{i phi_m}
    sin(theta_m)|1> and its complement: a float for scalar angles, which
    broadcast against each other otherwise.

    The real Bloch (Fano) form, which shares no arithmetic with the search it
    checks (Luo, PRA 77, 042303 (2008)): with R[mu, nu] = tr(rho sigma_mu (x)
    sigma_nu), a = R[1:, 0], b = R[0, 1:] and T = R[1:, 1:], outcome +-n,
    n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta), has
    p = (1 +- b.n)/2 and leaves A with the Bloch vector (a +- T n)/(2p); an
    outcome with p <= 1e-14 contributes 0. theta_m outside [0, pi/2] or a
    non-finite phi_m raises ValueError, a non-finite rho NonPhysicalStateError.
    """
    fano = np.einsum("mnij,ji->mn", _PAULI_PRODUCTS, states._require_finite(rho)).real
    theta_m, phi_m = np.asarray(theta_m, dtype=float), np.asarray(phi_m, dtype=float)
    bad = ~((theta_m >= -1e-12) & (theta_m <= np.pi / 2 + 1e-12))
    if bad.any():
        raise ValueError(f"theta_m must be in [0, pi/2], got {theta_m[bad].flat[0]}")
    if not np.isfinite(phi_m).all():
        raise ValueError(f"phi_m must be finite, got {phi_m[~np.isfinite(phi_m)].flat[0]}")
    a, b, t = fano[1:, 0], fano[0, 1:], fano[1:, 1:]
    # 4p^2 - |a +- T n|^2 = 1 - |a|^2 +- 2 c.n + n'Q n, with c = b - T'a and
    # Q = b b' - T'T, keeps a pure conditional state exact. The forms in n are
    # built from the theta and phi factors apart, so that an outer grid of
    # angles costs a few full-size passes
    sin2, cos2 = np.sin(2.0 * theta_m), np.cos(2.0 * theta_m)
    cos_phi, sin_phi = np.cos(phi_m), np.sin(phi_m)
    c, q = b - t.T @ a, np.outer(b, b) - t.T @ t
    b_n, c_n = (sin2 * (v[0] * cos_phi + v[1] * sin_phi) + v[2] * cos2 for v in (b, c))
    q_n = (sin2 * sin2 * (q[0, 0] * cos_phi * cos_phi + q[1, 1] * sin_phi * sin_phi
                          + 2.0 * q[0, 1] * cos_phi * sin_phi)
           + 2.0 * sin2 * cos2 * (q[0, 2] * cos_phi + q[1, 2] * sin_phi)
           + q[2, 2] * cos2 * cos2)
    total = 0.0
    for sign in (1.0, -1.0):
        prob = 0.5 * (1.0 + sign * b_n)
        live = prob > _ZERO_PROB
        det = np.maximum(1.0 - a @ a + 2.0 * sign * c_n + q_n, 0.0)
        length = np.sqrt(np.maximum(4.0 * prob * prob - det, 0.0))  # |a +- T n|
        # (1 - |r|)/2, the smaller eigenvalue of A's conditional state
        lower = np.clip(det / np.where(live, 4.0 * prob * (2.0 * prob + length), 1.0),
                        0.0, 0.5)
        # x log x with 0 log 0 = 0: the floor only keeps the log finite
        entropy = -((1.0 - lower) * np.log1p(-lower)
                    + lower * np.log(np.maximum(lower, 1e-300)))
        total = total + np.where(live, prob * entropy, 0.0)
    return states._float_or_array(total / _LN2)


# ---------------------------------------------------------------------------
# vectorized measurement search
#
# For a projector |v><v| on B, v = (c, e^{i phi} s) with c = cos theta and
# s = sin theta, the unnormalized conditional operator of A is
# M = sum_{b,b'} conj(v_b) v_{b'} R_{bb'}, with R_{bb'}[a,a'] = rho_{ab,a'b'}:
# M = c^2 R_00 + s^2 R_11 + cs cos(phi) (R_01 + R_10) + cs sin(phi) i(R_01 - R_10).
# All four terms are Hermitian, so each is four reals (H_00, H_11, Re H_01,
# Im H_01), and M is one real (4,4) @ (4,P) product per state that leaves each
# operator component in one contiguous row. The two projectors sum to the
# identity, so outcome b's operator is rho_A - M, and each outcome's p S comes
# from the trace and eigenvalue gap of its 2x2 operator in closed form.
# ---------------------------------------------------------------------------

def _reorder(rhos: np.ndarray) -> np.ndarray:
    """(..., 4, 4) states as real (..., 4, 4) kernels K[component, weight]:
    weight columns R_00, R_11, R_01 + R_10 and i(R_01 - R_10), each as its
    components (H_00, H_11, Re H_01, Im H_01)."""
    r = np.asarray(rhos, dtype=complex)
    r = r.reshape(r.shape[:-2] + (2, 2, 2, 2))  # [..., a, b, a', b']
    r01, r10 = r[..., :, 0, :, 1], r[..., :, 1, :, 0]
    ops = np.stack([r[..., :, 0, :, 0], r[..., :, 1, :, 1], r01 + r10,
                    1j * (r01 - r10)], axis=-3)
    return np.stack([ops[..., 0, 0].real, ops[..., 1, 1].real,
                     ops[..., 0, 1].real, ops[..., 0, 1].imag], axis=-2)


def _measurement_weights(thetas, phis):
    """Real weights (c^2, s^2, cs cos phi, cs sin phi) of outcome a,
    v = (cos theta, e^{i phi} sin theta), stacked on axis -2: angles of shape
    (..., n) give (..., 4, n)."""
    c, s = np.cos(thetas), np.sin(thetas)
    cs = c * s
    return np.stack([c * c, s * s, cs * np.cos(phis), cs * np.sin(phis)], axis=-2)


def _xlogx(x):
    # the floor only keeps the log finite: 0 log 0 = 0
    return x * np.log(np.maximum(x, 1e-300))


def _branch_entropy(m):
    """p S(rho_A | outcome) in bits from unnormalized conditional operators
    of A given as components (m_00, m_11, Re m_01, Im m_01) on axis -2: with
    t = m_00 + m_11 and eigenvalues l+- = (t +- g)/2, g = 2 sqrt(((m_00 -
    m_11)/2)^2 + |m_01|^2), p S = (t ln t - l+ ln l+ - l- ln l-)/ln 2, and 0
    where t <= 1e-14. g is a sum of squares, so it needs no clamp, where
    sqrt(t^2 - 4 det) loses half its digits near a degenerate operator."""
    m00, m11, re, im = (m[..., k, :] for k in range(4))
    tr = m00 + m11
    half = 0.5 * (m00 - m11)
    half_gap = np.sqrt(half * half + re * re + im * im)
    total = _xlogx(tr)
    total -= _xlogx(0.5 * tr + half_gap)
    total -= _xlogx(np.maximum(0.5 * tr - half_gap, 0.0))
    return np.where(tr > _ZERO_PROB, total / _LN2, 0.0)


def _cond_entropy(kernel, weights):
    """Conditional entropy for `weights` from `_measurement_weights`; `kernel`
    from `_reorder` is (4,4) or (S,4,4), broadcasting against their leading
    axes."""
    m = kernel @ weights
    # weight columns R_00 and R_11 sum to rho_A = M_a + M_b
    rho_a = (kernel[..., :, 0] + kernel[..., :, 1])[..., None]
    value = _branch_entropy(m)
    # outcome b in place: a second operator array would raise the seed's peak
    return value + _branch_entropy(np.subtract(rho_a, m, out=m))


# Outcome b at (theta, phi) is outcome a at (pi/2 - theta, phi + pi), so grid
# rows 32-63 repeat the measurements of rows 0-31 with the outcomes swapped:
# the seed scans rows 0-31 only, whose theta = 0 row is one point: 1,985
# points. States go in blocks of 4, whose (4,4,1985) operator array takes
# 248 KiB, which keeps the tracemalloc peak of a 400-state search near
# 0.85 MiB.
_SEED_BLOCK = 4


@functools.cache
def _seed_grid():
    """(thetas, phis, weights) of the seed points, built on first use."""
    th_axis = np.linspace(0.0, np.pi / 2, GRID_SHAPE[0])[:GRID_SHAPE[0] // 2]
    ph_axis = np.linspace(0.0, 2.0 * np.pi, GRID_SHAPE[1], endpoint=False)
    th_grid, ph_grid = np.meshgrid(th_axis, ph_axis, indexing="ij")
    # row theta = 0 is one measurement, weights (1, 0, 0, 0), at every phi:
    # its first point stands for all, as first-occurrence ties would pick it
    keep = np.ones(th_grid.shape, dtype=bool)
    keep[0, 1:] = False
    th_flat, ph_flat = th_grid[keep], ph_grid[keep]
    weights = _measurement_weights(th_flat, ph_flat)
    for array in (th_flat, ph_flat, weights):
        array.flags.writeable = False
    return th_flat, ph_flat, weights


def _grid_seed(kernels):
    """Best point of the 64x64 grid for each of the (S, 4, 4) `_reorder`
    kernels: (values, thetas, phis), ties broken by first occurrence in rows
    0-31."""
    th_flat, ph_flat, weights = _seed_grid()
    count = kernels.shape[0]
    best = np.empty(count)
    best_th = np.empty(count)
    best_ph = np.empty(count)
    for start in range(0, count, _SEED_BLOCK):
        vals = _cond_entropy(kernels[start:start + _SEED_BLOCK], weights)
        k = np.argmin(vals, axis=1)
        stop = start + k.size
        best[start:stop] = vals[np.arange(k.size), k]
        best_th[start:stop] = th_flat[k]
        best_ph[start:stop] = ph_flat[k]
    return best, best_th, best_ph


_POLE_AZIMUTHS = np.array([0.0, np.pi, 0.5 * np.pi, -0.5 * np.pi])


def _minimize_batch(rhos: np.ndarray):
    """Lockstep grid + compass search over (theta, phi) for a stack of states.

    Returns (values, thetas, phis) arrays. Deterministic: ties on the grid are
    broken by first occurrence, and the search path is input-only.
    """
    count = rhos.shape[0]
    kernels = _reorder(rhos)
    best, best_th, best_ph = _grid_seed(kernels)

    step = np.full(count, np.pi / 2 / (GRID_SHAPE[0] - 1))
    active = step > STEP_TOL
    while active.any():
        idx = np.nonzero(active)[0]
        st = step[idx]
        th, ph = best_th[idx], best_ph[idx]
        cand_th = np.stack([th + st, th - st, th, th], axis=1)
        cand_ph = np.stack([ph, ph, ph + st, ph - st], axis=1)
        # theta = 0 and pi/2 are poles of the chart, where phi steps do not
        # move the measurement: step off the pole along four meridians instead
        pole = (th == 0.0) | (th == np.pi / 2)
        off_pole = np.where(th == 0.0, st, np.pi / 2 - st)
        cand_th[pole] = off_pole[pole, None]
        cand_ph[pole] = ph[pole, None] + _POLE_AZIMUTHS
        cand_th = np.clip(cand_th, 0.0, np.pi / 2)
        cand_ph = np.mod(cand_ph, 2.0 * np.pi)
        vals = _cond_entropy(kernels[idx], _measurement_weights(cand_th, cand_ph))
        j = np.argmin(vals, axis=1)
        cand_best = vals[np.arange(len(idx)), j]
        improved = cand_best < best[idx] - 1e-15
        moved = idx[improved]
        best[moved] = cand_best[improved]
        best_th[moved] = cand_th[improved, j[improved]]
        best_ph[moved] = cand_ph[improved, j[improved]]
        step[idx[~improved]] *= 0.5
        active = step > STEP_TOL
    return best, best_th, best_ph


# eigenvalues of rho rho~ below this are exact zeros of a rank-deficient
# product (or solver noise); taking their square roots would bias C by ~1e-8
_SPECTRUM_FLOOR = 1e-12


def concurrence(rho: np.ndarray):
    """Two-qubit concurrence from the spin-flipped state: a float for one
    state, an array for a (..., 4, 4) stack.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) conj(rho) (sy x sy). A non-finite entry
    raises NonPhysicalStateError.
    """
    rho = states._require_finite(rho)
    rho_tilde = _SYY @ rho.conj() @ _SYY
    ev = np.linalg.eigvals(rho @ rho_tilde)
    worst_imag = float(np.abs(ev.imag).max(initial=0.0))
    if worst_imag > 1e-6:
        raise NumericsError(
            f"spin-flip spectrum has imaginary part {worst_imag:.2e}")
    cleaned = np.where(ev.real > _SPECTRUM_FLOOR, ev.real, 0.0)
    lam = np.sqrt(np.sort(cleaned, axis=-1)[..., ::-1])
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return states._float_or_array(np.clip(c, 0.0, 1.0))


def eof_from_concurrence(c):
    """EoF as the monotone function of concurrence, h((1 + sqrt(1 - C^2))/2),
    elementwise; a float for a float."""
    c = np.asarray(c, dtype=float)
    bad = ~((c >= -1e-12) & (c <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"concurrence must be in [0, 1], got {c[bad].flat[0]}")
    c = np.clip(c, 0.0, 1.0)
    return states.binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - c * c)))


# entries that must vanish in the single-excitation X class: everything but
# the diagonal without the doubly-excited entry, and the |01><10| coherence
_X_FORBIDDEN = np.array([[0, 1, 1, 1],
                         [1, 0, 0, 1],
                         [1, 0, 0, 1],
                         [1, 1, 1, 1]], dtype=bool)
_X_TOL = 1e-10


def _require_x_structure(rho: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) stack as complex; XStructureError naming the first
    forbidden element above _X_TOL, in the first state that has one."""
    rho = np.asarray(rho, dtype=complex)
    bad = _X_FORBIDDEN & (np.abs(rho) > _X_TOL)
    if bad.any():
        *k, i, j = np.argwhere(bad)[0]
        raise XStructureError(f"element ({i},{j}) = {rho[(*k, i, j)]:.3e} "
                              "breaks the required X structure")
    return rho


def xstate_conditional_entropy_branches(rho: np.ndarray):
    """The two candidate conditional-entropy minima for the X class.

    Branch 1 is the computational-basis measurement on B; branch 2 is the
    equatorial one, with xi = sqrt((1 - 2 rho_10,10)^2 + 4 |rho_01,10|^2)
    clamped to <= 1. The true minimum over all bases is min of the two.
    Floats (s1, s2) for one state, arrays for a (..., 4, 4) stack.
    """
    rho = _require_x_structure(rho)
    p00 = rho[..., 0, 0].real
    p10 = rho[..., 2, 2].real
    total = p00 + p10
    s1 = np.zeros_like(total)
    for p in (p00, p10):
        keep = (total > _ZERO_PROB) & (p > _ZERO_PROB)
        ratio = np.where(keep, p / np.where(keep, total, 1.0), 1.0)
        s1 -= np.where(keep, p * np.log(ratio) / _LN2, 0.0)

    xi = np.minimum(np.sqrt((1.0 - 2.0 * p10) ** 2
                            + 4.0 * np.abs(rho[..., 1, 2]) ** 2), 1.0)
    s2 = states.binary_entropy(0.5 * (1.0 + xi))
    return states._float_or_array(s1), states._float_or_array(s2)


def xstate_concurrence(rho: np.ndarray):
    """Concurrence of the zero-doubly-excited X class, min(2 |rho_01,10|, 1): a
    float for one state, an array for a (..., 4, 4) stack."""
    rho = _require_x_structure(rho)
    return states._float_or_array(np.minimum(2.0 * np.abs(rho[..., 1, 2]), 1.0))


@dataclass(frozen=True)
class CorrelationRecord:
    """MI, CC, QD, concurrence and EoF, with the basis (theta_m, phi_m) on B
    that attains CC: floats for one state, arrays over the leading axes for a
    stack."""

    mi: float | np.ndarray
    cc: float | np.ndarray
    qd: float | np.ndarray
    concurrence: float | np.ndarray
    eof: float | np.ndarray
    theta_m: float | np.ndarray
    phi_m: float | np.ndarray


def correlation_records(rho: np.ndarray) -> CorrelationRecord:
    """All correlation measures of one (4, 4) state or of a (..., 4, 4) stack,
    with the measurement search batched across the stack; a state's values do
    not depend on its place in the stack. The one place where MI, CC, QD and
    EoF are assembled: CC and QD share one argmax basis, so MI = QD + CC holds
    as an identity up to float roundoff."""
    rho = np.asarray(rho, dtype=complex)
    s_a = states.von_neumann_entropy(states.partial_trace(rho, "A"))
    s_b = states.von_neumann_entropy(states.partial_trace(rho, "B"))
    s_ab = states.von_neumann_entropy(rho)
    lead = rho.shape[:-2]
    min_cond, ths, phs = (a.reshape(lead) for a in _minimize_batch(rho.reshape(-1, 4, 4)))
    cs = concurrence(rho)
    fields = dict(mi=np.maximum(s_a + s_b - s_ab, 0.0),
                  cc=np.maximum(s_a - min_cond, 0.0),
                  qd=np.maximum(s_b - s_ab + min_cond, 0.0),
                  concurrence=cs, eof=eof_from_concurrence(cs),
                  theta_m=ths, phi_m=phs)
    return CorrelationRecord(**{name: states._float_or_array(value)
                                for name, value in fields.items()})
