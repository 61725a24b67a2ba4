"""Total, classical, and quantum correlation measures for the emitter pair:
mutual information, classical correlations (optimized over projective
measurements on qubit B), quantum discord, concurrence, entanglement of
formation, and the X-state closed forms.
"""
import functools
from dataclasses import dataclass

import numpy as np

from . import states
from .errors import NumericsError, XStructureError, ZeroProbabilityOutcomeError

_LN2 = np.log(2.0)
_ZERO_PROB = 1e-14

# optimizer configuration: coarse grid, then compass search with shrinking step
GRID_SHAPE = (64, 64)
STEP_TOL = 1e-8

_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SYY = np.kron(_SY, _SY)


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement {|a>, |b>} on qubit B.

    |a> = cos(theta_m)|0> + e^{i phi_m} sin(theta_m)|1>,
    |b> = e^{-i phi_m} sin(theta_m)|0> - cos(theta_m)|1>.
    """

    theta_m: float
    phi_m: float

    def __post_init__(self):
        if not -1e-12 <= self.theta_m <= np.pi / 2 + 1e-12:
            raise ValueError(f"theta_m must be in [0, pi/2], got {self.theta_m}")
        if not np.isfinite(self.phi_m):
            raise ValueError(f"phi_m must be finite, got {self.phi_m}")

    def vectors(self):
        ct, st = np.cos(self.theta_m), np.sin(self.theta_m)
        ep = np.exp(1j * self.phi_m)
        ket_a = np.array([ct, ep * st], dtype=complex)
        ket_b = np.array([np.conj(ep) * st, -ct], dtype=complex)
        return ket_a, ket_b

    def projectors(self):
        ket_a, ket_b = self.vectors()
        return np.outer(ket_a, ket_a.conj()), np.outer(ket_b, ket_b.conj())


def mutual_information(rho: np.ndarray):
    """I = S(rho_A) + S(rho_B) - S(rho_AB), total correlations in bits: a float
    for one state, an array for a (..., 4, 4) stack."""
    value = (states.von_neumann_entropy(states.partial_trace(rho, "A"))
             + states.von_neumann_entropy(states.partial_trace(rho, "B"))
             - states.von_neumann_entropy(rho))
    return states._float_or_array(np.maximum(value, 0.0))


def post_measurement_state(rho: np.ndarray, basis: MeasurementBasis, outcome: str):
    """Conditional state of A and the outcome probability after measuring B.

    outcome is 'a' or 'b'; a probability below 1e-14 leaves the conditional
    state undefined and raises ZeroProbabilityOutcomeError.
    """
    ket_a, ket_b = basis.vectors()
    if outcome == "a":
        v = ket_a
    elif outcome == "b":
        v = ket_b
    else:
        raise ValueError(f"outcome must be 'a' or 'b', got {outcome!r}")
    tensor = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    cond = np.einsum("b,abcd,d->ac", v.conj(), tensor, v)
    prob = float(np.real(np.trace(cond)))
    if prob <= _ZERO_PROB:
        raise ZeroProbabilityOutcomeError(
            f"outcome {outcome!r} has probability {prob:.2e}; conditional state undefined")
    return cond / prob, prob


def conditional_entropy(rho: np.ndarray, basis: MeasurementBasis) -> float:
    """Measured conditional entropy sum_j p_j S(rho_A | outcome j), in bits.

    Zero-probability branches contribute zero (p S -> 0 limit).
    """
    total = 0.0
    for outcome in ("a", "b"):
        try:
            cond, prob = post_measurement_state(rho, basis, outcome)
        except ZeroProbabilityOutcomeError:
            continue
        total += prob * states.von_neumann_entropy(cond)
    return total


# ---------------------------------------------------------------------------
# vectorized measurement search
#
# For a projector |v><v| on B the unnormalized conditional operator of A is
# M[a,a'] = sum_{b,b'} conj(v_b) rho_{ab,a'b'} v_{b'}; with rho reordered to a
# (b,b') x (a,a') matrix this is one (...,4) @ (4,4) product per branch, and
# the 2x2 eigenvalues come from trace and determinant in closed form.
# ---------------------------------------------------------------------------

def _reorder(rhos: np.ndarray) -> np.ndarray:
    """(..., 4, 4) states as (..., 4, 4) matrices indexed by (b, b') x (a, a')."""
    rhos = np.asarray(rhos, dtype=complex)
    return (rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3)
            .reshape(rhos.shape))


def _branch_vectors(thetas, phis):
    ct, st = np.cos(thetas), np.sin(thetas)
    ep = np.exp(1j * phis)
    va = np.stack([ct + 0j, ep * st], axis=-1)
    vb = np.stack([np.conj(ep) * st, -ct + 0j], axis=-1)
    return va, vb


def _measurement_weights(thetas, phis):
    """|v><v| of outcomes a and b at each (theta, phi), flattened to (..., 4)."""
    return tuple((v[..., :, None].conj() * v[..., None, :]).reshape(v.shape[:-1] + (4,))
                 for v in _branch_vectors(thetas, phis))


def _branch_entropy(m):
    """p S(rho_A | outcome) in bits from unnormalized conditional operators
    m (..., 4) of A, flattened row-major."""
    tr = np.real(m[..., 0] + m[..., 3])
    det = np.real(m[..., 0] * m[..., 3] - m[..., 1] * m[..., 2])
    disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
    valid = tr > _ZERO_PROB
    tr_safe = np.where(valid, tr, 1.0)
    branch = np.zeros_like(tr)
    for lam in (0.5 * (tr + disc), 0.5 * (tr - disc)):
        x = np.clip(lam / tr_safe, 0.0, 1.0)
        branch += np.where(x > 0.0, -x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)
    return np.where(valid, tr * branch / _LN2, 0.0)


def _cond_entropy_from_weights(reordered, weights):
    """Conditional entropy for `weights` from `_measurement_weights`; `reordered`
    is (4,4) or (S,4,4) broadcasting against their leading axes."""
    return sum(_branch_entropy(w @ reordered) for w in weights)


def _cond_entropy_values(reordered, thetas, phis):
    """Conditional entropy at each (theta, phi); `reordered` is (4,4) or (S,4,4)
    broadcasting against leading axes of `thetas`/`phis`."""
    return _cond_entropy_from_weights(reordered, _measurement_weights(thetas, phis))


# Outcome b at (theta, phi) is outcome a at (pi/2 - theta, phi + pi), so grid
# rows 32-63 repeat the measurements of rows 0-31 with the outcomes swapped:
# the seed scans rows 0-31 only. States go in blocks of 4, which keeps the
# temporaries near 1.5 MiB per thread. `weights @ block` makes one
# (2048,4) @ (4,4) product per state, which BLAS runs on the calling thread;
# a single (2048,4) @ (4,16) product per block goes to BLAS worker threads,
# whose hand-off costs more than the product.
_SEED_BLOCK = 4


@functools.cache
def _seed_grid():
    """(thetas, phis, weights) of the seed points, built on first use."""
    th_axis = np.linspace(0.0, np.pi / 2, GRID_SHAPE[0])[:GRID_SHAPE[0] // 2]
    ph_axis = np.linspace(0.0, 2.0 * np.pi, GRID_SHAPE[1], endpoint=False)
    th_grid, ph_grid = np.meshgrid(th_axis, ph_axis, indexing="ij")
    th_flat, ph_flat = th_grid.ravel(), ph_grid.ravel()
    weights = _measurement_weights(th_flat, ph_flat)
    for array in (th_flat, ph_flat, *weights):
        array.flags.writeable = False
    return th_flat, ph_flat, weights


def _grid_seed(reordered):
    """Best point of the 64x64 grid for each of the (S, 4, 4) reordered states:
    (values, thetas, phis), ties broken by first occurrence in rows 0-31."""
    th_flat, ph_flat, weights = _seed_grid()
    count = reordered.shape[0]
    best = np.empty(count)
    best_th = np.empty(count)
    best_ph = np.empty(count)
    for start in range(0, count, _SEED_BLOCK):
        vals = _cond_entropy_from_weights(reordered[start:start + _SEED_BLOCK], weights)
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
    reordered = _reorder(rhos)
    best, best_th, best_ph = _grid_seed(reordered)

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
        vals = _cond_entropy_values(reordered[idx], cand_th, cand_ph)
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


def minimize_conditional_entropy(rho: np.ndarray):
    """Global minimum of the measured conditional entropy over bases on B.

    Coarse grid scan followed by a compass search with shrinking step
    (terminates at angle step 1e-8). Returns (value, argmin MeasurementBasis);
    a non-finite entry raises NonPhysicalStateError.
    """
    vals, ths, phs = _minimize_batch(states._require_finite(rho)[None, :, :])
    return float(vals[0]), MeasurementBasis(float(ths[0]), float(phs[0]))


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
    worst_imag = float(np.abs(ev.imag).max())
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


def entanglement_of_formation(rho: np.ndarray):
    return eof_from_concurrence(concurrence(rho))


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
                  cc=np.maximum(s_a - min_cond, 0.0), qd=s_b - s_ab + min_cond,
                  concurrence=cs, eof=eof_from_concurrence(cs),
                  theta_m=ths, phi_m=phs)
    return CorrelationRecord(**{name: states._float_or_array(value)
                                for name, value in fields.items()})
