"""Output checks for every benchmark operation.

Each check is independent of the kernel it checks: the CSV rows are read back
as text, the identities are recomputed here, and reference states come from
closed forms or from the Liouvillian, never from the measurement search or
the numerical integrator:

- no-drive alpha-family trajectories are rebuilt with `analytic_evolution`
  and compared with the X-class closed forms
  (`xstate_conditional_entropy_branches`, `xstate_concurrence`);
- every other trajectory is rebuilt exactly, as exp(L dt)^k vec(rho0) with
  L = `liouvillian(params)`, and its rows are held against a measurement
  search (a fixed grid refined by local grids) and a Wootters concurrence,
  both written here, the search in Bloch-vector form rather than the
  program's projector form;
- propagated states are compared with `analytic_evolution` (short no-drive
  runs) and `stationary_state` (the Liouvillian null space, long driven runs).

The optimizer's argmin (theta_m, phi_m) is never compared: on degenerate
landscapes it can move legitimately.

Every value is first required to be finite, and every tolerance test is
written so that a NaN fails it. A check returns a list of failure messages;
an empty list means the output passed.
"""
import numpy as np
from scipy.linalg import expm

BASE_HEADER = ("t", "MI", "CC", "QD", "C", "EoF", "theta_m", "phi_m")

IDENTITY_TOL = 1e-6     # |MI - (QD + CC)|
EOF_TOL = 1e-9          # EoF against the Wootters formula applied to the row's C
SIGN_TOL = 1e-8         # QD >= 0 and CC <= S_A, up to roundoff
XCC_TOL = 1e-6          # CC against the two-branch closed form
# C against the X-class concurrence of the closed-form state. On the exact
# state the kernel agrees to ~1e-15, but the row's C comes from the integrated
# state, whose error (~2e-10 here, from DOP853 at rtol 1e-10) the spin-flip
# eigenproblem can amplify: one alpha scan point of 1,200+ reached 1.97e-9
XC_TOL = 1e-8
# the concurrence kernel zeroes eigenvalues of rho rho~ below 1e-12 (its
# documented spectrum floor), so it reports exactly 0 for a concurrence below
# sqrt(1e-12) = 1e-6; in that range the check requires exactly that 0
C_RESOLUTION = 1e-6
# CC may fall short of S_A - m by at most this, where m is the minimum found by
# the independent search below. m never lies below the true minimum, so any
# program search at least as good passes, and one that stops at a worse point
# fails. The tolerance is the program's own for its search: acceptance
# criterion 9 allows 1e-5 between its CC and a polished 512 x 512 grid
GRID_TOL = 1e-5
# C of a general (non-X) state against the Wootters value of the exactly
# rebuilt state. The square roots of small eigenvalues of rho rho~ turn an
# integration error of ~1e-10 into an error of up to ~sqrt(1e-10) = 1e-5 in C
GENERAL_C_TOL = 3e-5
ANALYTIC_TOL = 1e-6     # propagated states against analytic_evolution
STATIONARY_TOL = 1e-8   # endpoint of a long driven run against stationary_state

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_SIGMA_YY = np.kron(_PAULI[1], _PAULI[1])
# measurement directions on B: a Fibonacci lattice on the upper hemisphere
# (n and -n give the same measurement) plus the three axes
_GRID_POINTS = 512
_GRID_CHUNK = 32        # states per chunk, to keep the temporaries below 1 MB
_GRID_SPACING = np.sqrt(2.0 * np.pi / _GRID_POINTS)
_ZOOM_LEVELS = 10


def _hemisphere_grid(count: int) -> np.ndarray:
    z = (np.arange(count) + 0.5) / count
    azimuth = np.arange(count) * np.pi * (3.0 - np.sqrt(5.0))
    radius = np.sqrt(1.0 - z * z)
    points = np.stack([radius * np.cos(azimuth), radius * np.sin(azimuth), z], axis=1)
    return np.vstack([np.eye(3), points])


_DIRECTIONS = _hemisphere_grid(_GRID_POINTS)


def _worse(value, tol) -> bool:
    """True when `value` exceeds `tol` or is NaN."""
    return not value <= tol


def _h2(x: float) -> float:
    return float(-sum(p * np.log2(p) for p in (x, 1.0 - x) if p > 0.0))


def _eof(c: float) -> float:
    c = min(max(c, 0.0), 1.0)
    return _h2(0.5 * (1.0 + np.sqrt(1.0 - c * c)))


def _entropies(rhos: np.ndarray) -> np.ndarray:
    ev = np.clip(np.linalg.eigvalsh(rhos), 0.0, None)
    return -(ev * np.log2(np.where(ev > 0.0, ev, 1.0))).sum(axis=-1)


def _reduced_a(rhos: np.ndarray) -> np.ndarray:
    return np.trace(rhos.reshape(-1, 2, 2, 2, 2), axis1=2, axis2=4)


def _bloch(rhos: np.ndarray):
    """Local Bloch vectors a (of A), b (of B) and correlation matrix T."""
    tensors = rhos.reshape(-1, 2, 2, 2, 2)
    a = np.einsum("iba,nacbc->ni", _PAULI, tensors).real
    b = np.einsum("iba,ncacb->ni", _PAULI, tensors).real
    t = np.einsum("iba,jdc,nacbd->nij", _PAULI, _PAULI, tensors).real
    return a, b, t


def _conditional_entropy(a, b, t, directions) -> np.ndarray:
    """sum_k p_k S(rho_A | outcome k), in bits, for projective measurements of
    B along `directions` (n, m, 3): p_(+/-) = (1 +/- b.n)/2 and the
    conditional Bloch vector of A is (a +/- T n) / (1 +/- b.n)."""
    tn = np.einsum("nij,nmj->nmi", t, directions)
    bn = np.einsum("ni,nmi->nm", b, directions)
    total = np.zeros(bn.shape)
    for sign in (1.0, -1.0):
        prob = 0.5 * (1.0 + sign * bn)
        length = 0.5 * np.linalg.norm(a[:, None, :] + sign * tn, axis=-1)
        live = prob > 1e-14
        r = np.clip(length / np.where(live, prob, 1.0), 0.0, 1.0)
        for x in (0.5 * (1.0 + r), 0.5 * (1.0 - r)):
            total -= np.where(live & (x > 0.0),
                              prob * x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)
    return total


def _tangent_offsets(count: int) -> np.ndarray:
    side = np.linspace(-1.0, 1.0, count)
    return np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)


_OFFSETS = _tangent_offsets(5)


def _grid_min_conditional_entropy(rhos: np.ndarray) -> np.ndarray:
    """Minimum of the measured conditional entropy over the fixed direction
    grid, then refined by ZOOM_LEVELS local 5x5 grids around the best point,
    each a third the size of the last. Every value returned is the
    conditional entropy of some measurement, so it is never below the true
    minimum."""
    a, b, t = _bloch(rhos)
    out = np.empty(len(rhos))
    for lo in range(0, len(rhos), _GRID_CHUNK):
        sl = slice(lo, lo + _GRID_CHUNK)
        n = len(a[sl])
        values = _conditional_entropy(
            a[sl], b[sl], t[sl], np.broadcast_to(_DIRECTIONS, (n,) + _DIRECTIONS.shape))
        best = values.argmin(axis=1)
        best_value = values[np.arange(n), best]
        centre = _DIRECTIONS[best]
        radius = _GRID_SPACING
        for _ in range(_ZOOM_LEVELS):
            helper = np.where(np.abs(centre[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
            u = np.cross(centre, helper)
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            v = np.cross(centre, u)
            trial = (centre[:, None, :]
                     + radius * (_OFFSETS[None, :, :1] * u[:, None, :]
                                 + _OFFSETS[None, :, 1:] * v[:, None, :]))
            trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
            values = _conditional_entropy(a[sl], b[sl], t[sl], trial)
            pick = values.argmin(axis=1)
            better = values[np.arange(n), pick] < best_value
            best_value = np.where(better, values[np.arange(n), pick], best_value)
            centre = np.where(better[:, None], trial[np.arange(n), pick], centre)
            radius /= 3.0
        out[sl] = best_value
    return out


def _wootters(rhos: np.ndarray) -> np.ndarray:
    """C = max(0, l1 - l2 - l3 - l4), l_i the descending square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    flipped = _SIGMA_YY @ rhos.conj() @ _SIGMA_YY
    ev = np.clip(np.linalg.eigvals(rhos @ flipped).real, 0.0, None)
    lam = np.sort(np.sqrt(ev), axis=-1)[:, ::-1]
    return np.clip(lam[:, 0] - lam[:, 1:].sum(axis=1), 0.0, 1.0)


def _rebuild(rho0: np.ndarray, params, times: np.ndarray, ecsim) -> np.ndarray:
    """States on the uniform grid `times` by the exact one-step propagator."""
    step = expm(ecsim.liouvillian(params) * (times[1] - times[0]))
    vec = np.asarray(rho0, dtype=complex).reshape(16, order="F")
    out = np.empty((len(times), 4, 4), dtype=complex)
    for k in range(len(times)):
        out[k] = vec.reshape(4, 4, order="F")
        vec = step @ vec
    return out


def _no_drive_alpha(facts: dict) -> bool:
    return (facts.get("initial.kind") == "alpha_state"
            and facts.get("params.ell1", 0.0) == 0.0
            and facts.get("params.ell2", 0.0) == 0.0
            and facts.get("params.delta_minus", 0.0) == 0.0
            and facts.get("params.Gamma1", 1.0) == facts.get("params.Gamma2", 1.0))


def _parse_csv(text: str, header: tuple):
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(header):
        return None
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])


def _check_rows(rows: np.ndarray, where: str) -> list:
    """Identities every row must satisfy: MI = QD + CC, 0 <= C <= 1, EoF(C),
    CC >= 0 and QD >= 0."""
    errors = []
    mi, cc, qd, c, eof = (rows[:, k] for k in range(1, 6))
    gap = float(np.abs(mi - (qd + cc)).max())
    if _worse(gap, IDENTITY_TOL):
        errors.append(f"{where}: |MI - (QD + CC)| = {gap:.2e}")
    if _worse(-c.min(), 0.0) or _worse(c.max(), 1.0):
        errors.append(f"{where}: C outside [0, 1]: [{c.min()}, {c.max()}]")
    eof_gap = float(np.max([abs(e - _eof(x)) for x, e in zip(c, eof)]))
    if _worse(eof_gap, EOF_TOL):
        errors.append(f"{where}: |EoF - EoF(C)| = {eof_gap:.2e}")
    if _worse(-min(cc.min(), qd.min()), SIGN_TOL):
        errors.append(f"{where}: negative CC or QD: {cc.min():.2e}, {qd.min():.2e}")
    return errors


def _check_alpha_rows(rows, alpha, phi, params, ecsim, where) -> list:
    """Rebuild each row's state in closed form and compare CC and C."""
    states = ecsim.analytic_evolution(ecsim.AlphaState(alpha, phi), params, rows[:, 0])
    s_a = _entropies(_reduced_a(states))
    ref_cc = np.empty(len(rows))
    ref_c = np.empty(len(rows))
    for k, rho in enumerate(states):
        ref_cc[k] = s_a[k] - min(ecsim.xstate_conditional_entropy_branches(rho))
        ref_c[k] = ecsim.xstate_concurrence(rho)
    worst_cc = float(np.abs(rows[:, 2] - ref_cc).max())
    # below the kernel's resolution a C of exactly 0 is the expected reading
    resolved = ~((rows[:, 4] == 0.0) & (ref_c <= C_RESOLUTION * (1.0 + 1e-6)))
    worst_c = float(np.abs(rows[:, 4] - ref_c)[resolved].max(initial=0.0))
    errors = []
    if _worse(worst_cc, XCC_TOL):
        errors.append(f"{where}: CC off the two-branch closed form by {worst_cc:.2e}")
    if _worse(worst_c, XC_TOL):
        errors.append(f"{where}: C off the X-class concurrence by {worst_c:.2e}")
    return errors


def _check_general_rows(rows, rho0, params, ecsim, where) -> list:
    """Rebuild each row's state exactly; CC must reach the independent
    search's bound and stay below S_A, and C must match the Wootters value."""
    states = _rebuild(rho0, params, rows[:, 0], ecsim)
    s_a = _entropies(_reduced_a(states))
    shortfalls = s_a - _grid_min_conditional_entropy(states) - rows[:, 2]
    worst = int(np.argmax(shortfalls))
    shortfall = float(shortfalls[worst])
    excess = float(np.max(rows[:, 2] - s_a))
    ref_c = _wootters(states)
    resolved = ~((rows[:, 4] == 0.0) & (ref_c <= C_RESOLUTION + GENERAL_C_TOL))
    worst_c = float(np.abs(rows[:, 4] - ref_c)[resolved].max(initial=0.0))
    errors = []
    if _worse(shortfall, GRID_TOL):
        # the program's argmin is reported, not checked: it locates the defect
        errors.append(f"{where}: CC below S_A - (independent search minimum) "
                      f"by {shortfall:.2e} at t = {rows[worst, 0]:.6g} "
                      f"(program theta_m = {rows[worst, 6]:.6g}, "
                      f"phi_m = {rows[worst, 7]:.6g})")
    if _worse(excess, SIGN_TOL):
        errors.append(f"{where}: CC above S_A by {excess:.2e}")
    if _worse(worst_c, GENERAL_C_TOL):
        errors.append(f"{where}: C off the Wootters concurrence by {worst_c:.2e}")
    return errors


def _params(facts: dict, ecsim):
    keys = ("V", "gamma", "Gamma1", "Gamma2", "delta_minus", "delta_plus",
            "ell1", "ell2")
    return ecsim.SystemParams(
        **{k: facts[f"params.{k}"] for k in keys if f"params.{k}" in facts})


def _initial_density(facts: dict, ecsim) -> np.ndarray:
    kind = facts["initial.kind"]
    if kind == "alpha_state":
        return ecsim.AlphaState(facts["initial.alpha"], facts["initial.phi"]).density()
    rho = np.zeros((4, 4), dtype=complex)
    rho[(0, 0) if kind == "ground" else (3, 3)] = 1.0
    return rho


def _point_facts(facts: dict, axis, value, ecsim) -> dict:
    """The facts of one scan point, with the scanned quantity applied."""
    point = dict(facts)
    if axis == "alpha":
        point["initial.alpha"] = value
    elif axis == "laser_amplitude":
        point["params.ell1"] = point["params.ell2"] = value
    elif axis == "distance":
        geometry = ecsim.EmitterGeometry(
            facts["geometry.mu1"], facts["geometry.mu2"],
            facts["geometry.r12_hat"], value)
        pair = ecsim.couplings(geometry)
        point["params.V"], point["params.gamma"] = pair.V, pair.gamma
    return point


def check_table(op, csv_text: str, ecsim) -> list:
    """Checks for one `run_scenario(...).to_csv()` output (evolve or scan)."""
    facts = op.facts
    axis = facts.get("scan.axis")
    header = BASE_HEADER if axis is None else (axis,) + BASE_HEADER
    rows = _parse_csv(csv_text, header)
    if rows is None:
        return [f"{op.kind}: malformed CSV header or line endings"]
    steps = facts.get("scan.steps", 1)
    samples = facts["time.samples"]
    if rows.shape != (steps * samples, len(header)):
        return [f"{op.kind}: table shape {rows.shape}, expected "
                f"({steps * samples}, {len(header)})"]
    if not np.isfinite(rows).all():
        return [f"{op.kind}: non-finite value in the table"]
    if axis is None:
        blocks = [(None, rows)]
    else:
        values = np.linspace(facts["scan.start"], facts["scan.stop"], steps)
        if _worse(float(np.abs(rows[:, 0] - np.repeat(values, samples)).max()),
                  1e-12 * max(1.0, float(np.abs(values).max()))):
            return [f"{op.kind}: scan column differs from the scan grid"]
        blocks = list(zip(values, rows.reshape(steps, samples, -1)[:, :, 1:]))

    times = np.linspace(0.0, facts["time.t_final"], samples)
    errors = []
    for value, block in blocks:
        where = op.kind if value is None else f"{op.kind}[{axis}={value:.6g}]"
        if _worse(float(np.abs(block[:, 0] - times).max()),
                  1e-12 * facts["time.t_final"]):
            errors.append(f"{where}: time column differs from the sample grid")
            continue
        errors += _check_rows(block, where)
        point = facts if value is None else _point_facts(facts, axis, float(value), ecsim)
        params = _params(point, ecsim)
        if _no_drive_alpha(point):
            errors += _check_alpha_rows(block, point["initial.alpha"],
                                        point["initial.phi"], params, ecsim, where)
        else:
            errors += _check_general_rows(block, _initial_density(point, ecsim),
                                          params, ecsim, where)
    return errors


def check_propagation(op, result, ecsim) -> list:
    """Checks for one `propagate(...)` output on the propagate workload."""
    facts = op.facts
    samples = facts["time.samples"]
    if result.states.shape != (samples, 4, 4):
        return [f"{op.kind}: states shape {result.states.shape}"]
    if not (np.isfinite(result.states).all() and np.isfinite(result.times).all()):
        return [f"{op.kind}: non-finite propagated state or time"]
    params = _params(facts, ecsim)
    if op.kind == "short_alpha":
        state = ecsim.AlphaState(facts["initial.alpha"], facts["initial.phi"])
        ref = ecsim.analytic_evolution(state, params, result.times)
        err = float(np.abs(result.states - ref).max())
        if _worse(err, ANALYTIC_TOL):
            return [f"{op.kind}: max |rho - analytic| = {err:.2e}"]
        return []
    err = float(np.abs(result.states[-1] - ecsim.stationary_state(params)).max())
    if _worse(err, STATIONARY_TOL):
        return [f"{op.kind}: endpoint off the stationary state by {err:.2e} "
                f"(t = {facts['time.t_final']:.4g}, slowest rate "
                f"{facts['slowest_rate']:.4g})"]
    return []
