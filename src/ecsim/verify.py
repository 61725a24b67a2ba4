"""Regression harness: the ten release gates, runnable via `ecsim verify` or the
test suite. Each check prints expected/got/tolerance lines and an overall verdict.
"""
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import states
from .correlations import (concurrence, conditional_entropy, correlation_records,
                           eof_from_concurrence, mutual_information,
                           xstate_conditional_entropy_branches)
from .couplings import EmitterGeometry, collective_decay, coupling_strength
from .dynamics import (AlphaState, SystemParams, analytic_evolution,
                       build_bell_diagonal, propagate, stationary_state)

# figure-caption parameter sets, units of Gamma
FIG1_V = 1.0 / 0.7818          # Gamma = 0.7818 V
FIG1_GAMMA = 0.6884 / 0.7818   # gamma = 0.6884 V
FIG4_V = 2.03
FIG4_GAMMA = 0.91
FIG7B = dict(V=10.45, gamma=0.97, ell1=10.0, ell2=10.0)

_PERP_GEOMETRY = dict(mu1_hat=(0.0, 0.0, 1.0), mu2_hat=(0.0, 0.0, 1.0),
                      r12_hat=(1.0, 0.0, 0.0), n=1.0, Gamma1=1.0, Gamma2=1.0)


@dataclass
class CheckLine:
    label: str
    expected: str
    got: str
    tol: str
    ok: bool | None  # None: a report line that carries no verdict

    def __str__(self):
        mark = "report" if self.ok is None else ("ok" if self.ok else "FAIL")
        return (f"{self.label}: expected {self.expected}  got {self.got}  "
                f"tol {self.tol}  [{mark}]")


@dataclass
class CheckResult:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)
    seconds: float = 0.0

    def add(self, label, expected, got, tol, ok):
        self.lines.append(CheckLine(label, str(expected), str(got), str(tol), bool(ok)))
        if not ok:
            self.passed = False

    def report(self, label, got):
        self.lines.append(CheckLine(label, "-", str(got), "-", None))

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        head = f"{self.name} ... {verdict} ({self.seconds:.2f} s)"
        return "\n".join([head] + [f"    {line}" for line in self.lines])


# ---------------------------------------------------------------------------
# shared trajectory sets (propagated once per process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _grid_trajectories():
    """No-laser alpha-family grid: 21 alphas x 3 phases x 2 gammas x 2 Vs."""
    cases = []
    for gamma in (0.0, FIG4_GAMMA):
        for v in (2.0, FIG4_V):
            params = SystemParams(V=v, gamma=gamma)
            for alpha in np.linspace(0.0, 1.0, 21):
                for phi in (0.0, np.pi / 2, np.pi):
                    state = AlphaState(float(alpha), float(phi))
                    result = propagate(state.density(), params, 10.0, 200)
                    cases.append((f"alpha={alpha:.2f} phi={phi:.2f} "
                                  f"gamma={gamma} V={v}", params, state, result))
    return cases


@lru_cache(maxsize=1)
def _decay_trajectories():
    params = SystemParams(V=FIG4_V, gamma=FIG4_GAMMA)
    sym = propagate(AlphaState(0.5, 0.0).density(), params,
                    3.0 / (1.0 + FIG4_GAMMA), 200)
    antisym = propagate(AlphaState(0.5, np.pi).density(), params,
                        3.0 / (1.0 - FIG4_GAMMA), 200)
    return params, sym, antisym


@lru_cache(maxsize=1)
def _sudden_birth_trajectory():
    params = SystemParams(V=FIG1_V, gamma=FIG1_GAMMA)
    return params, propagate(states.doubly_excited_state(), params, 8.0, 1601)


@lru_cache(maxsize=1)
def _driven_fig2_trajectory():
    params = SystemParams(V=FIG1_V, gamma=FIG1_GAMMA, ell1=0.4, ell2=0.4)
    return params, propagate(states.doubly_excited_state(), params, 30.0, 601)


@lru_cache(maxsize=1)
def _driven_fig7b_trajectory():
    params = SystemParams(**FIG7B)
    return params, propagate(AlphaState(0.0).density(), params, 800.0, 401)


# ---------------------------------------------------------------------------
# the ten checks
# ---------------------------------------------------------------------------

def check_bell_diagonal_counterexamples() -> CheckResult:
    """Criterion 1: I, D, CC for the Bell-diagonal counterexample states."""
    res = CheckResult("bell_diagonal_counterexamples")
    tol = 2e-3
    cases = (
        ("h=(0.8,0.8,-0.6)", (0.8, 0.8, -0.6), 1.078, 0.547, 0.531),
        ("h=(0,0,0.6)", (0.0, 0.0, 0.6), 0.278, 0.0, 0.278),
        ("Bell singlet h=(-1,-1,-1)", (-1.0, -1.0, -1.0), 2.0, 1.0, 1.0),
    )
    for label, hs, mi_exp, qd_exp, cc_exp in cases:
        rec = correlation_records(build_bell_diagonal(*hs))
        mi, qd, cc = rec.mi, rec.qd, rec.cc
        res.add(f"I({label})", mi_exp, f"{mi:.6f}", tol, abs(mi - mi_exp) <= tol)
        res.add(f"D({label})", qd_exp, f"{qd:.6f}", tol, abs(qd - qd_exp) <= tol)
        res.add(f"CC({label})", cc_exp, f"{cc:.6f}", tol, abs(cc - cc_exp) <= tol)
    return res


def check_coupling_formulas() -> CheckResult:
    """Criterion 2: V, gamma against the two figure captions, within 2%."""
    res = CheckResult("coupling_formulas")
    geo = EmitterGeometry(r12_over_lambda0=0.108, **_PERP_GEOMETRY)
    v, g = coupling_strength(geo), collective_decay(geo)
    res.add("V(0.108 lambda0)", 2.03, f"{v:.6f}", "2%", abs(v - 2.03) <= 0.02 * 2.03)
    res.add("gamma(0.108 lambda0)", 0.91, f"{g:.6f}", "2%", abs(g - 0.91) <= 0.02 * 0.91)
    geo = EmitterGeometry(r12_over_lambda0=0.125, **_PERP_GEOMETRY)
    v, g = coupling_strength(geo), collective_decay(geo)
    res.add("Gamma/V(lambda0/8)", 0.7818, f"{1.0 / v:.6f}", "2%",
            abs(1.0 / v - 0.7818) <= 0.02 * 0.7818)
    res.add("gamma/V(lambda0/8)", 0.6884, f"{g / v:.6f}", "2%",
            abs(g / v - 0.6884) <= 0.02 * 0.6884)
    return res


def check_analytic_numeric_equivalence() -> CheckResult:
    """Criterion 3: propagator matches the closed form elementwise to 1e-6."""
    res = CheckResult("analytic_numeric_equivalence")
    worst = 0.0
    worst_label = ""
    for label, params, state, traj in _grid_trajectories():
        exact = analytic_evolution(state, params, traj.times)
        dev = float(np.abs(traj.states - exact).max())
        if dev > worst:
            worst, worst_label = dev, label
    res.add(f"max |numeric - analytic| (worst: {worst_label})",
            "<= 1e-06", f"{worst:.3e}", 1e-6, worst <= 1e-6)
    return res


def check_correlation_hierarchy() -> CheckResult:
    """Criterion 4: the paper's discord-dominance claim on its suitable states,
    the sign of the entropy bound at every sample of the criterion-3 grid, and
    CC <= EoF (where EoF > 0.01) on the whole grid.

    The paper demonstrates QD >= CC for a set of suitable no-laser initial
    states, through the entropy bound S_B + 2 min S(A|B) - S_A - S_AB >= 0
    (the bound equals QD - CC). The suitable set here is the symmetric and
    antisymmetric Bell preparations, alpha = 1/2 with phi = 0 or pi: the
    eigenstates of the exchange coupling and the Fig. 4 preparations of
    criterion 5. Without a laser each stays in the family
    p|Psi+-><Psi+-| + (1 - p)|00><00|, on which the closed-form bound
    2 min(s1, s2) - h(p) is non-negative for every p in (0, 1]. On these
    trajectories QD >= CC and the bound's sign are checked directly.

    Elsewhere on the grid CC > QD is the model's own behaviour, not an
    optimizer artifact: product and near-separable preparations at early
    times (alpha = 0.95, phi = 0, gamma = 0, V = 2, t = 0.1 has
    CC - QD = +0.0565; the product alpha = 1 reaches +0.05), real phases
    close to the Bell states (alpha = 0.60, phi = pi, gamma = 0.91, V = 2,
    t = 0.05 gives +5.5e-4) and complex phases (alpha = 0.55, phi = pi/2,
    gamma = 0.91, V = 2.03, t = 0.25 gives +0.0337). There the check asks for
    no sign. It asks instead that the bound from the general measurement
    search equal the closed two-branch form at every sample, which fixes
    where discord dominates and where it does not, and that some sample has
    QD - CC > 1e-3, which disproves the conjecture that CC >= QD always. The
    largest CC - QD off the suitable set is printed as a report line.
    """
    res = CheckResult("correlation_hierarchy")
    cases = _grid_trajectories()
    all_states = np.concatenate([traj.states for _, _, _, traj in cases])
    times = np.concatenate([traj.times for _, _, _, traj in cases])
    owner = np.repeat(np.arange(len(cases)), [len(traj) for _, _, _, traj in cases])
    suitable = np.array([np.isclose(state.alpha, 0.5)
                         and np.isclose(state.phi, (0.0, np.pi)).any()
                         for _, _, state, _ in cases])[owner]
    rec = correlation_records(all_states)
    cc, qd, eof = rec.cc, rec.qd, rec.eof
    s_a = states.von_neumann_entropy(states.partial_trace(all_states, "A"))
    bound = qd - cc
    # S_B + 2 min(s1, s2) - S_A - S_AB, with S_B - S_AB taken from MI
    closed = np.minimum(*xstate_conditional_entropy_branches(all_states))
    closed_bound = rec.mi - 2.0 * (s_a - closed)
    visible = eof > 0.01

    def where(k):
        return f"{cases[owner[k]][0]} t={times[k]:.4f}"

    n_suitable = int(suitable.sum())
    worst_qd = float((cc - qd)[suitable].max())
    res.add(f"max(CC - QD) on Bell preparations ({n_suitable} samples)",
            "<= 1e-06", f"{worst_qd:.3e}", 1e-6, worst_qd <= 1e-6)
    worst_bound = float(bound[suitable].min())
    res.add("min entropy bound on Bell preparations", ">= -1e-07",
            f"{worst_bound:.3e}", 1e-7, worst_bound >= -1e-7)
    sel = suitable & visible
    worst_eof = float((cc[sel] - eof[sel]).max()) if sel.any() else -np.inf
    res.add(f"max(CC - EoF) on Bell preparations where EoF > 0.01 "
            f"({int(sel.sum())} samples)", "<= 1e-06", f"{worst_eof:.3e}", 1e-6,
            worst_eof <= 1e-6)

    gap = np.abs(bound - closed_bound)
    k = int(np.argmax(gap))
    worst_gap = float(gap[k])
    res.add(f"max |entropy bound - closed two-branch bound| over "
            f"{len(all_states)} samples (worst: {where(k)})", "<= 1e-06",
            f"{worst_gap:.3e}", 1e-6, worst_gap <= 1e-6)
    worst_eof = float((cc[visible] - eof[visible]).max()) if visible.any() else -np.inf
    res.add(f"max(CC - EoF) where EoF > 0.01 ({int(visible.sum())} samples)",
            "<= 1e-06", f"{worst_eof:.3e}", 1e-6, worst_eof <= 1e-6)
    k = int(np.argmax(qd - cc))
    margin = float(qd[k] - cc[k])
    res.add(f"max(QD - CC), disproving CC >= QD (at {where(k)})", "> 1e-03",
            f"{margin:.3e}", 1e-3, margin > 1e-3)

    off = np.where(suitable, -np.inf, cc - qd)
    k = int(np.argmax(off))
    over = len(np.unique(owner[off > 1e-6]))
    res.report(f"max(CC - QD) off the Bell preparations (at {where(k)}; "
               f"{over} trajectories above 1e-06)", f"{off[k]:.3e}")
    return res


def check_decay_rate_laws() -> CheckResult:
    """Criterion 5: excited populations decay at Gamma + gamma (symmetric Bell)
    and Gamma - gamma (antisymmetric Bell), fitted rate within 1%."""
    res = CheckResult("decay_rate_laws")
    _, sym, antisym = _decay_trajectories()
    for label, traj, rate_exp in (("symmetric", sym, 1.0 + FIG4_GAMMA),
                                  ("antisymmetric", antisym, 1.0 - FIG4_GAMMA)):
        excited = np.real(traj.states[:, 1, 1] + traj.states[:, 2, 2]
                          + traj.states[:, 3, 3])
        slope = np.polyfit(traj.times, np.log(excited), 1)[0]
        rate = -float(slope)
        rel = abs(rate - rate_exp) / rate_exp
        res.add(f"{label} Bell decay rate", f"{rate_exp:.4f}",
                f"{rate:.6f} (rel err {rel:.2e})", "1%", rel < 0.01)
    return res


def check_entanglement_sudden_birth() -> CheckResult:
    """Criterion 6: concurrence stays 0 early, then turns on at tau in [4/V, 6/V]."""
    res = CheckResult("entanglement_sudden_birth")
    params, traj = _sudden_birth_trajectory()
    cs = concurrence(traj.states)
    alive = cs > 1e-9
    res.add("entanglement eventually appears", "True", str(bool(alive.any())),
            "-", bool(alive.any()))
    if alive.any():
        idx = int(np.argmax(alive))
        tau = float(traj.times[idx])
        early_max = float(cs[:idx].max()) if idx > 0 else 0.0
        lo, hi = 4.0 / params.V, 6.0 / params.V
        res.add("max C before birth", "<= 1e-09", f"{early_max:.2e}", 1e-9,
                early_max <= 1e-9)
        res.add("birth time tau", f"[{lo:.4f}, {hi:.4f}]", f"{tau:.4f}", "band",
                lo <= tau <= hi)
    return res


def check_concurrence_exceeds_mutual_information() -> CheckResult:
    """Criterion 7: driven scenario where C > MI at some sample while EoF never
    exceeds MI."""
    res = CheckResult("concurrence_exceeds_mutual_information")
    _, traj = _driven_fig2_trajectory()
    mi = mutual_information(traj.states)
    cs = concurrence(traj.states)
    eof = eof_from_concurrence(cs)
    exceed = cs > mi
    res.add("samples with C > MI", ">= 1", str(int(exceed.sum())), "-",
            bool(exceed.any()))
    worst = float((eof - mi).max())
    res.add("max(EoF - MI)", "<= 1e-09", f"{worst:.3e}", 1e-9, worst <= 1e-9)
    return res


def check_driven_stationarity() -> CheckResult:
    """Criterion 8: the strongly driven trajectory converges (successive-sample
    distance < 1e-8) to the generator's fixed point, whose correlations order
    as QD > CC > 0 with EoF = 0."""
    res = CheckResult("driven_stationarity")
    params, traj = _driven_fig7b_trajectory()
    dist = float(np.linalg.norm(traj.states[-1] - traj.states[-2]))
    res.add("final successive-sample distance", "< 1e-08", f"{dist:.2e}", 1e-8,
            dist < 1e-8)
    rho_ss = stationary_state(params)
    drift = float(np.abs(traj.states[-1] - rho_ss).max())
    res.add("trajectory endpoint vs fixed point", "< 1e-08", f"{drift:.2e}",
            1e-8, drift < 1e-8)
    rec = correlation_records(rho_ss)
    # the stationary discord-classical split is genuinely tiny here (~1e-12);
    # it is evaluated on the exact fixed point, where the sign is resolvable
    res.add("stationary QD > CC", "QD - CC > 0",
            f"QD={rec.qd:.9f} CC={rec.cc:.9f} diff={rec.qd - rec.cc:.3e}", "-",
            rec.qd > rec.cc)
    res.add("stationary CC > 0", "> 0", f"{rec.cc:.6e}", "-", rec.cc > 0.0)
    res.add("stationary EoF", "0", f"{rec.eof:.3e}", "-", rec.eof == 0.0)
    return res


def _soundness_states() -> np.ndarray:
    """Criterion 9's 100 random states: normalized complex Ginibre products."""
    rng = np.random.default_rng(20260810)
    rhos = np.stack([g @ g.conj().T for g in (
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(100))])
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


def _grid_minimum(rho: np.ndarray):
    """(value, theta_m, phi_m) of the least conditional_entropy of rho over
    criterion 9's 512 x 512 grid, ties broken by first occurrence."""
    thetas = np.linspace(0.0, np.pi / 2, 512)
    phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    values = conditional_entropy(rho, thetas[:, None], phis)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return float(values[i, j]), thetas[i], phis[j]


@lru_cache(maxsize=1)
def _soundness_starts():
    """The 512 x 512 grid minima of criterion 9's states as rows (values,
    thetas, phis), computed once per process."""
    return np.array([_grid_minimum(rho) for rho in _soundness_states()]).T


def _polish(rho: np.ndarray, theta: float, phi: float) -> float:
    """Least conditional_entropy of rho by a zoom around the Bloch direction
    n0 of (theta, phi): each round evaluates normalize(n0 + u e1 + v e2) on a
    17 x 17 grid of |u|, |v| <= w, with e1, e2 spanning the plane tangent to
    n0, so the chart's poles and phi wrap never enter. n0 moves only on a
    strict improvement; w starts at 2e-2, wider than the 512^2 grid's widest
    cell (1.23e-2), and shrinks 4x a round to <= 1e-10 (14 rounds)."""
    n0 = np.array([np.sin(2.0 * theta) * np.cos(phi),
                   np.sin(2.0 * theta) * np.sin(phi), np.cos(2.0 * theta)])
    best = np.inf
    width = 2e-2
    while width > 1e-10:
        e1 = np.cross(n0, (0.0, 1.0, 0.0) if abs(n0[0]) >= 0.9 else (1.0, 0.0, 0.0))
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n0, e1)
        offsets = width * np.linspace(-1.0, 1.0, 17)
        n = n0 + offsets[:, None, None] * e1 + offsets[None, :, None] * e2
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        values = conditional_entropy(
            rho, 0.5 * np.arctan2(np.hypot(n[..., 0], n[..., 1]), n[..., 2]),
            np.mod(np.arctan2(n[..., 1], n[..., 0]), 2.0 * np.pi))
        k = np.unravel_index(np.argmin(values), values.shape)
        if values[k] < best:
            best, n0 = float(values[k]), n[k]
        width /= 4.0
    return best


def check_optimizer_soundness() -> CheckResult:
    """Criterion 9: the measurement search against a 512x512 grid plus a zoom
    polish (_polish) on 100 random states, both through the Bloch-form
    conditional_entropy, which shares no arithmetic with the search; and the
    additivity identity QD + CC = MI."""
    res = CheckResult("optimizer_soundness")
    rhos = _soundness_states()
    rec = correlation_records(rhos)
    s_a = states.von_neumann_entropy(states.partial_trace(rhos, "A"))
    values, thetas, phis = _soundness_starts()
    polished = np.array([_polish(*start) for start in zip(rhos, thetas, phis)])
    worst_cc = float(np.abs(rec.cc - (s_a - np.minimum(values, polished))).max())
    worst_add = float(np.abs(rec.qd + rec.cc - rec.mi).max())

    res.add("max |CC_opt - CC_grid| over 100 random states", "<= 1e-05",
            f"{worst_cc:.3e}", 1e-5, worst_cc <= 1e-5)
    res.add("max |QD + CC - MI|", "<= 1e-06", f"{worst_add:.3e}", 1e-6,
            worst_add <= 1e-6)
    return res


def check_state_validity() -> CheckResult:
    """Criterion 10: trace, Hermiticity, and positivity thresholds hold at every
    sample of every trajectory used by criteria 3-8."""
    res = CheckResult("state_validity")
    worst_trace = worst_herm = 0.0
    worst_eig = np.inf
    count = 0
    sources = [traj for _, _, _, traj in _grid_trajectories()]
    sources.extend(_decay_trajectories()[1:])
    sources.append(_sudden_birth_trajectory()[1])
    sources.append(_driven_fig2_trajectory()[1])
    sources.append(_driven_fig7b_trajectory()[1])
    for traj in sources:
        rhos = traj.states
        count += len(rhos)
        worst_trace = max(worst_trace, float(np.abs(
            np.trace(rhos, axis1=1, axis2=2) - 1.0).max()))
        worst_herm = max(worst_herm, float(np.abs(
            rhos - np.conj(np.transpose(rhos, (0, 2, 1)))).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rhos).min()))
    res.add(f"max trace defect over {count} samples", "<= 1e-09",
            f"{worst_trace:.2e}", 1e-9, worst_trace <= 1e-9)
    res.add("max hermiticity defect", "<= 1e-09", f"{worst_herm:.2e}", 1e-9,
            worst_herm <= 1e-9)
    res.add("min eigenvalue", ">= -1e-08", f"{worst_eig:.2e}", 1e-8,
            worst_eig >= -1e-8)
    return res


CHECKS = (
    check_bell_diagonal_counterexamples,
    check_coupling_formulas,
    check_analytic_numeric_equivalence,
    check_correlation_hierarchy,
    check_decay_rate_laws,
    check_entanglement_sudden_birth,
    check_concurrence_exceeds_mutual_information,
    check_driven_stationarity,
    check_optimizer_soundness,
    check_state_validity,
)


def run_check(name: str) -> CheckResult:
    """Run a single check by its registry name."""
    for fn in CHECKS:
        result_name = fn.__name__.removeprefix("check_")
        if result_name == name:
            start = time.perf_counter()
            result = fn()
            result.seconds = time.perf_counter() - start
            return result
    raise KeyError(f"no check named {name!r}")


def run_all(name_filter: str = "") -> bool:
    """Run (filtered) checks, print a report to stdout, return True when all
    passed. A filter that matches no check raises ValueError."""
    names = [fn.__name__.removeprefix("check_") for fn in CHECKS]
    selected = [name for name in names if name_filter in name]
    if not selected:
        raise ValueError(f"no checks match filter {name_filter!r}")
    all_ok = True
    for pos, name in enumerate(selected, start=1):
        result = run_check(name)
        print(f"[{pos}/{len(selected)}] {result}")
        all_ok = all_ok and result.passed
    print("verify: ALL CHECKS PASSED" if all_ok else "verify: FAILURES PRESENT")
    return all_ok
