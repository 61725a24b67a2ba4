"""Seeded input generators for the three benchmark workloads.

Every input is generated here from `(seed, block index)` and handed to the
program as scenario text; the program never sees the seed. A workload is a
sequence of blocks. All blocks of a workload have the same composition (the
same initial-state kinds and the same multiset of sample counts and scan
sizes, except that a long driven run of `propagate` takes as many samples as
its horizon needs); only the continuous parameters differ from block to block
and from seed to seed. That keeps the amount of work per block comparable across seeds,
so a figure measured on one seed can be compared with one measured on another.

Each `Op` also carries the generator's own record of the values it wrote
(`facts`), which the oracles use instead of reading them back through the
program's parser.
"""
from dataclasses import dataclass, field

import numpy as np

# evolve: sample counts spread widely so that the batch size of the lockstep
# measurement search varies; three initial-state families, three ops each
EVOLVE_SAMPLES = (16, 24, 40, 56, 80, 112, 160, 224, 320)
EVOLVE_KINDS = ("alpha", "doubly_excited", "driven") * 3

# scan: (steps, samples) pairs, two scans per axis, sizes dealt at random.
# They spread around the repo's scan scenario, scenarios/distance_scan.cfg
# (7 points of 100 samples): 5 to 9 points of 72 to 130 samples, each scan
# 630 to 700 states, so that every operation costs about the same and
# the median and tail operations do not depend on how the sizes were dealt
SCAN_SIZES = ((5, 130), (6, 110), (7, 90), (7, 100), (8, 80), (9, 72))
SCAN_AXES = ("alpha", "distance", "laser_amplitude") * 2

# propagate: short no-drive alpha runs and long driven runs, one more long
# run than short ones, so the median operation is a long run rather than the
# step between the two groups
PROPAGATE_SHORT_SAMPLES = (50, 100, 200, 400)
# driven horizons are chosen as HORIZON_EFOLDS / (slowest nonzero decay rate),
# so the transient has decayed by e^-30 ~ 1e-13 when the run ends; inputs
# whose slowest rate is below MIN_RATE are redrawn to bound the run length
HORIZON_EFOLDS = 30.0
MIN_RATE = 0.2
# long runs are sampled every LONG_DT; the fastest oscillation of a generator
# drawn here has |Im lambda| <~ 14, so that spacing resolves it (about Nyquist).
# Coarser spacing lets DOP853, whose step is capped at the spacing, leave
# Hermiticity defects above validate_state's 1e-9 (README has a reproducer)
LONG_DT = 0.25

_SALT = {"evolve": 101, "scan": 202, "propagate": 303}


@dataclass
class Op:
    """One operation: a scenario text plus the values the generator chose."""

    kind: str
    text: str
    facts: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([_SALT[workload], seed, block])


def _render(entries: dict) -> str:
    lines = []
    for key, value in entries.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _unit_vector(rng) -> list:
    v = rng.standard_normal(3)
    return list(v / np.linalg.norm(v))


def _pair_params(rng, gamma2=1.0) -> dict:
    """V and gamma; |gamma| stays below 0.9 sqrt(Gamma1 Gamma2) with Gamma1 = 1."""
    gamma_max = 0.9 * np.sqrt(gamma2)
    return {"params.V": float(rng.uniform(0.5, 5.0)),
            "params.gamma": float(rng.uniform(-gamma_max, gamma_max))}


def _drive(rng, ell_range=(0.3, 5.0)) -> dict:
    return {"params.ell1": float(rng.uniform(*ell_range)),
            "params.ell2": float(rng.uniform(*ell_range)),
            "params.delta_plus": float(rng.uniform(-1.0, 1.0)),
            "params.delta_minus": float(rng.uniform(-0.5, 0.5))}


def _alpha_initial(rng) -> dict:
    return {"initial.kind": "alpha_state",
            "initial.alpha": float(rng.uniform(0.0, 1.0)),
            "initial.phi": float(rng.uniform(0.0, 2.0 * np.pi))}


def _evolve_op(rng, kind: str, samples: int) -> Op:
    if kind == "alpha":
        entries = {**_alpha_initial(rng), **_pair_params(rng)}
        t_final = float(rng.uniform(2.0, 20.0))
    elif kind == "doubly_excited":
        gamma2 = float(rng.uniform(0.8, 1.2))
        entries = {"initial.kind": "doubly_excited", "params.Gamma2": gamma2,
                   **_pair_params(rng, gamma2)}
        t_final = float(rng.uniform(2.0, 20.0))
    else:
        initial = (_alpha_initial(rng) if rng.uniform() < 0.5
                   else {"initial.kind": "ground"})
        entries = {**initial, **_pair_params(rng), **_drive(rng)}
        t_final = float(rng.uniform(5.0, 30.0))
    entries.update({"time.t_final": t_final, "time.samples": samples})
    return Op(kind=kind, text=_render(entries), facts=dict(entries))


def evolve_block(seed: int, block: int) -> list:
    rng = _rng("evolve", seed, block)
    samples = rng.permutation(EVOLVE_SAMPLES)
    return [_evolve_op(rng, kind, int(n)) for kind, n in zip(EVOLVE_KINDS, samples)]


def _scan_op(rng, axis: str, steps: int, samples: int) -> Op:
    if axis == "alpha":
        lo = float(rng.uniform(0.0, 0.4))
        entries = {"initial.kind": "alpha_state", "initial.alpha": lo,
                   "initial.phi": float(rng.uniform(0.0, 2.0 * np.pi)),
                   **_pair_params(rng),
                   "scan.axis": "alpha", "scan.start": lo,
                   "scan.stop": float(rng.uniform(0.6, 1.0))}
    elif axis == "distance":
        mu = _unit_vector(rng)
        lo = float(rng.uniform(0.1, 0.15))
        initial = (_alpha_initial(rng) if rng.uniform() < 0.5
                   else {"initial.kind": "doubly_excited"})
        entries = {**initial,
                   "geometry.mu1": mu, "geometry.mu2": mu,
                   "geometry.r12_hat": _unit_vector(rng),
                   "geometry.r12_over_lambda0": lo,
                   "scan.axis": "distance", "scan.start": lo,
                   "scan.stop": float(rng.uniform(0.3, 0.45))}
    else:
        initial = (_alpha_initial(rng) if rng.uniform() < 0.5
                   else {"initial.kind": "ground"})
        entries = {**initial, **_pair_params(rng),
                   "params.delta_plus": float(rng.uniform(-1.0, 1.0)),
                   "scan.axis": "laser_amplitude", "scan.start": 0.0,
                   "scan.stop": float(rng.uniform(1.0, 5.0))}
    entries.update({"time.t_final": float(rng.uniform(2.0, 15.0)),
                    "time.samples": samples, "scan.steps": steps})
    return Op(kind=f"scan_{axis}", text=_render(entries), facts=dict(entries))


def scan_block(seed: int, block: int) -> list:
    rng = _rng("scan", seed, block)
    order = rng.permutation(len(SCAN_SIZES))
    return [_scan_op(rng, axis, *SCAN_SIZES[k]) for axis, k in zip(SCAN_AXES, order)]


def slowest_decay_rate(generator: np.ndarray) -> float:
    """Smallest |Re lambda| over the nonzero eigenvalues of a Liouvillian."""
    ev = np.linalg.eigvals(generator)
    nonzero = ev[np.abs(ev) > 1e-9]
    return float(-nonzero.real.max())


def _long_driven_op(rng, liouvillian, system_params) -> Op:
    while True:
        initial = (_alpha_initial(rng) if rng.uniform() < 0.5
                   else {"initial.kind": "ground"})
        gamma2 = float(rng.uniform(0.8, 1.2))
        entries = {**initial, "params.Gamma2": gamma2,
                   **_pair_params(rng, gamma2), **_drive(rng)}
        params = system_params(
            V=entries["params.V"], gamma=entries["params.gamma"],
            Gamma2=entries["params.Gamma2"],
            ell1=entries["params.ell1"], ell2=entries["params.ell2"],
            delta_plus=entries["params.delta_plus"],
            delta_minus=entries["params.delta_minus"])
        rate = slowest_decay_rate(liouvillian(params))
        if rate >= MIN_RATE:
            break
    t_final = HORIZON_EFOLDS / rate
    entries.update({"time.t_final": t_final,
                    "time.samples": int(np.ceil(t_final / LONG_DT)) + 1})
    return Op(kind="long_driven", text=_render(entries),
              facts={**entries, "slowest_rate": rate})


def propagate_block(seed: int, block: int, liouvillian, system_params) -> list:
    """`liouvillian` and `system_params` come from the program under test;
    they are used only to pick horizons, outside any timed region."""
    rng = _rng("propagate", seed, block)
    ops = [_long_driven_op(rng, liouvillian, system_params)]
    for short in rng.permutation(PROPAGATE_SHORT_SAMPLES):
        entries = {**_alpha_initial(rng), **_pair_params(rng),
                   "time.t_final": float(rng.uniform(1.0, 5.0)),
                   "time.samples": int(short)}
        ops.append(Op(kind="short_alpha", text=_render(entries), facts=dict(entries)))
        ops.append(_long_driven_op(rng, liouvillian, system_params))
    return ops
