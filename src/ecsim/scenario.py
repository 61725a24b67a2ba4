"""Scenario files and the pipeline that turns them into correlation tables.

A scenario is a flat key-value text file with dotted sections, one scenario
per file. Lines look like `params.V = 2.03`; `#` starts a comment. All rates
are in units of Gamma, times in 1/Gamma, distances in lambda0.

Recognized keys:

  initial.kind       alpha_state | ground | doubly_excited | bell_diagonal | matrix
  initial.alpha      initial.phi                    (alpha_state)
  initial.h1 .h2 .h3                                (bell_diagonal)
  initial.row0 .. initial.row3   four complex numbers per row   (matrix)

  params.V params.gamma params.Gamma1 params.Gamma2
  params.delta_minus params.delta_plus params.ell1 params.ell2

  geometry.mu1 geometry.mu2 geometry.r12_hat   three floats each
  geometry.r12_over_lambda0 geometry.n geometry.Gamma1 geometry.Gamma2
      (geometry derives V and gamma; do not also give params.V/params.gamma)

  time.t_final time.samples

  scan.axis          alpha | distance | laser_amplitude
  scan.start scan.stop scan.steps
"""
import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import states
from .correlations import correlation_records
from .couplings import EmitterGeometry
from .dynamics import AlphaState, SystemParams, build_bell_diagonal, propagate
from .errors import ScenarioError

_PARAM_KEYS = ("V", "gamma", "Gamma1", "Gamma2", "delta_minus", "delta_plus",
               "ell1", "ell2")
_GEOMETRY_KEYS = ("mu1", "mu2", "r12_hat", "r12_over_lambda0", "n",
                  "Gamma1", "Gamma2")
_INITIAL_KINDS = ("alpha_state", "ground", "doubly_excited", "bell_diagonal",
                  "matrix")
_SCAN_AXES = ("alpha", "distance", "laser_amplitude")
# states held by one run (time.samples x scan.steps); ~2.3 KiB each at peak
MAX_STATES = 1_000_000


def parse_flat_config(text: str) -> dict:
    """Parse `key = value` lines into a flat dict; '#' comments allowed."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ScenarioError(f"line {lineno}: empty key or value in {raw!r}")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _as_float(entries, key, default=None):
    if key not in entries:
        if default is None:
            raise ScenarioError(f"missing required key {key!r}")
        return default
    try:
        value = float(entries.pop(key))
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"key {key!r}: not finite, got {value}")
    return value


def _as_int(entries, key):
    raw = entries.pop(key, None)
    if raw is None:
        raise ScenarioError(f"missing required key {key!r}")
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not an integer") from exc


def _as_vector(entries, key):
    raw = entries.pop(key, None)
    if raw is None:
        raise ScenarioError(f"missing required key {key!r}")
    try:
        vec = [float(tok) for tok in raw.split()]
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: expected three floats") from exc
    if len(vec) != 3:
        raise ScenarioError(f"key {key!r}: expected three floats, got {len(vec)}")
    if not all(math.isfinite(x) for x in vec):
        raise ScenarioError(f"key {key!r}: not finite, got {raw!r}")
    return np.array(vec)


@dataclass(frozen=True)
class ScanSpec:
    axis: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: initial state, system parameters, time grid, scan."""

    initial_kind: str
    initial_args: tuple
    params: SystemParams
    geometry: Optional[EmitterGeometry]
    t_final: float
    sample_count: int
    scan: Optional[ScanSpec] = None

    def initial_density(self) -> np.ndarray:
        kind, args = self.initial_kind, self.initial_args
        if kind == "ground":
            return states.ground_state()
        if kind == "doubly_excited":
            return states.doubly_excited_state()
        if kind == "alpha_state":
            return AlphaState(*args).density()
        if kind == "bell_diagonal":
            return build_bell_diagonal(*args)
        if kind == "matrix":
            return np.array(args, dtype=complex).reshape(4, 4)
        raise ScenarioError(f"unknown initial state kind {kind!r}")


def parse_geometry(entries: dict) -> EmitterGeometry:
    """Build an EmitterGeometry from `geometry.*` keys of a flat config."""
    return EmitterGeometry(
        mu1_hat=_as_vector(entries, "geometry.mu1"),
        mu2_hat=_as_vector(entries, "geometry.mu2"),
        r12_hat=_as_vector(entries, "geometry.r12_hat"),
        r12_over_lambda0=_as_float(entries, "geometry.r12_over_lambda0"),
        n=_as_float(entries, "geometry.n", 1.0),
        Gamma1=_as_float(entries, "geometry.Gamma1", 1.0),
        Gamma2=_as_float(entries, "geometry.Gamma2", 1.0),
    )


def load_geometry(path: str) -> EmitterGeometry:
    with open(path, encoding="utf-8") as handle:
        entries = parse_flat_config(handle.read())
    geometry = parse_geometry(entries)
    if entries:
        raise ScenarioError(f"unknown keys: {sorted(entries)}")
    return geometry


def _parse_initial(entries: dict):
    kind = entries.pop("initial.kind", None)
    if kind is None:
        raise ScenarioError("missing required key 'initial.kind'")
    if kind not in _INITIAL_KINDS:
        raise ScenarioError(
            f"initial.kind must be one of {_INITIAL_KINDS}, got {kind!r}")
    if kind == "alpha_state":
        alpha = _as_float(entries, "initial.alpha")
        phi = _as_float(entries, "initial.phi", 0.0)
        return kind, (alpha, phi)
    if kind == "bell_diagonal":
        return kind, tuple(_as_float(entries, f"initial.h{i}") for i in (1, 2, 3))
    if kind == "matrix":
        rows = []
        for i in range(4):
            raw = entries.pop(f"initial.row{i}", None)
            if raw is None:
                raise ScenarioError(f"matrix initial state needs 'initial.row{i}'")
            try:
                row = [complex(tok) for tok in raw.split()]
            except ValueError as exc:
                raise ScenarioError(f"initial.row{i}: bad complex number") from exc
            if len(row) != 4:
                raise ScenarioError(f"initial.row{i}: expected 4 entries")
            if not all(cmath.isfinite(z) for z in row):
                raise ScenarioError(f"initial.row{i}: not finite, got {raw!r}")
            rows.append(tuple(row))
        return kind, tuple(rows)
    return kind, ()


def parse_scenario(text: str) -> Scenario:
    """Parse one scenario file body; raises ScenarioError on any defect."""
    entries = parse_flat_config(text)
    kind, initial_args = _parse_initial(entries)

    has_geometry = any(k.startswith("geometry.") for k in entries)
    drive = dict(
        delta_minus=_as_float(entries, "params.delta_minus", 0.0),
        delta_plus=_as_float(entries, "params.delta_plus", 0.0),
        ell1=_as_float(entries, "params.ell1", 0.0),
        ell2=_as_float(entries, "params.ell2", 0.0),
    )
    geometry = None
    if has_geometry:
        if "params.V" in entries or "params.gamma" in entries:
            raise ScenarioError("give either geometry.* or params.V/params.gamma, not both")
        geometry = parse_geometry(entries)
        params = SystemParams.from_geometry(geometry, **drive)
    else:
        try:
            params = SystemParams(
                V=_as_float(entries, "params.V"),
                gamma=_as_float(entries, "params.gamma"),
                Gamma1=_as_float(entries, "params.Gamma1", 1.0),
                Gamma2=_as_float(entries, "params.Gamma2", 1.0),
                **drive)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    t_final = _as_float(entries, "time.t_final")
    sample_count = _as_int(entries, "time.samples")
    if t_final <= 0.0:
        raise ScenarioError("time.t_final must be > 0")
    if sample_count < 2:
        raise ScenarioError("time.samples must be >= 2")

    scan = None
    if any(k.startswith("scan.") for k in entries):
        axis = entries.pop("scan.axis", None)
        if axis not in _SCAN_AXES:
            raise ScenarioError(f"scan.axis must be one of {_SCAN_AXES}, got {axis!r}")
        # distance scans default to the 0.1..0.4 lambda0 window
        start_default, stop_default = (0.1, 0.4) if axis == "distance" else (None, None)
        scan = ScanSpec(axis=axis,
                        start=_as_float(entries, "scan.start", start_default),
                        stop=_as_float(entries, "scan.stop", stop_default),
                        steps=_as_int(entries, "scan.steps"))
        if scan.steps < 1:
            raise ScenarioError("scan.steps must be >= 1")
        if scan.stop < scan.start:
            raise ScenarioError("scan range must be ordered: start <= stop")
        if axis == "distance" and geometry is None:
            raise ScenarioError("distance scan requires a geometry.* block")
        if axis == "alpha" and kind != "alpha_state":
            raise ScenarioError("alpha scan requires initial.kind = alpha_state")

    state_count = sample_count * (scan.steps if scan else 1)
    if state_count > MAX_STATES:
        raise ScenarioError(f"time.samples x scan.steps = {state_count} exceeds "
                            f"the cap of {MAX_STATES} states")

    if entries:
        raise ScenarioError(f"unknown keys: {sorted(entries)}")
    return Scenario(initial_kind=kind, initial_args=initial_args, params=params,
                    geometry=geometry, t_final=t_final, sample_count=sample_count,
                    scan=scan)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())


@dataclass(frozen=True)
class OutputTable:
    """Rectangular result table, values already formatted to 15 significant digits."""

    header: tuple
    rows: tuple

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    # + 0.0 normalizes negative zero, which otherwise prints as "-0"
    return format(float(value) + 0.0, ".15g")


def _apply_scan_point(scenario: Scenario, value: float) -> Scenario:
    axis = scenario.scan.axis
    if axis == "alpha":
        return replace(scenario, initial_args=(value, scenario.initial_args[1]))
    if axis == "laser_amplitude":
        params = replace(scenario.params, ell1=value, ell2=value)
        return replace(scenario, params=params)
    if axis == "distance":
        geometry = scenario.geometry.with_separation(value)
        params = SystemParams.from_geometry(
            geometry,
            delta_minus=scenario.params.delta_minus,
            delta_plus=scenario.params.delta_plus,
            ell1=scenario.params.ell1,
            ell2=scenario.params.ell2)
        return replace(scenario, geometry=geometry, params=params)
    raise ScenarioError(f"unknown scan axis {axis!r}")


def run_scenario(scenario: Scenario) -> OutputTable:
    """Propagate the scenario and tabulate one row per (scan point x) sample.

    Columns: t, MI, CC, QD, C, EoF, theta_m, phi_m (scan runs prepend the scan
    value). A plain evolve is a one-point run with an empty prefix. Each point
    is propagated on its own; one correlation_records call then covers the
    states of all points, so a scan's rows equal its points' evolve rows.
    """
    header = ("t", "MI", "CC", "QD", "C", "EoF", "theta_m", "phi_m")
    points = [((), scenario)]
    if scenario.scan is not None:
        header = (scenario.scan.axis,) + header
        points = [((_fmt(v),), _apply_scan_point(scenario, float(v)))
                  for v in scenario.scan.values()]

    runs = [propagate(point.initial_density(), point.params, point.t_final,
                      point.sample_count) for _, point in points]
    prefixes = [prefix for (prefix, _), run in zip(points, runs) for _ in run.times]
    times = np.concatenate([run.times for run in runs])
    rhos = np.concatenate([run.states for run in runs])
    del runs  # keep one copy of the states through the search
    rec = correlation_records(rhos)
    columns = (times, rec.mi, rec.cc, rec.qd, rec.concurrence, rec.eof,
               rec.theta_m, rec.phi_m)
    rows = tuple(prefix + tuple(map(_fmt, values))
                 for prefix, *values in zip(prefixes, *(c.tolist() for c in columns)))
    return OutputTable(header=header, rows=rows)
