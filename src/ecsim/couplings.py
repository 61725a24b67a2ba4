"""Coherent dipole-dipole coupling V and collective decay rate gamma from the
emitter geometry.

All rates are in units of a reference rate Gamma (the bare rates Gamma1 and
Gamma2 are given in those units); distances are in units of the emission
wavelength lambda0, entering only through z = 2 pi n r12/lambda0.
"""
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

# below this z the oscillatory gamma combination is evaluated by series:
# cos z / z^2 - sin z / z^3 cancels catastrophically in floating point, with
# absolute error ~eps/z^3 (already 2e-8 at z = 1e-4, enough to break the
# |gamma| <= sqrt(Gamma1 Gamma2) bound); at z = 0.1 the direct branch is good
# to ~2e-13 and the series through z^8 to ~2e-19
SERIES_CUTOFF_Z = 0.1


def _unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise GeometryError(f"{name} must be finite, got {v}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise GeometryError(f"{name} must be unit norm, |{name}| = {np.linalg.norm(v)!r}")
    return v


@dataclass(frozen=True, eq=False)
class EmitterGeometry:
    """Dipole orientations, separation, refractive index, and bare decay rates."""

    mu1_hat: np.ndarray
    mu2_hat: np.ndarray
    r12_hat: np.ndarray
    r12_over_lambda0: float
    n: float = 1.0
    Gamma1: float = 1.0
    Gamma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mu1_hat", _unit(self.mu1_hat, "mu1_hat"))
        object.__setattr__(self, "mu2_hat", _unit(self.mu2_hat, "mu2_hat"))
        object.__setattr__(self, "r12_hat", _unit(self.r12_hat, "r12_hat"))
        for name in ("r12_over_lambda0", "n", "Gamma1", "Gamma2"):
            if not np.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)}")
        if self.r12_over_lambda0 <= 0.0:
            raise GeometryError(f"r12/lambda0 must be > 0, got {self.r12_over_lambda0}")
        if self.n < 1.0:
            raise GeometryError(f"refractive index must be >= 1, got {self.n}")
        if self.Gamma1 <= 0.0 or self.Gamma2 <= 0.0:
            raise GeometryError("spontaneous rates Gamma1, Gamma2 must be > 0")

    @property
    def z(self) -> float:
        """Dimensionless retardation parameter n k0 r12 = 2 pi n r12/lambda0."""
        return 2.0 * np.pi * self.n * self.r12_over_lambda0

    def orientation_factors(self) -> tuple:
        """(mu1.mu2, (mu1.r)(mu2.r)) -- the two combinations entering V, gamma."""
        a = float(self.mu1_hat @ self.mu2_hat)
        b = float((self.mu1_hat @ self.r12_hat) * (self.mu2_hat @ self.r12_hat))
        return a, b

    def with_separation(self, r12_over_lambda0: float) -> "EmitterGeometry":
        """Same geometry at a different separation (used by distance scans)."""
        return EmitterGeometry(self.mu1_hat, self.mu2_hat, self.r12_hat,
                               r12_over_lambda0, self.n, self.Gamma1, self.Gamma2)


def _finite(geometry: EmitterGeometry, name: str, value):
    """value, or GeometryError naming the separation if it is not finite. The
    rate functions run under np.errstate, so numpy does not warn first."""
    if not np.isfinite(value):
        raise GeometryError(f"separation r12/lambda0 = {geometry.r12_over_lambda0} "
                            f"is out of range: {name} = {value} is not finite")
    return value


# z is a numpy float in the rate functions: its powers overflow to inf (and
# then fail _finite) where a Python float raises
_QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@dataclass(frozen=True)
class CouplingSet:
    """Coherent coupling V and collective decay gamma, units of Gamma."""

    V: float
    gamma: float


@_QUIET
def coupling_strength(geometry: EmitterGeometry) -> float:
    """Coherent dipole-dipole coupling V(r12).

    V = (3/4) sqrt(Gamma1 Gamma2) ( -[a - b] cos z / z
                                    + [a - 3b] (sin z / z^2 + cos z / z^3) )

    with a = mu1.mu2 and b = (mu1.r)(mu2.r). The 3/4 prefactor is fixed by the
    short-distance limit together with the collective-rate normalisation; see
    collective_decay. Diverges as 1/z^3 for z -> 0; a separation at which z
    or V is not finite raises GeometryError.
    """
    z = _finite(geometry, "z", np.float64(geometry.z))
    if z <= 0.0:
        raise GeometryError("singular separation: V diverges as 1/z^3 at z = 0")
    a, b = geometry.orientation_factors()
    amp = 0.75 * np.sqrt(geometry.Gamma1 * geometry.Gamma2)
    return float(_finite(geometry, "V", amp * (
        -(a - b) * np.cos(z) / z + (a - 3.0 * b) * (np.sin(z) / z**2 + np.cos(z) / z**3))))


@_QUIET
def collective_decay(geometry: EmitterGeometry) -> float:
    """Collective decay rate gamma(r12), regular at z -> 0.

    gamma = (3/2) sqrt(Gamma1 Gamma2) ( [a - b] sin z / z
                                        + [a - 3b] (cos z / z^2 - sin z / z^3) )

    The 3/2 prefactor makes gamma -> sqrt(Gamma1 Gamma2) mu1.mu2 for z -> 0 and
    keeps |gamma| <= sqrt(Gamma1 Gamma2) at all separations. A separation at
    which z or gamma is not finite raises GeometryError.
    """
    z = _finite(geometry, "z", np.float64(geometry.z))
    a, b = geometry.orientation_factors()
    amp = 1.5 * np.sqrt(geometry.Gamma1 * geometry.Gamma2)
    if z < SERIES_CUTOFF_Z:
        # series of (cos z / z^2 - sin z / z^3); direct evaluation cancels
        z2 = z * z
        osc = -1.0 / 3.0 + z2 * (1.0 / 30.0 + z2 * (-1.0 / 840.0 + z2 / 45360.0))
    else:
        osc = np.cos(z) / z**2 - np.sin(z) / z**3
    gamma = float(_finite(geometry, "gamma",
                          amp * ((a - b) * np.sinc(z / np.pi) + (a - 3.0 * b) * osc)))
    bound = np.sqrt(geometry.Gamma1 * geometry.Gamma2)
    if abs(gamma) > bound + 1e-9:
        raise GeometryError(f"collective rate {gamma} exceeds sqrt(Gamma1 Gamma2)")
    return gamma


def couplings(geometry: EmitterGeometry) -> CouplingSet:
    """Full-formula (V, gamma) pair for the given geometry."""
    return CouplingSet(V=coupling_strength(geometry), gamma=collective_decay(geometry))
