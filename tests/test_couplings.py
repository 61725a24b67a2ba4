"""Geometry-derived coupling strength and collective decay rate."""
import numpy as np
import pytest

from ecsim import (EmitterGeometry, GeometryError, collective_decay,
                   coupling_strength, couplings, small_separation_limit)
from helpers import random_unit_vector

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def perp_geometry(r, **kwargs):
    """Parallel dipoles perpendicular to the interqubit axis."""
    return EmitterGeometry(mu1_hat=EZ, mu2_hat=EZ, r12_hat=EX,
                           r12_over_lambda0=r, **kwargs)


def test_caption_values_at_lambda0_over_8():
    geo = perp_geometry(0.125)
    v, g = coupling_strength(geo), collective_decay(geo)
    # frozen full-precision values; captions quote Gamma = 0.7818 V, gamma = 0.6884 V
    assert v == pytest.approx(1.279154892925, abs=1e-9)
    assert g == pytest.approx(0.880645223655, abs=1e-9)
    assert 1.0 / v == pytest.approx(0.7818, rel=0.001)
    assert g / v == pytest.approx(0.6884, rel=0.001)


def test_caption_values_at_0108_lambda0():
    geo = perp_geometry(0.108)
    assert coupling_strength(geo) == pytest.approx(2.030439540251, abs=1e-9)
    assert collective_decay(geo) == pytest.approx(0.910150925199, abs=1e-9)


def test_orthogonal_dipoles_decouple():
    geo = EmitterGeometry(mu1_hat=EZ, mu2_hat=EY, r12_hat=EX, r12_over_lambda0=0.3)
    assert coupling_strength(geo) == 0.0
    assert collective_decay(geo) == 0.0


def test_swap_symmetry(rng):
    for _ in range(10):
        mu1, mu2, r_hat = (random_unit_vector(rng) for _ in range(3))
        g1, g2 = rng.uniform(0.5, 2.0, 2)
        geo = EmitterGeometry(mu1, mu2, r_hat, 0.21, Gamma1=g1, Gamma2=g2)
        swapped = EmitterGeometry(mu2, mu1, r_hat, 0.21, Gamma1=g2, Gamma2=g1)
        assert coupling_strength(geo) == pytest.approx(coupling_strength(swapped), abs=1e-14)
        assert collective_decay(geo) == pytest.approx(collective_decay(swapped), abs=1e-14)


def test_rate_scale_linearity():
    base = perp_geometry(0.17)
    scaled = perp_geometry(0.17, Gamma1=3.0, Gamma2=3.0)
    assert coupling_strength(scaled) == pytest.approx(3.0 * coupling_strength(base), rel=1e-12)
    assert collective_decay(scaled) == pytest.approx(3.0 * collective_decay(base), rel=1e-12)


def test_collective_rate_bounded(rng):
    separations = np.geomspace(0.01, 5.0, 300)
    for mu1, mu2, r_hat in [(EZ, EZ, EX), (EZ, EX, EX),
                            (random_unit_vector(rng), random_unit_vector(rng),
                             random_unit_vector(rng))]:
        for r in separations:
            geo = EmitterGeometry(mu1, mu2, r_hat, float(r), Gamma1=1.3, Gamma2=0.7)
            assert abs(collective_decay(geo)) <= np.sqrt(1.3 * 0.7) + 1e-9


def test_coupling_short_distance_power_law():
    # V ~ r^-3: V(r) r^3 drifts by < 1% between 0.002 and 0.001 lambda0
    v_a = coupling_strength(perp_geometry(0.002)) * 0.002**3
    v_b = coupling_strength(perp_geometry(0.001)) * 0.001**3
    assert abs(v_a - v_b) / abs(v_b) < 0.01


def test_collective_decay_small_z_limit():
    geo = perp_geometry(1e-6)
    assert collective_decay(geo) == pytest.approx(1.0, abs=1e-9)
    # tilted dipoles: limit is sqrt(Gamma1 Gamma2) mu1.mu2
    tilted = EmitterGeometry(EZ, (EZ + EY) / np.sqrt(2), EX, 1e-6,
                             Gamma1=2.0, Gamma2=0.5)
    expected = np.sqrt(2.0 * 0.5) / np.sqrt(2)
    assert collective_decay(tilted) == pytest.approx(expected, abs=1e-9)


def test_collective_decay_series_matches_direct_at_cutoff():
    # just below the switch the series branch must agree with a direct
    # evaluation at the same z (direct is still accurate there)
    from ecsim.couplings import SERIES_CUTOFF_Z
    z = SERIES_CUTOFF_Z * 0.999
    direct = 1.5 * (np.sin(z) / z + np.cos(z) / z**2 - np.sin(z) / z**3)
    packaged = collective_decay(perp_geometry(z / (2 * np.pi)))
    assert packaged == pytest.approx(direct, abs=1e-10)
    # and the bound must survive just above the cutoff, where direct
    # evaluation is noisiest
    for factor in (1.0, 1.01, 1.1, 2.0):
        geo = perp_geometry(SERIES_CUTOFF_Z * factor / (2 * np.pi))
        assert abs(collective_decay(geo)) <= 1.0 + 1e-9


def test_small_separation_limit_agrees_with_full():
    geo = perp_geometry(0.02)
    limit = small_separation_limit(geo)
    assert limit.gamma == 1.0
    full_v = coupling_strength(geo)
    assert abs(limit.V - full_v) / full_v < 0.05


def test_small_separation_limit_window_enforced():
    with pytest.raises(GeometryError):
        small_separation_limit(perp_geometry(0.2))


def test_couplings_bundle():
    geo = perp_geometry(0.108)
    cs = couplings(geo)
    assert cs.V == pytest.approx(coupling_strength(geo))
    assert cs.gamma == pytest.approx(collective_decay(geo))


@pytest.mark.parametrize("field, value", [
    ("r12_over_lambda0", np.nan), ("r12_over_lambda0", np.inf), ("n", np.nan),
    ("n", np.inf), ("Gamma1", np.nan), ("Gamma2", np.inf),
    ("mu1_hat", (np.nan, 0.0, 1.0)), ("mu2_hat", (0.0, np.nan, 1.0)),
    ("r12_hat", (1.0, 0.0, np.nan))])
def test_geometry_rejects_non_finite(field, value):
    kwargs = dict(mu1_hat=EZ, mu2_hat=EZ, r12_hat=EX, r12_over_lambda0=0.1)
    kwargs[field] = value
    with pytest.raises(GeometryError, match=f"{field} must be finite"):
        EmitterGeometry(**kwargs)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        EmitterGeometry(mu1_hat=(0, 0, 2.0), mu2_hat=EZ, r12_hat=EX,
                        r12_over_lambda0=0.1)
    with pytest.raises(GeometryError):
        perp_geometry(-0.1)
    with pytest.raises(GeometryError):
        perp_geometry(0.1, n=0.5)
    with pytest.raises(GeometryError):
        perp_geometry(0.1, Gamma1=0.0)
