"""Geometry, LoS/path-loss model and scenario-generation tests.

The LoS formula oracle value was cross-checked by an independent
arbitrary-precision re-implementation of the displayed formula.
"""

import math

import numpy as np
import pytest

from risnoma.channels import resolve_links
from risnoma.environment import (
    BOLTZMANN,
    EnvironmentParams,
    Position3D,
    Scenario,
    ScenarioConfig,
    dbm_to_watt,
    generate_scenario,
    los_probability,
    nakagami_shape,
    noise_power_w,
    path_loss_amplitude,
    path_loss_exponent,
)

ENV = EnvironmentParams()  # Table-I defaults

# frozen oracle: BS (0,0,25) -> UAV (500,0,100), zeta=20, v=3e-4, mu=0.5
LOS_BS_UAV = 0.6385948958960252
SHAPE_AT_LOS = 2.2941432838632993
NOISE_40MHZ_290K = 1.60155284e-13


class TestLosProbability:
    def test_coincident_points(self):
        p = Position3D(10.0, 5.0, 30.0)
        assert los_probability(ENV, p, p) == 1.0

    def test_horizontal_decay_to_zero(self):
        a = Position3D(0, 0, 25)
        far = Position3D(5e5, 0, 100)
        assert los_probability(ENV, a, far) < 1e-12

    def test_formula_oracle(self):
        a = Position3D(0, 0, 25)
        b = Position3D(500, 0, 100)
        assert los_probability(ENV, a, b) == pytest.approx(LOS_BS_UAV, rel=1e-12)

    def test_equal_altitude_branch(self):
        # branch selected exactly on altitude equality; exponent uses slant d
        a = Position3D(0, 0, 30)
        b = Position3D(100, 0, 30)
        base = 1.0 - math.exp(-(30.0**2) / (2 * ENV.zeta**2))
        expected = base ** (100.0 * math.sqrt(ENV.v * ENV.mu))
        assert los_probability(ENV, a, b) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_in_horizontal_distance(self):
        a = Position3D(0, 0, 25)
        vals = [los_probability(ENV, a, Position3D(d, 0, 100)) for d in np.linspace(1, 3000, 60)]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = Position3D(*rng.uniform(-100, 100, 2), float(rng.uniform(0, 50)))
            b = Position3D(*rng.uniform(-100, 100, 2), float(rng.uniform(60, 150)))
            assert 0.0 <= los_probability(ENV, a, b) <= 1.0


class TestPathLossExponent:
    def test_endpoints(self):
        assert path_loss_exponent(ENV, 1.0) == 2.0
        assert path_loss_exponent(ENV, 0.0) == 3.5

    def test_midpoint(self):
        assert path_loss_exponent(ENV, 0.5) == pytest.approx(2.75, rel=1e-12)

    def test_convex_combination(self):
        for p in np.linspace(0, 1, 11):
            assert 2.0 <= path_loss_exponent(ENV, float(p)) <= 3.5

    def test_domain(self):
        with pytest.raises(ValueError):
            path_loss_exponent(ENV, 1.2)


class TestNakagamiShape:
    def test_endpoints(self):
        assert nakagami_shape(0.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
        e = math.exp(2.708)
        assert nakagami_shape(1.0) == pytest.approx((e + 1) ** 2 / (2 * e + 1), rel=1e-12)
        assert nakagami_shape(1.0) == pytest.approx(8.2577, rel=1e-4)

    def test_oracle_composition(self):
        assert nakagami_shape(LOS_BS_UAV) == pytest.approx(SHAPE_AT_LOS, rel=1e-10)

    def test_monotone_and_valid(self):
        grid = [nakagami_shape(p) for p in np.linspace(0, 1, 11)]
        assert all(x < y for x, y in zip(grid, grid[1:]))
        assert all(m >= 0.5 for m in grid)

    def test_domain(self):
        with pytest.raises(ValueError):
            nakagami_shape(-0.1)


class TestPathLossAmplitude:
    def test_unit_distance(self):
        a = Position3D(0, 0, 25)
        b = Position3D(1, 0, 25)
        assert path_loss_amplitude(ENV, a, b, los_probability(ENV, a, b)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_composed_oracle(self):
        a = Position3D(0, 0, 25)
        b = Position3D(500, 0, 100)
        d = a.distance(b)
        alpha = path_loss_exponent(ENV, LOS_BS_UAV)
        assert path_loss_amplitude(ENV, a, b, los_probability(ENV, a, b)) == pytest.approx(
            d ** (-alpha / 2), rel=1e-10
        )

    def test_degenerate_distance(self):
        p = Position3D(0, 0, 25)
        with pytest.raises(ValueError):
            path_loss_amplitude(ENV, p, p, los_probability(ENV, p, p))


class TestNoisePower:
    def test_table_i_value(self):
        assert noise_power_w(40e6, 290.0) == pytest.approx(NOISE_40MHZ_290K, rel=1e-9)

    def test_unit_case_and_linearity(self):
        assert noise_power_w(1.0, 1.0) == BOLTZMANN
        assert noise_power_w(2e6, 290.0) == pytest.approx(2 * noise_power_w(1e6, 290.0))

    def test_dbm_to_watt(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watt(37.0) == pytest.approx(10 ** 0.7, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            noise_power_w(-1.0, 290.0)


class TestGenerateScenario:
    def test_determinism(self):
        cfg = ScenarioConfig()
        assert generate_scenario(cfg, 42) == generate_scenario(cfg, 42)

    def test_within_cell_and_bands(self):
        cfg = ScenarioConfig(n_uavs=5, n_ris=4)
        scen = generate_scenario(cfg, 11)
        for u in scen.uavs:
            assert u.horizontal_distance(scen.bs) <= 2000.0
            assert 80.0 <= u.z <= 120.0
        for r in scen.riss:
            assert r.position.horizontal_distance(scen.bs) <= 2000.0
            assert 20.0 <= r.position.z <= 40.0
            assert r.max_elements == 1024

    def test_placement_statistics(self):
        # uniform-in-disc: centroid near origin, mean squared radius near R^2/2
        cfg = ScenarioConfig(n_uavs=1, n_ris=1, cell_radius_m=1000.0)
        xs, ys, r2 = [], [], []
        for seed in range(10_000):
            u = generate_scenario(cfg, seed).uavs[0]
            xs.append(u.x)
            ys.append(u.y)
            r2.append(u.x**2 + u.y**2)
        assert abs(np.mean(xs)) < 15.0 and abs(np.mean(ys)) < 15.0
        assert np.mean(r2) == pytest.approx(1000.0**2 / 2, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_uavs=0)
        with pytest.raises(ValueError):
            ScenarioConfig(cell_radius_m=-5.0)


class TestResolveLinksRisChoice:
    """resolve_links serves each UAV through the RIS of largest cascaded
    path-loss amplitude, the lowest index on ties."""

    def _scenario(self, ris_positions):
        from risnoma.environment import RisSite

        return Scenario(
            bs=Position3D(0, 0, 25),
            uavs=(Position3D(400, 0, 100),),
            riss=tuple(RisSite(p, 64) for p in ris_positions),
            tx_power_dbm=37.0,
            bandwidth_hz=40e6,
            noise_temp_k=290.0,
            cell_radius_m=2000.0,
            seed=0,
        )

    def test_single_ris(self):
        scen = self._scenario([Position3D(100, 100, 30)])
        assert resolve_links(ENV, scen)[0].ris == 0

    def test_near_ris_dominates(self):
        scen = self._scenario([Position3D(1500, 1200, 30), Position3D(390, 5, 30)])
        assert resolve_links(ENV, scen)[0].ris == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        positions = [
            Position3D(float(x), float(y), float(z))
            for x, y, z in zip(
                rng.uniform(-1000, 1000, 6), rng.uniform(-1000, 1000, 6), rng.uniform(20, 40, 6)
            )
        ]
        scen = self._scenario(positions)

        def amp(a, b):
            return path_loss_amplitude(ENV, a, b, los_probability(ENV, a, b))

        gains = [amp(scen.bs, p) * amp(p, scen.uavs[0]) for p in positions]
        assert resolve_links(ENV, scen)[0].ris == int(np.argmax(gains))
