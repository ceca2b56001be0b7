"""SIC threshold, order-statistics and outage tests with arithmetic/MC oracles."""

import math

import numpy as np
import pytest

from risnoma.channels import NakagamiParams, direct_snr_cdf, resolve_links
from risnoma.environment import EnvironmentParams, ScenarioConfig, generate_scenario
from risnoma.noma import (
    InfeasibleAllocationError,
    OutageModel,
    OutageQuery,
    PowerAllocation,
    achievable_rate,
    decode_rate,
    ordered_cdf,
    outage_probability,
    sic_thresholds,
)

ALLOC2 = PowerAllocation((0.8, 0.2))


class TestPowerAllocation:
    def test_valid(self):
        a = PowerAllocation((0.7, 0.2, 0.1))
        assert a.m_users == 3
        assert a.interference(1) == pytest.approx(0.3, rel=1e-12)
        assert a.interference(3) == 0.0

    def test_trivial_single_user(self):
        assert PowerAllocation((1.0,)).beta == (1.0,)

    def test_sum_constraint(self):
        with pytest.raises(ValueError):
            PowerAllocation((0.8, 0.1))

    def test_strict_ordering(self):
        with pytest.raises(ValueError):
            PowerAllocation((0.5, 0.5))
        with pytest.raises(ValueError):
            PowerAllocation((0.2, 0.8))


class TestRates:
    def test_zero_snr(self):
        assert achievable_rate(0.0, ALLOC2, 1) == 0.0

    def test_single_user_log2(self):
        a = PowerAllocation((1.0,))
        assert achievable_rate(3.0, a, 1) == pytest.approx(2.0, rel=1e-12)

    def test_two_user_arithmetic_oracle(self):
        # gamma=10, beta=(0.8,0.2): log2(1 + 8/3)
        expected = math.log2(1 + 8.0 / 3.0)
        assert achievable_rate(10.0, ALLOC2, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.8745, abs=1e-4)

    def test_decode_rate_definition(self):
        assert decode_rate(10.0, ALLOC2, 2, 2) == pytest.approx(
            achievable_rate(10.0, ALLOC2, 2), rel=1e-12
        )
        # rank 2 decoding rank 1 sees the same SINR expression as rank 1
        assert decode_rate(10.0, ALLOC2, 2, 1) == pytest.approx(
            math.log2(1 + 8.0 / 3.0), rel=1e-12
        )

    def test_interference_limited_ceiling(self):
        ceiling = math.log2(1 + 0.8 / 0.2)
        assert decode_rate(1e12, ALLOC2, 2, 1) == pytest.approx(ceiling, rel=1e-6)

    def test_rank_order_enforced(self):
        with pytest.raises(ValueError):
            decode_rate(1.0, ALLOC2, 1, 2)


class TestSicThresholds:
    def test_two_user_oracle(self):
        lbs, mlb1 = sic_thresholds(ALLOC2, (1.0, 1.0), 1)
        assert lbs == [pytest.approx(1.0 / 0.6, rel=1e-12)]
        assert mlb1 == pytest.approx(1.6667, abs=1e-4)
        lbs2, mlb2 = sic_thresholds(ALLOC2, (1.0, 1.0), 2)
        assert lbs2[1] == pytest.approx(5.0, rel=1e-12)
        assert mlb2 == pytest.approx(5.0, rel=1e-12)

    def test_single_user(self):
        lbs, mlb = sic_thresholds(PowerAllocation((1.0,)), (1.0,), 1)
        assert lbs == [pytest.approx(1.0, rel=1e-12)] and mlb == pytest.approx(1.0)

    def test_strongest_user_not_a_max(self):
        # gamma_mlb_M is gamma_M^lb alone even when an earlier threshold is larger
        alloc = PowerAllocation((0.9895, 0.0101, 0.0004) if False else (0.7, 0.2, 0.1))
        rates = (1.5, 0.2, 0.2)
        lbs, mlb = sic_thresholds(alloc, rates, 3)
        assert mlb == pytest.approx(lbs[-1], rel=1e-12)
        assert max(lbs) > lbs[-1]
        # while for m < M it is the running max
        _, mlb2 = sic_thresholds(alloc, rates, 2)
        assert mlb2 == pytest.approx(max(lbs[:2]), rel=1e-12)

    def test_infeasibility_names_rank(self):
        alloc = PowerAllocation((0.5, 0.3, 0.2))  # j=1: denom = 0.5 - 1*0.5 = 0
        with pytest.raises(InfeasibleAllocationError) as exc:
            sic_thresholds(alloc, (1.0, 1.0, 1.0), 3)
        assert exc.value.rank_j == 1

    def test_never_errors_for_feasible(self):
        rng = np.random.default_rng(8)
        count = 0
        while count < 30:
            raw = np.sort(rng.dirichlet(np.ones(3)))[::-1]
            try:
                alloc = PowerAllocation(tuple(raw))
                sic_thresholds(alloc, (0.2, 0.2, 0.2), 3)
            except InfeasibleAllocationError:
                continue
            except ValueError:
                continue
            count += 1


class TestOrderedCdf:
    def test_identity_m1(self):
        assert ordered_cdf(0.3, 1, 1) == pytest.approx(0.3, rel=1e-12)

    def test_maximum_of_two(self):
        assert ordered_cdf(0.3, 2, 2) == pytest.approx(0.09, rel=1e-12)

    def test_minimum_of_three(self):
        f = 0.2
        assert ordered_cdf(f, 1, 3) == pytest.approx(1 - (1 - f) ** 3, rel=1e-12)

    def test_averaging_identity(self):
        for f in (0.1, 0.5, 0.93):
            for m_tot in (2, 3, 5):
                avg = sum(ordered_cdf(f, m, m_tot) for m in range(1, m_tot + 1)) / m_tot
                assert avg == pytest.approx(f, abs=1e-12)

    def test_vs_sorting_mc(self):
        rng = np.random.default_rng(9)
        draws = np.sort(rng.random((3, 1_000_000)), axis=0)
        for m in (1, 2, 3):
            for f in (0.25, 0.5, 0.8):
                emp = float(np.mean(draws[m - 1] <= f))
                assert ordered_cdf(f, m, 3) == pytest.approx(emp, abs=0.005)

    def test_domain(self):
        with pytest.raises(ValueError):
            ordered_cdf(0.5, 4, 3)
        with pytest.raises(ValueError):
            ordered_cdf(1.2, 1, 3)


class TestOutageProbability:
    def test_rayleigh_single_user_oracle(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        q = OutageQuery(
            rank_m=1,
            total_m=1,
            parent_cdf=lambda g: direct_snr_cdf(p, 10.0, g),
            target_rates=(1.0,),
        )
        expected = 1.0 - math.exp(-1.0 / 10.0)
        assert outage_probability(q, PowerAllocation((1.0,))) == pytest.approx(
            expected, rel=1e-10
        )
        assert expected == pytest.approx(0.0952, abs=1e-4)

    def test_vanishes_at_huge_mean_snr(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        q = OutageQuery(
            rank_m=1,
            total_m=1,
            parent_cdf=lambda g: direct_snr_cdf(p, 1e12, g),
            target_rates=(1.0,),
        )
        assert outage_probability(q, PowerAllocation((1.0,))) < 1e-10

    def test_lenient_mode(self):
        q = OutageQuery(rank_m=1, total_m=3, parent_cdf=lambda g: 0.0,
                        target_rates=(1.0, 1.0, 1.0))
        bad = PowerAllocation((0.5, 0.3, 0.2))
        with pytest.raises(InfeasibleAllocationError):
            outage_probability(q, bad)


class TestOutageModel:
    def _model(self, link_type="composite", tx_power_dbm=25.0):
        env = EnvironmentParams()
        scen = generate_scenario(ScenarioConfig(tx_power_dbm=tx_power_dbm), 7)
        links = resolve_links(env, scen, m_direct=1.0, m_hops=2.0)
        return OutageModel(links, (1.0, 1.0, 1.0), link_type=link_type)

    def test_ranks_sorted_weakest_first(self):
        model = self._model()
        gains = [l.gamma_bar_d for l in model.links]
        assert gains == sorted(gains)

    def test_outage_nonincreasing_in_elements(self):
        model = self._model()
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        vals = [model.outage(1, alloc, n) for n in (0, 8, 32, 128)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_outage_nondecreasing_in_rate(self):
        env = EnvironmentParams()
        scen = generate_scenario(ScenarioConfig(tx_power_dbm=25.0), 7)
        links = resolve_links(env, scen, m_direct=1.0, m_hops=2.0)
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        prev = -1.0
        for rate in (0.7, 1.0, 1.3):
            model = OutageModel(links, (rate,) * 3, link_type="direct")
            val = model.outage(1, alloc, 0)
            assert val >= prev - 1e-12
            prev = val

    def test_composite_zero_elements_equals_direct(self):
        model_c = self._model("composite")
        model_d = self._model("direct")
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        for rank in (1, 2, 3):
            # identical only when m3 is already half-integer (pinned here)
            assert model_c.outage(rank, alloc, 0) == pytest.approx(
                model_d.outage(rank, alloc, 0), rel=1e-9
            )

    def test_ris_requires_elements(self):
        model = self._model("ris")
        with pytest.raises(ValueError):
            model.outage(1, PowerAllocation((0.7, 0.2, 0.1)), 0)
