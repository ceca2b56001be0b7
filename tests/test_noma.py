"""SIC threshold, order-statistics and outage tests with arithmetic/MC oracles."""

import math

import numpy as np
import pytest

from risnoma import channels, noma
from risnoma.channels import LINK_KINDS, LinkChannel, NakagamiParams, resolve_links
from risnoma.environment import EnvironmentParams, ScenarioConfig, generate_scenario
from risnoma.noma import (
    InfeasibleAllocationError,
    OutageModel,
    PowerAllocation,
    decode_rate,
    ordered_cdf,
    point_outages,
    sic_thresholds,
)
from risnoma.sim_oracle import McConfig, mc_noma_outage

ALLOC2 = PowerAllocation((0.8, 0.2))


def _forms(v):
    """The integral value v as a Python float, a Python int, np.float64, a
    0-d array and (beside a valid 0.5) a 1-d array."""
    return (float(v), int(v), np.float64(v), np.array(float(v)), np.array([0.5, float(v)]))


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


def _allocation_error_before_one_pass(beta):
    """The message PowerAllocation raised for beta when it checked range,
    sum and order in three passes, or None."""
    beta = tuple(float(b) for b in beta)
    if len(beta) < 1:
        return "empty power allocation"
    if any(not (0.0 < b < 1.0) for b in beta) and beta != (1.0,):
        return "coefficients must lie in (0, 1) (or be the trivial [1])"
    if abs(math.fsum(beta) - 1.0) > 1e-9 * len(beta):
        return f"coefficients must sum to one, got {math.fsum(beta)!r}"
    for j in range(len(beta) - 1):
        if not beta[j] > beta[j + 1]:
            return "coefficients must be strictly decreasing"
    return None


@pytest.mark.parametrize("beta", [
    (), (1.0,), (0.5,), (1,), (np.float64(1.0),), (0.7, 0.2, 0.1), (0.1, 0.2, 0.7),
    (0.5, 0.5), (0.6, 0.4, 0.0), (1.0, 0.0), (1.2, -0.2), (0.8, 0.1), (0.5, 0.3, 0.3),
    (0.5, 0.3, 0.2 + 2e-9), (0.5, 0.3, 0.2 + 4e-9), (math.nan, 0.5), (0.5, math.nan),
    (math.inf, 0.5), (0.9, math.nan, 0.1), (0.3, 0.7), (0.6, 0.3, 0.3, -0.2),
])
def test_power_allocation_raises_as_before(beta):
    # one pass over beta still raises the first error the three passes raised
    expected = _allocation_error_before_one_pass(beta)
    if expected is None:
        assert PowerAllocation(beta).beta == tuple(float(b) for b in beta)
    else:
        with pytest.raises(ValueError) as exc:
            PowerAllocation(beta)
        assert str(exc.value) == expected


class TestRates:
    def test_zero_snr(self):
        assert decode_rate(0.0, ALLOC2, 1, 1) == 0.0

    def test_single_user_log2(self):
        a = PowerAllocation((1.0,))
        assert decode_rate(3.0, a, 1, 1) == pytest.approx(2.0, rel=1e-12)

    def test_two_user_arithmetic_oracle(self):
        # gamma=10, beta=(0.8,0.2): log2(1 + 8/3)
        expected = math.log2(1 + 8.0 / 3.0)
        assert decode_rate(10.0, ALLOC2, 1, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.8745, abs=1e-4)

    def test_decode_rate_definition(self):
        # rank 2's own rate sees no interference: log2(1 + 10 * 0.2)
        assert decode_rate(10.0, ALLOC2, 2, 2) == pytest.approx(math.log2(3.0), rel=1e-12)
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

    def test_thresholds_meet_the_target_rates(self):
        # at gamma_j^lb the rank-m decoder reaches exactly rate R_j on rank j:
        # the SIC rule and the rate definition mc_noma_outage tests against agree
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            m_tot = int(rng.integers(2, 6))
            raw = tuple(np.sort(rng.dirichlet(np.ones(m_tot)))[::-1])
            rates = tuple(rng.uniform(0.1, 2.0, m_tot))
            try:
                alloc = PowerAllocation(raw)
                lbs, _ = sic_thresholds(alloc, rates, m_tot)
            except ValueError:  # unordered draw or SIC-infeasible at these rates
                continue
            for m in range(1, m_tot + 1):
                for j, lb in enumerate(lbs[:m], start=1):
                    assert decode_rate(lb, alloc, m, j) == pytest.approx(rates[j - 1], rel=1e-12)
            checked += 1


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

    @pytest.mark.parametrize("form", range(5), ids=("float", "int", "float64", "0d", "1d"))
    def test_domain_forms(self, form):
        # outside [0, 1] raises for every form; the ends themselves pass
        for bad in (-1, 2):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                ordered_cdf(_forms(bad)[form], 2, 3)
        for end in (0, 1):
            ordered_cdf(_forms(end)[form], 2, 3)

    def test_return_types(self):
        *scalars, array = _forms(1)
        values = [ordered_cdf(f, 2, 3) for f in scalars]
        assert all(type(v) is float for v in values)
        assert len(set(values)) == 1
        out = ordered_cdf(array, 2, 3)
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[1] == values[0]

    @staticmethod
    def _parent_values():
        rng = np.random.default_rng(4)
        tiny = rng.random(400) ** rng.integers(1, 60, 400)
        return np.concatenate([tiny, rng.random(200), [0.0, -0.0, 1.0, 5e-324, 0.5, 1 - 1e-16]])

    def test_array_equals_scalar_calls(self):
        f = self._parent_values()
        for total in range(1, 6):
            for m in range(1, total + 1):
                batch = ordered_cdf(f, m, total).tolist()
                assert [v.hex() for v in batch] == [
                    ordered_cdf(x, m, total).hex() for x in f.tolist()]

    def test_bits_of_the_array_formula(self):
        # the sum in numpy arrays, term by term, as ordered_cdf was first
        # written: its bits are what every stored outage carries
        f = self._parent_values()
        for total in range(1, 6):
            for m in range(1, total + 1):
                acc = np.zeros_like(f)
                for n in range(total - m + 1):
                    acc += math.comb(total - m, n) * (-1.0) ** n * f ** (m + n) / (m + n)
                expected = np.clip(m * math.comb(total, m) * acc, 0.0, 1.0)
                got = ordered_cdf(f, m, total)
                assert got.tobytes() == expected.tobytes()

    def test_nan_and_empty_pass(self):
        assert math.isnan(ordered_cdf(math.nan, 2, 3))
        assert np.isnan(ordered_cdf(np.array([math.nan]), 2, 3)).all()
        assert ordered_cdf(np.array([]), 2, 3).shape == (0,)


def _direct_model(gamma_bar_d, m_users=1):
    """OutageModel at 1 bpc over m_users identical Rayleigh direct links of mean
    SNR gamma_bar_d."""
    rayleigh = NakagamiParams(m=1.0, omega=1.0)
    links = [
        LinkChannel(uav=u, ris=0, direct_fading=rayleigh, hop_g2r=rayleigh, hop_r2a=rayleigh,
                    amp_direct=1.0, amp_ris=1.0, gamma_bar_c=gamma_bar_d,
                    max_ris_elements=64)
        for u in range(m_users)
    ]
    return OutageModel(links, (1.0,) * m_users, link_type="direct")


class TestOutageProbability:
    def test_rayleigh_single_user_oracle(self):
        model = _direct_model(10.0)
        assert model.links[0].gamma_bar_d == 10.0
        expected = 1.0 - math.exp(-1.0 / 10.0)
        assert model.outage(1, PowerAllocation((1.0,)), 0) == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.0952, abs=1e-4)

    def test_vanishes_at_huge_mean_snr(self):
        assert _direct_model(1e12).outage(1, PowerAllocation((1.0,)), 0) < 1e-10

    def test_infeasible_allocation_raises(self):
        model = _direct_model(10.0, m_users=3)
        with pytest.raises(InfeasibleAllocationError):
            model.outage(1, PowerAllocation((0.5, 0.3, 0.2)), 0)


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

    @pytest.mark.parametrize("rates", [(1.0, 0.0, 1.0), (1.0, -0.5, 1.0), (1.0, 1.0)])
    def test_rejects_bad_rates_at_construction(self, rates):
        links = self._model().links
        with pytest.raises(ValueError):
            OutageModel(links, rates, link_type="composite")

    def test_ris_requires_elements(self):
        model = self._model("ris")
        with pytest.raises(ValueError):
            model.outage(1, PowerAllocation((0.7, 0.2, 0.1)), 0)


def _feasible_allocations(rates, count, seed):
    """Random strictly decreasing allocations that SIC decodes at `rates`."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        beta = tuple(sorted((float(b) for b in rng.dirichlet(np.ones(len(rates)))), reverse=True))
        try:
            alloc = PowerAllocation(beta)
            sic_thresholds(alloc, rates, len(rates))
        except ValueError:
            continue
        out.append(alloc)
    return out


def _sic_by_definition(beta, rates, m):
    """gamma_j^lb of ranks 1..m and rank m's binding threshold, computed as
    sic_thresholds first did, or the first rank whose SIC margin is not
    positive."""
    lbs = []
    for j in range(m):
        phi = 2.0 ** float(rates[j]) - 1.0
        denom = beta[j] - phi * math.fsum(beta[j + 1:])
        if denom <= 0.0:
            return j + 1
        lbs.append(phi / denom)
    return lbs, (lbs[m - 1] if m == len(beta) else max(lbs[:m]))


@pytest.mark.bits
@pytest.mark.parametrize("rates", [(1.0,), (2.0, 0.5), (0.5, 1.5, 1.0), (1.0, 1.5, 2.0), (2.0,) * 4,
                                   (0.2, 1.0, 0.2, 1.0, 0.2)])
def test_model_thresholds_are_sic_thresholds(rates):
    # one implementation serves both: the same bits per rank, and the same
    # rank named when an allocation breaks SIC
    m_users = len(rates)
    scen = generate_scenario(ScenarioConfig(n_uavs=m_users), 3)
    model = OutageModel(resolve_links(EnvironmentParams(), scen), rates, "composite")
    rng = np.random.default_rng(m_users)
    allocs, broken_ranks = [], []
    while len(allocs) < 60:
        raw = np.sort(rng.dirichlet(np.full(m_users, 0.3)))[::-1]
        try:
            allocs.append(PowerAllocation(tuple(raw)))
        except ValueError:
            continue
    for alloc in allocs:
        oracle = [_sic_by_definition(alloc.beta, rates, m) for m in range(1, m_users + 1)]
        broken = next((o for o in oracle if isinstance(o, int)), None)
        for m, expected in enumerate(oracle, start=1):
            if isinstance(expected, int):
                for thresholds in (lambda: sic_thresholds(alloc, rates, m),
                                   lambda: model._threshold(m, alloc)):
                    with pytest.raises(InfeasibleAllocationError) as exc:
                        thresholds()
                    assert exc.value.rank_j == expected
                continue
            lbs, binding = sic_thresholds(alloc, rates, m)
            assert [x.hex() for x in lbs] == [x.hex() for x in expected[0]]
            assert binding.hex() == expected[1].hex() == model._threshold(m, alloc).hex()
        if broken is None:
            assert [x.hex() for x in model.thresholds(alloc)] == [o[1].hex() for o in oracle]
        else:
            broken_ranks.append(broken)
            with pytest.raises(InfeasibleAllocationError) as exc:
                model.thresholds(alloc)
            assert exc.value.rank_j == broken
    # feasible and broken allocations, and for M > 2 some broken above rank 1
    assert 0 < len(broken_ranks) < len(allocs) or m_users == 1
    assert max(broken_ranks, default=0) > 1 or m_users <= 2


class TestOutagesMemo:
    """outages() scores every rank from one SIC pass and a per-model memo;
    its floats are the ones per-rank outage() calls give."""

    RATES = (0.5, 0.5, 0.5)

    def _model(self, link_type):
        scen = generate_scenario(ScenarioConfig(tx_power_dbm=25.0), 7)
        links = resolve_links(EnvironmentParams(), scen, m_direct=1.0, m_hops=2.0)
        return OutageModel(links, self.RATES, link_type=link_type)

    @pytest.mark.parametrize("link_type", LINK_KINDS)
    @pytest.mark.parametrize("n", [0, 1, 64])
    def test_outages_equal_per_rank_outage(self, link_type, n):
        for alloc in _feasible_allocations(self.RATES, 6, seed=n):
            n_per_rank = (n, n, n)
            if link_type == "ris" and n == 0:
                # a RIS-only link has no path without elements
                with pytest.raises(ValueError):
                    self._model(link_type).outages(alloc, n_per_rank)
                continue
            single = [self._model(link_type).outage(m, alloc, n) for m in (1, 2, 3)]
            together = self._model(link_type).outages(alloc, n_per_rank)
            assert [x.hex() for x in together] == [x.hex() for x in single]

    def test_mixed_element_counts(self):
        model, fresh = self._model("composite"), self._model("composite")
        for alloc in _feasible_allocations(self.RATES, 6, seed=3):
            assert model.outages(alloc, (64, 1, 0)) == [
                fresh.outage(1, alloc, 64), fresh.outage(2, alloc, 1), fresh.outage(3, alloc, 0)
            ]

    def test_warm_model_returns_fresh_floats(self):
        allocs = _feasible_allocations(self.RATES, 20, seed=11)
        warm = self._model("composite")
        for alloc in allocs:
            for n in (0, 1, 64):
                warm.outages(alloc, (n, n, n))
        for alloc in reversed(allocs):
            for n in (64, 1, 0):
                fresh = self._model("composite").outages(alloc, (n, n, n))
                assert [x.hex() for x in warm.outages(alloc, (n, n, n))] == [x.hex() for x in fresh]

    @pytest.mark.parametrize("link_type", LINK_KINDS)
    @pytest.mark.parametrize("n_per_rank", [(0, 0, 0), (1, 1, 1), (64, 1, 0), (1024, 64, 1)])
    def test_batch_equals_outages(self, link_type, n_per_rank):
        allocs = _feasible_allocations(self.RATES, 12, seed=5)
        allocs += allocs[:3]  # a batch may repeat an allocation
        if link_type == "ris" and 0 in n_per_rank:
            with pytest.raises(ValueError):
                self._model(link_type).batch_outages(allocs, n_per_rank)
            return
        batch = self._model(link_type).batch_outages(allocs, n_per_rank)
        single = [self._model(link_type).outages(a, n_per_rank) for a in allocs]
        assert [[x.hex() for x in outs] for outs in batch] == [
            [x.hex() for x in outs] for outs in single]

    def test_batch_scores_each_rank_in_one_cdf_call(self, monkeypatch):
        # one link_cdfs call per batch across all ranks, holding each
        # (rank, threshold) pair not scored before exactly once
        calls = []
        cdfs = channels.link_cdfs

        def counted_cdfs(links, gammas):
            calls.append(list(zip(links, gammas)))
            return cdfs(links, gammas)

        monkeypatch.setattr(channels, "link_cdfs", counted_cdfs)
        model = self._model("composite")
        n_per_rank = (64, 1, 0)
        allocs = _feasible_allocations(self.RATES, 8, seed=6)

        def pairs(batch):
            return [(model.link(m, n), g) for m, n in zip((1, 2, 3), n_per_rank)
                    for g in dict.fromkeys(model.thresholds(a)[m - 1] for a in batch)]

        model.outages(allocs[0], n_per_rank)
        assert [len(c) for c in calls] == [3]
        assert calls == [pairs(allocs[:1])]
        calls.clear()
        model.batch_outages(allocs + allocs, n_per_rank)
        assert [len(c) for c in calls] == [21]
        assert calls == [[pair for pair in pairs(allocs) if pair not in pairs(allocs[:1])]]
        calls.clear()
        model.batch_outages(allocs, n_per_rank)
        assert calls == []

    def test_direct_link_scored_once_across_element_counts(self, monkeypatch):
        # a direct-only link is the same at every N, so its score is too
        calls = []
        cdfs = channels.link_cdfs

        def counted_cdfs(links, gammas):
            calls.extend(gammas)
            return cdfs(links, gammas)

        monkeypatch.setattr(channels, "link_cdfs", counted_cdfs)
        model, fresh = self._model("direct"), self._model("direct")
        alloc = _feasible_allocations(self.RATES, 1, seed=8)[0]
        first = model.outages(alloc, (0, 0, 0))
        for n in (1, 16, 64, 1024):
            assert model.outages(alloc, (n, n, n)) == first
            assert [model.outage(m, alloc, n) for m in (1, 2, 3)] == first
        assert len(calls) == 3
        assert fresh.outages(alloc, (64, 64, 64)) == first

    def test_infeasible_allocation_names_the_same_rank(self):
        # at 2 bpc rank 1 decodes (0.8 > 3 * 0.2) but rank 2 does not (0.12 < 3 * 0.08)
        model = OutageModel(self._model("direct").links, (2.0, 2.0, 2.0), link_type="direct")
        alloc = PowerAllocation((0.8, 0.12, 0.08))
        assert model.outage(1, alloc, 0) > 0.0
        with pytest.raises(InfeasibleAllocationError) as single:
            model.outage(3, alloc, 0)
        with pytest.raises(InfeasibleAllocationError) as together:
            model.outages(alloc, (0, 0, 0))
        assert single.value.rank_j == together.value.rank_j == 2


DEFAULT_N_GRID = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class TestCurve:
    """point_outages scores a curve of operating points, one per N, with one
    ordered_cdf call per rank; its floats are the ones per-N outage() calls
    on a fresh model give."""

    RATES = (0.5, 0.5, 0.5)

    def _model(self, link_type):
        scen = generate_scenario(ScenarioConfig(), 2)  # LoS-fitted, m3 not a half-integer
        return OutageModel(resolve_links(EnvironmentParams(), scen), self.RATES, link_type)

    def _points(self, alloc, grid, kind="composite", rates=RATES):
        links = self._model(kind).links
        return [([link.link(kind, n) for link in links], alloc, rates) for n in grid]

    @pytest.mark.parametrize("link_type", LINK_KINDS)
    def test_curve_equals_outage_at_every_n(self, link_type):
        grid = [n for n in DEFAULT_N_GRID if link_type != "ris" or n > 0]
        for alloc in _feasible_allocations(self.RATES, 3, seed=4):
            curve = point_outages(self._points(alloc, grid, link_type))
            for rank in (1, 2, 3):
                fresh = self._model(link_type)
                single = [fresh.outage(rank, alloc, n) for n in grid]
                assert [outs[rank - 1].hex() for outs in curve] == [x.hex() for x in single]

    def test_composite_at_zero_elements_is_direct(self):
        alloc = _feasible_allocations(self.RATES, 1, seed=9)[0]
        [at_zero] = point_outages(self._points(alloc, (0,)))
        direct = self._model("direct")
        assert [x.hex() for x in at_zero] == [direct.outage(m, alloc, 0).hex() for m in (1, 2, 3)]

    def test_one_ordered_cdf_call_per_curve(self, monkeypatch):
        sizes = []
        counted = noma.ordered_cdf

        def ordered(parent, m, total):
            sizes.append(np.size(parent))
            return counted(parent, m, total)

        monkeypatch.setattr(noma, "ordered_cdf", ordered)
        alloc = _feasible_allocations(self.RATES, 1, seed=9)[0]
        point_outages(self._points(alloc, DEFAULT_N_GRID + DEFAULT_N_GRID))
        assert sizes == [len(DEFAULT_N_GRID)] * 3  # one call per rank, each link once
        sizes.clear()
        point_outages(self._points(alloc, DEFAULT_N_GRID, "direct"))
        assert sizes == [1] * 3  # the direct link is the same at every N

    def test_equal_links_share_one_cdf_call(self, monkeypatch):
        # every rank's distinct (link, threshold) pairs go through one
        # link_cdfs call; links built apart but equal by value are one link
        calls = []
        cdfs = channels.link_cdfs

        def counted_cdfs(links, gammas):
            calls.append(len(gammas))
            return cdfs(links, gammas)

        monkeypatch.setattr(channels, "link_cdfs", counted_cdfs)
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        rate_grid = (0.2, 0.3, 0.4, 0.5)
        points = [point for r in rate_grid + rate_grid
                  for point in self._points(alloc, (64,), rates=(r,) * 3)]
        outs = point_outages(points)
        assert calls == [len(rate_grid) * 3]
        assert outs[:len(rate_grid)] == outs[len(rate_grid):]
        for r, got in zip(rate_grid, outs):
            model = OutageModel(self._model("composite").links, (r,) * 3, "composite")
            assert got == model.outages(alloc, (64, 64, 64))

    def test_sic_thresholds_once_per_beta(self, monkeypatch):
        calls = []
        counted = noma.sic_thresholds

        def thresholds(alloc, rates, m):
            calls.append(alloc.beta)
            return counted(alloc, rates, m)

        monkeypatch.setattr(noma, "sic_thresholds", thresholds)
        allocs = _feasible_allocations(self.RATES, 2, seed=9)
        point_outages([point for alloc in allocs + allocs
                       for point in self._points(alloc, DEFAULT_N_GRID)])
        assert calls == [a.beta for a in allocs]

    def test_rank_below_an_infeasible_rank_is_served(self):
        # at 2 bpc rank 1 decodes (0.8 > 3 * 0.2) but rank 2 does not (0.12 < 3 * 0.08);
        # the memo still serves rank 1, point_outages scores every rank
        model = OutageModel(self._model("composite").links, (2.0, 2.0, 2.0), "composite")
        alloc = PowerAllocation((0.8, 0.12, 0.08))
        assert all(model.outage(1, alloc, n) > 0.0 for n in (0, 64))
        with pytest.raises(InfeasibleAllocationError) as exc:
            point_outages(self._points(alloc, (0, 64), rates=(2.0, 2.0, 2.0)))
        assert exc.value.rank_j == 2

    def test_shape_of_mc_noma_outage(self):
        allocs = _feasible_allocations(self.RATES, 2, seed=9)
        points = [point for alloc in allocs for point in self._points(alloc, (0, 16, 64))]
        analytic = point_outages(points)
        mc = mc_noma_outage(points, McConfig(trials=200, batch=200))
        assert [len(outs) for outs in analytic] == [len(ests) for ests in mc] == [3] * 6
        assert all(type(x) is float for outs in analytic for x in outs)
