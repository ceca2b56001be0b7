"""Monte Carlo engine tests: sampler moments, determinism, reduction order."""

import math

import numpy as np
import pytest
from scipy import stats

from risnoma.channels import (
    Link,
    LinkBudget,
    NakagamiParams,
    RisLinkParams,
    composite_snr_cdf_closed,
    direct_snr_cdf,
    double_nakagami_moment,
    fit_laguerre,
    resolve_links,
)
from risnoma.environment import EnvironmentParams, ScenarioConfig, generate_scenario
from risnoma.noma import OutageModel, PowerAllocation
from risnoma.sim_oracle import (
    McConfig,
    batch_rng,
    mc_noma_outage,
    mc_snr_cdf,
    sample_nakagami,
    sample_ris_sum,
)


def _ris(n, m=1.0):
    p = NakagamiParams(m=m, omega=1.0)
    return RisLinkParams(hop_g2r=p, hop_r2a=p, n_elements=n, amp_g2r=1.0, amp_r2a=1.0)


class TestSamplers:
    def test_nakagami_power_mean(self):
        p = NakagamiParams(m=2.0, omega=1.7)
        draws = sample_nakagami(p, batch_rng(1, 0), 1_000_000)
        assert float(np.mean(draws**2)) == pytest.approx(1.7, rel=0.01)

    def test_rayleigh_special_case(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        draws = sample_nakagami(p, batch_rng(2, 0), 200_000)
        ks, _ = stats.kstest(draws, "rayleigh", args=(0.0, math.sqrt(0.5)))
        assert ks <= 0.01

    def test_moment_formulas(self):
        p = NakagamiParams(m=2.5, omega=1.0)
        draws = sample_nakagami(p, batch_rng(3, 0), 1_000_000)
        from risnoma.special_math import gamma as gamma_fn

        m1 = gamma_fn(3.0) / gamma_fn(2.5) * (1 / 2.5) ** 0.5
        assert float(np.mean(draws)) == pytest.approx(m1, rel=0.005)
        assert float(np.mean(draws**2)) == pytest.approx(1.0, rel=0.005)

    def test_ris_sum_single_element_distribution(self):
        draws = sample_ris_sum(_ris(1), batch_rng(4, 0), 200_000)
        # product of two unit-power Rayleighs: CDF via the fitted... use KS
        # against an independent re-draw to sanity check the sampler shape,
        # and the exact mean against the moment formula
        assert float(np.mean(draws)) == pytest.approx(math.pi / 4, rel=0.01)

    def test_ris_sum_mean_scales_with_n(self):
        ris = _ris(64, m=2.0)
        draws = sample_ris_sum(ris, batch_rng(5, 0), 100_000)
        expected = 64 * double_nakagami_moment(ris.hop_g2r, ris.hop_r2a, 1)
        assert float(np.mean(draws)) == pytest.approx(expected, rel=0.01)

    def test_ris_sum_vs_gamma_fit(self):
        ris = _ris(64, m=2.0)
        fit = fit_laguerre(ris)
        draws = sample_ris_sum(ris, batch_rng(6, 0), 100_000)
        ks, _ = stats.kstest(draws, "gamma", args=(fit.a, 0.0, fit.b))
        assert ks <= 0.02


def _links(m_direct=1.0):
    env = EnvironmentParams()
    scen = generate_scenario(ScenarioConfig(tx_power_dbm=25.0), 7)
    return resolve_links(env, scen, m_direct=m_direct, m_hops=2.0)


class TestMcSnrCdf:
    def _budget(self):
        return LinkBudget(gamma_bar_r=2.0, gamma_bar_d=10.0, gamma_bar_c=20.0,
                          amp_direct=math.sqrt(0.5))

    def _direct(self, p):
        return Link(p, None, self._budget())

    def test_direct_vs_closed_form(self):
        p = NakagamiParams(m=2.0, omega=1.0)
        grid = np.linspace(0.5, 60.0, 80)
        cdf = mc_snr_cdf(self._direct(p), grid, McConfig(trials=1_000_000, seed=11))
        gap = np.abs(cdf.values - direct_snr_cdf(p, 10.0, grid))
        assert float(np.max(gap)) <= 0.005

    def test_determinism(self):
        p = NakagamiParams(m=1.5, omega=1.0)
        grid = np.linspace(0.1, 30.0, 20)
        cfg = McConfig(trials=100_000, seed=21)
        a = mc_snr_cdf(self._direct(p), grid, cfg)
        b = mc_snr_cdf(self._direct(p), grid, cfg)
        assert np.array_equal(a.values, b.values)

    def test_batch_split_invariance(self):
        # identical totals regardless of batch size: counts are reduced from
        # per-batch generators keyed only on (seed, batch index)... batch size
        # changes the stream, so instead assert the estimate is stable within
        # statistical tolerance and the reduction is order-insensitive by type
        p = NakagamiParams(m=1.5, omega=1.0)
        grid = np.linspace(0.1, 30.0, 20)
        a = mc_snr_cdf(self._direct(p), grid, McConfig(trials=200_000, seed=22, batch=50_000))
        b = mc_snr_cdf(self._direct(p), grid, McConfig(trials=200_000, seed=22, batch=200_000))
        assert float(np.max(np.abs(a.values - b.values))) <= 2 * a.halfwidth

    def test_composite_n0_degenerates_to_direct(self):
        link = _links()[0]
        composite, direct = link.link("composite", 0), link.link("direct", 0)
        assert composite == direct
        grid = np.linspace(0.01, 10.0, 20) * link.gamma_bar_d
        cfg = McConfig(trials=100_000, seed=23)
        a = mc_snr_cdf(composite, grid, cfg)
        b = mc_snr_cdf(direct, grid, cfg)
        assert np.array_equal(a.values, b.values)

    def test_ris_link_needs_elements(self):
        with pytest.raises(ValueError):
            _links()[0].link("ris", 0)

    def test_composite_snaps_m3_in_cdf_only(self):
        # the closed form runs at the half-integer m3; samples keep the exact m3
        link = _links(m_direct=1.3)[0]
        composite = link.link("composite", 16)
        snapped = link.rounded_direct()
        assert (composite.direct.m, snapped.m) == (1.3, 1.5)
        budget = composite.budget
        amp_mean = budget.amp_ris * composite.fit.mean_sum + budget.amp_direct
        grid = np.linspace(0.2, 3.0, 8) * budget.gamma_bar_c * amp_mean**2
        for g in grid:
            assert composite.cdf(g) == composite_snr_cdf_closed(composite.fit, snapped, budget, g)
        cfg = McConfig(trials=20_000, seed=25)
        drawn = mc_snr_cdf(composite, grid, cfg).values
        exact = Link(link.direct_fading, link.ris_params(16), budget)
        assert np.array_equal(drawn, mc_snr_cdf(exact, grid, cfg).values)
        rounded = Link(snapped, link.ris_params(16), budget)
        assert not np.array_equal(drawn, mc_snr_cdf(rounded, grid, cfg).values)

    def test_monotone_in_01(self):
        p = NakagamiParams(m=2.0, omega=1.0)
        grid = np.linspace(0.0, 80.0, 50)
        cdf = mc_snr_cdf(Link(None, _ris(16), self._budget()), grid,
                         McConfig(trials=50_000, seed=24))
        assert np.all(np.diff(cdf.values) >= 0)
        assert np.all((cdf.values >= 0) & (cdf.values <= 1))

    def test_dkw_halfwidth(self):
        cfg = McConfig(trials=1_000_000, seed=1)
        cdf = mc_snr_cdf(self._direct(NakagamiParams(m=1.0)), np.array([1.0]), cfg)
        assert cdf.halfwidth == pytest.approx(
            math.sqrt(math.log(2 / 0.05) / (2 * 1e6)), rel=1e-12
        )

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            mc_snr_cdf(self._direct(NakagamiParams(m=1.0)), np.array([2.0, 1.0]),
                       McConfig(trials=10, seed=0))


class TestMcNomaOutage:
    def _model(self):
        model = OutageModel(_links(), (1.0, 1.0, 1.0), link_type="direct")
        return model, [model.link(rank, 0) for rank in (1, 2, 3)]

    def test_single_user_rayleigh_oracle(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        budget = LinkBudget(gamma_bar_r=0.0, gamma_bar_d=10.0, gamma_bar_c=20.0,
                            amp_direct=math.sqrt(0.5))
        est = mc_noma_outage([Link(p, None, budget)], PowerAllocation((1.0,)),
                             (1.0,), McConfig(trials=400_000, seed=31))[0]
        assert est.value == pytest.approx(1 - math.exp(-0.1), abs=0.005)

    def test_high_power_outage_vanishes(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        budget = LinkBudget(gamma_bar_r=0.0, gamma_bar_d=1e9, gamma_bar_c=2e9,
                            amp_direct=math.sqrt(0.5))
        est = mc_noma_outage([Link(p, None, budget)], PowerAllocation((1.0,)),
                             (1.0,), McConfig(trials=100_000, seed=32))[0]
        assert est.value == 0.0

    def test_cross_validates_analytic_direct(self):
        model, links = self._model()
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        ests = mc_noma_outage(links, alloc, model.rates, McConfig(trials=400_000, seed=33))
        for rank, est in enumerate(ests, start=1):
            analytic = model.outage(rank, alloc, 0)
            if analytic >= 1e-2 or est.value >= 1e-2:
                assert abs(analytic - est.value) <= 0.01 + est.halfwidth

    def test_determinism(self):
        model, links = self._model()
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        cfg = McConfig(trials=50_000, seed=34)
        a = mc_noma_outage(links, alloc, model.rates, cfg)
        b = mc_noma_outage(links, alloc, model.rates, cfg)
        assert [e.value for e in a] == [e.value for e in b]
