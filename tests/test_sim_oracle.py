"""Monte Carlo engine tests: sampler moments, determinism, reduction order."""

import math
import threading
import tracemalloc
from dataclasses import replace

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
from risnoma import sim_oracle
from risnoma.sim_oracle import (
    McConfig,
    batch_rng,
    mc_noma_outage,
    mc_snr_cdf,
    sample_nakagami,
)


def _ris_sum(ris: RisLinkParams, rng, size: int):
    """size draws of the element sum S_N, drawn as the MC link families draw it."""
    return sim_oracle._element_sums(ris, (ris.n_elements,), rng, (size,))[ris.n_elements]


def _ris(n, m=1.0):
    p = NakagamiParams(m=m, omega=1.0)
    return RisLinkParams(hop_g2r=p, hop_r2a=p, n_elements=n)


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
        draws = _ris_sum(_ris(1), batch_rng(4, 0), 200_000)
        # product of two unit-power Rayleighs: CDF via the fitted... use KS
        # against an independent re-draw to sanity check the sampler shape,
        # and the exact mean against the moment formula
        assert float(np.mean(draws)) == pytest.approx(math.pi / 4, rel=0.01)

    def test_ris_sum_mean_scales_with_n(self):
        ris = _ris(64, m=2.0)
        draws = _ris_sum(ris, batch_rng(5, 0), 100_000)
        expected = 64 * double_nakagami_moment(ris.hop_g2r, ris.hop_r2a, 1)
        assert float(np.mean(draws)) == pytest.approx(expected, rel=0.01)

    def test_ris_sum_vs_gamma_fit(self):
        ris = _ris(64, m=2.0)
        fit = fit_laguerre(ris)
        draws = _ris_sum(ris, batch_rng(6, 0), 100_000)
        ks, _ = stats.kstest(draws, "gamma", args=(fit.a, 0.0, fit.b))
        assert ks <= 0.02


def _links(m_direct=1.0):
    env = EnvironmentParams()
    scen = generate_scenario(ScenarioConfig(tx_power_dbm=25.0), 7)
    return resolve_links(env, scen, m_direct=m_direct, m_hops=2.0)


class TestMcSnrCdf:
    def _budget(self):
        return LinkBudget(gamma_bar_c=20.0, amp_direct=math.sqrt(0.5), amp_ris=math.sqrt(0.1))

    def _direct(self, p):
        return Link(p, None, self._budget())

    def test_direct_vs_closed_form(self):
        p = NakagamiParams(m=2.0, omega=1.0)
        grid = np.linspace(0.5, 60.0, 80)
        [cdf] = mc_snr_cdf([self._direct(p)], [grid], McConfig(trials=1_000_000, seed=11))
        gap = np.abs(cdf.values - direct_snr_cdf(p, 10.0, grid))
        assert float(np.max(gap)) <= 0.005

    def test_determinism(self):
        p = NakagamiParams(m=1.5, omega=1.0)
        grid = np.linspace(0.1, 30.0, 20)
        cfg = McConfig(trials=100_000, seed=21)
        [a] = mc_snr_cdf([self._direct(p)], [grid], cfg)
        [b] = mc_snr_cdf([self._direct(p)], [grid], cfg)
        assert np.array_equal(a.values, b.values)

    def test_batch_split_invariance(self):
        # identical totals regardless of batch size: counts are reduced from
        # per-batch generators keyed only on (seed, batch index)... batch size
        # changes the stream, so instead assert the estimate is stable within
        # statistical tolerance and the reduction is order-insensitive by type
        p = NakagamiParams(m=1.5, omega=1.0)
        grid = np.linspace(0.1, 30.0, 20)
        [a] = mc_snr_cdf([self._direct(p)], [grid],
                         McConfig(trials=200_000, seed=22, batch=50_000))
        [b] = mc_snr_cdf([self._direct(p)], [grid],
                         McConfig(trials=200_000, seed=22, batch=200_000))
        assert float(np.max(np.abs(a.values - b.values))) <= 2 * a.halfwidth

    def test_composite_n0_degenerates_to_direct(self):
        link = _links()[0]
        composite, direct = link.link("composite", 0), link.link("direct", 0)
        assert composite == direct
        grid = np.linspace(0.01, 10.0, 20) * link.gamma_bar_d
        cfg = McConfig(trials=100_000, seed=23)
        [a] = mc_snr_cdf([composite], [grid], cfg)
        [b] = mc_snr_cdf([direct], [grid], cfg)
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
        drawn = mc_snr_cdf([composite], [grid], cfg)[0].values
        exact = Link(link.direct_fading, link.ris_params(16), budget)
        assert np.array_equal(drawn, mc_snr_cdf([exact], [grid], cfg)[0].values)
        rounded = Link(snapped, link.ris_params(16), budget)
        assert not np.array_equal(drawn, mc_snr_cdf([rounded], [grid], cfg)[0].values)

    def test_monotone_in_01(self):
        p = NakagamiParams(m=2.0, omega=1.0)
        grid = np.linspace(0.0, 80.0, 50)
        [cdf] = mc_snr_cdf([Link(None, _ris(16), self._budget())], [grid],
                           McConfig(trials=50_000, seed=24))
        assert np.all(np.diff(cdf.values) >= 0)
        assert np.all((cdf.values >= 0) & (cdf.values <= 1))

    def test_dkw_halfwidth(self):
        cfg = McConfig(trials=1_000_000, seed=1)
        [cdf] = mc_snr_cdf([self._direct(NakagamiParams(m=1.0))], [np.array([1.0])], cfg)
        assert cdf.halfwidth == pytest.approx(
            math.sqrt(math.log(2 / 0.05) / (2 * 1e6)), rel=1e-12
        )

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            mc_snr_cdf([self._direct(NakagamiParams(m=1.0))], [np.array([2.0, 1.0])],
                       McConfig(trials=10, seed=0))


class TestMcNomaOutage:
    def _model(self):
        model = OutageModel(_links(), (1.0, 1.0, 1.0), link_type="direct")
        return model, [model.link(rank, 0) for rank in (1, 2, 3)]

    def test_single_user_rayleigh_oracle(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        budget = LinkBudget(gamma_bar_c=20.0, amp_direct=math.sqrt(0.5), amp_ris=0.0)
        [[est]] = mc_noma_outage([([Link(p, None, budget)], PowerAllocation((1.0,)), (1.0,))],
                                 McConfig(trials=400_000, seed=31))
        assert est.value == pytest.approx(1 - math.exp(-0.1), abs=0.005)

    def test_high_power_outage_vanishes(self):
        p = NakagamiParams(m=1.0, omega=1.0)
        budget = LinkBudget(gamma_bar_c=2e9, amp_direct=math.sqrt(0.5), amp_ris=0.0)
        [[est]] = mc_noma_outage([([Link(p, None, budget)], PowerAllocation((1.0,)), (1.0,))],
                                 McConfig(trials=100_000, seed=32))
        assert est.value == 0.0

    def test_cross_validates_analytic_direct(self):
        model, links = self._model()
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        [ests] = mc_noma_outage([(links, alloc, model.rates)], McConfig(trials=400_000, seed=33))
        for rank, est in enumerate(ests, start=1):
            analytic = model.outage(rank, alloc, 0)
            if analytic >= 1e-2 or est.value >= 1e-2:
                assert abs(analytic - est.value) <= 0.01 + est.halfwidth

    def test_determinism(self):
        model, links = self._model()
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        cfg = McConfig(trials=50_000, seed=34)
        a = mc_noma_outage([(links, alloc, model.rates)], cfg)
        b = mc_noma_outage([(links, alloc, model.rates)], cfg)
        assert a == b

    def test_points_score_alone_as_together(self):
        # every point is scored on its ranks' shared draws, so a point run on
        # its own gets the same estimates as in a run with other points
        model, links = self._model()
        composite = OutageModel(_links(), (1.0, 1.0, 1.0), link_type="composite")
        points = [
            (links, PowerAllocation((0.7, 0.2, 0.1)), model.rates),
            (links, PowerAllocation((0.7, 0.2, 0.1)), (1.2, 1.0, 0.8)),
            ([composite.link(rank, 16) for rank in (1, 2, 3)],
             PowerAllocation((0.6, 0.3, 0.1)), model.rates),
            (links, PowerAllocation((0.7, 0.2, 0.1)), model.rates),
        ]
        cfg = McConfig(trials=20_000, seed=35, batch=7_000)
        together = mc_noma_outage(points, cfg)
        assert together == [mc_noma_outage([point], cfg)[0] for point in points]
        assert together[0] == together[3]

    def test_rejects_ragged_points(self):
        model, links = self._model()
        alloc = PowerAllocation((0.7, 0.2, 0.1))
        with pytest.raises(ValueError, match="one link and target rate per user"):
            mc_noma_outage([(links, alloc, model.rates), (links[:2], alloc, model.rates)],
                           McConfig(trials=10, seed=0))
        with pytest.raises(ValueError, match="one link and target rate per user"):
            mc_noma_outage([(links, alloc, (1.0, 1.0))], McConfig(trials=10, seed=0))


class TestFamilies:
    """One draw of a UAV's fading serves every link of its family."""

    def _channel(self):
        return _links(m_direct=1.0)[0]

    def _grid(self, link):
        budget = link.budget
        amp = budget.amp_direct + (0.0 if link.ris is None else budget.amp_ris * link.fit.mean_sum)
        return np.linspace(0.05, 4.0, 40) * budget.gamma_bar_c * amp**2

    def test_direct_member_draws_what_it_draws_alone(self):
        channel = self._channel()
        direct = channel.link("direct", 0)
        family = [channel.link(kind, n) for kind in ("ris", "composite") for n in (16, 64)]
        grids = [self._grid(link) for link in [direct] + family]
        cfg = McConfig(trials=20_000, seed=40, batch=7_000)
        shared = mc_snr_cdf([direct] + family, grids, cfg)
        assert np.array_equal(shared[0].values, mc_snr_cdf([direct], grids[:1], cfg)[0].values)

    @pytest.mark.parametrize("batch", [30_000, 7_000])
    def test_family_of_one_repeats(self, batch):
        channel = self._channel()
        link = channel.link("composite", 16)
        cfg = McConfig(trials=30_000, seed=41, batch=batch)
        grid = self._grid(link)
        assert np.array_equal(mc_snr_cdf([link], [grid], cfg)[0].values,
                              mc_snr_cdf([link], [grid], cfg)[0].values)
        point = ([channel.link("composite", 16)] * 3, PowerAllocation((0.7, 0.2, 0.1)),
                 (1.0, 1.0, 1.0))
        assert mc_noma_outage([point], cfg) == mc_noma_outage([point], cfg)

    def test_batches_reduce_in_any_order(self):
        # serial == batch-split: the counts of each (seed, batch index)
        # generator, summed last batch first, give the estimate bit for bit
        link = self._channel().link("composite", 16)
        grid = self._grid(link)
        cfg = McConfig(trials=10_000, seed=42, batch=3_000)
        [cdf] = mc_snr_cdf([link], [grid], cfg)
        counts = np.zeros(grid.size, dtype=np.int64)
        for idx, size in reversed(list(enumerate(cfg.batch_sizes()))):
            [snr] = sim_oracle._family_snrs([link], batch_rng(cfg.seed, idx), size)
            counts += np.searchsorted(np.sort(snr), grid, side="right")
        assert np.array_equal(counts / cfg.trials, cdf.values)

    def test_shared_draws_order_the_members(self):
        # S_N grows with N and a composite amplitude adds both paths, so
        # every composite draw is at least its direct and RIS-only draws
        channel = self._channel()
        family = [channel.link("direct", 0)] + [
            channel.link(kind, n) for n in (16, 17, 64) for kind in ("ris", "composite")]
        direct, *rest = sim_oracle._family_snrs(family, batch_rng(44, 0), (3, 2_000))
        ris, comp = rest[0::2], rest[1::2]
        for draws in (ris, comp):
            for smaller, larger in zip(draws, draws[1:]):
                assert np.all(larger >= smaller)
        for r, c in zip(ris, comp):
            assert np.all(c >= r) and np.all(c >= direct)

    def test_links_at_two_powers_are_one_family(self):
        # links that differ only in gamma_bar_c share the raw draws; each SNR
        # is its own gamma_bar_c * amp^2 with amp from its own budget
        channel = self._channel()
        louder = replace(channel, gamma_bar_c=3.0 * channel.gamma_bar_c)
        family = [channel.link("composite", 16), louder.link("composite", 16)]
        shape = (3, 2_000)
        rng = batch_rng(46, 0)
        w = sample_nakagami(channel.direct_fading, rng, shape)
        s_n = sim_oracle._element_sums(channel.ris_params(1), [16], rng, shape)[16]
        snrs = sim_oracle._family_snrs(family, batch_rng(46, 0), shape)
        for link, snr in zip(family, snrs):
            budget = link.budget
            amp = budget.amp_direct * w + budget.amp_ris * s_n
            assert np.array_equal(snr, budget.gamma_bar_c * amp * amp)
            [alone] = sim_oracle._family_snrs([link], batch_rng(46, 0), shape)
            assert np.array_equal(snr, alone)

    @pytest.mark.parametrize("field", ["direct", "hops"])
    def test_links_with_other_fading_are_no_family(self, field):
        channel = self._channel()
        if field == "direct":
            other = replace(channel, direct_fading=NakagamiParams(m=2.5, omega=1.0))
        else:
            other = replace(channel, hop_r2a=NakagamiParams(m=3.0, omega=1.0))
        with pytest.raises(ValueError, match="share direct fading and RIS hops"):
            mc_snr_cdf([channel.link("composite", 16), other.link("composite", 16)],
                       [[1.0], [1.0]], McConfig(trials=10, seed=0))

    def test_one_grid_per_member(self):
        link = self._channel().link("direct", 0)
        with pytest.raises(ValueError, match="one gamma grid per link"):
            mc_snr_cdf([link, link], [[1.0]], McConfig(trials=10, seed=0))

    def test_batch_memory_flat_in_elements(self):
        channel = self._channel()
        cfg = McConfig(trials=4_000, seed=45)
        peaks = {}
        for n in (64, 1024):
            tracemalloc.start()
            try:
                mc_snr_cdf([channel.link("ris", n)], [[1.0]], cfg)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1024] <= 2 * peaks[64]


def _two_buffer_element_sums(ris: RisLinkParams, counts, rng, shape) -> dict:
    """The element-sum sampler as first written: each chunk fills a G1 and a
    G2 buffer of ELEMENT_CHUNK rows in one call each.  The reference stream."""
    g2r, r2a = ris.hop_g2r, ris.hop_r2a
    scale = math.sqrt(g2r.omega / g2r.m * r2a.omega / r2a.m)
    wanted = sorted(set(counts))
    n_max = wanted[-1]
    rows = min(sim_oracle.ELEMENT_CHUNK, n_max)
    buf_g2r, buf_r2a = np.empty((rows,) + shape), np.empty((rows,) + shape)
    running = np.zeros(shape)
    sums = {}
    for lo in range(0, n_max, sim_oracle.ELEMENT_CHUNK):
        k = min(sim_oracle.ELEMENT_CHUNK, n_max - lo)
        prod, other = buf_g2r[:k], buf_r2a[:k]
        rng.standard_gamma(g2r.m, out=prod)
        rng.standard_gamma(r2a.m, out=other)
        np.multiply(prod, other, out=prod)
        np.sqrt(prod, out=prod)
        np.cumsum(prod, axis=0, out=prod)
        for n in wanted:
            if lo < n <= lo + k:
                sums[n] = scale * (running + prod[n - lo - 1])
        running += prod[k - 1]
    return sums


class _ReversedPool:
    """Stands in for ThreadPoolExecutor: runs the tasks last first, in the
    calling thread, and hands their results back in task order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        return iter([fn(job) for job in reversed(jobs)][::-1])


@pytest.mark.bits
class TestParallelBatches:
    """Batches run concurrently, draw the serial stream and reduce to the
    serial result bit for bit."""

    ELEMENTS = (1, 7, 8, 13, 64, 530)

    @pytest.mark.parametrize("shape", [(5_000,), (3, 5_000)])
    @pytest.mark.parametrize("m_g2r, m_r2a", [(1.0, 1.33), (1.33, 2.6), (2.6, 1.0)])
    def test_element_sums_keep_the_two_buffer_stream(self, shape, m_g2r, m_r2a):
        ris = RisLinkParams(hop_g2r=NakagamiParams(m=m_g2r, omega=0.8),
                            hop_r2a=NakagamiParams(m=m_r2a, omega=1.7), n_elements=1)
        for counts in [(n,) for n in self.ELEMENTS] + [self.ELEMENTS]:
            new = sim_oracle._element_sums(ris, counts, batch_rng(60, 0), shape)
            old = _two_buffer_element_sums(ris, counts, batch_rng(60, 0), shape)
            assert new.keys() == old.keys()
            for n in counts:
                assert np.array_equal(new[n], old[n])

    def _points(self):
        channels = _links()
        direct = OutageModel(channels, (1.0, 1.0, 1.0), link_type="direct")
        composite = OutageModel(channels, (1.0, 1.0, 1.0), link_type="composite")
        links = [direct.link(rank, 0) for rank in (1, 2, 3)]
        return [
            (links, PowerAllocation((0.7, 0.2, 0.1)), (1.0, 1.0, 1.0)),
            (links, PowerAllocation((0.7, 0.2, 0.1)), (1.2, 1.0, 0.8)),
            ([composite.link(rank, 16) for rank in (1, 2, 3)],
             PowerAllocation((0.6, 0.3, 0.1)), (1.0, 1.0, 1.0)),
            ([composite.link(rank, 40) for rank in (1, 2, 3)],
             PowerAllocation((0.6, 0.3, 0.1)), (0.5, 0.5, 0.5)),
        ]

    def _family(self):
        channel = _links()[0]
        family = [channel.link("direct", 0), channel.link("ris", 16), channel.link("composite", 16)]
        grids = [np.geomspace(1e-3, 1e3, 50) * link.budget.gamma_bar_c for link in family]
        return family, grids

    def _run_both(self):
        cfg = McConfig(trials=7_500, seed=61, batch=2_500)  # 3 batches per rank
        family, grids = self._family()
        return mc_noma_outage(self._points(), cfg), mc_snr_cdf(family, grids, cfg)

    def test_serial_equals_parallel_equals_reversed(self, monkeypatch):
        parallel = self._run_both()
        with monkeypatch.context() as patch:
            patch.setattr(sim_oracle, "_workers", lambda: 1)
            serial = self._run_both()
        with monkeypatch.context() as patch:
            patch.setattr(sim_oracle, "ThreadPoolExecutor", _ReversedPool)
            reversed_order = self._run_both()
        assert parallel[0] == serial[0] == reversed_order[0]
        for cdfs in (serial[1], reversed_order[1]):
            assert len(cdfs) == len(parallel[1])
            for a, b in zip(parallel[1], cdfs):
                assert np.array_equal(a.grid, b.grid)
                assert np.array_equal(a.values, b.values)
                assert (a.halfwidth, a.trials) == (b.halfwidth, b.trials)

    def test_parallel_task_error_reaches_the_caller(self, monkeypatch):
        error = RuntimeError("batch failed")

        def failing(family, rng, size):
            raise error

        monkeypatch.setattr(sim_oracle, "_family_snrs", failing)
        family, grids = self._family()
        cfg = McConfig(trials=7_500, seed=62, batch=2_500)
        for call in (lambda: mc_noma_outage(self._points(), cfg),
                     lambda: mc_snr_cdf(family, grids, cfg)):
            threads = threading.active_count()
            with pytest.raises(RuntimeError) as caught:
                call()
            assert caught.value is error
            assert threading.active_count() == threads

    def test_parallel_pool_is_gone_after_the_call(self):
        threads = threading.active_count()
        self._run_both()
        assert threading.active_count() == threads
