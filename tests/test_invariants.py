"""Physical invariants of the closed-form model over many default drops.

The exact model keeps each of these at every point, so a violation is a
defect rather than a tolerance to argue about.  Every check runs over the
default config's drops 0-9, every UAV and the default element grid, with
array calls only.

Composite dominance, F_c <= min(F_d, F_r), and composite monotonicity in N
across N = 0 -> 1 are left out: the closed form's snapped direct shape m3
breaks both today, on most default curves.
"""

import math

import numpy as np
import pytest

from risnoma import expcli
from risnoma.channels import LINK_KINDS
from risnoma.noma import OutageModel, ordered_cdf, point_outages

CFG = expcli.ExperimentConfig()
DROPS = range(10)
N_GRID = CFG.sweep.grid
# The composite closed form cancels in its deep tail and steps to its clamp
# at 0 there: on drop 0, UAV 2 (N from 2 to 256) it takes wrong-way steps in
# gamma, in N and in power of up to 1.7e-28, all at F < 1e-27.  No step of a
# probability that matters comes near this slack.
SLACK = 1e-15
RATES = (0.5, 0.7, 1.0, 1.2)  # bpc; the config's beta keeps SIC at each


def _mean_snr(channel, n_elements):
    """E[gamma] of the composite link: gamma_bar_c E[(a_d X + a_r S)^2]."""
    fit = channel.laguerre(n_elements)
    m, omega = channel.direct_fading.m, channel.direct_fading.omega
    mean_x = math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) * math.sqrt(omega / m)
    a_d, a_r = channel.amp_direct, channel.amp_ris
    return channel.gamma_bar_c * (a_d**2 * omega + 2.0 * a_d * a_r * mean_x * fit.mean_sum
                                  + a_r**2 * (fit.var_sum + fit.mean_sum**2))


# every distinct link of a channel over the grid: one direct link, and the
# RIS-only and composite links at each N they exist at
CELLS = [(kind, n) for kind in LINK_KINDS for n in N_GRID
         if (kind != "ris" or n > 0) and (kind != "direct" or n == 0)]


@pytest.fixture(scope="module")
def curves():
    """{(drop, uav, kind, N): (F, F at twice the transmit SNR)} on the
    channel's 25-point gamma grid up to 3x its mean composite SNR at the
    largest N."""
    out = {}
    for drop in DROPS:
        for channel in expcli._resolved_links(CFG, drop):
            gammas = np.geomspace(1e-3, 3.0 * _mean_snr(channel, N_GRID[-1]), 25)
            louder = channel.at_snr(2.0 * channel.gamma_bar_c)
            for kind, n in CELLS:
                out[drop, channel.uav, kind, n] = (channel.link(kind, n).cdf(gammas),
                                                   louder.link(kind, n).cdf(gammas))
    return out


@pytest.fixture(scope="module")
def rank_outages():
    """{(drop, rate, N): outage per rank} of the composite links at the
    config's beta, as the CLI normalizes it, from one point_outages call."""
    links = {drop: expcli._resolved_links(CFG, drop) for drop in DROPS}
    alloc = expcli._allocation(CFG, OutageModel(links[0], (1.2,) * 3, link_type="composite"))
    keys = [(drop, rate, n) for drop in DROPS for rate in RATES for n in N_GRID if n >= 1]
    points = [([c.link("composite", n) for c in links[drop]], alloc, (rate,) * len(links[drop]))
              for drop, rate, n in keys]
    return dict(zip(keys, map(np.array, point_outages(points))))


class TestPhysicalInvariants:
    def test_cdf_in_unit_interval(self, curves):
        for key, (f, _) in curves.items():
            assert np.all((0.0 <= f) & (f <= 1.0)), key

    def test_cdf_nondecreasing_in_gamma(self, curves):
        for key, (f, _) in curves.items():
            assert np.all(np.diff(f) >= -SLACK), key

    @pytest.mark.parametrize("kind", ["ris", "composite"])
    def test_cdf_nonincreasing_in_elements(self, curves, kind):
        grid = [n for n in N_GRID if n >= 1]
        for drop in DROPS:
            for uav in range(CFG.scenario.n_uavs):
                for lo, hi in zip(grid, grid[1:]):
                    f_lo, f_hi = curves[drop, uav, kind, lo][0], curves[drop, uav, kind, hi][0]
                    assert np.all(f_hi <= f_lo + SLACK), (drop, uav, kind, lo, hi)

    def test_cdf_nonincreasing_in_power(self, curves):
        for key, (f, f_louder) in curves.items():
            assert np.all(f_louder <= f + SLACK), key

    def test_rank_outage_nondecreasing_in_rate(self, rank_outages):
        for drop in DROPS:
            for n in (1, 16, 64, 256):
                by_rate = [rank_outages[drop, rate, n] for rate in RATES]
                for lower, higher in zip(by_rate, by_rate[1:]):
                    assert np.all(lower <= higher + SLACK), (drop, n)

    def test_rank_outage_nonincreasing_in_elements(self, rank_outages):
        grid = [n for n in N_GRID if n >= 1]
        for drop in DROPS:
            for lo, hi in zip(grid, grid[1:]):
                lower, higher = rank_outages[drop, 1.0, hi], rank_outages[drop, 1.0, lo]
                assert np.all(lower <= higher + SLACK), (drop, lo, hi)

    @pytest.mark.parametrize("total", [1, 2, 3, 4, 5])
    def test_ordered_cdfs_sum_to_total_times_parent(self, total):
        f = np.linspace(0.0, 1.0, 101)
        summed = sum(ordered_cdf(f, m, total) for m in range(1, total + 1))
        assert np.max(np.abs(summed - total * f)) <= 1e-12
