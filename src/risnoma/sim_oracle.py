"""Monte Carlo ground-truth engine for every closed-form distribution.

Both estimators draw from a *family* of Links: links that share the direct
fading and the RIS hops, each with its own kind, element count N and budget.
Per batch a family draws its direct fading once and its element sums once, as
one running sum over the elements read off at every N the family asks for,
and each link scales those draws by its own budget.  So its links see common
random numbers: draws never fall as N grows and a composite draw is never
below its direct or RIS-only draw.

All estimators draw in fixed-size batches whose generators are derived from
(seed, batch index), and reduce with order-insensitive integer counts, so
serial and parallel schedules produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import NakagamiParams, RisLinkParams
from .noma import _operating_points, _rank_groups, decode_rate

__all__ = [
    "McConfig",
    "McCdf",
    "McEstimate",
    "batch_rng",
    "sample_nakagami",
    "mc_snr_cdf",
    "mc_noma_outage",
]

ELEMENT_CHUNK = 8  # RIS elements drawn per gamma call


@dataclass(frozen=True)
class McConfig:
    trials: int = 1_000_000
    seed: int = 0
    batch: int = 250_000

    def __post_init__(self):
        if self.trials < 1 or self.batch < 1:
            raise ValueError("trials and batch must be positive")

    def batch_sizes(self):
        full, rem = divmod(self.trials, self.batch)
        sizes = [self.batch] * full
        if rem:
            sizes.append(rem)
        return sizes


@dataclass(frozen=True)
class McCdf:
    """Empirical CDF on a gamma grid with its 95% DKW half-width."""

    grid: np.ndarray
    values: np.ndarray
    halfwidth: float
    trials: int


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with a 95% normal-approximation half-width."""

    value: float
    halfwidth: float
    trials: int


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Deterministic per-batch generator keyed on (seed, batch index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))


def sample_nakagami(p: NakagamiParams, rng: np.random.Generator, size=None):
    """Nakagami amplitude draws: sqrt of Gamma(m, omega/m) power samples."""
    return np.sqrt(rng.gamma(shape=p.m, scale=p.omega / p.m, size=size))


def _element_sums(ris: RisLinkParams, counts, rng, shape) -> dict:
    """Element sums S_N = sum_{i <= N} g_i^g * g_i^a at every N in counts.

    One running sum over the elements records S at each N, so S_N never
    falls as N grows.  Element power products G1*G2 are drawn ELEMENT_CHUNK
    elements at a time into two fixed buffers and take one sqrt each, so
    memory does not grow with N.
    """
    g2r, r2a = ris.hop_g2r, ris.hop_r2a
    scale = math.sqrt(g2r.omega / g2r.m * r2a.omega / r2a.m)
    wanted = sorted(set(counts))
    n_max = wanted[-1]
    rows = min(ELEMENT_CHUNK, n_max)
    buf_g2r, buf_r2a = np.empty((rows,) + shape), np.empty((rows,) + shape)
    running = np.zeros(shape)
    sums = {}
    for lo in range(0, n_max, ELEMENT_CHUNK):
        k = min(ELEMENT_CHUNK, n_max - lo)
        prod, other = buf_g2r[:k], buf_r2a[:k]
        rng.standard_gamma(g2r.m, out=prod)
        rng.standard_gamma(r2a.m, out=other)
        np.multiply(prod, other, out=prod)
        np.sqrt(prod, out=prod)
        np.cumsum(prod, axis=0, out=prod)  # row i: elements lo+1 .. lo+i+1
        for n in wanted:
            if lo < n <= lo + k:
                sums[n] = scale * (running + prod[n - lo - 1])
        running += prod[k - 1]
    return sums


def _shared_fading(family):
    """(direct fading, RIS hops) that every link of a family shares; the RIS
    hops come back as RisLinkParams of one element."""
    if not family:
        raise ValueError("a link family needs at least one link")
    directs = {link.direct for link in family if link.direct is not None}
    hops = {replace(link.ris, n_elements=1) for link in family if link.ris is not None}
    if len(directs) > 1 or len(hops) > 1:
        raise ValueError("links of a family must share direct fading and RIS hops")
    return next(iter(directs), None), next(iter(hops), None)


def _family_snrs(family, rng, size):
    """SNR draws of every link of a family, one array per link in order.

    The direct fading w is drawn once (first, so a direct link alone draws
    what it always drew) and the element sums S_N once, at every N the
    family asks for.  Each link's SNR is gamma_bar_c * amp^2 from its own
    budget, with amp = amp_direct * w + amp_ris * S_N over the paths it has.
    """
    direct, hops = _shared_fading(family)
    shape = tuple(np.atleast_1d(size))
    w = None if direct is None else sample_nakagami(direct, rng, shape)
    sums = {}
    if hops is not None:
        counts = [link.ris.n_elements for link in family if link.ris is not None]
        sums = _element_sums(hops, counts, rng, shape)
    for link in family:
        budget = link.budget
        if link.ris is None:
            amp = budget.amp_direct * w
        elif link.direct is None:
            amp = budget.amp_ris * sums[link.ris.n_elements]
        else:
            amp = budget.amp_direct * w + budget.amp_ris * sums[link.ris.n_elements]
        yield budget.gamma_bar_c * amp * amp


def mc_snr_cdf(family, gamma_grids, cfg: McConfig) -> list:
    """Empirical SNR CDF of each link of one family, link i over gamma_grids[i].

    Single-link callers pass a family of one: mc_snr_cdf([link], [grid], cfg)[0].
    """
    grids = [np.asarray(grid, dtype=float) for grid in gamma_grids]
    if len(grids) != len(family):
        raise ValueError("need one gamma grid per link")
    if any(grid.ndim != 1 or np.any(np.diff(grid) < 0) for grid in grids):
        raise ValueError("gamma grid must be a sorted 1-D array")
    counts = [np.zeros(grid.size, dtype=np.int64) for grid in grids]
    for idx, size in enumerate(cfg.batch_sizes()):
        rng = batch_rng(cfg.seed, idx)
        for count, grid, snr in zip(counts, grids, _family_snrs(family, rng, size)):
            count += np.searchsorted(np.sort(snr), grid, side="right")
    halfwidth = math.sqrt(math.log(2.0 / 0.05) / (2.0 * cfg.trials))
    return [McCdf(grid=grid, values=count / cfg.trials, halfwidth=halfwidth, trials=cfg.trials)
            for grid, count in zip(grids, counts)]


def mc_noma_outage(points, cfg: McConfig) -> list:
    """Event-level NOMA outage of every rank at every operating point.

    points[k] is (links, alloc, rates) with links[m - 1] rank m's link; the
    result holds one list per point with one McEstimate per rank.  Rank m's
    links over all points form one family, drawn once per batch: M i.i.d.
    SNRs per link, of which the m-th smallest is kept, so every point is
    scored on the same draws.  The outage event is the failure of any decode
    rate R_{m,j} (j <= m) to exceed its target -- the rate conditions
    themselves, not the SIC thresholds, so this run is an independent check
    of the closed-form pipeline, noma.point_outages, on the same points.
    """
    points, m_users = _operating_points(points)
    failures = [[0] * m_users for _ in points]
    for rank in range(1, m_users + 1):
        scored = _rank_groups(points, rank)
        family = list(scored)
        for idx, size in enumerate(cfg.batch_sizes()):
            rng = batch_rng(cfg.seed + 7919 * rank, idx)
            for link, draws in zip(family, _family_snrs(family, rng, (m_users, size))):
                gamma_m = np.partition(draws, rank - 1, axis=0)[rank - 1]
                for ks in scored[link].values():
                    _, alloc, rates = points[ks[0]]
                    ok = np.ones(size, dtype=bool)
                    for j in range(1, rank + 1):
                        ok &= decode_rate(gamma_m, alloc, rank, j) > rates[j - 1]
                    failed = int(size - np.count_nonzero(ok))
                    for k in ks:
                        failures[k][rank - 1] += failed
    return [[_estimate(f, cfg.trials) for f in row] for row in failures]


def _estimate(failures: int, trials: int) -> McEstimate:
    p = failures / trials
    halfwidth = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-300) / trials)
    return McEstimate(value=p, halfwidth=halfwidth, trials=trials)
