"""Monte Carlo ground-truth engine for every closed-form distribution.

Both estimators draw from a *family* of Links: links that share the direct
fading and the RIS hops, each with its own kind, element count N and budget.
Per batch a family draws its direct fading once and its element sums once, as
one running sum over the elements read off at every N the family asks for,
and each link scales those draws by its own budget.  So its links see common
random numbers: draws never fall as N grows and a composite draw is never
below its direct or RIS-only draw.

All estimators draw in fixed-size batches whose generators are derived from
(seed, batch index), and reduce with integer counts.  The batches of one call
run as tasks on a thread pool that lives for that call, one worker per CPU
the process may use: numpy's gamma fills, where the time goes, release the
GIL.  Each task returns its counts and the caller adds them in task order, so
the result is bit-identical whatever the schedule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    falls as N grows.  Per chunk of ELEMENT_CHUNK elements the G1 powers
    fill a chunk buffer in one call and the G2 powers one row at a time,
    each multiplied into its row; that is the order one fill of both chunks
    would draw them in.  The products then take one sqrt each, so memory is
    one chunk plus one row and does not grow with N.
    """
    g2r, r2a = ris.hop_g2r, ris.hop_r2a
    scale = math.sqrt(g2r.omega / g2r.m * r2a.omega / r2a.m)
    wanted = sorted(set(counts))
    n_max = wanted[-1]
    buf = np.empty((min(ELEMENT_CHUNK, n_max),) + shape)
    other = np.empty(shape)
    running = np.zeros(shape)
    sums = {}
    for lo in range(0, n_max, ELEMENT_CHUNK):
        k = min(ELEMENT_CHUNK, n_max - lo)
        prod = buf[:k]
        rng.standard_gamma(g2r.m, out=prod)
        for row in prod:
            rng.standard_gamma(r2a.m, out=other)
            row *= other
        np.sqrt(prod, out=prod)
        for i in range(1, k):  # row i: elements lo+1 .. lo+i+1
            np.add(prod[i - 1], prod[i], out=prod[i])
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
    Both are assembled in place; float addition and multiplication commute
    exactly, so (amp_ris * S_N) + (amp_direct * w) and
    (gamma_bar_c * amp) * amp are the bits of the expressions above.  Every
    SNR array is new, so callers may sort or partition it in place.
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
        else:
            amp = budget.amp_ris * sums[link.ris.n_elements]
            if link.direct is not None:
                amp += budget.amp_direct * w
        snr = budget.gamma_bar_c * amp
        snr *= amp
        yield snr


def _workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _summed_counts(task, jobs):
    """Sum of task(job) over jobs, integer count arrays of one shape.

    The jobs run on a thread pool opened here and shut down before this
    returns, with one worker per CPU, at most one per job.  The counts are
    added in job order, and integer sums do not depend on it anyway, so the
    result is the serial one bit for bit.  A task's exception reaches the
    caller as raised, once the running tasks are done; queued ones are
    cancelled.
    """
    with ThreadPoolExecutor(max_workers=min(_workers(), len(jobs))) as pool:
        return sum(pool.map(task, jobs))


def mc_snr_cdf(family, gamma_grids, cfg: McConfig) -> list:
    """Empirical SNR CDF of each link of one family, link i over gamma_grids[i].

    Single-link callers pass a family of one: mc_snr_cdf([link], [grid], cfg)[0].
    Each batch is one task, counting the draws at or below every grid point.
    """
    grids = [np.asarray(grid, dtype=float) for grid in gamma_grids]
    if len(grids) != len(family):
        raise ValueError("need one gamma grid per link")
    if any(grid.ndim != 1 or np.any(np.diff(grid) < 0) for grid in grids):
        raise ValueError("gamma grid must be a sorted 1-D array")

    def batch_counts(job):
        idx, size = job
        counts = []
        for grid, snr in zip(grids, _family_snrs(family, batch_rng(cfg.seed, idx), size)):
            snr.sort()
            counts.append(np.searchsorted(snr, grid, side="right"))
        return np.concatenate(counts)

    counts = _summed_counts(batch_counts, list(enumerate(cfg.batch_sizes())))
    splits = np.cumsum([grid.size for grid in grids])[:-1]
    halfwidth = math.sqrt(math.log(2.0 / 0.05) / (2.0 * cfg.trials))
    return [McCdf(grid=grid, values=count / cfg.trials, halfwidth=halfwidth, trials=cfg.trials)
            for grid, count in zip(grids, np.split(counts, splits))]


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
    Each (rank, batch) is one task, counting the failures of its rank's
    column at every point.
    """
    points, m_users = _operating_points(points)
    if not points:
        return []
    groups = {rank: _rank_groups(points, rank) for rank in range(1, m_users + 1)}

    def batch_failures(job):
        rank, idx, size = job
        scored = groups[rank]
        family = list(scored)
        failures = np.zeros((len(points), m_users), dtype=np.int64)
        rng = batch_rng(cfg.seed + 7919 * rank, idx)
        for link, draws in zip(family, _family_snrs(family, rng, (m_users, size))):
            draws.partition(rank - 1, axis=0)
            gamma_m = draws[rank - 1]
            for ks in scored[link].values():
                _, alloc, rates = points[ks[0]]
                ok = np.ones(size, dtype=bool)
                for j in range(1, rank + 1):
                    ok &= decode_rate(gamma_m, alloc, rank, j) > rates[j - 1]
                failures[ks, rank - 1] = size - np.count_nonzero(ok)
        return failures

    jobs = [(rank, idx, size) for rank in groups for idx, size in enumerate(cfg.batch_sizes())]
    failures = _summed_counts(batch_failures, jobs)
    return [[_estimate(f, cfg.trials) for f in row] for row in failures.tolist()]


def _estimate(failures: int, trials: int) -> McEstimate:
    p = failures / trials
    halfwidth = 1.96 * math.sqrt(max(p * (1.0 - p), 1e-300) / trials)
    return McEstimate(value=p, halfwidth=halfwidth, trials=trials)
