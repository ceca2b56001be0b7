"""NOMA rate model, SIC decoding thresholds, order statistics and outage.

Users are ranked by mean channel gain (weakest first); rank m receives power
coefficient beta_m and must decode ranks 1..m.  The outage of rank m is the
ordered-statistics CDF of its own parent SNR distribution evaluated at the
largest SIC threshold it must clear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .special_math import _checked

__all__ = [
    "InfeasibleAllocationError",
    "PowerAllocation",
    "decode_rate",
    "sic_thresholds",
    "ordered_cdf",
    "point_outages",
    "OutageModel",
]


class InfeasibleAllocationError(ValueError):
    """A power allocation violates the SIC feasibility constraint."""

    def __init__(self, rank_j: int, message: str):
        super().__init__(message)
        self.rank_j = rank_j


@dataclass(frozen=True)
class PowerAllocation:
    """NOMA power coefficients beta_1 > ... > beta_M summing to one."""

    beta: tuple

    def __post_init__(self):
        beta = tuple([float(b) for b in self.beta])
        object.__setattr__(self, "beta", beta)
        if not beta:
            raise ValueError("empty power allocation")
        # one pass over beta; the errors keep their precedence
        in_unit = decreasing = True
        prev = math.inf
        for b in beta:
            if not 0.0 < b < 1.0:
                in_unit = False
            if not b < prev:
                decreasing = False
            prev = b
        if not in_unit and beta != (1.0,):
            raise ValueError("coefficients must lie in (0, 1) (or be the trivial [1])")
        total = math.fsum(beta)
        if abs(total - 1.0) > 1e-9 * len(beta):
            raise ValueError(f"coefficients must sum to one, got {total!r}")
        if not decreasing:
            raise ValueError("coefficients must be strictly decreasing")

    @property
    def m_users(self) -> int:
        return len(self.beta)

    def interference(self, j: int) -> float:
        """Sum of coefficients allocated to ranks above j (treated as noise)."""
        return math.fsum(self.beta[j:])


def decode_rate(gamma_m, alloc: PowerAllocation, m: int, j: int):
    """Rate at which rank m decodes rank j's signal (j <= m), at scalar or array SNR:
    log2(1 + g b_j / (g sum_{i>j} b_i + 1)); j = m is rank m's own rate after SIC."""
    if not 1 <= j <= m <= alloc.m_users:
        raise ValueError(f"require 1 <= j <= m <= M, got j={j}, m={m}")
    gamma_m = _checked(gamma_m, lambda g: g < 0.0, "SNR must be nonnegative")
    interf = alloc.interference(j)
    return np.log2(1.0 + gamma_m * alloc.beta[j - 1] / (gamma_m * interf + 1.0))


def _sic_phis(rates):
    """phi_j = 2^R_j - 1 of every rank's target rate R_j."""
    return [2.0 ** float(r) - 1.0 for r in rates]


def _sic_margins(beta, phis, m: int):
    """beta_j - phi_j * sum_{i>j} beta_i of ranks j = 1..m, with phis from
    _sic_phis.  SIC decodes rank j only if its margin is positive, i.e.
    (2^R_j - 1) sum_{i>j} beta_i < beta_j."""
    return [beta[j] - phis[j] * math.fsum(beta[j + 1:]) for j in range(m)]


def _sic_lbs(beta, phis, m: int):
    """gamma_j^lb = phi_j / margin_j of ranks j = 1..m; the first rank whose
    SIC margin is not positive raises InfeasibleAllocationError."""
    lbs = []
    for j, denom in enumerate(_sic_margins(beta, phis, m)):
        if denom <= 0.0:
            raise InfeasibleAllocationError(
                j + 1,
                f"allocation infeasible at rank {j + 1}: "
                f"beta_{j + 1} - (2^R-1)*interference = {denom:.6g} <= 0",
            )
        lbs.append(phis[j] / denom)
    return lbs


def sic_thresholds(alloc: PowerAllocation, rates, m: int):
    """Per-rank SIC SNR thresholds and the binding threshold for rank m.

    gamma_j^lb = (2^R_j - 1) / (beta_j - (2^R_j - 1) sum_{i>j} beta_i); the
    binding threshold is the max over j <= m for m < M and gamma_M^lb alone
    for the strongest user (as defined, not a max).
    """
    if not 1 <= m <= alloc.m_users:
        raise ValueError("rank out of range")
    if len(rates) != alloc.m_users:
        raise ValueError("need one target rate per user")
    lbs = _sic_lbs(alloc.beta, _sic_phis(rates), m)
    return lbs, _binding_thresholds(lbs, alloc.m_users)[-1]


def _binding_thresholds(lbs, m_users: int):
    """Binding SIC threshold of ranks 1..m from their gamma_j^lb: the running
    max_{j <= m} gamma_j^lb for m < M, gamma_M^lb alone for m = M."""
    out, top = [], -math.inf
    for lb in lbs:
        if lb > top:
            top = lb
        out.append(top)
    if len(lbs) == m_users:
        out[-1] = lbs[-1]
    return out


@functools.lru_cache(maxsize=None)
def _ordered_terms(m: int, total: int):
    """ordered_cdf's sum as (coefficient, power) pairs, and its outer factor."""
    terms = [(math.comb(total - m, n) * (-1.0) ** n, m + n) for n in range(total - m + 1)]
    return terms, m * math.comb(total, m)


def ordered_cdf(parent_cdf_value, m: int, total: int):
    """CDF of the m-th smallest of `total` i.i.d. draws, given the parent CDF value:
    m C(total, m) sum_n C(total-m, n) (-1)^n F^(m+n) / (m+n), clipped to [0, 1].
    An array of parent values gives, element by element, the scalar results."""
    if not 1 <= m <= total:
        raise ValueError("rank out of range")
    f = np.asarray(parent_cdf_value, dtype=float)
    values = f.ravel()
    if any([v < 0.0 or v > 1.0 for v in values.tolist()]):
        raise ValueError("parent CDF value must lie in [0, 1]")
    terms, factor = _ordered_terms(m, total)
    # F^(m+n) comes from numpy's power, whose bits the results keep; the rest is
    # exactly rounded float arithmetic, the same in Python as in numpy
    powers = [(coef, power, (values**power).tolist()) for coef, power in terms]
    out = []
    for i in range(values.size):
        acc = 0.0
        for coef, power, f_pow in powers:
            acc += coef * f_pow[i] / power
        acc *= factor
        out.append(0.0 if acc < 0.0 else 1.0 if acc > 1.0 else acc)  # np.clip's rule
    return out[0] if f.ndim == 0 else np.array(out).reshape(f.shape)


def _operating_points(points):
    """points as a list of (links, alloc, rates) with rates a tuple of floats,
    and the number of users M that every point must have."""
    points = [(links, alloc, tuple(map(float, rates))) for links, alloc, rates in points]
    m_users = len(points[0][0]) if points else 0
    if any(len(links) != m_users or alloc.m_users != m_users or len(rates) != m_users
           for links, alloc, rates in points):
        raise ValueError("every point needs one link and target rate per user")
    return points, m_users


def _rank_groups(points, rank: int):
    """Indices of _operating_points by rank's link, then by (beta, rates), so
    that each link and each of its operating points is scored once."""
    groups = {}
    for k, (links, alloc, rates) in enumerate(points):
        groups.setdefault(links[rank - 1], {}).setdefault((alloc.beta, rates), []).append(k)
    return groups


def point_outages(points):
    """Closed-form outage of every rank at every operating point: the twin of
    sim_oracle.mc_noma_outage, on the same points and in the same shape.

    points[k] is (links, alloc, rates) with links[m - 1] rank m's link; the
    result holds one list per point with one outage per rank.  Each distinct
    (beta, rates) gets its binding SIC thresholds once.  The distinct (link,
    threshold) pairs of all ranks go through one channels.link_cdfs call,
    which runs each special function once per link kind, and each rank's
    distinct parent values through one ordered_cdf call; both give every
    value the bits of a scalar call.  An allocation that breaks SIC raises
    InfeasibleAllocationError.
    """
    points, m_users = _operating_points(points)
    allocs = {(alloc.beta, rates): alloc for _, alloc, rates in points}
    thresholds = {key: _binding_thresholds(sic_thresholds(alloc, key[1], m_users)[0], m_users)
                  for key, alloc in allocs.items()}
    pairs = {}  # (link, threshold) -> its place in the link_cdfs batch
    slots = [[pairs.setdefault((links[m], thresholds[alloc.beta, rates][m]), len(pairs))
              for links, alloc, rates in points] for m in range(m_users)]
    parent = ch.link_cdfs([link for link, _ in pairs], [g for _, g in pairs])
    outages = [[0.0] * m_users for _ in points]
    for rank, rank_slots in enumerate(slots, start=1):
        distinct = list(dict.fromkeys(rank_slots))
        scores = ordered_cdf([parent[i] for i in distinct], rank, m_users).tolist()
        by_slot = dict(zip(distinct, scores))
        for out, i in zip(outages, rank_slots):
            out[rank - 1] = by_slot[i]
    return outages


class OutageModel:
    """Per-rank outage memo over resolved links of one scenario, for ruom.

    Links are sorted weakest-first by mean direct channel gain; rank m uses
    its own link's parent CDF (direct, RIS-only, or composite with a per-rank
    element count) inside the ordered-statistics outage formula.

    An outage depends on beta only through the rank's binding SIC threshold,
    so the model keeps every allocation's thresholds and every (rank, N,
    threshold) score it has computed, and computes each once.  A call scores
    everything it has not seen before at once: one channels.link_cdfs call
    across its ranks, then one ordered_cdf call per rank, which give every
    value the bits a scalar call gives it.
    """

    def __init__(self, links, rates, link_type: str):
        if link_type not in ch.LINK_KINDS:
            raise ValueError(f"unknown link type {link_type!r}")
        self.links = sorted(links, key=lambda l: (l.gamma_bar_d, l.uav))
        self.rates = tuple(float(r) for r in rates)
        self.link_type = link_type
        self.m_users = len(self.links)
        if len(self.rates) != self.m_users:
            raise ValueError("need one target rate per UAV")
        if any(r <= 0 for r in self.rates):
            raise ValueError("target rates must be positive")
        self._phis = _sic_phis(self.rates)
        self._thresholds = {}  # beta -> binding SIC threshold of every rank
        self._scores = {}  # (rank, n_elements) -> {binding threshold: outage}

    def link(self, rank: int, n_elements: int) -> ch.Link:
        """The link of the given rank (1-based) with n_elements RIS elements."""
        return self.links[rank - 1].link(self.link_type, n_elements)

    def outage(self, rank: int, alloc: PowerAllocation, n_elements: int) -> float:
        """Outage of the given rank: the ordered CDF of its link at the binding
        SIC threshold.  An infeasible allocation raises InfeasibleAllocationError."""
        threshold = self._threshold(rank, alloc)
        return self._scored([(rank, n_elements, (threshold,))])[0][threshold]

    def outages(self, alloc: PowerAllocation, n_per_rank):
        """Outage of every rank, from one pass over the SIC thresholds."""
        return self.batch_outages([alloc], n_per_rank)[0]

    def batch_outages(self, allocs, n_per_rank):
        """outages(alloc, n_per_rank) of each allocation: the (rank, threshold)
        pairs of the whole batch not scored before are scored in one pass."""
        thresholds = [self.thresholds(alloc) for alloc in allocs]
        scores = self._scored([(m, int(n_per_rank[m - 1]), gs)
                               for m, gs in enumerate(zip(*thresholds), start=1)])
        return [list(map(dict.__getitem__, scores, t)) for t in thresholds]

    def thresholds(self, alloc: PowerAllocation):
        """Binding SIC threshold of every rank under alloc, computed once per beta."""
        out = self._thresholds.get(alloc.beta)
        if out is None:
            lbs = _sic_lbs(alloc.beta, self._phis, self.m_users)
            out = self._thresholds[alloc.beta] = _binding_thresholds(lbs, self.m_users)
        return out

    def _threshold(self, rank: int, alloc: PowerAllocation) -> float:
        """Binding SIC threshold of one rank; an allocation that breaks SIC only
        above the rank still serves it."""
        if not 1 <= rank <= self.m_users:
            raise ValueError("rank out of range")
        try:
            return self.thresholds(alloc)[rank - 1]
        except InfeasibleAllocationError as exc:
            if exc.rank_j <= rank:
                raise
        return _binding_thresholds(_sic_lbs(alloc.beta, self._phis, rank), self.m_users)[-1]

    def _scored(self, requests):
        """The memo of each (rank, n_elements, thresholds) request, holding
        every one of its thresholds: the (rank, N, threshold) triples not
        scored before go through one link_cdfs call, then one ordered_cdf
        call per rank."""
        memos, fresh, links, gammas = [], [], [], []
        for rank, n_elements, thresholds in requests:
            if self.link_type == "direct":
                n_elements = 0  # the direct link is the same at every N
            scores = self._scores.setdefault((rank, n_elements), {})
            new = [g for g in dict.fromkeys(thresholds) if g not in scores]
            if new:
                fresh.append((rank, scores, new))
                links += [self.link(rank, n_elements)] * len(new)
                gammas += new
            memos.append(scores)
        if fresh:
            parent = ch.link_cdfs(links, gammas)
            start = 0
            for rank, scores, new in fresh:
                stop = start + len(new)
                scores.update(zip(new, ordered_cdf(parent[start:stop], rank, self.m_users).tolist()))
                start = stop
        return memos
