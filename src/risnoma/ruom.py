"""Fairness-efficiency bilevel optimizer.

The outer (fairness) stage minimizes the worst per-UAV outage over power
coefficient vectors enumerated by a progressive grid search whose resolution
shrinks geometrically; the inner (efficiency) stage then gives each UAV the
fewest RIS elements that keep its outage below the threshold: two outage
calls when one element already meets it, otherwise a bisection on the
element count (outage is nonincreasing in it from one element).  Iterate
until the power vector stops moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .noma import OutageModel, PowerAllocation, _sic_margins, _sic_phis

__all__ = [
    "NoFeasibleAllocationError",
    "RisCapacityExhausted",
    "RuomParams",
    "RuomIteration",
    "RuomTrace",
    "RuomResult",
    "pgs",
    "evaluate_candidates",
    "ruom",
]


class NoFeasibleAllocationError(RuntimeError):
    """The grid search produced no feasible power vector at any resolution."""


@dataclass(frozen=True)
class RisCapacityExhausted:
    """Efficiency-stage event: a RIS ran out of elements with outage still
    above threshold.  The algorithm records it and moves on."""

    iteration: int
    rank: int
    ris: int
    outage: float


@dataclass(frozen=True)
class RuomParams:
    lam: float = 0.1  # resolution scaling factor per refinement
    delta: float = 1e-3  # outage threshold
    eps_in: float = 1e-1  # initial search resolution
    eps_ac: float = 1e-8  # accuracy threshold ending the refinement loop
    eps_conv: float = 1e-4  # convergence tolerance on ||beta_t - beta_{t-1}||
    max_iter: int = 100

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.eps_ac < self.eps_in <= 1.0:
            raise ValueError("require 0 < eps_ac < eps_in <= 1")
        if self.eps_conv <= 0 or self.max_iter < 1:
            raise ValueError("eps_conv must be positive and max_iter >= 1")


@dataclass(frozen=True)
class RuomIteration:
    t: int
    beta: tuple
    n_per_rank: tuple
    outages: tuple
    max_outage: float
    total_elements: int


@dataclass
class RuomTrace:
    iterations: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass(frozen=True)
class RuomResult:
    beta_star: PowerAllocation
    trace: RuomTrace
    converged: bool
    iterations: int


def _axis_values(eps_sr: float, low: float, high: float):
    """Grid multiples of eps_sr inside [low, high], with 1.0 always a member."""
    lo_k = math.ceil(low / eps_sr - 1e-9)
    hi_k = math.floor(high / eps_sr + 1e-9)
    vals = [k * eps_sr for k in range(max(lo_k, 0), hi_k + 1) if k * eps_sr <= 1.0 + 1e-12]
    if low <= 1.0 <= high and not any(abs(v - 1.0) <= 1e-12 for v in vals):
        vals.append(1.0)
    return vals


def pgs(beta_prev, eps_sr: float, rates, m_users: int):
    """Progressive grid search: feasible power vectors at resolution eps_sr.

    Without an incumbent the full grid {0, eps, 2eps, ..., 1}^M is scanned;
    with one, each coordinate is restricted to [beta_m - eps, beta_m + eps]
    and the incumbent itself is kept in the set so refinements never regress.
    Returns PowerAllocations in lexicographic order; empty is a legal result.

    A leaf becomes a PowerAllocation only once it meets the sum rule and
    every SIC margin; the enumeration never descends into a branch that
    breaks the strict NOMA ordering, since no allocation lies below it.
    """
    if not 0.0 < eps_sr <= 1.0:
        raise ValueError("eps_sr must lie in (0, 1]")
    if beta_prev is None:
        axes = [_axis_values(eps_sr, 0.0, 1.0)] * m_users
    else:
        if beta_prev.m_users != m_users:
            raise ValueError("incumbent dimension mismatch")
        axes = [
            _axis_values(eps_sr, max(0.0, b - eps_sr), min(1.0, b + eps_sr))
            for b in beta_prev.beta
        ]

    found = {}
    tol = 1e-9 * m_users
    phis = _sic_phis(rates)

    def visit(candidate):
        if abs(math.fsum(candidate) - 1.0) > tol:  # PowerAllocation's sum rule
            return
        if not all(margin > 0.0 for _, margin in _sic_margins(candidate, phis, m_users)):
            return
        try:
            alloc = PowerAllocation(candidate)
        except ValueError:
            # outside (0, 1) or not strictly decreasing (possible for target
            # rates < 1); not a valid allocation
            return
        found.setdefault(tuple(round(b, 12) for b in candidate), alloc)

    # depth-first with sum pruning: partial sums above 1 (or unable to reach 1)
    # can never satisfy the sum constraint; axes ascend, so a value at or
    # above its predecessor ends the loop
    suffix_max = [0.0] * (m_users + 1)
    for i in range(m_users - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + max(axes[i])

    def enumerate_axes(depth, prefix, partial):
        if depth == m_users:
            visit(prefix)
            return
        for v in axes[depth]:
            new_sum = partial + v
            if new_sum > 1.0 + tol or (depth and v >= prefix[-1]):
                break
            if new_sum + suffix_max[depth + 1] < 1.0 - tol:
                continue
            enumerate_axes(depth + 1, prefix + (v,), new_sum)

    enumerate_axes(0, (), 0.0)
    if beta_prev is not None:
        visit(beta_prev.beta)
    return [found[key] for key in sorted(found)]


def evaluate_candidates(candidates, objective) -> PowerAllocation:
    """Argmin over candidate allocations of a vector objective, which maps the
    list of candidates to one score per candidate in one call.

    Ties on the objective break toward the lexicographically smallest beta,
    so the winner is independent of evaluation order.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate set")
    scores = list(objective(candidates))
    if len(scores) != len(candidates):
        raise ValueError("the objective must score every candidate")
    best = min(zip(scores, (c.beta for c in candidates), candidates), key=lambda s: s[:2])
    return best[2]


def _fewest_elements(outage, delta: float, hi: int):
    """Smallest n in [0, hi] with outage(n) < delta, by bisection.

    outage must be nonincreasing in n from n = 1; n = 0 may lie on either
    side of n = 1 and is settled as the bisection settles it.  Returns
    (n, None), or (hi, outage(hi)) when even hi elements leave the outage at
    or above delta.  Costs 2 outage evaluations when one element meets delta
    (every larger count then does too, so only n = 0 is open), otherwise
    ceil(log2(hi + 1)) + 2 at most.
    """
    if hi >= 1 and outage(1) < delta:
        return (0 if outage(0) < delta else 1), None
    out_hi = outage(hi)
    if out_hi >= delta:
        return hi, out_hi
    lo = -1  # below every count: treated as failing delta
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outage(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi, None


def ruom(model: OutageModel, params: RuomParams) -> RuomResult:
    """Run the bilevel outage-minimization loop over a resolved scenario.

    The fairness loop restarts from a global grid each iteration; element
    counts persist across outer iterations and cap what the other ranks on
    the same RIS may take.
    """
    m_users = model.m_users
    rates = model.rates
    caps = {link.ris: link.max_ris_elements for link in model.links}
    n_per_rank = [0] * m_users
    trace = RuomTrace()
    beta_prev = None
    beta_t = None
    converged = False
    # the candidates of a level depend only on (incumbent, resolution), and
    # later iterations revisit most levels of earlier ones
    levels = {}

    for t in range(1, params.max_iter + 1):
        # --- fairness: progressive grid search on beta ---
        eps_sr = params.eps_in
        beta_t = None
        while eps_sr > params.eps_ac:
            candidates = levels.get((beta_t, eps_sr))
            if candidates is None:
                candidates = levels[beta_t, eps_sr] = pgs(beta_t, eps_sr, rates, m_users)
            if not candidates and beta_t is None:
                # the coarsest global grid is infeasible; finer global grids
                # are combinatorially explosive, so fail fast per contract
                raise NoFeasibleAllocationError(
                    f"no feasible power vector at resolution {eps_sr:g} "
                    f"for M={m_users}, rates={rates}"
                )
            if candidates:
                beta_t = evaluate_candidates(
                    candidates,
                    lambda cs: [max(o) for o in model.batch_outages(cs, n_per_rank)],
                )
            eps_sr *= params.lam

        # --- efficiency: fewest elements per rank that meet delta ---
        for m in range(1, m_users + 1):
            idx = m - 1
            ris_k = model.links[idx].ris
            others = sum(
                n_per_rank[i] for i in range(m_users) if i != idx and model.links[i].ris == ris_k
            )
            n_per_rank[idx], out_m = _fewest_elements(
                lambda n: model.outage(m, beta_t, n), params.delta, caps[ris_k] - others
            )
            if out_m is not None:
                trace.events.append(
                    RisCapacityExhausted(iteration=t, rank=m, ris=ris_k, outage=out_m)
                )

        outs = model.outages(beta_t, n_per_rank)
        trace.iterations.append(
            RuomIteration(
                t=t,
                beta=beta_t.beta,
                n_per_rank=tuple(n_per_rank),
                outages=tuple(outs),
                max_outage=max(outs),
                total_elements=sum(n_per_rank),
            )
        )

        if beta_prev is not None:
            delta_beta = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(beta_t.beta, beta_prev.beta))
            )
            if delta_beta < params.eps_conv:
                converged = True
                break
        beta_prev = beta_t

    return RuomResult(
        beta_star=beta_t,
        trace=trace,
        converged=converged,
        iterations=len(trace.iterations),
    )
