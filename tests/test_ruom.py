"""Bilevel optimizer tests: PGS enumeration oracles, determinism, RUOM behavior."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from risnoma import channels, expcli, ruom as ruom_module
from risnoma.channels import resolve_links
from risnoma.environment import EnvironmentParams, ScenarioConfig, generate_scenario
from risnoma.noma import OutageModel, PowerAllocation
from risnoma.ruom import (
    NoFeasibleAllocationError,
    RisCapacityExhausted,
    RuomIteration,
    RuomParams,
    RuomResult,
    RuomTrace,
    _fewest_elements,
    evaluate_candidates,
    pgs,
    ruom,
)


def brute_force_pgs(beta_prev, eps_sr, rates, m_users):
    """Reference enumeration: full Cartesian product over the grid, both
    constraints checked directly from their definitions."""
    ticks = [k * eps_sr for k in range(int(math.floor(1.0 / eps_sr + 1e-9)) + 1)]
    if not any(abs(t - 1.0) <= 1e-12 for t in ticks):
        ticks.append(1.0)
    if beta_prev is not None:
        axes = [
            [t for t in ticks if b - eps_sr - 1e-12 <= t <= b + eps_sr + 1e-12]
            for b in beta_prev.beta
        ]
    else:
        axes = [ticks] * m_users
    out = set()
    for cand in itertools.product(*axes):
        if abs(math.fsum(cand) - 1.0) > 1e-9 * m_users:
            continue
        ok = True
        for j in range(m_users):
            phi = 2.0 ** rates[j] - 1.0
            if not phi * math.fsum(cand[j + 1:]) < cand[j]:
                ok = False
                break
        if not ok:
            continue
        try:
            out.add(PowerAllocation(cand).beta)
        except ValueError:
            continue
    if beta_prev is not None:
        out.add(beta_prev.beta)
    return out


def _round12(betas):
    """Float-equality key for set comparison: the two enumerations generate
    grid points with different arithmetic (k*eps vs incumbent literals)."""
    return {tuple(round(b, 12) for b in beta) for beta in betas}


def _model(n_uavs=3, tx_power_dbm=30.0, seed=7, rates=1.0, shapes=(1.0, 2.0), **scenario):
    """Composite-link model of one drop; shapes=None keeps the LoS-fitted
    Nakagami shapes, otherwise (m_direct, m_hops) pins them."""
    env = EnvironmentParams()
    scen = generate_scenario(
        ScenarioConfig(n_uavs=n_uavs, tx_power_dbm=tx_power_dbm, **scenario), seed
    )
    m_direct, m_hops = shapes or (None, None)
    links = resolve_links(env, scen, m_direct=m_direct, m_hops=m_hops)
    return OutageModel(links, (rates,) * n_uavs, link_type="composite")


def ruom_walk(model, params):
    """Reference RUOM whose efficiency stage walks each rank's element count
    one step at a time: down while the outage stays below delta, then up
    until it does or the RIS is full.  The fairness stage is ruom's own."""
    m_users = model.m_users
    caps = {link.ris: link.max_ris_elements for link in model.links}
    n_per_rank = [0] * m_users
    trace = RuomTrace()
    beta_prev, converged = None, False

    def shared_elements(ris_k):
        return sum(n_per_rank[i] for i in range(m_users) if model.links[i].ris == ris_k)

    for t in range(1, params.max_iter + 1):
        eps_sr, beta_t = params.eps_in, None
        while eps_sr > params.eps_ac:
            candidates = pgs(beta_t, eps_sr, model.rates, m_users)
            if not candidates and beta_t is None:
                raise NoFeasibleAllocationError("coarsest global grid infeasible")
            if candidates:
                # one scalar outages() call per candidate: the batch's oracle
                beta_t = evaluate_candidates(
                    candidates, lambda cs: [max(model.outages(b, n_per_rank)) for b in cs]
                )
            eps_sr *= params.lam
        for m in range(1, m_users + 1):
            idx, ris_k = m - 1, model.links[m - 1].ris
            while n_per_rank[idx] >= 1 and model.outage(m, beta_t, n_per_rank[idx]) < params.delta:
                n_per_rank[idx] -= 1
            while True:
                out_m = model.outage(m, beta_t, n_per_rank[idx])
                if out_m < params.delta:
                    break
                if shared_elements(ris_k) >= caps[ris_k]:
                    trace.events.append(RisCapacityExhausted(t, m, ris_k, out_m))
                    break
                n_per_rank[idx] += 1
        outs = model.outages(beta_t, n_per_rank)
        trace.iterations.append(
            RuomIteration(t, beta_t.beta, tuple(n_per_rank), tuple(outs), max(outs), sum(n_per_rank))
        )
        if beta_prev is not None:
            if math.sqrt(sum((a - b) ** 2 for a, b in zip(beta_t.beta, beta_prev.beta))) < params.eps_conv:
                converged = True
                break
        beta_prev = beta_t
    return RuomResult(beta_t, trace, converged, len(trace.iterations))


# (n_uavs, tx_power_dbm, rate in bpc, drop seed, fading shapes or None for LoS fit)
WALK_PARITY_CASES = [
    (4, 30.0, 0.5, 1, (1.0, 2.0)),  # rank 2 trims 60 -> 58 -> 57 across iterations
    (4, 30.0, 0.5, 3, None),  # rank 1 fills its RIS and misses delta
    (3, 24.0, 1.0, 7, None),  # trims across five iterations and fills a RIS
    (3, 30.0, 1.0, 4, (1.0, 2.0)),  # trims 956 -> 675 over nine iterations
    (3, 28.0, 1.0, 4, (1.0, 2.0)),  # grows 858 -> 886 across iterations
    (2, 24.0, 1.0, 5, None),  # two UAVs: rank 2 trims 253 -> 246
    (3, 30.0, 1.0, 6, None),  # direct links alone meet delta
]


class TestPgs:
    def test_global_half_grid_empty(self):
        assert pgs(None, 0.5, (1.0, 1.0), 2) == []

    def test_global_quarter_grid_singleton(self):
        result = pgs(None, 0.25, (1.0, 1.0), 2)
        assert [a.beta for a in result] == [(0.75, 0.25)]

    def test_local_box_includes_incumbent(self):
        inc = PowerAllocation((0.75, 0.25))
        result = pgs(inc, 0.25, (1.0, 1.0), 2)
        assert inc.beta in [a.beta for a in result]

    @pytest.mark.parametrize("m_users", [2, 3])
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_matches_exhaustive_enumeration_global(self, m_users, eps):
        rates = (1.0,) * m_users
        got = _round12(a.beta for a in pgs(None, eps, rates, m_users))
        assert got == _round12(brute_force_pgs(None, eps, rates, m_users))

    def test_matches_exhaustive_enumeration_local(self):
        inc = PowerAllocation((0.7, 0.2, 0.1))
        rates = (1.0, 1.0, 1.0)
        got = _round12(a.beta for a in pgs(inc, 0.1, rates, 3))
        assert got == _round12(brute_force_pgs(inc, 0.1, rates, 3))

    def test_outputs_satisfy_constraints(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m_users = int(rng.integers(2, 4))
            eps = float(rng.choice([0.5, 0.25, 0.2, 0.1]))
            rates = tuple(float(rng.uniform(0.5, 1.5)) for _ in range(m_users))
            for alloc in pgs(None, eps, rates, m_users):
                assert abs(math.fsum(alloc.beta) - 1.0) <= 1e-9 * m_users
                for j in range(m_users):
                    phi = 2.0 ** rates[j] - 1.0
                    assert phi * math.fsum(alloc.beta[j + 1:]) < alloc.beta[j]

    def test_lexicographic_order(self):
        result = [a.beta for a in pgs(None, 0.1, (1.0, 1.0, 1.0), 3)]
        assert result == sorted(result)

    def test_domain(self):
        with pytest.raises(ValueError):
            pgs(None, 0.0, (1.0,), 1)


class TestEvaluateCandidates:
    def test_singleton(self):
        only = PowerAllocation((0.75, 0.25))
        assert evaluate_candidates([only], lambda cs: [0.3]) is only

    def test_dominant_wins(self):
        a = PowerAllocation((0.75, 0.25))
        b = PowerAllocation((0.8, 0.2))
        scores = {a.beta: 0.2, b.beta: 0.5}
        assert evaluate_candidates([b, a], lambda cs: [scores[x.beta] for x in cs]) is a

    def test_tie_breaks_lexicographic(self):
        a = PowerAllocation((0.7, 0.3))
        b = PowerAllocation((0.8, 0.2))
        winner = evaluate_candidates([b, a], lambda cs: [1.0] * len(cs))
        assert winner.beta == (0.7, 0.3)

    def test_objective_called_once_on_all_candidates(self):
        a = PowerAllocation((0.7, 0.3))
        b = PowerAllocation((0.8, 0.2))
        seen = []
        evaluate_candidates([b, a], lambda cs: seen.append(list(cs)) or [0.5, 0.5])
        assert seen == [[b, a]]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_candidates([], lambda cs: [])

    def test_short_score_vector_rejected(self):
        with pytest.raises(ValueError):
            evaluate_candidates([PowerAllocation((0.7, 0.3))], lambda cs: [])


class TestRuom:
    def test_single_uav_degenerate(self):
        model = _model(n_uavs=1, tx_power_dbm=37.0)
        res = ruom(model, RuomParams(lam=0.1, delta=1e-3))
        assert res.beta_star.beta == (1.0,)
        assert res.trace.iterations[-1].total_elements == 0
        assert res.converged and res.iterations == 2

    def test_three_uav_fixed_seed_properties(self):
        model = _model()
        params = RuomParams(lam=0.1, delta=1e-3)
        res = ruom(model, params)
        assert res.converged and res.iterations <= params.max_iter
        final = res.trace.iterations[-1]
        assert final.max_outage < params.delta
        assert final.total_elements <= res.trace.iterations[0].total_elements
        assert all(x > y for x, y in zip(final.beta, final.beta[1:]))
        # nondegenerate: the efficiency stage actually assigned elements
        assert final.total_elements > 0

    def test_local_optimality_of_elements(self):
        model = _model()
        params = RuomParams(lam=0.1, delta=1e-3)
        res = ruom(model, params)
        final = res.trace.iterations[-1]
        for rank in range(1, model.m_users + 1):
            n = final.n_per_rank[rank - 1]
            assert model.outage(rank, res.beta_star, n) < params.delta
            if n > 0:
                assert model.outage(rank, res.beta_star, n - 1) >= params.delta

    def test_refinement_monotone_within_iteration(self):
        # replicate the fairness loop: best max-outage never increases as the
        # grid refines, because the incumbent is always in the candidate set
        model = _model()
        n_per_rank = [0, 0, 0]
        obj = lambda b: max(model.outages(b, n_per_rank))
        eps, beta_t, scores = 1e-1, None, []
        while eps > 1e-4:
            cands = pgs(beta_t, eps, model.rates, model.m_users)
            if cands:
                beta_t = evaluate_candidates(cands, lambda cs: [obj(b) for b in cs])
                scores.append(obj(beta_t))
            eps *= 0.1
        assert all(x >= y - 1e-15 for x, y in zip(scores, scores[1:]))

    def test_trace_iterations_strictly_increasing(self):
        res = ruom(_model(tx_power_dbm=28.0), RuomParams(lam=0.1, delta=1e-3))
        ts = [rec.t for rec in res.trace.iterations]
        assert ts == sorted(set(ts))

    def test_infeasible_rates_raise(self):
        model = _model(n_uavs=3, rates=5.0)
        with pytest.raises(NoFeasibleAllocationError):
            ruom(model, RuomParams(lam=0.1, delta=1e-3))

    def test_capacity_exhaustion_recorded(self):
        env = EnvironmentParams()
        scen = generate_scenario(
            ScenarioConfig(tx_power_dbm=12.0, max_ris_elements=8), 7
        )
        links = resolve_links(env, scen, m_direct=1.0, m_hops=2.0)
        model = OutageModel(links, (1.0, 1.0, 1.0), link_type="composite")
        res = ruom(model, RuomParams(lam=0.1, delta=1e-3, max_iter=3))
        assert res.trace.events
        ev = res.trace.events[0]
        assert ev.outage >= 1e-3 and ev.rank >= 1
        # the ranks on one RIS share its 8 elements: their final counts never
        # sum past that cap
        final = res.trace.iterations[-1].n_per_rank
        for ris_k in {link.ris for link in links}:
            assert sum(n for n, link in zip(final, links) if link.ris == ris_k) <= 8

    @pytest.mark.parametrize("n_uavs,tx_power_dbm,rate,seed,shapes", WALK_PARITY_CASES)
    def test_bisection_matches_walk(self, n_uavs, tx_power_dbm, rate, seed, shapes):
        kwargs = dict(n_uavs=n_uavs, tx_power_dbm=tx_power_dbm, seed=seed, rates=rate, shapes=shapes)
        params = RuomParams()
        assert ruom(_model(**kwargs), params) == ruom_walk(_model(**kwargs), params)

    def test_one_element_settles_rank_in_two_calls(self, monkeypatch):
        # direct links alone meet delta on this drop (the last WALK_PARITY_CASES
        # entry): each rank's search scores N = 1, then N = 0, and stops; a
        # bisection from the cap takes 11 calls
        searches = []

        def logged(outage, delta, hi):
            calls = []
            searches.append(calls)

            def scored(n):
                calls.append(n)
                return outage(n)
            return _fewest_elements(scored, delta, hi)

        monkeypatch.setattr(ruom_module, "_fewest_elements", logged)
        model = _model(n_uavs=3, tx_power_dbm=30.0, seed=6, rates=1.0, shapes=None)
        res = ruom(model, RuomParams())
        assert len(searches) == res.iterations * model.m_users
        assert searches == [[1, 0]] * len(searches)

    def test_capacity_exhausted_rank_takes_what_is_left(self):
        # three UAVs share one 8-element RIS at 20 dBm: rank 1 takes all 8
        # and still misses delta, which leaves ranks 2 and 3 none
        kwargs = dict(tx_power_dbm=20.0, seed=4, n_ris=1, max_ris_elements=8)
        model = _model(**kwargs)
        res = ruom(model, RuomParams())
        assert res == ruom_walk(_model(**kwargs), RuomParams())
        assert [rec.n_per_rank for rec in res.trace.iterations] == [(8, 0, 0)] * 2
        events = {(ev.iteration, ev.rank): ev for ev in res.trace.events}
        assert sorted(events) == [(t, m) for t in (1, 2) for m in (1, 2, 3)]
        for rec in res.trace.iterations:
            for m in (1, 2, 3):
                ev = events[rec.t, m]
                assert ev.ris == 0
                assert ev.outage == model.outage(m, PowerAllocation(rec.beta), rec.n_per_rank[m - 1])
                assert ev.outage >= 1e-3

    def test_efficiency_stage_outage_calls_logarithmic(self, monkeypatch):
        # the walk takes one outage call per element: 800+ here
        model = _model(n_uavs=4, rates=0.5, seed=1)
        log, in_outages = [], []
        outage, outages, batch = OutageModel.outage, OutageModel.outages, OutageModel.batch_outages

        def counted_outage(self, *args):
            if not in_outages:
                log.append("o")
            return outage(self, *args)

        def marked(method):
            def call(self, *args):
                log.append("|")
                in_outages.append(True)
                try:
                    return method(self, *args)
                finally:
                    in_outages.pop()
            return call

        monkeypatch.setattr(OutageModel, "outage", counted_outage)
        monkeypatch.setattr(OutageModel, "outages", marked(outages))
        monkeypatch.setattr(OutageModel, "batch_outages", marked(batch))
        res = ruom(model, RuomParams())
        # fairness calls go through batch_outages() and each iteration ends
        # with one outages(); an efficiency stage is a run of direct outage()
        # calls between two of them
        stages = [len(run) for run in "".join(log).split("|") if run]
        assert len(stages) == res.iterations
        cap = max(link.max_ris_elements for link in model.links)
        assert res.trace.iterations[-1].total_elements > 500
        assert max(stages) <= model.m_users * (math.ceil(math.log2(cap + 1)) + 1)

    def test_each_distinct_outage_scored_once(self, monkeypatch):
        # beta enters an outage only through the rank's binding SIC threshold,
        # so one solve evaluates each (rank, N, threshold) once; the model holds
        # one Link per (rank, N), so (link, gamma) names the key.  A call may
        # pass many pairs: each pair counts as one evaluation
        model = _model(n_uavs=4, rates=0.5, seed=1)
        calls = []
        cdfs = channels.link_cdfs

        def counted_cdfs(links, gammas):
            calls.extend((id(link), g) for link, g in zip(links, gammas))
            return cdfs(links, gammas)

        monkeypatch.setattr(channels, "link_cdfs", counted_cdfs)
        ruom(model, RuomParams())
        assert calls
        assert len(calls) == len(set(calls))

    def test_brute_force_minimax(self):
        # converged max-outage is no worse than the best coarse-grid vector
        model = _model(n_uavs=2, tx_power_dbm=24.0)
        params = RuomParams(lam=0.1, delta=1e-3)
        res = ruom(model, params)
        final = res.trace.iterations[-1]
        n_final = list(final.n_per_rank)
        best = math.inf
        for b1 in np.arange(0.51, 1.0, 0.001):
            b1 = round(float(b1), 3)
            cand = (b1, round(1.0 - b1, 3))
            try:
                alloc = PowerAllocation(cand)
                val = max(model.outages(alloc, n_final))
            except ValueError:
                continue
            best = min(best, val)
        assert max(model.outages(res.beta_star, n_final)) <= best + 1e-6


def bisection_reference(outage, delta, hi):
    """The efficiency stage's search before its one-element shortcut: plain
    bisection from the cap."""
    out_hi = outage(hi)
    if out_hi >= delta:
        return hi, out_hi
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outage(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi, None


@pytest.mark.bits
def test_fewest_elements_matches_bisection_exhaustively():
    # every cap up to 128, every outage that passes delta from some first
    # count k in [1, hi] on (k = hi + 1: none in [1, hi] passes), and either
    # verdict at N = 0, which the m3 snap may put on either side of N = 1
    delta, cases = 0.5, 0
    for hi in range(129):
        bound = math.ceil(math.log2(hi + 1)) + 2
        for k, zero_passes in itertools.product(range(1, hi + 2), (False, True)):
            calls = []

            def outage(n):
                calls.append(n)
                passes = zero_passes if n == 0 else n >= k
                return 0.25 if passes else 0.75 + n  # failing values tell n apart

            got = _fewest_elements(outage, delta, hi)
            assert len(calls) <= bound, (hi, k, zero_passes, calls)
            assert got == bisection_reference(outage, delta, hi), (hi, k, zero_passes)
            cases += 1
    assert cases == 16770


class TestRuomParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuomParams(lam=1.0)
        with pytest.raises(ValueError):
            RuomParams(eps_ac=0.5, eps_in=0.1)
        with pytest.raises(ValueError):
            RuomParams(delta=0.0)


# Final (beta, N, outages) of run_ruom_report on drops of the three optimize
# configs, as float.hex; the optimizer must reproduce them bit for bit.  The
# p24 drops and p30 drop 5 (two ranks with elements, a beta off the common
# winner on p24 drop 4) were recorded before the fairness stage scored its
# candidates in arrays.
GOLDEN_RUOM = {
    ("ruom-m3-r1-p30", 0): (
        ("0x1.6c16c1628b65bp-1", "0x1.82d82f009e8bbp-3", "0x1.999996ea67bd9p-4"),
        (1, 0, 0),
        ("0x1.6c6b1b1e0d3e5p-11", "0x1.2b2f27220921fp-32", "0x1.77a2a2aad0a7ap-139"),
    ),
    ("ruom-m3-r1-p30", 1): (
        ("0x1.6c16c1628b65bp-1", "0x1.82d82da9059d8p-3", "0x1.999999999999dp-4"),
        (288, 0, 0),
        ("0x1.04ddbe82d74bep-10", "0x1.97119d8d67340p-21", "0x1.cebeaac69e8d6p-70"),
    ),
    ("ruom-m3-r1-p30", 2): (
        ("0x1.6c16c1628b65bp-1", "0x1.82d82da9059d8p-3", "0x1.999999999999dp-4"),
        (213, 0, 0),
        ("0x1.038ed06ae5523p-10", "0x1.fb4a2e52d020bp-21", "0x1.7eef4bfedfe8ep-40"),
    ),
    ("ruom-m3-r1-p30", 5): (
        ("0x1.6c16c1628b65bp-1", "0x1.82d82da9059d8p-3", "0x1.999999999999dp-4"),
        (1024, 1, 0),
        ("0x1.fdb2812c1c66fp-8", "0x1.dc8f89fafe195p-11", "0x1.0ea36e1d879fcp-21"),
    ),
    ("ruom-m3-r1-p24", 2): (
        ("0x1.6c16c1628b65bp-1", "0x1.82d8b3e0c2a33p-3", "0x1.99988d2a1f8e7p-4"),
        (627, 0, 0),
        ("0x1.05abdccfc50c2p-10", "0x1.967b3671eddb2p-15", "0x1.6159df36d5855p-31"),
    ),
    ("ruom-m3-r1-p24", 4): (
        ("0x1.666666666666ap-1", "0x1.b05b058a2d962p-3", "0x1.6c16c1b871a13p-4"),
        (1024, 1024, 0),
        ("0x1.d8619f4f6b169p-10", "0x1.4093db7b7060ep-9", "0x1.9fe891c998c62p-15"),
    ),
    ("ruom-m4-r05-p30", 0): (
        ("0x1.a4fa4ee61720fp-2", "0x1.27d27d3ae9354p-2", "0x1.82d82f009e8bbp-3",
         "0x1.c71c717ac1927p-4"),
        (50, 0, 0, 0),
        ("0x1.05909fed98f2dp-10", "0x1.9fbd6841d0db8p-42", "0x1.817378eff3c28p-169",
         "0x1.e6838c8e38554p-237"),
    ),
    ("ruom-m4-r05-p30", 1): (
        ("0x1.a4fa4ee61720fp-2", "0x1.27d27d3ae9354p-2", "0x1.82d82f009e8bbp-3",
         "0x1.c71c717ac1927p-4"),
        (651, 0, 0, 0),
        ("0x1.03b28a6d0d14bp-10", "0x1.07664b50f90a3p-13", "0x1.16f04ca514aeep-35",
         "0x1.eb74be168c4afp-113"),
    ),
    ("ruom-m4-r05-p30", 2): (
        ("0x1.a4fa4ee61720fp-2", "0x1.27d27d3ae9354p-2", "0x1.82d82f009e8bbp-3",
         "0x1.c71c717ac1927p-4"),
        (1024, 0, 0, 0),
        ("0x1.40c460299f536p-8", "0x1.ee669461f794fp-32", "0x1.5c0c22980ae62p-53",
         "0x1.5ec786cb26c97p-108"),
    ),
}
BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


@pytest.mark.bits
@pytest.mark.parametrize("config, drop", sorted(GOLDEN_RUOM), ids=lambda v: str(v))
def test_ruom_report_golden_floats(tmp_path, recorded_stack, config, drop):
    cfg = expcli.load_config(BENCH_CONFIGS / f"{config}.yaml")
    (final,) = expcli.run_ruom_report(cfg, drop, tmp_path).values()
    got = (
        tuple(float(b).hex() for b in final["final_beta"]),
        tuple(final["final_n"]),
        tuple(float(o).hex() for o in final["final_outages"]),
    )
    assert got == GOLDEN_RUOM[config, drop], recorded_stack


def pgs_before_one_pass(beta_prev, eps_sr, rates, m_users):
    """pgs as it stood before it checked each grid point once: every leaf
    re-checks the sum rule, every allocation is keyed by its 12-decimal
    rounding, the incumbent is rebuilt, and the keys are sorted.  Kept
    verbatim as the oracle of the allocations pgs returns and their order."""
    if not 0.0 < eps_sr <= 1.0:
        raise ValueError("eps_sr must lie in (0, 1]")
    if beta_prev is None:
        axes = [ruom_module._axis_values(eps_sr, 0.0, 1.0)] * m_users
    else:
        if beta_prev.m_users != m_users:
            raise ValueError("incumbent dimension mismatch")
        axes = [
            ruom_module._axis_values(eps_sr, max(0.0, b - eps_sr), min(1.0, b + eps_sr))
            for b in beta_prev.beta
        ]

    found = {}
    tol = 1e-9 * m_users
    phis = [2.0 ** float(r) - 1.0 for r in rates]

    def sic_margins(beta):
        for j in range(m_users):
            yield phis[j], beta[j] - phis[j] * math.fsum(beta[j + 1:])

    def visit(candidate):
        if abs(math.fsum(candidate) - 1.0) > tol:
            return
        if not all(margin > 0.0 for _, margin in sic_margins(candidate)):
            return
        try:
            alloc = PowerAllocation(candidate)
        except ValueError:
            return
        found.setdefault(tuple(round(b, 12) for b in candidate), alloc)

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


PGS_EPS = (0.5, 0.25, 0.1, 1e-2, 1e-4, 1e-8)


def _hex_betas(allocs):
    return [tuple(b.hex() for b in a.beta) for a in allocs]


@pytest.fixture(scope="module")
def golden_pgs_calls(tmp_path_factory):
    """Every (incumbent, resolution, rates, M) with which run_ruom_report on
    the GOLDEN_RUOM drops calls pgs."""
    calls, counted = [], ruom_module.pgs

    def recording(*args):
        calls.append(args)
        return counted(*args)

    ruom_module.pgs = recording
    try:
        for config, drop in sorted(GOLDEN_RUOM):
            cfg = expcli.load_config(BENCH_CONFIGS / f"{config}.yaml")
            expcli.run_ruom_report(cfg, drop, tmp_path_factory.mktemp("golden"))
    finally:
        ruom_module.pgs = counted
    return calls


@pytest.mark.bits
def test_pgs_equals_its_former_self_on_the_golden_traces(golden_pgs_calls):
    # each call the golden solves make, and each incumbent they visit at
    # every resolution: the same allocations, bit for bit, in the same order
    incumbents = {}
    for beta_prev, eps_sr, rates, m_users in golden_pgs_calls:
        assert _hex_betas(pgs(beta_prev, eps_sr, rates, m_users)) == _hex_betas(
            pgs_before_one_pass(beta_prev, eps_sr, rates, m_users))
        if beta_prev is not None:
            incumbents[beta_prev, rates] = m_users
    assert {m for m in incumbents.values()} == {3, 4}
    for (beta_prev, rates), m_users in incumbents.items():
        for eps_sr in PGS_EPS:
            assert _hex_betas(pgs(beta_prev, eps_sr, rates, m_users)) == _hex_betas(
                pgs_before_one_pass(beta_prev, eps_sr, rates, m_users)), (beta_prev, eps_sr)


def _sic_incumbents(m_users, rate, count=4, seed=0):
    """Allocations SIC decodes at `rate`: geometric ones with random shrink
    factors, each as drawn and rounded to three decimals."""
    rng = np.random.default_rng(seed)
    phi = 2.0 ** rate - 1.0
    out = []
    while len(out) < 2 * count:
        ratios = rng.uniform(0.3, 0.9, m_users) / (1.0 + phi)
        raw = np.cumprod(np.concatenate([[1.0], ratios[:-1]]))
        drawn = [float(b) for b in raw / raw.sum()]
        rounded = [round(b, 3) for b in drawn[:-1]]
        for beta in (drawn, rounded + [1.0 - math.fsum(rounded)]):
            try:
                alloc = PowerAllocation(beta)
            except ValueError:
                continue
            if all(phi * math.fsum(alloc.beta[j + 1:]) < alloc.beta[j] for j in range(m_users)):
                out.append(alloc)
    return out


@pytest.mark.bits
@pytest.mark.parametrize("rate", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("m_users", [1, 2, 3, 4, 5])
def test_pgs_equals_its_former_self(m_users, rate):
    # the global grid wherever it is small enough to walk, then its points
    # and some off-grid allocations as incumbents at every resolution, down
    # to steps finer than the 12-decimal key
    rates = (rate,) * m_users
    global_eps = [eps for eps in PGS_EPS if eps >= 0.1 or (eps >= 1e-2 and m_users <= 3)
                  or (eps >= 1e-4 and m_users == 1)]
    for eps_sr in global_eps:
        assert _hex_betas(pgs(None, eps_sr, rates, m_users)) == _hex_betas(
            pgs_before_one_pass(None, eps_sr, rates, m_users)), eps_sr
    incumbents = pgs(None, global_eps[-1], rates, m_users)[:8] + _sic_incumbents(m_users, rate)
    for beta_prev in incumbents:
        for eps_sr in PGS_EPS + (1e-13,):
            assert _hex_betas(pgs(beta_prev, eps_sr, rates, m_users)) == _hex_betas(
                pgs_before_one_pass(beta_prev, eps_sr, rates, m_users)), (beta_prev, eps_sr)
