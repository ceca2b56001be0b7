"""Acceptance gate: the nine end-to-end criteria, one test each.

Every test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and asserts the criterion at its stated
tolerance.  Tolerances here are contractual; do not loosen them.
"""

import itertools
import math
import time

import numpy as np

from risnoma.channels import (
    NakagamiParams,
    composite_snr_cdf_closed,
    composite_snr_cdf_quadrature,
    direct_snr_cdf,
    resolve_links,
    ris_snr_cdf,
)
from risnoma.environment import EnvironmentParams, ScenarioConfig, generate_scenario
from risnoma.expcli import EXIT_OK, main
from risnoma.noma import OutageModel, PowerAllocation, ordered_cdf
from risnoma.ruom import RuomParams, pgs, ruom
from risnoma.sim_oracle import McConfig, batch_rng, mc_noma_outage, mc_snr_cdf

SEED = 7
ENV = EnvironmentParams()


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def _links(tx_power_dbm=37.0, m_direct=1.5, m_hops=2.0):
    scen = generate_scenario(ScenarioConfig(tx_power_dbm=tx_power_dbm), SEED)
    return resolve_links(ENV, scen, m_direct=m_direct, m_hops=m_hops)


def test_criterion_1_ris_cdf_fidelity():
    """Eq. (6) CDF vs 1e6-trial MC, m1=m2=2, N in {16, 64}, <= 0.01, < 60 s."""
    link = _links()[0]  # mid-cell UAV geometry fixes gamma_bar_r
    gbar = link.gamma_bar_r
    start = time.monotonic()
    worst = 0.0
    for n in (16, 64):
        ris = link.link("ris", n)
        fit = ris.fit
        peak = gbar * fit.mean_sum**2
        grid = np.linspace(peak * 1e-3, peak * 3.0, 100)
        [mc] = mc_snr_cdf([ris], [grid], McConfig(trials=1_000_000, seed=1001))
        gap = float(np.max(np.abs(ris_snr_cdf(fit, gbar, grid) - mc.values)))
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    _report(1, "RIS CDF fidelity", worst <= 0.01 and elapsed < 60.0,
            f"max gap {worst:.4f} (tol 0.01), runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_2_composite_closed_form():
    """Eq. (1) vs quadrature <= 1e-3; quadrature vs MC <= 0.01; branch crossed."""
    link = _links()[0]  # m3 pinned to 1.5: the closed form's rounding is exact
    fit = link.laguerre(64)
    budget = link.budget()
    direct = link.direct_fading
    branch_gamma = link.gamma_bar_r * fit.mean_sum**2
    amp_mean = budget.amp_ris * fit.mean_sum + budget.amp_direct
    grid = np.unique(np.concatenate([
        np.linspace(0.2, 2.0, 10) * branch_gamma,
        np.linspace(0.02, 3.5, 50) * budget.gamma_bar_c * amp_mean**2,
    ]))
    crossed = grid.min() < branch_gamma < grid.max()
    quad = composite_snr_cdf_quadrature(fit, direct, budget, grid)
    closed = np.array([composite_snr_cdf_closed(fit, direct, budget, g) for g in grid])
    gap_cq = float(np.max(np.abs(closed - quad)))
    [mc] = mc_snr_cdf([link.link("composite", 64)], [grid],
                      McConfig(trials=1_000_000, seed=1002))
    gap_qm = float(np.max(np.abs(quad - mc.values)))
    _report(2, "composite closed form",
            gap_cq <= 1e-3 and gap_qm <= 0.01 and crossed,
            f"closed-vs-quadrature {gap_cq:.2e} (tol 1e-3), "
            f"quadrature-vs-MC {gap_qm:.4f} (tol 0.01), branch crossed: {crossed}")


def test_criterion_3_rayleigh_special_case():
    """m3=1 direct CDF equals 1 - exp(-gamma/(Omega gamma_bar_d)) to 1e-12."""
    p = NakagamiParams(m=1.0, omega=1.3)
    worst = 0.0
    for gbar in (0.3, 10.0, 2.5e3):
        for g in np.geomspace(1e-3, 30.0, 40) * gbar:
            exact = 1.0 - math.exp(-g / (p.omega * gbar))
            worst = max(worst, abs(direct_snr_cdf(p, gbar, g) - exact))
    _report(3, "Rayleigh special case", worst <= 1e-12,
            f"max |gap| {worst:.2e} (tol 1e-12)")


def test_criterion_4_order_statistics():
    """Formula vs sorting MC (1e6) <= 0.005; averaging identity to 1e-12."""
    rng = batch_rng(1004, 0)
    draws = np.sort(rng.random((3, 1_000_000)), axis=0)
    worst_mc = 0.0
    for m in (1, 2, 3):
        for f in (0.1, 0.3, 0.5, 0.7, 0.9):
            emp = float(np.mean(draws[m - 1] <= f))
            worst_mc = max(worst_mc, abs(ordered_cdf(f, m, 3) - emp))
    worst_id = 0.0
    for f in np.linspace(0.0, 1.0, 21):
        avg = sum(ordered_cdf(float(f), m, 3) for m in (1, 2, 3)) / 3.0
        worst_id = max(worst_id, abs(avg - float(f)))
    _report(4, "order statistics", worst_mc <= 0.005 and worst_id <= 1e-12,
            f"formula-vs-MC {worst_mc:.4f} (tol 0.005), identity {worst_id:.2e} (tol 1e-12)")


def test_criterion_5_noma_outage_cross_check():
    """Analytic Eq. (15) vs event MC <= 0.01 where outage >= 1e-2, all link types."""
    rates = (1.0, 1.0, 1.0)
    alloc = PowerAllocation((0.7, 0.2, 0.1))
    # operating points chosen so each link type has ranks with visible outage
    cases = [
        ("direct", 20.0, 0, McConfig(trials=1_000_000, seed=1005)),
        ("composite", 20.0, 16, McConfig(trials=400_000, seed=1006)),
        ("ris", 37.0, 530, McConfig(trials=100_000, seed=1007)),
    ]
    worst, checked = 0.0, 0
    for link_type, ptx, n, cfg in cases:
        links = _links(tx_power_dbm=ptx, m_direct=1.0)
        model = OutageModel(links, rates, link_type=link_type)
        analytic = model.outages(alloc, [n] * 3)
        [ests] = mc_noma_outage([([model.link(rank, n) for rank in (1, 2, 3)], alloc, rates)], cfg)
        assert any(a >= 1e-2 for a in analytic), f"no visible outage for {link_type}"
        for a_val, est in zip(analytic, ests):
            if a_val >= 1e-2:
                worst = max(worst, abs(a_val - est.value) - est.halfwidth)
                checked += 1
    _report(5, "NOMA outage cross-check", worst <= 0.01 and checked >= 3,
            f"worst |analytic-MC|-halfwidth {worst:.4f} (tol 0.01) over {checked} points")


def test_criterion_6_figure_trends(tmp_path):
    """Fig. 2-4 trends on a fixed-seed Table-I scenario; composite N=0 == direct."""
    # m_direct pinned to a half-integer so the closed-form composite path is
    # exact in m3; otherwise its rounding (measured elsewhere) injects a
    # ~2e-3 step at N=0 that is not a property of the model itself
    base = (
        "seed: 7\n"
        "channel:\n  m_direct: 1.5\n"
        "sweep:\n  variable: {var}\n  grid: {grid}\n  fixed_n_elements: 64\n"
    )
    runs = {
        "links": ("n_elements", "[0, 1, 4, 16, 64, 256, 1024]", "sweep-links",
                  "sweep_links.csv"),
        "power": ("tx_power_dbm", "[30.0, 32.0, 34.0, 36.0, 38.0, 40.0]", "sweep-power",
                  "sweep_power.csv"),
        "rate": ("target_rate", "[0.7, 0.9, 1.1, 1.3, 1.5]", "sweep-rate",
                 "sweep_rate.csv"),
    }
    import csv

    tables = {}
    for key, (var, grid, cmd, fname) in runs.items():
        cfg = tmp_path / f"{key}.yaml"
        cfg.write_text(base.format(var=var, grid=grid))
        out = tmp_path / key
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        with open(out / fname, newline="") as fh:
            tables[key] = list(csv.DictReader(fh))

    ok, notes = True, []
    # Fig. 2: nonincreasing in N for every (uav, link type) curve
    for uav in ("1", "2", "3"):
        for lt in ("direct", "ris", "composite"):
            curve = [float(r["outage_analytic"]) for r in tables["links"]
                     if r["uav"] == uav and r["link_type"] == lt]
            if not all(x >= y - 1e-12 for x, y in zip(curve, curve[1:])):
                ok, _ = False, notes.append(f"fig2 {uav}/{lt} not monotone")
    # composite N=0 equals direct exactly (identical formatted value)
    for uav in ("1", "2", "3"):
        d = [r["outage_analytic"] for r in tables["links"]
             if r["uav"] == uav and r["link_type"] == "direct" and r["sweep_value"] == "0"]
        c = [r["outage_analytic"] for r in tables["links"]
             if r["uav"] == uav and r["link_type"] == "composite" and r["sweep_value"] == "0"]
        if d != c:
            ok, _ = False, notes.append(f"N=0 mismatch uav {uav}")
    # Fig. 3: pointwise decreasing 30 -> 40 dBm
    for uav in ("1", "2", "3"):
        curve = [float(r["outage_analytic"]) for r in tables["power"] if r["uav"] == uav]
        if not all(x > y for x, y in zip(curve, curve[1:])):
            ok, _ = False, notes.append(f"fig3 uav {uav} not decreasing")
    # Fig. 4: pointwise increasing 0.7 -> 1.5 bpc
    for uav in ("1", "2", "3"):
        curve = [float(r["outage_analytic"]) for r in tables["rate"] if r["uav"] == uav]
        if not all(x < y for x, y in zip(curve, curve[1:])):
            ok, _ = False, notes.append(f"fig4 uav {uav} not increasing")
    _report(6, "figure trends", ok, "; ".join(notes) or "all trends hold")


def test_criterion_7_ruom_behavior():
    """Table II settings: converge <= 100 iters, outages < delta, N shrinks,
    beta ordered/feasible, per-UAV element count locally optimal."""
    links = _links(tx_power_dbm=30.0, m_direct=1.0)
    model = OutageModel(links, (1.0, 1.0, 1.0), link_type="composite")
    params = RuomParams(lam=0.1, delta=1e-3, eps_in=1e-1, eps_ac=1e-8, max_iter=100)
    res = ruom(model, params)
    final = res.trace.iterations[-1]
    checks = {
        "converged": res.converged and res.iterations <= 100,
        "outages<delta": final.max_outage < params.delta,
        "sumN(t*)<=sumN(1)": final.total_elements <= res.trace.iterations[0].total_elements,
        "beta decreasing": all(x > y for x, y in zip(final.beta, final.beta[1:])),
        "nondegenerate": final.total_elements > 0,
    }
    for rank in range(1, 4):
        n = final.n_per_rank[rank - 1]
        local = n == 0 or model.outage(rank, res.beta_star, n - 1) >= params.delta
        checks[f"local optimality rank {rank}"] = local
    ok = all(checks.values())
    _report(7, "RUOM behavior", ok,
            f"t*={res.iterations}, max outage {final.max_outage:.2e}, "
            f"N={final.n_per_rank}; " + (
                "all checks hold" if ok else
                "failed: " + ", ".join(k for k, v in checks.items() if not v)))


def test_criterion_8_pgs_oracle_equivalence():
    """PGS equals exhaustive full-grid enumeration: exact set equality."""
    def exhaustive(eps, m_users, rates):
        ticks = [k * eps for k in range(int(math.floor(1.0 / eps + 1e-9)) + 1)]
        if not any(abs(t - 1.0) <= 1e-12 for t in ticks):
            ticks.append(1.0)
        out = set()
        for cand in itertools.product(ticks, repeat=m_users):
            if abs(math.fsum(cand) - 1.0) > 1e-9 * m_users:
                continue
            if any(
                not (2.0 ** rates[j] - 1.0) * math.fsum(cand[j + 1:]) < cand[j]
                for j in range(m_users)
            ):
                continue
            try:
                PowerAllocation(cand)
            except ValueError:
                continue
            out.add(tuple(round(b, 12) for b in cand))
        return out

    ok, notes = True, []
    for m_users in (2, 3):
        rates = (1.0,) * m_users
        for eps in (0.5, 0.25, 0.1):
            got = {tuple(round(b, 12) for b in a.beta)
                   for a in pgs(None, eps, rates, m_users)}
            ref = exhaustive(eps, m_users, rates)
            if got != ref:
                ok = False
                notes.append(f"M={m_users} eps={eps}: {got ^ ref}")
    _report(8, "PGS oracle equivalence", ok, "; ".join(notes) or "exact set equality")


def test_criterion_9_determinism(tmp_path):
    """Every subcommand byte-identical across reruns."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "seed: 7\n"
        "scenario:\n  tx_power_dbm: 30.0\n"
        "channel:\n  m_direct: 1.0\n  m_hops: 2.0\n"
        "sweep:\n  variable: n_elements\n  grid: [0, 8, 32]\n  fixed_n_elements: 32\n"
        "ruom:\n  lambdas: [0.1]\n"
        "mc:\n  enabled: true\n  trials: 20000\n  seed: 5\n"
    )
    pcfg = tmp_path / "pcfg.yaml"
    pcfg.write_text(cfg.read_text().replace("variable: n_elements", "variable: tx_power_dbm")
                    .replace("grid: [0, 8, 32]", "grid: [30.0, 36.0]"))
    rcfg = tmp_path / "rcfg.yaml"
    rcfg.write_text(cfg.read_text().replace("variable: n_elements", "variable: target_rate")
                    .replace("grid: [0, 8, 32]", "grid: [0.8, 1.2]"))
    jobs = {
        "sweep-links": (cfg, "sweep_links.csv"),
        "sweep-power": (pcfg, "sweep_power.csv"),
        "sweep-rate": (rcfg, "sweep_rate.csv"),
        "ruom": (cfg, "ruom_trace.csv"),
        "validate": (cfg, "validate_report.json"),
    }
    ok, notes = True, []
    for cmd, (config, artifact) in jobs.items():
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{cmd}-{run}"
            code = main([cmd, "--config", str(config), "--out", str(out)])
            if code != EXIT_OK:
                ok = False
                notes.append(f"{cmd} exit {code}")
                break
            blobs.append((out / artifact).read_bytes())
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            ok = False
            notes.append(f"{cmd} output differs")
    _report(9, "determinism", ok, "; ".join(notes) or "all subcommands byte-identical")
