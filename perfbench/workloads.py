"""Workloads of the risnoma benchmark: their configs, the op plan a seed
generates, and the untimed checks on each op's outputs.

An op is one call of a public `risnoma.expcli` runner on one scenario drop.
Drop seeds and Monte Carlo seeds both come from the benchmark seed, so the
same seed gives the same plan.

    python3 perfbench/workloads.py    # re-measure strata.json (about seven minutes)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from risnoma import expcli
from risnoma.channels import (
    composite_snr_cdf_closed,
    composite_snr_cdf_quadrature,
    resolve_links,
)
from risnoma.environment import generate_scenario
from risnoma.noma import OutageModel, PowerAllocation
from risnoma.ruom import NoFeasibleAllocationError

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
STRATA_FILE = BENCH_DIR / "strata.json"


@dataclass(frozen=True)
class OpKind:
    """One runner call shape: which config it loads and which runner it calls."""

    config: str  # YAML file stem under configs/
    runner: str  # name of the public expcli runner
    files: tuple  # result files the runner writes


SWEEP_LINKS = OpKind("sweep-links", "run_sweep_links", ("sweep_links.csv", "manifest.json"))
SWEEP_POWER = OpKind("sweep-power", "run_sweep_power", ("sweep_power.csv", "manifest.json"))
SWEEP_RATE = OpKind("sweep-rate", "run_sweep_rate", ("sweep_rate.csv", "manifest.json"))
RUOM_FILES = ("ruom_trace.csv", "ruom_summary.json", "manifest.json")
# M=3 @ 2 bpc @ 30 dBm: ruom calls it infeasible on every drop although a
# feasible allocation exists (defect 2 in README.md). It is not an op of any
# workload; run_probe() counts the false verdicts.
FALSE_INFEASIBLE_PROBE = OpKind("ruom-m3-r2-p30", "run_ruom_report", RUOM_FILES)
FEASIBLE_BETA_R2 = (0.8, 0.16, 0.04)


@dataclass(frozen=True)
class Workload:
    kinds: tuple  # op kinds of the plan
    n_drops: int  # drop seeds 0..n_drops-1 are measured into strata
    n_strata: int  # strata per kind; a plan takes one drop of each
    trace_ops: int  # leading plan ops replayed by the traced run
    table_repeats: int = 1  # best-of repeats when strata.json is measured


WORKLOADS = {
    "curves": Workload((SWEEP_LINKS, SWEEP_POWER, SWEEP_RATE),
                       n_drops=204, n_strata=34, trace_ops=102, table_repeats=3),
    "optimize": Workload(
        tuple(OpKind(f"ruom-{point}", "run_ruom_report", RUOM_FILES)
              for point in ("m3-r1-p30", "m3-r1-p24", "m4-r05-p30")),
        n_drops=192, n_strata=8, trace_ops=12,
    ),
    "mc-check": Workload(
        (
            OpKind("validate", "validate", ("validate_report.json", "manifest.json")),
            OpKind("sweep-links-mc", "run_sweep_links", ("sweep_links.csv", "manifest.json")),
        ),
        n_drops=48, n_strata=3, trace_ops=2,
    ),
}

# Errors the library documents for an op; an op raising one counts as failed.
# NoFeasibleAllocationError is the CLI's exit 3; RuntimeError is what
# composite_snr_cdf_quadrature raises when its error estimate is poor.
DOCUMENTED_ERRORS = (NoFeasibleAllocationError, RuntimeError)


@dataclass(frozen=True)
class Op:
    index: int  # position in the plan
    drop_seed: int
    kind: OpKind
    cfg: expcli.ExperimentConfig


def load_configs(workload: str) -> dict:
    return {k.config: expcli.load_config(CONFIG_DIR / f"{k.config}.yaml")
            for k in WORKLOADS[workload].kinds}


def config_paths(workload: str) -> list:
    return [str(CONFIG_DIR / f"{k.config}.yaml") for k in WORKLOADS[workload].kinds]


def stratum_order(n: int) -> list:
    """0..n-1 in bit-reversed order (0, n/2, n/4, 3n/4, ... for n a power of
    two), so that every prefix of a plan spans the cost range."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))


def plan(workload: str, seed: int, configs: dict) -> list:
    """The ops of one run: for every stratum of every kind, one drop seed the
    benchmark seed picks from it, each op with its own Monte Carlo seed."""
    rng = np.random.default_rng(seed)
    spec = WORKLOADS[workload]
    strata = json.loads(STRATA_FILE.read_text())[workload]
    ops = []
    for s in stratum_order(spec.n_strata):
        for kind in spec.kinds:
            drop_seed = int(rng.choice(strata[kind.config]["strata"][s]))
            cfg = configs[kind.config]
            mc = dataclasses.replace(cfg.mc, seed=int(rng.integers(0, 2**31)))
            ops.append(Op(len(ops), drop_seed, kind, dataclasses.replace(cfg, mc=mc)))
    return ops


def run_op(op: Op, out_dir: Path):
    """Call the op's runner. Looked up at call time so traced bindings apply."""
    runner = getattr(expcli, op.kind.runner)
    if op.kind.runner.startswith("run_sweep"):
        return runner(op.cfg, op.drop_seed, out_dir, op.cfg.mc.enabled)
    return runner(op.cfg, op.drop_seed, out_dir)


def failure(op: Op, result):
    """Why a returned op still failed: `validate` reporting passed = false,
    which the CLI maps to exit 4. None for a successful op."""
    if op.kind.runner == "validate" and not result["passed"]:
        return "validate failed: " + ", ".join(
            c["name"] for c in result["checks"] if not c["passed"])
    return None


def result_bytes(op: Op, out_dir: Path) -> bytes:
    """The op's result files, each prefixed by its name, for digests and sizes."""
    parts = []
    for name in op.kind.files:
        parts.append(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return b"\0".join(parts)


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def canonical(result) -> str:
    """A result as canonical JSON text, to compare two runs of one op."""
    return json.dumps(result, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# correctness checks (untimed); each returns a list of problems


def _check_sweep(op: Op, rows) -> list:
    problems = []
    by_key = {}
    for var, value, rank, link_type, analytic, mc, hw in rows:
        by_key[(value, rank, link_type)] = analytic
        if not 0.0 <= analytic <= 1.0:
            problems.append(f"{var}={value} rank {rank} {link_type}: outage {analytic!r}")
        if not op.cfg.mc.enabled:
            if mc is not None:
                problems.append(f"{var}={value}: MC cell written with MC off")
            continue
        if mc is None:
            continue
        if analytic >= 1e-2 or mc >= 1e-2:
            bound = op.cfg.validation.outage_abs_tol + hw
            if abs(analytic - mc) > bound:
                problems.append(
                    f"{var}={value} rank {rank} {link_type}: |{analytic:.4g} - MC {mc:.4g}| "
                    f"> {bound:.4g}"
                )
    if op.kind.runner == "run_sweep_links":
        for (value, rank, link_type), analytic in by_key.items():
            if value == 0 and link_type == "composite" and analytic != by_key[(0, rank, "direct")]:
                problems.append(f"rank {rank}: composite at N=0 differs from direct")
    return problems


def _check_ruom(op: Op, summary) -> list:
    problems = []
    cfg = op.cfg
    scenario = generate_scenario(cfg.scenario, op.drop_seed)
    links = resolve_links(cfg.environment, scenario, omega=cfg.channel.omega,
                          m_direct=cfg.channel.m_direct, m_hops=cfg.channel.m_hops)
    rates = tuple(cfg.sweep.fixed_target_rate for _ in links)
    model = OutageModel(links, rates, link_type="composite")
    for lam, entry in summary.items():
        beta = entry["final_beta"]
        if any(not beta[j] > beta[j + 1] for j in range(len(beta) - 1)):
            problems.append(f"lambda {lam}: beta {beta} not strictly decreasing")
        if abs(math.fsum(beta) - 1.0) > 1e-9 * len(beta):
            problems.append(f"lambda {lam}: beta sums to {math.fsum(beta)!r}")
        for j, rate in enumerate(rates):
            if not (2.0**rate - 1.0) * math.fsum(beta[j + 1:]) < beta[j]:
                problems.append(f"lambda {lam}: beta {beta} violates SIC at rank {j + 1}")
        if problems:
            continue
        recomputed = model.outages(PowerAllocation(tuple(beta)), entry["final_n"])
        if recomputed != entry["final_outages"]:
            problems.append(f"lambda {lam}: outages {entry['final_outages']} "
                            f"!= recomputed {recomputed}")
        if entry["max_outage_below_delta"] != (max(recomputed) < cfg.ruom.delta):
            problems.append(f"lambda {lam}: max_outage_below_delta is inconsistent")
    return problems


def _check_validate(report) -> list:
    return [
        f"check {c['name']}: passed={c['passed']} but value {c['value']} vs bound {c['bound']}"
        for c in report["checks"]
        if c["passed"] != (c["value"] <= c["bound"])
    ]


def check(op: Op, result) -> list:
    if op.kind.runner == "run_ruom_report":
        return _check_ruom(op, result)
    if op.kind.runner == "validate":
        return _check_validate(result)
    return _check_sweep(op, result)


# ---------------------------------------------------------------------------
# closed form versus quadrature reference at a fixed sample of points

GAP_DROPS = (0, 1, 2)
GAP_N = (1, 16, 64, 256, 1024)
GAP_POINTS = np.linspace(0.05, 4.0, 8)  # in units of the mean composite SNR


def closed_ref_gap(cfg: expcli.ExperimentConfig):
    """Max |closed form - quadrature| of the composite CDF over a fixed sample.

    The sample does not depend on the benchmark seed: the strongest-RIS link
    of drops GAP_DROPS, N in GAP_N and gamma on GAP_POINTS. Returns the gap,
    the number of points compared and the number where the reference raised.
    """
    gap, compared, unconverged = 0.0, 0, 0
    for drop in GAP_DROPS:
        scenario = generate_scenario(cfg.scenario, drop)
        links = resolve_links(cfg.environment, scenario, omega=cfg.channel.omega,
                              m_direct=cfg.channel.m_direct, m_hops=cfg.channel.m_hops)
        link = max(links, key=lambda l: l.gamma_bar_r)
        direct, budget = link.rounded_direct(), link.budget()
        for n in GAP_N:
            fit = link.laguerre(n)
            amp_mean = budget.amp_ris * fit.mean_sum + budget.amp_direct
            for g in GAP_POINTS * budget.gamma_bar_c * amp_mean**2:
                try:
                    ref = composite_snr_cdf_quadrature(fit, direct, budget, g)
                except RuntimeError:
                    unconverged += 1
                    continue
                gap = max(gap, abs(composite_snr_cdf_closed(fit, direct, budget, g) - ref))
                compared += 1
    return gap, compared, unconverged


def run_probe(drop_seeds) -> tuple:
    """Solve the false-infeasible point on each drop. Returns how many solves
    raised NoFeasibleAllocationError and how many ran. Checks first that
    FEASIBLE_BETA_R2 satisfies the SIC constraints at the probe's rate, so a
    raise is a false verdict."""
    cfg = expcli.load_config(CONFIG_DIR / f"{FALSE_INFEASIBLE_PROBE.config}.yaml")
    gap = 2.0 ** cfg.sweep.fixed_target_rate - 1.0
    beta = FEASIBLE_BETA_R2
    assert len(beta) == cfg.scenario.n_uavs and math.isclose(math.fsum(beta), 1.0)
    assert all(gap * math.fsum(beta[j + 1:]) < beta[j] for j in range(len(beta) - 1))
    raised = 0
    with tempfile.TemporaryDirectory() as out:
        for drop_seed in drop_seeds:
            try:
                expcli.run_ruom_report(cfg, drop_seed, Path(out))
            except NoFeasibleAllocationError:
                raised += 1
    return raised, len(drop_seeds)


# ---------------------------------------------------------------------------
# strata.json: drop seeds of each kind, cut into strata by measured cost


def measure_strata(workload: str) -> dict:
    """For every kind of a workload: the cost (best of table_repeats) of each
    drop seed 0..n_drops-1, the drops sorted by it and cut into n_strata
    strata of (nearly) equal size. A drop on which the op fails is left out
    and listed with its error under "excluded"."""
    spec = WORKLOADS[workload]
    configs = load_configs(workload)
    tables = {}
    with tempfile.TemporaryDirectory() as out:
        for kind in spec.kinds:
            cost, excluded = {}, {}
            for drop_seed in range(spec.n_drops):
                op = Op(0, drop_seed, kind, configs[kind.config])
                times = []
                for _ in range(spec.table_repeats):
                    t0 = time.perf_counter()
                    try:
                        result = run_op(op, Path(out))
                    except DOCUMENTED_ERRORS as exc:
                        excluded[str(drop_seed)] = f"{type(exc).__name__}: {exc}"
                        break
                    times.append(time.perf_counter() - t0)
                    why = failure(op, result)
                    if why is not None:
                        excluded[str(drop_seed)] = why
                        break
                else:
                    cost[drop_seed] = min(times)
            ranked = sorted(cost, key=lambda d: (cost[d], d))
            tables[kind.config] = {
                "strata": [s.tolist() for s in np.array_split(ranked, spec.n_strata)],
                "excluded": excluded,
            }
    return tables


if __name__ == "__main__":
    tables = {name: measure_strata(name) for name in WORKLOADS}
    STRATA_FILE.write_text(json.dumps(tables, indent=1) + "\n")
    print(f"wrote {STRATA_FILE}")
