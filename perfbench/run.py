"""risnoma benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. The seed picks a fixed plan of ops (perfbench/workloads.py).
With --trace 0 the plan is played over and over, one op at a time, for
--seconds; each op's latency is the best of its repetitions, and the
end-to-end metrics are computed from those. With --trace 1 the leading ops
of the plan run once untraced and once with spans around every public
function of each module, and the per-layer metrics are reported; the time
difference between the two passes is the tracing overhead. Either way every
op's outputs are checked, and the last line of standard output is the JSON
result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One client and no helper threads: the numerical libraries get one thread
# each, here and in the set-up interpreters, which inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 7
# A fresh interpreter: import the CLI module (and with it scipy) and load
# every config the workload uses.
SETUP_CODE = "import sys; from risnoma import expcli; [expcli.load_config(p) for p in sys.argv[1:]]"

# The library under test comes from this checkout's src/, never from elsewhere;
# without it the benchmark exits with an error and prints no result.
if not (SRC / "risnoma" / "__init__.py").is_file():
    sys.exit(f"error: no risnoma package under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))
import risnoma  # noqa: E402

if Path(risnoma.__file__).resolve().parent != SRC / "risnoma":
    sys.exit(f"error: risnoma imported from {risnoma.__file__}, not {SRC}")

import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(config_paths) -> list:
    """Wall seconds from starting a fresh interpreter to configs loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE, *config_paths]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


class OpLog:
    """Outcome of every op run: latency, failure, problems found and digest input.

    The first run of an op is checked as soon as it returns (untimed) unless
    check_later is set, as it is while spans are recorded; every later run of
    the same op must return the same result.
    """

    def __init__(self, out_dir, check_later=False):
        self.out_dir = out_dir
        self.check_later = check_later
        self.records = []  # (op, latency_s, failure or None)
        self.first = {}  # op index -> (op, result, canonical digest) of its first run
        self.problems = []
        self.digest_chunks = []
        self.bytes_written = 0

    def run(self, op):
        t0 = time.perf_counter()
        try:
            result = wl.run_op(op, self.out_dir)
        except wl.DOCUMENTED_ERRORS as exc:
            self.records.append((op, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"))
            return
        except Exception:  # an undocumented error is a wrong output, not a failed op
            self.records.append((op, time.perf_counter() - t0, "undocumented error"))
            self.problems.append(f"op {op.index} ({op.kind.config}) raised:\n"
                                 + traceback.format_exc())
            return
        self.records.append((op, time.perf_counter() - t0, wl.failure(op, result)))
        digest = wl.digest([wl.canonical(result).encode()])
        if op.index in self.first:
            if digest != self.first[op.index][2]:
                self._problem(op, "a repetition returned a different result")
            return
        self.first[op.index] = (op, result, digest)
        data = wl.result_bytes(op, self.out_dir)
        self.bytes_written += len(data)
        self.digest_chunks.append(data)
        if not self.check_later:
            self._check(op, result)

    def _problem(self, op, problem):
        self.problems.append(f"op {op.index} ({op.kind.config}, drop seed {op.drop_seed}): "
                             f"{problem}")

    def _check(self, op, result):
        for problem in wl.check(op, result):
            self._problem(op, problem)

    def check(self):
        for op, result, _ in self.first.values():
            self._check(op, result)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failures(self):
        return [(op, why) for op, _, why in self.records if why is not None]

    @property
    def best_latencies(self):
        """Each op's best latency over its successful runs, by op index."""
        best = {}
        for op, lat, why in self.records:
            if why is None:
                best[op.index] = min(lat, best.get(op.index, math.inf))
        return best

    @property
    def op_seconds(self):
        return sum(lat for _, lat, _ in self.records)

    @property
    def runs_per_op(self):
        return self.attempted / len({op.index for op, _, _ in self.records})


def run_timed(workload, seed, seconds):
    """Play the plan over and over until `seconds` have passed; the first
    pass always runs whole."""
    plan = wl.plan(workload, seed, wl.load_configs(workload))
    log = OpLog(OUT / workload)
    start = time.perf_counter()
    for op in itertools.cycle(plan):
        if log.attempted >= len(plan) and time.perf_counter() - start >= seconds:
            break
        log.run(op)
    wall = time.perf_counter() - start
    return plan, log, wall


def run_traced(workload, seed, seconds):
    """Leading ops of the plan untraced (up to seconds/2), then the same ops traced."""
    plan = wl.plan(workload, seed, wl.load_configs(workload))
    plain = OpLog(OUT / workload, check_later=True)
    start = time.perf_counter()
    for op in plan[:wl.WORKLOADS[workload].trace_ops]:
        if op.index and time.perf_counter() - start >= seconds / 2:
            break
        plain.run(op)

    tracer = spans.Tracer()
    traced = OpLog(OUT / workload, check_later=True)
    tracer.install()
    try:
        for op, _, _ in plain.records:
            traced.run(op)
    finally:
        tracer.uninstall()
    for index, (_, _, digest) in plain.first.items():
        if traced.first.get(index, (None, None, None))[2] != digest:
            traced.problems.append(f"op {index}: tracing changed the result")
    return plan, plain, traced, tracer


def hd_median(values):
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) density. Op latencies cluster by
    kind, and the plain sample median of a few dozen of them jumps between
    clusters from seed to seed; this estimate moves smoothly."""
    x = np.sort(values)
    a = (x.size + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(x.size + 1) / x.size))
    return float(weights @ x)


def _p90(latencies):
    return statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 100 else None


def _ruom_quality(log):
    """Mean total elements over solved ruom ops, and the share of ruom ops
    that end with max outage below delta, over each op's first run."""
    entries = [e for op, result, _ in log.first.values()
               if op.kind.runner == "run_ruom_report" for e in result.values()]
    attempted = len({op.index for op, _, _ in log.records if op.kind.runner == "run_ruom_report"})
    elements = [e["total_elements"] for e in entries]
    met = sum(e["max_outage_below_delta"] for e in entries)
    mean = statistics.fmean(elements) if elements else None
    return mean, (met / attempted if attempted else None), len(elements), attempted


def _probe(plan):
    """The false-infeasible probe on the plan's ruom drops: (raised, solves)."""
    drops = sorted({op.drop_seed for op in plan if op.kind.runner == "run_ruom_report"})
    return wl.run_probe(drops) if drops else (0, 0)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    setup_times = measure_setup(wl.config_paths(workload))
    plan, log, wall = run_timed(workload, seed, seconds)
    gap, compared, unconverged = wl.closed_ref_gap(wl.load_configs("curves")["sweep-links"])
    probe_raised, probe_solves = _probe(plan)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    best = log.best_latencies
    lat = list(best.values())
    n_ok = len(lat)
    p90 = _p90(lat)
    elements_mean, delta_met, n_solved, n_solves = _ruom_quality(log)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(n_ok / math.fsum(lat) if lat else None, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "closed_ref_gap_max": _metric(gap, "prob"),
    }
    p50 = hd_median(lat) if lat else None

    print(f"workload {workload}, seed {seed}: plan of {len(plan)} ops played "
          f"{log.runs_per_op:.2f} times: {log.attempted} runs in {wall:.2f} s wall "
          f"({log.op_seconds:.2f} s in ops), {len(log.failures)} failed")
    rows = [
        ("setup_s", metrics["setup_s"]["value"], "s",
         f"median of {len(setup_times)} fresh interpreters"),
        ("ops_per_s", metrics["ops_per_s"]["value"], "1/s",
         f"{n_ok} completed ops over the sum of their best latencies"),
        ("op_p50_s", p50, "s",
         f"Harrell-Davis median of the best latencies of {n_ok} completed ops"),
        ("op_p90_s", p90, "s", f"over {n_ok} completed ops" if p90 is not None
         else f"not reported: {n_ok} completed ops < 100"),
        ("failed_frac", len(log.failures) / log.attempted, "ratio",
         f"{len(log.failures)} of {log.attempted} runs"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process"),
        ("closed_ref_gap_max", gap, "prob",
         f"{compared} fixed (drop, N, gamma) points, {unconverged} with unconverged reference"),
        ("ruom_elements_mean", elements_mean, "elements",
         f"over {n_solved} solves" if n_solves else "not applicable: no ruom ops"),
        ("ruom_delta_met_frac", delta_met, "ratio",
         f"over {n_solves} attempted ruom ops" if n_solves else "not applicable: no ruom ops"),
    ]
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<20} {shown:>12} {unit:<9} {note}")
    _print_failures(log)
    if probe_solves:
        print(f"  known defect 2: ruom called M=3 @ 2 bpc infeasible on {probe_raised} of "
              f"{probe_solves} drops (untimed probe; beta {wl.FEASIBLE_BETA_R2} is feasible)")
    print(f"  sha256 of the plan's result files: {wl.digest(log.digest_chunks)}")
    return log, metrics


def per_layer(workload, seed, seconds):
    plan, plain, traced, tracer = run_traced(workload, seed, seconds)
    plain.check()
    traced.check()
    traced.problems += plain.problems
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")
    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, "calls")

    def self_s(name):
        return s.get(name, "self_s")

    values = {}

    def put(name, value, unit):
        values[name] = (value, unit)

    for layer in ("special_math", "environment", "channels", "noma", "ruom", "sim_oracle",
                  "expcli"):
        put(f"{layer}.self_s", s.layer_self_s(layer), "s")
    put("special_math.calls",
        sum(n for name, n in zip(s.names, s.calls.tolist()) if name.startswith("special_math.")),
        "count")
    for fn in ("upper_inc_gamma", "reg_lower_inc_gamma", "q_function", "gamma"):
        put(f"special_math.{fn}.calls", calls(f"special_math.{fn}"), "count")
    for fn in ("generate_scenario", "los_probability"):
        put(f"environment.{fn}.calls", calls(f"environment.{fn}"), "count")
    for fn in ("resolve_links", "fit_laguerre", "composite_snr_cdf_closed",
               "composite_snr_cdf_quadrature"):
        put(f"channels.{fn}.calls", calls(f"channels.{fn}"), "count")
        put(f"channels.{fn}.self_s", self_s(f"channels.{fn}"), "s")
    for fn in ("direct_snr_cdf", "ris_snr_cdf"):
        put(f"channels.{fn}.calls", calls(f"channels.{fn}"), "count")
    for fn in ("OutageModel.outage", "OutageModel.outages", "OutageModel.parent_cdf",
               "ordered_cdf", "sic_thresholds"):
        put(f"noma.{fn}.calls", calls(f"noma.{fn}"), "count")
        put(f"noma.{fn}.self_s", self_s(f"noma.{fn}"), "s")
    misses, _ = s.under("channels.fit_laguerre", "channels.LinkChannel.laguerre")
    lookups = c["fit_lookups"]
    put("noma.fit_cache_hit_ratio", 1.0 - misses / lookups if lookups else 0.0, "ratio")
    put("noma.fit_lookups", lookups, "count")
    put("ruom.ruom.calls", calls("ruom.ruom"), "count")
    put("ruom.iterations", c["ruom.iterations"], "count")
    for fn in ("pgs", "evaluate_candidates"):
        put(f"ruom.{fn}.calls", calls(f"ruom.{fn}"), "count")
        put(f"ruom.{fn}.self_s", self_s(f"ruom.{fn}"), "s")
    put("ruom.pgs.candidates", c["pgs.candidates"], "count")
    put("ruom.pgs.empty_calls", c["pgs.empty_calls"], "count")
    walk_calls, walk_s = s.under("noma.OutageModel.outage", "ruom.ruom")
    put("ruom.efficiency.outage_calls", walk_calls, "count")
    put("ruom.efficiency.s", walk_s, "s")
    elements_mean, delta_met, _, _ = _ruom_quality(traced)
    put("ruom.elements_mean", elements_mean or 0.0, "elements")
    put("ruom.delta_met_frac", delta_met or 0.0, "ratio")
    for fn in ("mc_noma_outage", "mc_snr_cdf", "sample_nakagami"):
        put(f"sim_oracle.{fn}.calls", calls(f"sim_oracle.{fn}"), "count")
        put(f"sim_oracle.{fn}.self_s", self_s(f"sim_oracle.{fn}"), "s")
    mc_s = s.get("sim_oracle.mc_noma_outage", "incl") + s.get("sim_oracle.mc_snr_cdf", "incl")
    put("sim_oracle.gamma_draws", c["gamma_draws"], "count")
    put("sim_oracle.draws_per_s", c["gamma_draws"] / mc_s if mc_s else 0.0, "1/s")
    estimates = c["sweep_rank_estimates"]
    put("sim_oracle.rank_use_ratio", c["sweep_mc_cells"] / estimates if estimates else 0.0,
        "ratio")
    put("sim_oracle.sweep_rank_estimates", estimates, "count")
    put("expcli.bytes_written", traced.bytes_written, "B")
    for fn in ("run_sweep_links", "run_sweep_power", "run_sweep_rate", "run_ruom_report",
               "validate"):
        put(f"expcli.{fn}.calls", calls(f"expcli.{fn}"), "count")
    probe_raised, probe_solves = _probe(plan)
    put("ruom.false_infeasible_frac", probe_raised / probe_solves if probe_solves else 0.0,
        "ratio")
    _, _, unconverged = wl.closed_ref_gap(wl.load_configs("curves")["sweep-links"])
    put("channels.quadrature_unconverged", unconverged, "count")
    put("trace.ops", traced.attempted, "count")
    put("trace.spans", s.spans, "count")
    put("trace.overhead_frac", traced.op_seconds / plain.op_seconds - 1.0, "ratio")

    print(f"workload {workload}, seed {seed}: {plain.attempted} ops untraced in "
          f"{plain.op_seconds:.2f} s, traced in {traced.op_seconds:.2f} s, "
          f"{s.spans} spans written to {OUT.relative_to(ROOT) / f'spans-{workload}.npz'}")
    for name, (value, unit) in values.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  (sim_oracle.gamma_draws is computed from the requested sample shapes; "
          f"noma.fit_cache_hit_ratio has base noma.fit_lookups; sim_oracle.rank_use_ratio "
          f"has base sim_oracle.sweep_rank_estimates)")
    _print_failures(traced)
    metrics = {name: _metric(value, unit) for name, (value, unit) in values.items()}
    return traced, metrics


def _print_failures(log):
    for op, why in log.failures[:10]:
        print(f"  failed op {op.index} ({op.kind.config}, drop seed {op.drop_seed}): {why}")
    if len(log.failures) > 10:
        print(f"  ... {len(log.failures) - 10} more failed ops")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves", "optimize", "mc-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    if args.trace:
        log, metrics = per_layer(args.workload, args.seed, args.seconds)
        expected = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        log, metrics = end_to_end(args.workload, args.seed, args.seconds)
        expected = [m["name"] for m in BENCHMARK["end_to_end"]]
    if sorted(metrics) != sorted(expected):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(expected))} differ from "
                 f"BENCHMARK.json")
    for problem in log.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not log.problems,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {name: metrics[name] for name in expected},
    }))


if __name__ == "__main__":
    main()
