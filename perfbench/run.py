#!/usr/bin/env python3
"""Benchmark of the budgetmatroid package, run from the root of a checkout.

    python3 perfbench/run.py --workload enum-mid --seed 0 --seconds 25 --trace 0

Imports the package from ``src/`` of the checkout, builds the workload's
instances from the seed, solves them in one thread through the package's
public functions with default arguments, checks every answer against a
brute-force reference and prints human-readable lines followed by one JSON
line with the metrics that BENCHMARK.json declares.  ``--trace 0`` measures
the end-to-end metrics, with every solve and set-up time scaled to a fixed
host speed read from a gauge loop around it; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from checks import Tally, build_references, check_approximate, check_bounds
from spans import ROOT_SPAN, Tracer
from workloads import WORKLOADS, build_instances

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 9
MIN_SAMPLES = 100  # solve_ms.p90 then has at least ten samples beyond it
# The host's speed swings by up to 2x from one solve to the next, so every
# timed interval is scaled by GAUGE_REF_S / (mean gauge time just before and
# just after it).  GAUGE_REF_S is the gauge's typical time on a shared 2-vCPU
# Intel Xeon (2.1 GHz) under Python 3.11, so scaled times stay close to wall
# times there.  See "Host-speed scaling" in README.md.
GAUGE_ITERATIONS = 600
GAUGE_REF_S = 0.0025


def import_package():
    """A fresh import of the package, so set-up time includes it every time."""
    for name in [m for m in sys.modules if m == "budgetmatroid" or m.startswith("budgetmatroid.")]:
        del sys.modules[name]
    return importlib.import_module("budgetmatroid")


def fraction_loop(iterations: int) -> float:
    """Seconds for a fixed Fraction loop, with garbage collection held off."""
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, iterations):
            acc += Fraction(1, i % 97 + 1)
            if acc > 10:
                acc -= 10
        return perf_counter() - t0
    finally:
        gc.enable()


def gauge() -> float:
    return fraction_loop(GAUGE_ITERATIONS)


def scaled(seconds: float, before: float, after: float) -> float:
    """An interval rescaled to the host speed at which the gauge takes GAUGE_REF_S."""
    return seconds * 2 * GAUGE_REF_S / (before + after)


def set_up(workload, seed):
    """Import and build the instances SETUP_REPEATS times; keep the last build."""
    totals, generate, parse = [], [], []
    for _ in range(SETUP_REPEATS):
        before = gauge()
        t0 = perf_counter()
        bm = import_package()
        instances, parts = build_instances(bm, workload, seed)
        totals.append(scaled(perf_counter() - t0, before, gauge()))
        generate.append(parts.generate_s)
        parse.append(parts.parse_s)
    medians = {
        "setup_s": statistics.median(totals),
        "generate.generate_s": statistics.median(generate),
        "instance.parse_s": statistics.median(parse),
    }
    return bm, instances, medians


def solver(bm, workload):
    if workload.call == "approximate":
        return lambda inst, eps: bm.scheme.approximate(inst, eps)
    return lambda inst, eps: bm.lp.lp_upper_bound(inst)


def checker(workload):
    if workload.call == "approximate":
        return check_approximate
    return lambda inst, ref, eps, out: check_bounds(ref, out)


def run_task(call, check, inst, ref, eps, tally):
    """One timed solve and its untimed check: (seconds, output or None, correct)."""
    t0 = perf_counter()
    try:
        out = call(inst, eps)
    except Exception as exc:  # a raising solve is a failed solve; keep measuring
        dt = perf_counter() - t0
        if tally.failed < 5:
            traceback.print_exc(file=sys.stderr)
        tally.record(f"{type(exc).__name__}: {exc}")
        return dt, None, False
    dt = perf_counter() - t0
    problem = check(inst, ref, eps, out)
    tally.record(problem)
    return dt, out, problem is None


def canary(workload, instances, refs) -> bool:
    """A deliberately wrong answer must be counted as a failed solve."""
    probe = Tally()
    idx = next(i for i, ref in enumerate(refs) if ref.opt > 0)
    eps = workload.eps[0]
    if workload.call == "approximate":
        wrong = SimpleNamespace(solution=(), profit=Fraction(0))
    else:
        wrong = (refs[idx].opt / 2, Fraction(0))
    probe.record(checker(workload)(instances[idx], refs[idx], eps, wrong))
    return probe.failed == 1


def host_ref_loop_ms() -> float:
    """Median time of a long Fraction loop: the host's speed, never gated."""
    return statistics.median(fraction_loop(20000) for _ in range(3)) * 1000


def latency_metrics(latencies_ms, busy_s, correct):
    deciles = statistics.quantiles(latencies_ms, n=10)
    return {
        "solves_per_s": correct / busy_s,
        "solve_ms.p50": statistics.median(latencies_ms),
        "solve_ms.p90": deciles[8],
    }


def timed_run(bm, workload, instances, refs, seconds, tally):
    """Whole passes over the tasks, as many as fit in `seconds` but at least one
    and at least MIN_SAMPLES solves; metrics from gauge-scaled and wall times."""
    call, check, tasks = solver(bm, workload), checker(workload), workload.tasks()
    wall, scaled_ms, busy, busy_wall, gauges = [], [], 0.0, 0.0, [gauge()]
    correct, passes, planned = 0, 0, None
    while planned is None or passes < planned:
        t_pass = perf_counter()
        for idx, eps in tasks:
            dt, out, ok = run_task(call, check, instances[idx], refs[idx], eps, tally)
            gauges.append(gauge())
            dt_scaled = scaled(dt, gauges[-2], gauges[-1])
            busy += dt_scaled
            busy_wall += dt
            correct += ok
            if out is not None:
                wall.append(dt * 1000)
                scaled_ms.append(dt_scaled * 1000)
        passes += 1
        if planned is None:
            pass_s = perf_counter() - t_pass
            planned = max(math.ceil(MIN_SAMPLES / len(tasks)), int(seconds / pass_s))
    if len(wall) < 2:
        raise SystemExit(f"error: only {len(wall)} solves returned; {tally.errors}")
    metrics = latency_metrics(scaled_ms, busy, correct)
    metrics["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    unscaled = latency_metrics(wall, busy_wall, correct)
    notes = [
        f"{passes} passes of {len(tasks)} solves, {len(wall)} latency samples",
        f"gauge median {statistics.median(gauges) * 1000:.3f} ms, "
        f"min {min(gauges) * 1000:.3f}, max {max(gauges) * 1000:.3f}",
        "unscaled wall: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()),
    ]
    return metrics, notes


def fingerprint(out) -> str | None:
    """The output minus its timing field, for the traced/untraced comparison."""
    if out is None or isinstance(out, tuple):
        return repr(out)
    d = out.to_dict()
    d.pop("wall_ms", None)
    return json.dumps(d, sort_keys=True)


def traced_run(bm, workload, instances, refs, seed, tally):
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    call, check, tasks = solver(bm, workload), checker(workload), workload.tasks()
    t0 = perf_counter()
    plain = [run_task(call, check, instances[i], refs[i], eps, tally)[1] for i, eps in tasks]
    untraced_s = perf_counter() - t0

    tracer = Tracer()
    wrapped = [tracer.wrap_instance(bm, inst) for inst in instances]
    traced_call = tracer.span(ROOT_SPAN, call)
    stats = bm.lp.LP_STATS
    lp_before = stats.solves
    outputs = []
    tracer.install(bm)
    try:
        t0 = perf_counter()
        for sid, (idx, eps) in enumerate(tasks):
            tracer.solve_id = sid
            outputs.append(run_task(traced_call, check, wrapped[idx], refs[idx], eps, tally)[1])
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    lp_solves = stats.solves - lp_before

    self_t = tracer.self_times()
    tot = tracer.totals(self_t)
    calls = lambda name: tot.get(name, (0, 0.0, 0.0))[0]
    incl = lambda name: tot.get(name, (0, 0.0, 0.0))[1]
    own = lambda name: tot.get(name, (0, 0.0, 0.0))[2]
    rank_s = sum(tracer.rank_s)
    rank_indep_s = sum(tracer.rank_indep_s)
    reports = [out for out in outputs if out is not None and not isinstance(out, tuple)]
    enum_count = sum(sum(r.enum_counts.values()) for r in reports)
    certified = sum(
        1
        for sid, (_, eps) in enumerate(tasks)
        if sid in tracer.bootstrap
        and tracer.bootstrap[sid][1] >= (1 - eps) * tracer.bootstrap[sid][0]
    )
    metrics = {
        "families.indep_calls": tracer.indep_calls,
        "families.indep_s": sum(tracer.indep_s) + rank_indep_s,
        "matroid.rank_calls": tracer.rank_calls,
        "matroid.rank_s": rank_s,
        "matroid.min_weight_basis_calls": calls("matroid.min_weight_basis"),
        "matroid.min_weight_basis_s": incl("matroid.min_weight_basis"),
        "matroid.self_s": rank_s - rank_indep_s + own("matroid.min_weight_basis"),
        "simplex.calls": calls("simplex"),
        "simplex.s": incl("simplex"),
        "simplex.tableau_cells": tracer.tableau_cells,
        "lp.solves": lp_solves,
        "lp.max_fractional": stats.max_fractional,
        "lp.rounds_per_solve": calls("simplex") / calls("lp.polytope") if calls("lp.polytope") else 0,
        "lp.self_s": sum(
            own(n)
            for n in ("lp.upper_bound", "lp.solve_lp", "lp.polytope", "lp.round_integral", "lp.separate")
        ),
        "lp.separate_calls": calls("lp.separate"),
        "lp.separate_s": incl("lp.separate"),
        "lp.separate_subsets": tracer.separate_subsets,
        "lp.upper_bound_s": incl("lp.upper_bound"),
        "lp.round_integral_s": incl("lp.round_integral"),
        "lp.bootstrap_certified_frac": certified / len(tasks),
        "scheme.guesses": calls("scheme.run_for_alpha"),
        "scheme.enum_count": enum_count,
        "scheme.lp_fresh": calls("lp.solve_lp"),
        "scheme.lp_fresh_ratio": calls("lp.solve_lp") / enum_count if enum_count else 0,
        "scheme.rep_size": statistics.mean(tracer.rep_sizes) if tracer.rep_sizes else 0,
        "scheme.find_rep_s": incl("scheme.find_rep"),
        "scheme.class_partition_s": incl("scheme.class_partition"),
        "scheme.enum_self_s": own("scheme.run_for_alpha"),
        "scheme.self_s": sum(
            own(n) for n in (ROOT_SPAN, "scheme.find_rep", "scheme.run_for_alpha", "scheme.class_partition")
        ),
        "scheme.oracle_calls": sum(r.oracle_calls for r in reports),
        "trace.solve_s": incl(ROOT_SPAN),
        "trace.spans": len(self_t),
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }

    problems = []
    if [fingerprint(o) for o in plain] != [fingerprint(o) for o in outputs]:
        problems.append("traced and untraced outputs differ beyond wall_ms")
    if "lp.solve_polytope_lp" not in tracer.missing and calls("lp.polytope") != lp_solves:
        problems.append(f"wrapper LP count {calls('lp.polytope')} != LP_STATS delta {lp_solves}")
    error = tracer.per_solve_error(self_t)
    if error > 1e-6:
        problems.append(f"span self times miss their solve span by {error:.3g} s")
    tracer.write(str(SPANS_DIR / f"spans-{workload.name}-seed{seed}.tsv"), self_t)
    notes = [
        f"2 passes of {len(tasks)} solves, {len(self_t)} spans, self-time error {error:.3g} s",
        f"unwrapped targets: {', '.join(tracer.missing) or 'none'}",
    ]
    return metrics, problems, notes


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {
        key: {m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "budgetmatroid" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    bm, instances, setup = set_up(workload, args.seed)
    if not Path(bm.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {bm.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    refs, brute_force_s = build_references(bm, instances)
    ref_loop_ms = host_ref_loop_ms()
    problems = [] if canary(workload, instances, refs) else ["checker accepted a wrong answer"]
    tally = Tally()

    if args.trace:
        metrics, trace_problems, notes = traced_run(bm, workload, instances, refs, args.seed, tally)
        problems += trace_problems
        metrics.update(
            {
                "generate.generate_s": setup["generate.generate_s"],
                "instance.parse_s": setup["instance.parse_s"],
                "oracle.brute_force_s": brute_force_s,
                "host.ref_loop_ms": ref_loop_ms,
            }
        )
        units = declared["per_layer"]
    else:
        metrics, notes = timed_run(bm, workload, instances, refs, args.seconds, tally)
        metrics["setup_s"] = setup["setup_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        notes += [f"failed_frac {tally.failed / tally.attempted} ratio", f"host.ref_loop_ms {ref_loop_ms:.1f} ms"]
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for line in notes + tally.errors + problems:
        print(f"  {line}")
    for name in units:
        print(f"  {name:32} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
