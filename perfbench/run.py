#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench/ (the benchmark program) against the checkout's src/ tree,
runs one workload, checks its outputs, and prints one JSON result line.

usage:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last stdout line is {"correct", "attempted", "failed",
      "metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0,
      its per-layer metrics with --trace 1. A per-span breakdown goes to
      stderr with --trace 1.
  python3 perfbench/run.py --all [--seconds S] [--trace 0|1]
      Every workload at its default seed; prints each metric by name with
      its unit, one column per workload.

Exit codes: 0 correct, 1 a correctness check or an exact field failed,
2 usage, missing sources, or build failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout as it was

import benchstats  # noqa: E402

APPS = ("aes", "kasumi", "nat")
RUN_TIMEOUT_S = 160


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


#
# Build
#


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    return Path(base).resolve() / "perfbench"


def build(bdir):
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no src/ tree next to perfbench/; run from a repository checkout")
        sys.exit(2)
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            sys.exit(2)
        if r.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            sys.exit(2)
    return bdir / "perfbench"


def source_hash():
    """Digest of every file the benchmark program is built from, so cached exact
    fields are only ever compared against runs of the same code."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


#
# Reduction of the benchmark program's document to metrics
#


def pass_spans(doc, p):
    """The spans of one pass as dicts (ids are global, 1-based)."""
    names = doc["span_names"]
    begin, end = p["spans"]
    out = []
    for i in range(begin, end):
        n, parent, app, seq, start, stop, count, busy = doc["spans"][i]
        out.append({"id": i + 1, "name": names[n], "parent": parent,
                    "app": app, "seq": seq, "start": start, "end": stop,
                    "count": count, "busy": busy * 1e-9})
    return out


class SpanTotals:
    """Busy and self seconds per (span name, app) for one pass."""

    def __init__(self, spans):
        selfs = benchstats.self_times(spans)
        self.busy, self.self, self.calls, self.each = {}, {}, {}, {}
        for s in spans:
            key = (s["name"], s["app"])
            self.busy[key] = self.busy.get(key, 0.0) + s["busy"]
            self.self[key] = self.self.get(key, 0.0) + selfs[s["id"]]
            self.calls[key] = self.calls.get(key, 0) + s["count"]
            if s["count"] == 1:
                self.each.setdefault(s["name"], []).append(s["busy"])

    def total(self, table, name, app=None):
        return sum(v for (n, a), v in table.items()
                   if n == name and (app is None or a == app))

    def busy_of(self, name, app=None):
        return self.total(self.busy, name, app)

    def self_of(self, name, app=None):
        return self.total(self.self, name, app)


def field(p, k, default=None):
    """A pass's value for k, exact or not."""
    return p["exact"].get(k, p["counts"].get(k, default))


def compile_fields(doc, p):
    """(exact, counts) of the allocations a pass's numbers describe: the
    pass's own compiles on `compile`, the set-up harnesses elsewhere."""
    if doc["workload"] == "compile":
        return p["exact"], p["counts"]
    return doc["setup_exact"], doc["setup_counts"]


def e2e_metrics(doc, passes):
    """End-to-end metric values from the untraced passes.

    Host interference on a shared machine only ever slows work, in
    stretches of seconds, so host-time metrics take the best sample of
    the run rather than the median: the fastest compile of each app, and
    each slice of the timed loop at its fastest pass. setup_s is the
    median of the set-up repetitions.
    """
    m = {"setup_s": benchstats.median(doc["setup_s"])}
    for app in APPS:
        if doc["workload"] == "compile":
            vals = [p["host"]["compile_s." + app] for p in passes]
        else:
            vals = doc["setup_compile_s"][app]
        m["compile_s." + app] = min(vals)
    m["alloc_objective"] = compile_fields(doc, passes[0])[0]["alloc_objective"]
    m["pkts_per_s"] = benchstats.best_segment_rate(
        field(passes[0], "sim.packets"), [p["segments"] for p in passes])
    for k in ("sim_goodput_mbps", "sim_p50_cycles", "sim_p99_cycles"):
        m[k] = benchstats.median([field(p, k) for p in passes])
    return m


def layer_metrics_of_pass(doc, p):
    """Per-layer metric values of one traced pass."""
    t = SpanTotals(pass_spans(doc, p))
    exact, counts = compile_fields(doc, p)
    px = dict(p["counts"], **p["exact"])
    m = {}
    for app_i, app in enumerate(APPS):
        alloc_s = t.busy_of("alloc.allocate", app_i)
        solve = counts["ilp.solve_s." + app]
        root = counts["ilp.root_lp_s." + app]
        m["alloc.allocate_s." + app] = alloc_s
        m["ilp.root_lp_s." + app] = root
        m["ilp.search_s." + app] = solve - root
        m["alloc.non_solve_s." + app] = alloc_s - solve if alloc_s else 0.0
        for k in ("ilp.vars", "ilp.cons", "ixp.instrs", "alloc.objective"):
            m["%s.%s" % (k, app)] = exact["%s.%s" % (k, app)]
        for k in ("ilp.nodes", "ilp.lp_iters", "alloc.moves"):
            m["%s.%s" % (k, app)] = counts["%s.%s" % (k, app)]
        instrs = px.get("sim.instructions." + app, 0)
        engine = t.busy_of("fastpath.engine", app_i)
        m["fastpath.engine_s." + app] = engine
        m["fastpath.ns_per_instr." + app] = (engine * 1e9 / instrs
                                             if engine and instrs else 0.0)
        m["sim.instructions." + app] = instrs
        m["sim.interp_s." + app] = t.busy_of("sim.interp", app_i)
        m["sim.functional_s." + app] = t.busy_of("sim.functional", app_i)
        m["cps.eval_s." + app] = t.busy_of("cps.eval", app_i)
        m["soak.oracle_other_s." + app] = t.self_of("soak.verify", app_i)
    for name in ("nova.parse", "nova.sema", "cps.convert", "cps.opt",
                 "ixp.isel"):
        m[name + "_s"] = t.busy_of(name)
    chip_self = t.self_of("chip.run")
    chip_instrs = px.get("chip.instructions", 0)
    m["chip.self_s"] = chip_self
    m["chip.ns_per_instr"] = (chip_self * 1e9 / chip_instrs
                              if chip_instrs else 0.0)
    m["soak.oracle_s"] = t.busy_of("soak.oracle") + t.busy_of("soak.verify")
    m["soak.oracle_checks"] = (t.total(t.calls, "soak.oracle") +
                               t.total(t.calls, "soak.verify"))
    m["soak.gen_s"] = t.busy_of("soak.gen")
    for name in ("checkpoint.save", "checkpoint.restore"):
        each = t.each.get(name)
        m[name + "_ms"] = benchstats.median(each) * 1e3 if each else 0.0
    m["fastpath.mem_reset_s"] = t.busy_of("fastpath.mem_reset")
    m["fastpath.translate_s"] = t.busy_of("fastpath.translate")
    for k in ("checkpoint.bytes", "chip.final_cycles", "chip.instructions",
              "chip.sdram_stall_cycles", "chip.sram_stall_cycles",
              "chip.scratch_stall_cycles", "chip.sdram_txns",
              "chip.sram_txns", "chip.scratch_txns", "chip.me_util_mean",
              "chip.reorder_high_water", "chip.tail_packets",
              "sim.delivered", "sim.rejected", "sim.drops.watchdog",
              "sim.drops.sdram_oor", "fastpath.superblocks"):
        m[k] = px.get(k, 0)
    return m, t


def layer_metrics(doc, traced, untraced):
    per_pass = [layer_metrics_of_pass(doc, p) for p in traced]
    m = {k: benchstats.median([pm[k] for pm, _ in per_pass])
         for k in per_pass[0][0]}
    wall_t = benchstats.median([p["wall_s"] for p in traced])
    wall_u = benchstats.median([p["wall_s"] for p in untraced])
    m["trace.overhead_pct"] = (wall_t / wall_u - 1.0) * 100.0
    m["process.peak_rss_mb"] = doc["peak_rss_mb"]
    return m, per_pass


def print_breakdown(doc, per_pass, traced, untraced):
    """Where the traced passes' time went, per span name (stderr)."""
    _, t = per_pass[len(per_pass) // 2]
    p = traced[len(per_pass) // 2]
    wall = p["wall_s"]
    names = sorted({n for n, _ in t.busy}, key=lambda n: -t.self_of(n))
    log("traced pass breakdown (%s, seed %s; pass wall %.3f s):"
        % (doc["workload"], doc["seed"], wall))
    log("  %-20s %10s %10s %10s %7s %12s" %
        ("span", "calls", "busy_s", "self_s", "self%", "per-call"))
    for n in names:
        calls = t.total(t.calls, n)
        each = t.each.get(n, [])
        tail = benchstats.tail_percentile(len(each))
        per_call = ""
        if each:
            per_call = "p50 %.3gs" % benchstats.percentile(each, 50)
            if tail:
                per_call += " p%g %.3gs" % (
                    tail, benchstats.percentile(each, tail))
        log("  %-20s %10d %10.4f %10.4f %6.1f%% %s" %
            (n, calls, t.busy_of(n), t.self_of(n),
             100.0 * t.self_of(n) / wall if wall else 0.0, per_call))
    rate = [benchstats.median([q["host"]["pkts_per_s"] for q in ps])
            for ps in (untraced, traced)]
    log("  pkts_per_s untraced %.1f, traced %.1f" % tuple(rate))


#
# Checks on exact fields
#


def check_exact(doc, spec, bdir, failures):
    """Returns (comparisons made, comparisons failed). Every pass of the run
    must agree on every exact field; set-up allocations (and the compile
    workload's own) must match spec.json's recorded ones; pass fields
    must match the values spec.json records for this seed and any
    earlier run of the same code and seed."""
    w, seed = doc["workload"], str(doc["seed"])
    fields = doc["passes"][0]["exact"]
    attempted = failed = 0

    def compare(what, ours, theirs):
        nonlocal attempted, failed
        attempted += 1
        diff = benchstats.exact_diff(ours, theirs)
        failed += bool(diff)
        for k, a, b in diff:
            failures.append("exact field %s differs from %s: %s != %s" % (
                k, what, repr(a) if k in ours else "<absent>",
                repr(b) if k in theirs else "<absent>"))

    marked = set(spec["workloads"][w]["exact"])
    compare("spec.json's exact list", dict.fromkeys(fields),
            dict.fromkeys(marked))
    for i, p in enumerate(doc["passes"][1:], 1):
        compare("pass %d" % i, fields, p["exact"])
    compare("spec.json's set-up record", doc["setup_exact"], spec["setup"])
    if w == "compile":
        compare("spec.json's set-up record",
                {k: fields.get(k) for k in spec["setup"]}, spec["setup"])
    recorded = spec["workloads"][w]["recorded"].get(seed)
    if recorded:
        compare("the recorded values for seed " + seed, fields, recorded)
    cache = bdir / "exact" / source_hash() / ("%s-%s.json" % (w, seed))
    if cache.is_file():
        compare("an earlier run of the same code", fields, load_json(cache))
    else:
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(fields, sort_keys=True))
        tmp.replace(cache)
    return attempted, failed


#
# Commands
#


def run_one(args, bench, spec, bdir, quiet=False):
    """Runs one workload; returns the result line as a dict."""
    runs = bdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    raw = runs / ("%s-%d-t%d.json" % (args.workload, args.seed, args.trace))
    cmd = [str(args.binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(raw)]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark program timed out after %d s" % RUN_TIMEOUT_S)
        sys.exit(1)
    if r.returncode != 0:
        log("benchmark program exited with %d" % r.returncode)
        sys.exit(1)
    doc = load_json(raw)

    failures = list(doc["checks"]["failures"])
    attempted = doc["checks"]["attempted"]
    failed = doc["checks"]["failed"]
    exact_attempted, exact_failed = check_exact(doc, spec, bdir, failures)
    attempted += exact_attempted
    failed += exact_failed

    untraced = [p for p in doc["passes"] if not p["traced"]]
    traced = [p for p in doc["passes"] if p["traced"]]
    if args.trace:
        values, per_pass = layer_metrics(doc, traced, untraced)
        values["fail_ratio"] = benchstats.fail_ratio(failed, attempted)
        wanted = bench["per_layer"]
        if not quiet:
            print_breakdown(doc, per_pass, traced, untraced)
    else:
        values = e2e_metrics(doc, untraced)
        wanted = bench["end_to_end"]
    metrics = {}
    for spec_m in wanted:
        name = spec_m["name"]
        if name not in values:
            failures.append("metric %s was not measured" % name)
            attempted += 1
            failed += 1
            continue
        metrics[name] = {"value": values[name], "unit": spec_m["unit"]}
    for f in failures:
        log("FAILED: " + f)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def cmd_all(args, bench, spec, bdir):
    results = {}
    for w in bench["workloads"]:
        name = w["name"]
        args.workload = name
        args.seed = spec["workloads"][name]["default_seed"]
        log("running %s (seed %d, %s s, trace %d)"
            % (name, args.seed, args.seconds, args.trace))
        results[name] = run_one(args, bench, spec, bdir, quiet=True)
    names = list(results)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    print("%-28s %-8s " % ("metric", "unit") +
          " ".join("%14s" % n for n in names))
    for m in wanted:
        cells = []
        for n in names:
            v = results[n]["metrics"].get(m["name"], {}).get("value")
            cells.append("%14s" % ("-" if v is None else "%.6g" % v))
        print("%-28s %-8s " % (m["name"], m["unit"]) + " ".join(cells))
    print("%-28s %-8s " % ("correct", "") +
          " ".join("%14s" % results[n]["correct"] for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        log("no BENCHMARK.json at the checkout root")
        sys.exit(2)
    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "spec.json")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not args.all:
        known = [w["name"] for w in bench["workloads"]]
        if args.workload not in known or args.seed is None:
            ap.error("--workload (one of %s) and --seed are required"
                     % ", ".join(known))
    bdir = build_dir()
    args.binary = build(bdir)
    if args.all:
        sys.exit(cmd_all(args, bench, spec, bdir))
    result = run_one(args, bench, spec, bdir)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
