#!/usr/bin/env python3
"""The repository benchmark: builds axf-perfbench from source, runs one
workload (or, with --workload all, each in turn), checks its result digests
and prints its metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build/perfbench and
per-run files (child logs, span and program traces, metrics dumps) to
.bench_build/perfbench-out/<workload>/.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1) of BENCHMARK.json;
with --workload all, one such object per workload name.  Exits non-zero when
a pass fails a check or a digest differs.  See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import benchstats  # noqa: E402
import trace_summary  # noqa: E402

WORKLOADS = ("flow_cold_mul16", "flow_warm_zoo", "dse_gaussian")
# Fresh processes per untraced run: each pays set-up once (setup_s is their
# median) and then times passes for its share of --seconds.
SETUP_PROCESSES = 3
# A run must end within 180 s of its start, the build excepted.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 880.0

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "circuits_per_s": "1/s", "configs_per_s": "1/s",
    "peak_rss_mb": "MB", "front_coverage": "ratio", "exploration_speedup": "x",
}

LATENCY_FAMILIES = (
    # (metric prefix, span name, span file)
    ("synth.fpga_implement_ms", "synth.fpga_implement", "bench"),
    ("synth.lutmap_ms", "synth.lutmap", "bench"),
    ("synth.asic_ms", "synth.asic", "bench"),
    ("error.analyze_ms", "error.analyze", "bench"),
    ("ml.fit_ms", "ml.fit", "bench"),
    ("core.pareto_peel_ms", "core.pareto_peel", "bench"),
    ("autoax.filter_ms", "autoax.filter", "bench"),
    ("img.ssim_ms", "img.ssim", "bench"),
    ("search.epoch_ms", "search_epoch", "program"),
)

PER_LAYER = {}
for _prefix, _, _ in LATENCY_FAMILIES:
    PER_LAYER.update({_prefix + "_p50": "ms", _prefix + "_ptail": "ms",
                      _prefix + "_ptail_at": "pct", _prefix[:-3] + "_calls": "count"})
PER_LAYER.update({
    "synth.luts_mapped": "count", "gen.build_library_s": "s", "gen.circuits": "count",
    "core.characterize_s": "s", "core.flow_run_s": "s", "ml.tune_s": "s",
    "ml.predict_us_per_row": "us", "cache.open_s": "s", "cache.hit_ratio": "ratio",
    "cache.lookups": "count", "cache.corrupt_dropped": "count", "cache.stores": "count",
    "cache.flush_s": "s", "autoax.eval_configs_per_s": "1/s",
    "autoax.real_evaluations": "count", "autoax.estimator_queries": "count",
    "search.epochs": "count", "threadpool.tasks_run": "count", "fault.sites_per_s": "1/s",
    "fault.static_skip_ratio": "ratio", "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio", "trace.program_coverage": "ratio",
})


def log(msg):
    print(f"[perfbench] {msg}", flush=True)


def fail_setup(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def child_env():
    """Environment of build and benchmark processes: temporaries stay in
    the checkout's build directory."""
    tmp = os.path.join(os.getcwd(), ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(root):
    """Configures and builds axf-perfbench; returns the binary path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail_setup("the axf sources (CMakeLists.txt, src/) are not in the working directory", 2)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "axf-perfbench"])
    with open(os.path.join(build_dir, "perfbench-build.log"), "w") as out:
        for cmd in steps:
            # A session of its own, so a timeout stops the compilers too.
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=child_env(), start_new_session=True)
            try:
                code = proc.wait(timeout=BUILD_DEADLINE_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = "timeout"
            if code != 0:
                fail_setup(f"build failed ({' '.join(cmd)}: {code}); see {out.name}", 3)
    return os.path.join(build_dir, "axf-perfbench")


def run_child(binary, workload, seed, out_dir, budget, trace, deadline):
    """Runs one axf-perfbench process.  Returns (setup_s, result dict or
    None, error text or None)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--budget", f"{budget:.3f}", "--trace", "1" if trace else "0", "--out", out_dir]
    setup_s, last, error = None, None, None
    with open(os.path.join(out_dir, "stderr.log"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env())
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == "READY" and setup_s is None:
                    setup_s = time.perf_counter() - start
                elif line.strip():
                    last = line
        finally:
            code = proc.wait()
            watchdog.cancel()
            proc.stdout.close()
    if time.perf_counter() >= deadline:
        error = "deadline exceeded"
    elif code != 0:
        error = f"exit code {code}"
    result = None
    if error is None:
        try:
            result = json.loads(last)
        except (TypeError, ValueError):
            error = "no result line"
    return setup_s, result, error


def check_passes(children):
    """Counts attempted and failed passes over all processes: a pass fails
    when it raised, or when its digest differs from the first warm-up
    pass's (every pass of one seed computes the same result)."""
    attempted = failed = 0
    reference = None
    problems = []
    for index, (_, result, error) in enumerate(children):
        if result is None:
            attempted += 1
            failed += 1
            problems.append(f"process {index}: {error}")
            continue
        for p in result["passes"]:
            attempted += 1
            if "error" in p:
                failed += 1
                problems.append(f"process {index} {p['kind']} pass: {p['error']}")
            elif p["kind"] != "replay":
                if reference is None:
                    reference = p["digest"]
                if p["digest"] != reference:
                    failed += 1
                    problems.append(f"process {index} {p['kind']} pass: digest {p['digest']} "
                                    f"!= {reference}")
    return attempted, failed, problems


def good_passes(children, kind):
    return [p for _, result, _ in children if result is not None
            for p in result["passes"] if p["kind"] == kind and "error" not in p]


def end_to_end(children):
    timed = good_passes(children, "timed")
    if not timed:
        return None
    setups = [s for s, result, _ in children if s is not None and result is not None]
    rss = [result["peak_rss_mb"] for _, result, _ in children if result is not None]
    walls = [p["wall_s"] for p in timed]
    warmups = [p["wall_s"] for p in good_passes(children, "warmup")]
    log(f"{len(timed)} timed passes: {', '.join(f'{w:.3f}' for w in walls)}")
    if len(walls) >= 2:
        q1, q3 = benchstats.quartiles(walls)
        log(f"wall_s quartiles {q1:.4f} .. {q3:.4f} "
            f"(spread {benchstats.relative_spread(walls):.3f} of the median)")
    log(f"per process: setup_s {', '.join(f'{s:.3f}' for s in setups)}; "
        f"warm-up pass {', '.join(f'{w:.3f}' for w in warmups)}")
    med = statistics.median
    return {
        "wall_s": med(walls),
        "setup_s": med(setups),
        "circuits_per_s": med([p["circuits"] / p["wall_s"] for p in timed]),
        "configs_per_s": med([p["configs"] / p["wall_s"] for p in timed]),
        "peak_rss_mb": med(rss),
        "front_coverage": med([p["front_coverage"] for p in timed]),
        "exploration_speedup": med([p["exploration_speedup"] for p in timed]),
    }


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(children, out_dir):
    """Per-layer metrics of the traced process (the only child)."""
    _, result, _ = children[0]
    traced = good_passes(children, "traced")
    untraced = good_passes(children, "timed")
    if result is None or not traced or not untraced:
        return None
    counts = result["counts"]
    bench_file = os.path.join(out_dir, "bench_spans.json")
    program_file = os.path.join(out_dir, "program_trace.json")
    bench = benchstats.load_events(bench_file)
    program = benchstats.load_events(program_file)
    trace_summary.main([bench_file, "--program", program_file])

    def spans(name, events=bench):
        # The program re-records a phase's name on each pool worker that runs
        # a task for it (category "task"); only the phase itself counts here.
        return [e for e in events if e["name"] == name and e.get("cat") != "task"]

    def total_s(name, events=bench):
        return sum(e["dur"] for e in spans(name, events)) / 1e6

    metrics = {}
    for prefix, span, source in LATENCY_FAMILIES:
        samples = [e["dur"] / 1e3 for e in spans(span, bench if source == "bench" else program)]
        s = benchstats.latency_summary(samples)
        log(benchstats.format_latency(prefix, "ms", s))
        metrics[prefix + "_p50"] = s["p50"]
        metrics[prefix + "_ptail"] = s["tail"]
        metrics[prefix + "_ptail_at"] = s["tail_pct"]
        metrics[prefix[:-3] + "_calls"] = s["n"]

    count = lambda name: counts.get(name, 0)  # noqa: E731
    lookups = count("cache.hits") + count("cache.misses")
    tunes = [e["dur"] / 1e6 for e in spans("ml.tune")]
    pass_wall = traced[0]["wall_s"]
    metrics.update({
        "synth.luts_mapped": count("synth.luts_mapped"),
        "gen.build_library_s": total_s("gen.build_library"),
        "gen.circuits": count("gen.circuits"),
        "core.characterize_s": total_s("core.characterize"),
        "core.flow_run_s": total_s("core.flow_run"),
        "ml.tune_s": statistics.median(tunes) if tunes else 0.0,
        "ml.predict_us_per_row": ratio(total_s("ml.predict") * 1e6, count("ml.predict_rows")),
        "cache.open_s": total_s("cache.open"),
        "cache.hit_ratio": ratio(count("cache.hits"), lookups),
        "cache.lookups": lookups,
        "cache.corrupt_dropped": count("cache.corrupt_dropped"),
        "cache.stores": count("cache.stores"),
        "cache.flush_s": total_s("cache.flush"),
        "autoax.eval_configs_per_s": ratio(count("autoax.eval_batch_configs"),
                                           total_s("autoax.eval_batch")),
        "autoax.real_evaluations": count("autoax.real_evaluations"),
        "autoax.estimator_queries": count("autoax.estimator_queries"),
        "search.epochs": count("search.epochs"),
        "threadpool.tasks_run": count("threadpool.tasks_run"),
        "fault.sites_per_s": ratio(count("fault.sites_total"),
                                   total_s("fault_campaign", program)),
        "fault.static_skip_ratio": ratio(count("fault.sites_static_skipped"),
                                         count("fault.sites_total")),
        "trace.overhead_ratio": pass_wall / statistics.median([p["wall_s"] for p in untraced]),
        "trace.span_coverage": trace_summary.pass_coverage(bench),
        "trace.program_coverage": trace_summary.program_coverage(program, pass_wall * 1e6),
    })
    return metrics


def run_workload(binary, root, workload, seed, seconds, trace):
    """Runs one workload; returns the result object run.py prints."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    out_root = os.path.join(root, ".bench_build", "perfbench-out", workload)
    shutil.rmtree(out_root, ignore_errors=True)

    processes = 1 if trace else SETUP_PROCESSES
    children = []
    for index in range(processes):
        out_dir = os.path.join(out_root, f"child{index}")
        children.append(run_child(binary, workload, seed, out_dir, seconds / processes, trace,
                                  deadline))
        shutil.rmtree(os.path.join(out_dir, "cache"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "persist"), ignore_errors=True)

    attempted, failed, problems = check_passes(children)
    for problem in problems:
        log(f"FAILED {problem}")
    metrics = (per_layer(children, os.path.join(out_root, "child0")) if trace
               else end_to_end(children))
    if metrics is None:
        fail_setup(f"{workload}: no pass completed", 4)
    units = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(units):
        fail_setup("metric set out of sync with END_TO_END / PER_LAYER", 5)
    log(f"failed_ratio = {failed / attempted:.4g} ({failed} of {attempted} passes)")
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description="axf repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        log(f"workload {workload}")
        results[workload] = run_workload(binary, root, workload, args.seed, args.seconds,
                                         bool(args.trace))
    # One workload prints its result object; "all" prints them by workload.
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
