#!/usr/bin/env python3
"""Summarizes a traced benchmark run: inclusive and self time per span name,
and the share of the traced pass's wall time covered by named spans.

    python3 perfbench/trace_summary.py BENCH_SPANS [--program PROGRAM_TRACE]

BENCH_SPANS is the benchmark's own span file (bench_spans.json, written by
axf-perfbench --trace 1); PROGRAM_TRACE is the program's Chrome trace of
the same pass (what AXF_TRACE writes; program_trace.json).  Both are in
.bench_build/perfbench-out/<workload>/child0/ after `run.py --trace 1`.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats  # noqa: E402


def span_table(events, title, out):
    table = benchstats.summarize_spans(events)
    print(f"{title}:", file=out)
    print(f"  {'span':<30} {'count':>7} {'inclusive ms':>13} {'self ms':>11}", file=out)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
        print(f"  {name:<30} {row['count']:>7} {row['incl_us'] / 1e3:>13.2f} "
              f"{row['self_us'] / 1e3:>11.2f}", file=out)


def traced_pass(bench_events):
    """The root span of the traced pass (None when the file has none)."""
    roots = [e for e in bench_events if e["name"] == "pass"]
    return roots[0] if roots else None


def pass_coverage(bench_events):
    """Share of the traced pass covered by the benchmark's layer spans."""
    root = traced_pass(bench_events)
    if root is None:
        return 0.0
    return benchstats.covered_share(root, bench_events)


def program_coverage(program_events, pass_us):
    """Share of the traced pass covered by the program's own spans (any
    thread).  The program trace starts with the pass, so the pass spans
    [0, pass_us] on its clock."""
    if pass_us <= 0:
        return 0.0
    root = {"name": "pass", "ts": 0.0, "dur": pass_us}
    return benchstats.covered_share(root, program_events)


def main(argv=None, out=sys.stdout):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_spans")
    parser.add_argument("--program", help="the program's Chrome trace of the traced pass")
    args = parser.parse_args(argv)
    bench = benchstats.load_events(args.bench_spans)
    span_table(bench, "benchmark spans", out)
    root = traced_pass(bench)
    pass_us = root["dur"] if root else 0.0
    print(f"  traced pass {pass_us / 1e3:.2f} ms, covered by layer spans: "
          f"{100 * pass_coverage(bench):.1f}%", file=out)
    if args.program:
        program = benchstats.load_events(args.program)
        span_table(program, "program spans (AXF_TRACE)", out)
        print(f"  covered by program spans: {100 * program_coverage(program, pass_us):.1f}%",
              file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
