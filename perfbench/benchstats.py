"""Statistics and trace arithmetic shared by run.py and trace_summary.py.

Everything here is pure: lists of numbers or Chrome trace events in,
numbers out.  tests/test_benchstats.py pins the behaviour.
"""

import json
import statistics

# Percentiles considered for a latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def percentile(values, p):
    """Linear-interpolated percentile of `values` (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of `n`
    samples beyond it, or None when even the lowest has too few."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def latency_summary(samples):
    """Median and tail of per-call samples, with the sample count.

    Returns a dict with p50, tail, tail_pct and n.  With no samples every
    value is 0; when no tail percentile has enough samples beyond it, the
    tail is the median (tail_pct 50)."""
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    p = tail_percentile(n) or 50.0
    return {"p50": percentile(samples, 50.0), "tail": percentile(samples, p),
            "tail_pct": p, "n": n}


def format_latency(name, unit, summary):
    """One report line; every percentile carries its sample count."""
    n = summary["n"]
    if n == 0:
        return f"{name}: no calls"
    beyond = n * (100.0 - summary["tail_pct"]) / 100.0
    return (f"{name}: p50 {summary['p50']:.4g} {unit} (n={n}), "
            f"p{summary['tail_pct']:g} {summary['tail']:.4g} {unit} "
            f"(n={n}, {beyond:.1f} beyond)")


# --- trace events -------------------------------------------------------------

def load_events(path):
    """Complete ("X") events of a Chrome trace file."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    return [e for e in events if e.get("ph", "X") == "X"]


def union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def nest(events):
    """Assigns each event its parent on the same (pid, tid): the innermost
    event still open when it starts.  Returns {id(event): parent or None}."""
    parents = {}
    by_thread = {}
    for e in events:
        by_thread.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    for thread_events in by_thread.values():
        stack = []
        for e in sorted(thread_events, key=lambda e: (e["ts"], -e["dur"])):
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            parents[id(e)] = stack[-1] if stack else None
            stack.append(e)
    return parents


def self_times(events):
    """Self time of each event: its duration minus the part of its interval
    that its direct children cover.  Returns {id(event): self_us}."""
    parents = nest(events)
    children = {}
    for e in events:
        parent = parents[id(e)]
        if parent is not None:
            children.setdefault(id(parent), []).append(e)
    result = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = union_length(
            (max(c["ts"], start), min(c["ts"] + c["dur"], end))
            for c in children.get(id(e), ()) if c["ts"] < end and c["ts"] + c["dur"] > start)
        result[id(e)] = e["dur"] - covered
    return result


def summarize_spans(events):
    """{name: {"count", "incl_us", "self_us"}} over all events."""
    selfs = self_times(events)
    table = {}
    for e in events:
        # Pool tasks run on behalf of a phase carry the phase's name with
        # category "task"; keep them apart from the phase itself.
        name = e["name"] + (" [task]" if e.get("cat") == "task" else "")
        row = table.setdefault(name, {"count": 0, "incl_us": 0.0, "self_us": 0.0})
        row["count"] += 1
        row["incl_us"] += e["dur"]
        row["self_us"] += selfs[id(e)]
    return table


def covered_share(root, events):
    """Share of `root`'s interval covered by the other `events` (clipped)."""
    start, end = root["ts"], root["ts"] + root["dur"]
    if end <= start:
        return 0.0
    inside = ((max(e["ts"], start), min(e["ts"] + e["dur"], end))
              for e in events if e is not root and e["ts"] < end and e["ts"] + e["dur"] > start)
    return union_length(inside) / (end - start)
