#!/usr/bin/env python3
"""Aggregate an LCN JSONL trace (LCN_TRACE output, DESIGN.md S19) into
per-span profile rollups and collapsed-stack flamegraph output.

Usage:
    python3 scripts/trace_profile.py trace.jsonl [--top N] [--folded out.txt]

For every span name the rollup reports:
  count    completed spans
  total    wall time summed over spans (children included)
  self     total minus time spent in child spans (the span's own cost)
  min/avg/max  per-span wall time

After the table it prints a Krylov census from the end events of the
fine-level cg_solve / bicgstab_solve spans (present at LCN_TRACE_LEVEL=2):
per solver, the solve count, how many did not converge, and the p50 / p99 /
max iterations (nearest rank).

Then a thread census: per tid, the busy seconds covered by its outermost
spans, and the share of the trace's wall time (first to last event) in which
exactly one thread was busy. On a full-width trace that share is the serial
part the coarse fan-out has not reached.

--folded writes collapsed-stack lines ("root;child;leaf <microseconds>"),
the input format of standard flamegraph tooling (flamegraph.pl, speedscope,
inferno). Samples are integer microseconds of *self* time per unique stack.

Stdlib only. Validates the trace while aggregating (same contract as
trace_to_chrome.py):
  - every line must parse as a self-contained JSON object,
  - begin/end events must pair up as a stack per thread,
  - timestamps must be monotone non-decreasing per thread.
Exits non-zero (with a message on stderr) on any violation.
"""

import argparse
import json
import math
import sys

KRYLOV_SPANS = ("cg_solve", "bicgstab_solve")


class SpanStats:
    __slots__ = ("count", "total_ns", "self_ns", "min_ns", "max_ns")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.min_ns = None
        self.max_ns = 0

    def record(self, total_ns, self_ns):
        self.count += 1
        self.total_ns += total_ns
        self.self_ns += self_ns
        self.min_ns = total_ns if self.min_ns is None else min(
            self.min_ns, total_ns)
        self.max_ns = max(self.max_ns, total_ns)


def aggregate(lines):
    """Return (stats_by_name, folded_by_stack, krylov, busy, wall, event_count,
    errors).

    krylov maps each Krylov span name to its solves' (iters, converged).
    busy maps each tid to the (start_ns, end_ns) of its outermost spans;
    wall is the (first, last) event timestamp, or None for an empty trace.
    """
    errors = []
    stats = {}    # name -> SpanStats
    folded = {}   # "a;b;c" -> self_ns
    krylov = {}   # "bicgstab_solve" -> [(iters, converged), ...]
    busy = {}     # tid -> [(start_ns, end_ns), ...] of outermost spans
    wall = None   # (first ts_ns, last ts_ns) over every event
    # tid -> [[name, start_ns, child_ns], ...] of open B events
    stacks = {}
    last_ts = {}  # tid -> last seen ts_ns
    events = 0
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            ev = json.loads(raw)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        ph = ev.get("ph")
        name = ev.get("name", "?")
        if ph == "M":
            continue  # manifest header
        if ph not in ("B", "E", "i", "C"):
            errors.append(f"line {lineno}: unknown phase {ph!r}")
            continue
        events += 1
        tid = ev.get("tid", 0)
        ts_ns = ev.get("ts_ns")
        if not isinstance(ts_ns, int):
            errors.append(f"line {lineno}: missing/non-integer ts_ns")
            continue
        if ts_ns < last_ts.get(tid, 0):
            errors.append(
                f"line {lineno}: non-monotonic ts_ns on tid {tid} "
                f"({ts_ns} < {last_ts[tid]})")
        last_ts[tid] = ts_ns
        wall = (ts_ns, ts_ns) if wall is None else (
            min(wall[0], ts_ns), max(wall[1], ts_ns))
        if ph == "B":
            stacks.setdefault(tid, []).append([name, ts_ns, 0])
        elif ph == "E":
            stack = stacks.setdefault(tid, [])
            if not stack:
                errors.append(f"line {lineno}: E '{name}' without open span "
                              f"on tid {tid}")
                continue
            if stack[-1][0] != name:
                errors.append(f"line {lineno}: E '{name}' does not match "
                              f"open span '{stack[-1][0]}' on tid {tid}")
                continue
            _, start_ns, child_ns = stack.pop()
            args = ev.get("args", {})
            if name in KRYLOV_SPANS and "iters" in args:
                krylov.setdefault(name, []).append(
                    (args["iters"], args.get("converged") is True))
            total_ns = ts_ns - start_ns
            self_ns = max(0, total_ns - child_ns)
            stats.setdefault(name, SpanStats()).record(total_ns, self_ns)
            path = ";".join([frame[0] for frame in stack] + [name])
            folded[path] = folded.get(path, 0) + self_ns
            if stack:
                stack[-1][2] += total_ns  # bill total into the parent
            else:
                busy.setdefault(tid, []).append((start_ns, ts_ns))
    for tid, stack in stacks.items():
        if stack:
            open_names = [frame[0] for frame in stack]
            errors.append(f"tid {tid}: unclosed span(s) at EOF: {open_names}")
    return stats, folded, krylov, busy, wall, events, errors


def fmt_ms(ns):
    return f"{ns / 1e6:.3f}"


def render_table(stats, top):
    rows = sorted(stats.items(), key=lambda kv: kv[1].self_ns, reverse=True)
    if top > 0:
        rows = rows[:top]
    header = ("span", "count", "self ms", "total ms", "min ms", "avg ms",
              "max ms")
    table = [header]
    for name, st in rows:
        avg_ns = st.total_ns / st.count if st.count else 0
        table.append((name, str(st.count), fmt_ms(st.self_ns),
                      fmt_ms(st.total_ns), fmt_ms(st.min_ns or 0),
                      fmt_ms(avg_ns), fmt_ms(st.max_ns)))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for ri, row in enumerate(table):
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells))
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def render_census(krylov):
    if not krylov:
        return ("krylov census: no cg_solve/bicgstab_solve end events "
                "(they are recorded at LCN_TRACE_LEVEL=2)")
    lines = []
    for name in KRYLOV_SPANS:
        solves = krylov.get(name)
        if not solves:
            continue
        iters = sorted(it for it, _ in solves)
        unconverged = sum(1 for _, ok in solves if not ok)
        lines.append(
            f"krylov census: {name} {len(solves)} solves, {unconverged} "
            f"unconverged, iterations p50 {nearest_rank(iters, 0.5)} "
            f"p99 {nearest_rank(iters, 0.99)} max {iters[-1]}")
    return "\n".join(lines)


def single_busy_ns(busy):
    """Nanoseconds in which exactly one thread is inside an outermost span."""
    edges = []
    for spans in busy.values():
        for start_ns, end_ns in spans:
            edges.append((start_ns, 1))
            edges.append((end_ns, -1))
    edges.sort()
    single = 0
    active = 0
    prev = None
    for ts_ns, step in edges:
        if active == 1:
            single += ts_ns - prev
        active += step
        prev = ts_ns
    return single


def render_threads(busy, wall):
    if not busy or wall is None:
        return "thread census: no completed outermost spans"
    lines = []
    for tid in sorted(busy):
        secs = sum(end - start for start, end in busy[tid]) / 1e9
        lines.append(f"thread census: tid {tid} busy {secs:.3f} s "
                     f"in {len(busy[tid])} outermost spans")
    wall_ns = wall[1] - wall[0]
    share = single_busy_ns(busy) / wall_ns if wall_ns > 0 else 0.0
    lines.append(f"thread census: {len(busy)} threads, wall "
                 f"{wall_ns / 1e9:.3f} s, one thread busy {share:.1%} of it")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Per-span self/total-time rollups from an LCN JSONL "
                    "trace, plus collapsed-stack flamegraph output.")
    parser.add_argument("trace", help="JSONL trace file (LCN_TRACE output)")
    parser.add_argument("--top", type=int, default=0,
                        help="show only the N spans with the most self time")
    parser.add_argument("--folded", metavar="PATH",
                        help="write collapsed-stack lines (flamegraph.pl / "
                             "speedscope input; samples = self-time us)")
    args = parser.parse_args(argv[1:])

    with open(args.trace, encoding="utf-8") as fh:
        stats, folded, krylov, busy, wall, events, errors = aggregate(fh)
    for err in errors:
        print(f"trace_profile: {err}", file=sys.stderr)

    if stats:
        print(render_table(stats, args.top))
    else:
        print("trace_profile: no completed spans in trace", file=sys.stderr)
    print(render_census(krylov))
    print(render_threads(busy, wall))

    if args.folded:
        with open(args.folded, "w", encoding="utf-8") as fh:
            for path in sorted(folded):
                fh.write(f"{path} {folded[path] // 1000}\n")
        print(f"trace_profile: {len(folded)} stacks -> {args.folded}")

    print(f"trace_profile: {events} events, "
          f"{sum(s.count for s in stats.values())} spans, "
          f"{len(stats)} span names")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
