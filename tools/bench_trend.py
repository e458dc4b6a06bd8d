#!/usr/bin/env python3
"""Diff a fresh google-benchmark JSON against the committed perf trajectory.

Usage:
    tools/bench_trend.py BENCH_kernels.json build/bench_kernels.json \
        [--threshold 0.20]

Compares items_per_second (falling back to inverted real_time when a
benchmark reports no items counter) for every benchmark name present in both
files and exits non-zero if any throughput regressed by more than
--threshold (default 20%). Benchmarks present in only one file are reported
but never fail the check, so adding or retiring benchmarks does not break
the trend step; aggregate rows (_mean/_median/_stddev/_cv) are ignored in
favour of the raw repetitions.

When the two files come from different hosts (context.num_cpus or
context.library_build_type differ) the report carries a HOST MISMATCH line:
the ratios then compare machines, not code. It changes no exit code.

The committed BENCH_*.json seeds at the repo root are the trajectory:
regenerate them with the same invocation CI uses (see .github/workflows/
ci.yml "Bench smoke") whenever a deliberate perf change lands, and note the
change in CHANGES.md.
"""

import argparse
import json
import sys

AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_min", "_max")
# Host facts that make two benchmark files incomparable when they differ.
HOST_KEYS = ("num_cpus", "library_build_type")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_throughputs(path):
    """name -> throughput (items/s, or 1/real_time as a fallback)."""
    return throughputs(load_json(path))


def throughputs(data):
    out = {}
    for bm in data.get("benchmarks", []):
        name = bm.get("name", "")
        if not name or name.endswith(AGGREGATE_SUFFIXES):
            continue
        if bm.get("run_type") == "aggregate":
            continue
        if "items_per_second" in bm:
            thr = float(bm["items_per_second"])
        elif bm.get("real_time"):
            thr = 1.0 / float(bm["real_time"])
        else:
            continue
        if thr > 0:
            out[name] = thr
    return out


def host_mismatch(base_data, fresh_data):
    """'key baseline vs fresh' for every HOST_KEYS entry that differs."""
    base_ctx = base_data.get("context") or {}
    fresh_ctx = fresh_data.get("context") or {}
    return ["%s %s vs %s" % (k, base_ctx.get(k), fresh_ctx.get(k))
            for k in HOST_KEYS if base_ctx.get(k) != fresh_ctx.get(k)]


def main():
    ap = argparse.ArgumentParser(
        description="Fail on >threshold throughput regression vs a "
        "committed benchmark JSON seed.")
    ap.add_argument("baseline", help="committed BENCH_*.json seed")
    ap.add_argument("fresh", help="fresh --benchmark_out JSON")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max tolerated fractional throughput drop "
                    "(default 0.20)")
    args = ap.parse_args()

    # Malformed or unreadable inputs exit 2 (distinct from exit 1 =
    # regression) so CI can tell "the bench run produced garbage" apart from
    # "the code got slower".
    try:
        base_data = load_json(args.baseline)
        fresh_data = load_json(args.fresh)
        base = throughputs(base_data)
        fresh = throughputs(fresh_data)
    except (OSError, json.JSONDecodeError) as e:
        print("bench_trend: cannot load benchmark JSON: %s" % e,
              file=sys.stderr)
        return 2

    regressions = []
    rows = []
    for name in sorted(set(base) | set(fresh)):
        if name not in base:
            rows.append((name, None, fresh[name], "new"))
            continue
        if name not in fresh:
            rows.append((name, base[name], None, "gone"))
            continue
        ratio = fresh[name] / base[name]
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSED"
            regressions.append((name, ratio))
        elif ratio > 1.0 + args.threshold:
            status = "improved"
        rows.append((name, base[name], fresh[name], status))

    width = max((len(r[0]) for r in rows), default=4)

    def fmt(v):
        if v is None:
            return "        -"
        if v >= 1e9:
            return "%7.2fG/s" % (v / 1e9)
        if v >= 1e6:
            return "%7.2fM/s" % (v / 1e6)
        return "%7.0f/s " % v

    mismatch = host_mismatch(base_data, fresh_data)
    if mismatch:
        print("HOST MISMATCH: %s (ratios compare hosts, not code)" %
              "; ".join(mismatch))
    print("%-*s  %10s  %10s  %7s  %s" %
          (width, "benchmark", "baseline", "fresh", "ratio", "status"))
    for name, b, f, status in rows:
        ratio = "" if (b is None or f is None) else "%6.2fx" % (f / b)
        print("%-*s  %10s  %10s  %7s  %s" %
              (width, name, fmt(b), fmt(f), ratio, status))

    if regressions:
        print("\n%d benchmark(s) regressed more than %.0f%%:" %
              (len(regressions), args.threshold * 100), file=sys.stderr)
        for name, ratio in regressions:
            print("  %s: %.2fx of baseline" % (name, ratio), file=sys.stderr)
        return 1
    print("\ntrend ok: no regression beyond %.0f%% across %d shared "
          "benchmark(s)" % (args.threshold * 100,
                            len([r for r in rows if r[3] != "new"
                                 and r[3] != "gone"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
