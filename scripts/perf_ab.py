#!/usr/bin/env python3
"""Paired interleaved A/B benchmark runner for perf_simulator-style JSONL.

Benchmarking a perf change by timing binary A once and binary B once
confounds the change with machine drift (thermal state, page cache,
background load).  This runner de-confounds it the standard way:

 * A and B run INTERLEAVED (A B A B ...), so slow drift hits both arms
   about equally instead of landing on whichever ran second.
 * Each arm runs `--repeats` times and every metric keeps its BEST
   across repeats -- the minimum for seconds (metric names ending in
   `seconds` or `_s`), the maximum for anything else (throughput).
   Best-of-N is the usual estimator for the noise-free cost of a
   deterministic workload, since interference can only ever make a run
   slower.  Every repeat's value is kept too, and each arm's median and
   interquartile range (IQR) are reported next to best-of-N, so a claimed
   speedup can be read against the spread of the runs.
 * Rows are paired by (section, key columns) within each run, the same
   discipline as check_jsonl_determinism.py, and the speedup reported per
   row plus as a geometric mean over the selected rows.
 * With --control, A also runs as a third interleaved arm (A B A' ...),
   an A-vs-A comparison of the same binary.  Its speedups -- best-of-N
   and one per repeat, paired by repeat -- form the row's noise band.  A
   row whose A-vs-B speedup lies inside that band is marked unresolved:
   the same binary already produced a ratio that large.

Usage:
  perf_ab.py --a ./build-baseline/perf_simulator --b ./build/perf_simulator
             [--args "--threads 1 --pairs 0 ..."] [--repeats 3]
             [--metric routes_per_sec] [--section sparse_churn]
             [--filter key=value ...] [--control] [--out BENCH.json]
  perf_ab.py --bench-a ../parent --bench-b . --workload churn_sync_sweep
             [--workload ...] [--seed 1 --seed 20061] [--pairs 10]
             [--control] [--out BENCH_prNN.json]

The A/B binaries run with identical arguments.  --filter restricts the
compared rows (e.g. --filter inflight=false keeps only sync-mode rows).
Output: a human summary on stderr and one JSON record on stdout (or to
--out), with per-row best, median, IQR and every repeat's value for both
arms, and the geomean speedup.  Speedups are > 1 when B is better: B/A for
higher-is-better metrics, A/B for seconds.  With --control each row also
carries the control's values, its speedup and band, and `resolved`.
Exit status: 0 on success, 1 if no rows matched or a run failed.

The second form is the A/B path for the benchmark of record: it runs
`python3 perfbench/run.py --workload W --seed S --trace 0` inside two
checkouts in alternation, `--pairs` times per (workload, seed) series,
at the run length BENCHMARK.json declares.  The order rotates every pair:
A B, B A, A B, ... or, with --control, A B A', B A' A, A' A B, ...  Each
arm runs first equally often when --pairs is a multiple of the arm count
(2, or 3 with --control).  Each checkout builds its own measuring program
the first time.  For every end-to-end metric declared in
A's BENCHMARK.json it reports each arm's median, IQR and values, the
number of pairs B wins (in the metric's declared direction), the relative
change of the medians, and a verdict: "gain" when B wins at least 9 of
every 10 pairs AND its median beats A's by more than A's IQR, "loss" for
the mirror image, "unresolved" otherwise.  `within_bound` tells whether a
worse median stays inside the metric's declared bound.  With --control
the A-vs-A arm gets the same statistics, the noise such a comparison
shows on the same code.  The record names each checkout by its commit
(`git describe --always --dirty`; the path when the checkout is not the
top of a git work tree) and the host by CPU count and machine type, so
it is the script's output as written.  A run that fails or reports
incorrect results stops the comparison with exit status 1.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys

# Identity of a row within a section: the configuration axes the repo's
# benches vary, so re-runs pair up even if row order shifts.
KEY_FIELDS = [
    "section", "geometry", "mode", "bits", "n", "n0", "pairs", "succ",
    "inflight", "k", "session", "replicas", "cache_entries",
    "threads",
]


def to_str(value):
    """JSON-style stringification, so --filter inflight=false matches the
    literal that appears in the JSONL (Python would render it 'False')."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


def row_key(row, ignored):
    return tuple((f, to_str(row.get(f)))
                 for f in KEY_FIELDS if f in row and f not in ignored)


def parse_rows(stdout, section, filters, ignored):
    rows = {}
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if section and row.get("section") != section:
            continue
        if any(to_str(row.get(k)) != v for k, v in filters):
            continue
        rows[row_key(row, ignored)] = row
    return rows


def lower_is_better(metric):
    """Seconds columns (`build_seconds`, `phase_route_s`, ...) improve
    downwards; every other metric (throughput) improves upwards."""
    return metric.endswith("seconds") or metric.endswith("_s")


def quantile(sorted_values, q):
    """Linear-interpolation quantile of an ascending list (the inclusive
    method: q = 0 and q = 1 are the extremes)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo)


def summarize(values, lower):
    """Best-of-N (in the metric's direction), median and IQR of one arm's
    repeats."""
    ordered = sorted(values)
    return {
        "best": ordered[0] if lower else ordered[-1],
        "median": quantile(ordered, 0.5),
        "iqr": quantile(ordered, 0.75) - quantile(ordered, 0.25),
        "values": list(values),
    }


def speedup_of(baseline, candidate, lower):
    """> 1 when the candidate is better: A/B for seconds, B/A otherwise."""
    num, den = (baseline, candidate) if lower else (candidate, baseline)
    return num / den if den > 0 else float("inf")


def run_arm(binary, args):
    proc = subprocess.run([binary] + args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"FAIL: {binary} exited {proc.returncode}\n")
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    return proc.stdout


# The ROADMAP acceptance rule for a claimed gain: B better on at least this
# share of the pairs, and its median ahead by more than A's IQR.
WIN_SHARE = 0.9


def bench_metrics(checkout):
    """The end-to-end metrics a checkout's BENCHMARK.json declares:
    {name: {"unit", "better", "bound"}}."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: {"unit": m.get("unit", ""), "better": m["better"],
                        "bound": m.get("bound")}
            for m in spec["end_to_end"]}


def checkout_label(checkout):
    """The commit a checkout holds (`git describe --always --dirty`), or
    its path when it is not the top of a git work tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout] + list(args),
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else ""
    try:
        top = git("rev-parse", "--show-toplevel")
        if top and os.path.realpath(top) == os.path.realpath(checkout):
            return git("describe", "--always", "--dirty",
                       "--abbrev=12") or checkout
    except OSError:  # no git on this host
        pass
    return checkout


def run_bench(checkout, workload, seed):
    """One benchmark-of-record run in `checkout`; returns {metric: value}
    from the JSON line run.py ends with, or exits 1 on a failed run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = None
    for line in reversed(proc.stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            break
    if proc.returncode != 0 or record is None or not record.get("correct"):
        sys.stderr.write(f"FAIL: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
        sys.exit(1)
    return {name: entry["value"]
            for name, entry in record["metrics"].items()}


def compare_series(baseline, candidate, better):
    """Pairwise wins, median change and verdict of candidate vs baseline
    (lists in pair order)."""
    lower = better == "lower"
    a = summarize(baseline, lower)
    b = summarize(candidate, lower)
    pairs = min(len(baseline), len(candidate))
    wins = sum((y < x) if lower else (y > x)
               for x, y in zip(baseline, candidate))
    losses = sum((y > x) if lower else (y < x)
                 for x, y in zip(baseline, candidate))
    gap = (a["median"] - b["median"]) if lower else (b["median"] -
                                                      a["median"])
    needed = math.ceil(WIN_SHARE * pairs)
    if pairs > 0 and wins >= needed and gap > a["iqr"]:
        verdict = "gain"
    elif pairs > 0 and losses >= needed and -gap > a["iqr"]:
        verdict = "loss"
    else:
        verdict = "unresolved"
    change = (b["median"] / a["median"] - 1.0) if a["median"] else 0.0
    return {"pairs": pairs, "wins": wins, "losses": losses,
            "median_change": change, "verdict": verdict}, a, b


def bench_main(opts):
    """The two-checkout benchmark-of-record mode (see the module doc)."""
    metrics = bench_metrics(opts.bench_a)
    # Labelled before the runs: the record names what was measured.
    labels = {"a": checkout_label(opts.bench_a),
              "b": checkout_label(opts.bench_b)}
    workloads = opts.workload or ["churn_sync_sweep"]
    seeds = opts.seed or [1]
    arms = [("a", opts.bench_a), ("b", opts.bench_b)]
    if opts.control:
        arms.append(("c", opts.bench_a))
    series = []
    for workload in workloads:
        for seed in seeds:
            values = {arm: {} for arm, _ in arms}
            for pair in range(opts.pairs):
                # Rotate the run order each pair so every arm goes first
                # equally often over each len(arms) pairs: a drift in the
                # box's load (or a warm cache left by the previous run)
                # then favors no arm.
                shift = pair % len(arms)
                for arm, checkout in arms[shift:] + arms[:shift]:
                    sys.stderr.write(
                        f"[perf_ab] {workload} seed {seed} pair "
                        f"{pair + 1}/{opts.pairs} arm {arm.upper()}: "
                        f"{checkout}\n")
                    got = run_bench(checkout, workload, seed)
                    for name, value in got.items():
                        values[arm].setdefault(name, []).append(value)
            results = {}
            for name, meta in metrics.items():
                if not all(name in values[arm] for arm, _ in arms):
                    continue
                stats, a, b = compare_series(values["a"][name],
                                             values["b"][name],
                                             meta["better"])
                bound = meta["bound"]
                worse = (stats["median_change"] if meta["better"] == "lower"
                         else -stats["median_change"])
                stats["within_bound"] = bound is None or worse <= bound
                entry = dict(meta, a=a, b=b, **stats)
                note = ""
                if opts.control:
                    control, _, c = compare_series(values["a"][name],
                                                   values["c"][name],
                                                   meta["better"])
                    entry["c"] = c
                    entry["control"] = control
                    note = (f"; A-vs-A {control['wins']}/{control['pairs']}"
                            f" wins, {control['median_change']:+.1%}")
                results[name] = entry
                sys.stderr.write(
                    f"[perf_ab] {workload} seed {seed} {name}: median "
                    f"{a['median']:.4g} (IQR {a['iqr']:.3g}) -> "
                    f"{b['median']:.4g} (IQR {b['iqr']:.3g}), "
                    f"{stats['median_change']:+.1%}, B wins "
                    f"{stats['wins']}/{stats['pairs']}: {stats['verdict']}"
                    f"{'' if stats['within_bound'] else ' OUTSIDE BOUND'}"
                    f"{note}\n")
            series.append({"workload": workload, "seed": seed,
                           "metrics": results})
    record = {
        "bench": "perf_ab",
        "mode": "perfbench",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--trace 0",
        "a": labels["a"],
        "b": labels["b"],
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "pairs": opts.pairs,
        "control": opts.control,
        "rule": f"gain: B wins >= {WIN_SHARE:.0%} of pairs and its median "
                "beats A's by more than A's IQR",
        "series": series,
    }
    text = json.dumps(record, indent=2) + "\n"
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", help="baseline binary (arm A)")
    ap.add_argument("--b", help="candidate binary (arm B)")
    ap.add_argument("--bench-a", default="",
                    help="baseline checkout for the perfbench mode")
    ap.add_argument("--bench-b", default="",
                    help="candidate checkout for the perfbench mode")
    ap.add_argument("--workload", action="append", default=[],
                    help="perfbench workload (repeatable; default "
                         "churn_sync_sweep)")
    ap.add_argument("--seed", type=int, action="append", default=[],
                    help="perfbench seed (repeatable; default 1)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating runs per arm in the perfbench mode")
    ap.add_argument("--args", default="", help="arguments for both arms")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--metric", default="routes_per_sec",
                    help="row metric to compare (lower is better when the "
                         "name ends in 'seconds' or '_s', else higher)")
    ap.add_argument("--section", default="",
                    help="keep only rows of this JSONL section")
    ap.add_argument("--filter", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="keep only rows where KEY stringifies to VALUE")
    ap.add_argument("--ignore", action="append", default=[], metavar="KEY",
                    help="drop KEY from the pairing identity -- for columns "
                         "one arm's (older) schema does not emit yet")
    ap.add_argument("--control", action="store_true",
                    help="also run A as a third interleaved arm and mark "
                         "rows whose speedup stays inside the A-vs-A band")
    ap.add_argument("--out", default="", help="write the JSON record here")
    opts = ap.parse_args()
    if opts.bench_a or opts.bench_b:
        if not (opts.bench_a and opts.bench_b) or opts.pairs < 1:
            ap.error("the perfbench mode needs --bench-a, --bench-b and "
                     "--pairs >= 1")
        return bench_main(opts)
    if not (opts.a and opts.b):
        ap.error("--a and --b are required (or --bench-a and --bench-b)")

    filters = []
    for item in opts.filter:
        key, _, value = item.partition("=")
        filters.append((key, value))
    ignored = frozenset(opts.ignore)
    args = opts.args.split()

    lower = lower_is_better(opts.metric)
    arms = [("a", opts.a), ("b", opts.b)]
    if opts.control:
        arms.append(("c", opts.a))
    values = {arm: {} for arm, _ in arms}
    for repeat in range(max(1, opts.repeats)):
        # Interleave the arms so machine drift is shared, not attributed.
        for arm, binary in arms:
            sys.stderr.write(
                f"[perf_ab] repeat {repeat + 1}/{opts.repeats} arm "
                f"{arm.upper()}: {binary}\n")
            rows = parse_rows(run_arm(binary, args), opts.section, filters,
                              ignored)
            for key, row in rows.items():
                metric = row.get(opts.metric)
                if not isinstance(metric, (int, float)):
                    continue
                values[arm].setdefault(key, []).append(metric)

    shared = set(values["a"]) & set(values["b"])
    if opts.control:
        shared &= set(values["c"])
    shared = sorted(shared)
    if not shared:
        sys.stderr.write("FAIL: no comparable rows between the arms\n")
        return 1
    records = []
    log_sum = 0.0
    for key in shared:
        a = summarize(values["a"][key], lower)
        b = summarize(values["b"][key], lower)
        speedup = speedup_of(a["best"], b["best"], lower)
        log_sum += math.log(speedup)
        entry = {
            "key": {f: v for f, v in key},
            "baseline": a["best"],
            "candidate": b["best"],
            "speedup": speedup,
            "baseline_median": a["median"],
            "baseline_iqr": a["iqr"],
            "baseline_values": a["values"],
            "candidate_median": b["median"],
            "candidate_iqr": b["iqr"],
            "candidate_values": b["values"],
        }
        label = " ".join(f"{f}={v}" for f, v in key)
        verdict = ""
        if opts.control:
            c = summarize(values["c"][key], lower)
            # The A-vs-A band: best-of-N plus every repeat's paired ratio
            # (a row missing from some repeat pairs over the shorter list).
            control = [speedup_of(a["best"], c["best"], lower)] + [
                speedup_of(x, y, lower)
                for x, y in zip(a["values"], c["values"])]
            band = [min(control), max(control)]
            resolved = speedup < band[0] or speedup > band[1]
            entry.update({
                "control": c["best"],
                "control_speedup": control[0],
                "control_median": c["median"],
                "control_iqr": c["iqr"],
                "control_values": c["values"],
                "control_band": band,
                "resolved": resolved,
            })
            verdict = (f"; A-vs-A band {band[0]:.3f}-{band[1]:.3f}x"
                       f"{'' if resolved else ' UNRESOLVED'}")
        records.append(entry)
        sys.stderr.write(
            f"[perf_ab] {label}: best {a['best']:.4g} -> {b['best']:.4g} "
            f"({speedup:.3f}x); median {a['median']:.4g} "
            f"(IQR {a['iqr']:.3g}) -> {b['median']:.4g} "
            f"(IQR {b['iqr']:.3g}){verdict}\n")
    geomean = math.exp(log_sum / len(shared))
    sys.stderr.write(f"[perf_ab] geomean speedup over {len(shared)} rows: "
                     f"{geomean:.3f}x\n")
    if opts.control:
        unresolved = sum(not r["resolved"] for r in records)
        sys.stderr.write(f"[perf_ab] {unresolved} of {len(records)} rows "
                         f"inside their A-vs-A band (unresolved)\n")
    record = {
        "bench": "perf_ab",
        "metric": opts.metric,
        "better": "lower" if lower else "higher",
        "section": opts.section or None,
        "filters": [f"{k}={v}" for k, v in filters],
        "ignored_key_fields": sorted(ignored),
        "repeats": opts.repeats,
        "control": opts.control,
        "a": opts.a,
        "b": opts.b,
        "args": opts.args,
        "rows": records,
        "geomean_speedup": geomean,
    }
    text = json.dumps(record, indent=2) + "\n"
    if opts.out:
        with open(opts.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
