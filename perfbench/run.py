#!/usr/bin/env python3
"""dhtscale's benchmark of record.

Builds the library and the measuring program (perfbench/measure.cpp) from
the checkout's sources, runs one workload (or both), prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts the estimates checked and `failed` those that failed a
check; their ratio is check_fail_ratio.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.

Usage, from the repository root:

    python3 perfbench/run.py --workload static_grid --seed 1 --trace 0
    python3 perfbench/run.py            # both workloads, untraced

Exits non-zero when a check fails, when the sources are missing, or when
the build fails.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("static_grid", "churn_sync_sweep")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4",
                    "--target", "perfbench_measure"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_measure")


def source_identity():
    """Git commit when the checkout is a git repository, plus a digest of
    src/ that identifies the measured code in any checkout."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def tail(values):
    """(label, value) of the highest nearest-rank percentile with at least
    ten samples above it, or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # 0-based rank; ranks k+1..n-1 are the ten beyond it
    ordered = sorted(values)
    return "p%d" % (100 * (k + 1) // n), ordered[k]


def self_times(spans):
    """Per span name: (total self seconds, count).  Self time is a span's
    duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start_s"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_s"]):
            lo = max(c["start_s"], cursor, s["start_s"])
            hi = min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total, count = out.get(s["name"], (0.0, 0))
        out[s["name"]] = (total + s["end_s"] - s["start_s"] - covered,
                          count + 1)
    return out


def end_to_end(record):
    rounds = list(zip(record["round_attempts"], record["round_wall_s"]))
    setup = statistics.median(record["setup_wall_s"])
    return {
        "routes_per_s": statistics.median(a / w for a, w in rounds),
        "wall_s": setup + statistics.median(record["round_wall_s"]),
        "setup_s": setup,
        "cpu_s": statistics.median(record["round_cpu_s"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def per_layer(record, names):
    """Per-layer values: exact counts as recorded, per-call samples as
    their median; layers the workload never calls read 0."""
    values = {}
    for name in names:
        if name == "setup.cold_s":
            values[name] = record["setup_wall_s"][0]
        elif name == "obs.trace_overhead":
            values[name] = (statistics.median(record["traced_round_wall_s"]) /
                            statistics.median(record["round_wall_s"]) - 1.0)
        elif name in record["exact"]:
            values[name] = record["exact"][name]
        elif record["samples"].get(name):
            values[name] = statistics.median(record["samples"][name])
        else:
            values[name] = 0
    return values


def report(workload, record, metrics, units, trace, identity, spans):
    meta = record["meta"]
    checks = record["checks"]
    ratio = checks["failed"] / checks["checked"] if checks["checked"] else 1.0
    print("== %s  seed=%d  trace=%d" % (workload, meta["seed"], trace))
    print("   threads=%d nproc=%d shards=%s setup_reps=%d rounds=%d "
          "L2=%d B L3=%d B build=%s flags='%s' compiler=%s "
          "commit=%s src=%s" % (
              meta["threads"], meta["nproc"], meta["shards"],
              meta["setup_reps"], len(record["round_wall_s"]),
              meta["l2_bytes"], meta["l3_bytes"], meta["build_type"],
              meta["cxx_flags"].strip(), meta["compiler"], identity[0],
              identity[1]))
    if not trace:
        print("   %-32s %16.6g s  (set-up 0, the first in the process; "
              "setup_s is the median of %d)" % (
                  "setup_cold_s", record["setup_wall_s"][0],
                  meta["setup_reps"]))
    for name, value in metrics.items():
        line = "   %-32s %16.6g %s" % (name, value, units[name])
        samples = record["samples"].get(name)
        if trace and samples:
            t = tail(samples)
            line += "  (p50 of n=%d%s)" % (
                len(samples),
                ", %s=%.6g" % t if t else ", no percentile has 10 beyond")
        elif trace and name not in record["exact"] and \
                name not in ("obs.trace_overhead", "setup.cold_s"):
            line += "  (layer not called by this workload)"
        if name.startswith("sparse.table_bytes"):
            line += "  computed from array sizes; L2=%d L3=%d" % (
                meta["l2_bytes"], meta["l3_bytes"])
        print(line)
    print("   %-32s %16.6g ratio  (%d of %d estimates failed a check)" % (
        "check_fail_ratio", ratio, checks["failed"], checks["checked"]))
    for name, value in sorted(record["reference"].items()):
        print("   reference %-30s %.6f" % (name, value))
    for message in checks["messages"]:
        print("   CHECK FAILED: " + message)
    if spans:
        print("   span self time (s, count), largest first:")
        for name, (total, count) in sorted(spans.items(),
                                           key=lambda kv: -kv[1][0])[:20]:
            print("     %-52s %10.4f %6d" % (name, total, count))


def run_one(program, spec, workload, seed, seconds, trace, identity):
    out_dir = os.path.join(build_dir(), "records")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    record_path = os.path.join(out_dir, stem + ".json")
    spans_path = os.path.join(out_dir, stem + "-spans.json")  # beside the record
    subprocess.run([program, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", record_path],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=RUN_TIMEOUT_S)
    with open(record_path) as f:
        record = json.load(f)
    spans = None
    if trace:
        with open(spans_path) as f:
            spans = self_times(json.load(f)["spans"])
        wanted = spec["per_layer"]
        metrics = per_layer(record, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        metrics = end_to_end(record)
    units = {m["name"]: m["unit"] for m in wanted}
    report(workload, record, metrics, units, trace, identity, spans)
    record["meta"].update(commit=identity[0], src_digest=identity[1])
    record["metrics"] = metrics
    with open(record_path, "w") as f:
        json.dump(record, f)
    return record["checks"], {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or (args.seconds is not None and not args.seconds > 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ next to perfbench/; nothing to measure")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    identity = source_identity()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        try:
            checks, values = run_one(program, spec, workload, args.seed,
                                     seconds, args.trace, identity)
        except (OSError, subprocess.SubprocessError, ValueError) as e:
            log("perfbench: %s failed: %s" % (workload, e))
            return 2
        attempted += checks["checked"]
        failed += checks["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
