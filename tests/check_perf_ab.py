#!/usr/bin/env python3
"""ctest self-test for scripts/perf_ab.py.

Runs the A/B runner against two stub "binaries" -- small Python scripts
that print fixed JSONL rows, a different row set on each call -- and
asserts on its JSON record:
  1. a seconds metric keeps each arm's minimum, a throughput metric its
     maximum;
  2. each arm's median, IQR and per-repeat values are reported;
  3. the runner exits 1 when no rows pair between the arms;
  4. --control runs A as a third arm, reports the A-vs-A band, and marks
     a row resolved only when its speedup lies outside that band.
It then drives the perfbench mode against two stub checkouts -- each a
directory with a BENCHMARK.json and a perfbench/run.py that prints fixed
metrics, a different set on each call -- and asserts:
  5. run.py is invoked as `--workload W --seed S --trace 0` in each
     checkout, the run order rotating every pair (A B, B A, ...), and the
     record names each checkout by its commit (by its path when it is not
     a git work tree) and the host by its CPU count;
  6. per metric, each arm's median/IQR/values, B's pairwise wins, the
     median change and the verdict: gain / loss / unresolved, plus
     within_bound against the declared bound;
  7. --control adds the A-vs-A statistics;
  8. a run reporting incorrect results stops the comparison, exit 1.

Usage: check_perf_ab.py <repo-root>
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile

# Per-call rows of each stub: call c prints ROWS[name][c % 3].  One row
# per call, keyed like a perf_simulator row.  "near" is A's rows made 5%
# faster: a gain smaller than A's own repeat-to-repeat spread.
ROWS = {
    "a": [
        {"build_seconds": 3.0, "routes_per_sec": 100.0},
        {"build_seconds": 2.0, "routes_per_sec": 300.0},
        {"build_seconds": 4.0, "routes_per_sec": 200.0},
    ],
    "b": [
        {"build_seconds": 1.5, "routes_per_sec": 400.0},
        {"build_seconds": 1.0, "routes_per_sec": 600.0},
        {"build_seconds": 2.5, "routes_per_sec": 500.0},
    ],
    "near": [
        {"build_seconds": 2.85, "routes_per_sec": 105.0},
        {"build_seconds": 1.9, "routes_per_sec": 315.0},
        {"build_seconds": 3.8, "routes_per_sec": 210.0},
    ],
}

STUB = """#!{python}
import json, os
counter = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "{arm}.calls")
calls = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(calls + 1))
row = dict(section="sparse", geometry="{geometry}", bits=32, threads=1)
row.update({rows}[calls % 3])
print("non-json banner line")
print(json.dumps(row))
"""


def write_stub(directory, arm, geometry, rows):
    path = os.path.join(directory, f"stub_{arm}.py")
    with open(path, "w") as fh:
        fh.write(STUB.format(python=sys.executable, arm=arm,
                             geometry=geometry, rows=repr(ROWS[rows])))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def run_ab(repo_root, directory, metric, geometry_b="ring", rows_b="b",
           control=False):
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    stub_a = write_stub(directory, "a", "ring", "a")
    stub_b = write_stub(directory, "b", geometry_b, rows_b)
    proc = subprocess.run(
        [sys.executable, os.path.join(repo_root, "scripts", "perf_ab.py"),
         "--a", stub_a, "--b", stub_b, "--repeats", "3",
         "--metric", metric] + (["--control"] if control else []),
        capture_output=True, text=True, check=False)
    return proc


def expect(condition, message, failures):
    if not condition:
        failures.append(message)


def check_record(repo_root, directory, metric, expected, failures,
                 **run_options):
    proc = run_ab(repo_root, directory, metric, **run_options)
    if proc.returncode != 0:
        failures.append(f"{metric}: exit {proc.returncode}\n{proc.stderr}")
        return
    record = json.loads(proc.stdout)
    rows = record["rows"]
    expect(len(rows) == 1, f"{metric}: expected one paired row", failures)
    row = rows[0]
    for field, value in expected.items():
        got = row.get(field)
        close = (isinstance(value, float) and isinstance(got, float)
                 and abs(got - value) < 1e-9)
        if isinstance(value, list) and isinstance(got, list):
            close = len(got) == len(value) and all(
                abs(g - v) < 1e-9 for g, v in zip(got, value))
        expect(close or got == value,
               f"{metric}: {field} = {got!r}, expected {value!r}",
               failures)
    expect("median" in proc.stderr and "IQR" in proc.stderr,
           f"{metric}: stderr summary lacks median/IQR", failures)
    if run_options.get("control"):
        expect(record.get("control") is True,
               f"{metric}: record lacks control = true", failures)
        expect(("UNRESOLVED" in proc.stderr) != row["resolved"],
               f"{metric}: stderr verdict disagrees with 'resolved'",
               failures)
    else:
        expect("control_band" not in row,
               f"{metric}: control fields without --control", failures)


# Per-call metrics of each stub checkout: call c reports BENCH_VALUES[name]
# [c % 3].  Against A, B's peak_rss_mb is a clear gain, its routes_per_s
# a coin toss and its wall_s a loss larger than the 24% bound.
BENCH_VALUES = {
    "a": [
        {"peak_rss_mb": 100.0, "routes_per_s": 10.0, "wall_s": 5.0},
        {"peak_rss_mb": 102.0, "routes_per_s": 12.0, "wall_s": 5.2},
        {"peak_rss_mb": 101.0, "routes_per_s": 11.0, "wall_s": 5.1},
    ],
    "b": [
        {"peak_rss_mb": 80.0, "routes_per_s": 11.0, "wall_s": 6.5},
        {"peak_rss_mb": 81.0, "routes_per_s": 11.5, "wall_s": 6.6},
        {"peak_rss_mb": 82.0, "routes_per_s": 10.5, "wall_s": 6.4},
    ],
}

BENCH_SPEC = {
    "end_to_end": [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.05},
        {"name": "routes_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.24},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    ],
}

RUN_STUB = """import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
counter = os.path.join(root, "calls")
calls = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(calls + 1))
with open(os.path.join(root, "argv.log"), "a") as fh:
    fh.write(" ".join(sys.argv[1:]) + "\\n")
with open(os.path.join(os.path.dirname(root), "order.log"), "a") as fh:
    fh.write(os.path.basename(root) + "\\n")
values = {values}[calls % 3]
print("== stub banner")
print(json.dumps({{"correct": {correct}, "attempted": 3, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "u"}}
                              for k, v in values.items()}}}}))
"""


def write_checkout(directory, arm, correct=True):
    root = os.path.join(directory, arm)
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(BENCH_SPEC, fh)
    with open(os.path.join(root, "perfbench", "run.py"), "w") as fh:
        fh.write(RUN_STUB.format(values=repr(BENCH_VALUES[arm]),
                                 correct=correct))
    return root


def run_bench_ab(repo_root, directory, control=False, correct_b=True):
    shutil.rmtree(directory)
    os.makedirs(directory)
    a = write_checkout(directory, "a")
    b = write_checkout(directory, "b", correct=correct_b)
    proc = subprocess.run(
        [sys.executable, os.path.join(repo_root, "scripts", "perf_ab.py"),
         "--bench-a", a, "--bench-b", b, "--workload", "churn_sync_sweep",
         "--seed", "7", "--pairs", "3"] + (["--control"] if control else []),
        capture_output=True, text=True, check=False)
    return proc, a, b


def read_order(directory):
    """Checkout names in the order their stub run.py was invoked."""
    with open(os.path.join(directory, "order.log")) as fh:
        return fh.read().splitlines()


def check_bench_mode(repo_root, directory, failures):
    proc, a, b = run_bench_ab(repo_root, directory)
    if proc.returncode != 0:
        failures.append(f"bench mode: exit {proc.returncode}\n{proc.stderr}")
        return
    for root, calls in ((a, 3), (b, 3)):
        with open(os.path.join(root, "argv.log")) as fh:
            argv = fh.read().splitlines()
        expect(argv == ["--workload churn_sync_sweep --seed 7 --trace 0"] *
               calls, f"bench mode: {root} ran {argv!r}", failures)
    expect(read_order(directory) == ["a", "b", "b", "a", "a", "b"],
           f"bench mode: run order {read_order(directory)!r}", failures)
    record = json.loads(proc.stdout)
    expect(record["a"] == a and record["b"] == b,
           f"bench mode: plain checkouts labelled {record['a']!r}, "
           f"{record['b']!r}", failures)
    expect(record["host"]["cpus"] == os.cpu_count(),
           f"bench mode: host {record['host']!r}", failures)
    series = record["series"]
    expect(len(series) == 1 and series[0]["seed"] == 7,
           "bench mode: expected one series for seed 7", failures)
    metrics = series[0]["metrics"]
    rss = metrics["peak_rss_mb"]
    expect(rss["a"]["values"] == [100.0, 102.0, 101.0] and
           rss["b"]["values"] == [80.0, 81.0, 82.0],
           f"bench mode: peak_rss_mb values {rss['a']} {rss['b']}",
           failures)
    expect(rss["a"]["median"] == 101.0 and rss["a"]["iqr"] == 1.0,
           "bench mode: A's peak_rss_mb median/IQR", failures)
    expect(rss["wins"] == 3 and rss["verdict"] == "gain" and
           rss["within_bound"], f"bench mode: peak_rss_mb {rss}", failures)
    expect(abs(rss["median_change"] - (81.0 / 101.0 - 1.0)) < 1e-12,
           "bench mode: peak_rss_mb median change", failures)
    routes = metrics["routes_per_s"]
    expect(routes["wins"] == 1 and routes["verdict"] == "unresolved",
           f"bench mode: routes_per_s {routes}", failures)
    wall = metrics["wall_s"]
    expect(wall["losses"] == 3 and wall["verdict"] == "loss" and
           not wall["within_bound"], f"bench mode: wall_s {wall}", failures)
    expect("control" not in rss, "bench mode: control without --control",
           failures)
    # --control runs A B A', B A' A, A' A B: A's checkout serves A on its
    # calls 0, 3, 5 = [100, 100, 101] and A' on calls 1, 2, 4 =
    # [102, 101, 102], so the A-vs-A arm loses every pair.
    proc, _, _ = run_bench_ab(repo_root, directory, control=True)
    if proc.returncode != 0:
        failures.append(f"bench --control: exit {proc.returncode}")
        return
    expect(read_order(directory) == ["a", "b", "a", "b", "a", "a",
                                     "a", "a", "b"],
           f"bench --control: run order {read_order(directory)!r}",
           failures)
    rss = json.loads(proc.stdout)["series"][0]["metrics"]["peak_rss_mb"]
    expect(rss["a"]["values"] == [100.0, 100.0, 101.0] and
           rss["c"]["values"] == [102.0, 101.0, 102.0] and
           rss["control"]["wins"] == 0 and
           rss["control"]["verdict"] == "loss",
           f"bench --control: {rss.get('control')}", failures)
    proc, _, _ = run_bench_ab(repo_root, directory, correct_b=False)
    expect(proc.returncode == 1 and "FAIL" in proc.stderr,
           f"bench mode: incorrect run gave exit {proc.returncode}",
           failures)
    if shutil.which("git"):
        check_commit_label(repo_root, directory, failures)


def check_commit_label(repo_root, directory, failures):
    """A checkout that is a git work tree is named by its commit."""
    shutil.rmtree(directory)
    os.makedirs(directory)
    a = write_checkout(directory, "a")
    b = write_checkout(directory, "b")
    git = ["git", "-C", b, "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"],
                 ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "--short=12", "HEAD"],
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    proc = subprocess.run(
        [sys.executable, os.path.join(repo_root, "scripts", "perf_ab.py"),
         "--bench-a", a, "--bench-b", b, "--pairs", "1"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        failures.append(f"commit label: exit {proc.returncode}")
        return
    record = json.loads(proc.stdout)
    expect(record["a"] == a and record["b"] == head,
           f"commit label: {record['a']!r}, {record['b']!r} (HEAD {head})",
           failures)


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    repo_root = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        # Seconds: best is the minimum.  A = [3, 2, 4], B = [1.5, 1, 2.5].
        check_record(repo_root, directory, "build_seconds", {
            "baseline": 2.0,
            "candidate": 1.0,
            "speedup": 2.0,
            "baseline_median": 3.0,
            "baseline_iqr": 1.0,
            "baseline_values": [3.0, 2.0, 4.0],
            "candidate_median": 1.5,
            "candidate_iqr": 0.75,
            "candidate_values": [1.5, 1.0, 2.5],
        }, failures)
        # Throughput: best is the maximum.  A = [100, 300, 200],
        # B = [400, 600, 500].
        check_record(repo_root, directory, "routes_per_sec", {
            "baseline": 300.0,
            "candidate": 600.0,
            "speedup": 2.0,
            "baseline_median": 200.0,
            "baseline_iqr": 100.0,
            "candidate_median": 500.0,
            "candidate_iqr": 100.0,
        }, failures)
        # Control arm: the A stub serves arms A and A', alternating calls,
        # so A = calls 0, 2, 4 = [3, 4, 2] and A' = calls 1, 3, 5 =
        # [2, 3, 4].  Band: best-of-N 2/2 = 1 and per repeat 3/2, 4/3, 2/4,
        # so [0.5, 1.5].  B's best-of-N 2.0x clears it...
        check_record(repo_root, directory, "build_seconds", {
            "baseline_values": [3.0, 4.0, 2.0],
            "control_values": [2.0, 3.0, 4.0],
            "control": 2.0,
            "control_speedup": 1.0,
            "control_band": [0.5, 1.5],
            "speedup": 2.0,
            "resolved": True,
        }, failures, control=True)
        # ... while a 5% faster B (2.0 / 1.9 = 1.053x) does not.
        check_record(repo_root, directory, "build_seconds", {
            "candidate": 1.9,
            "speedup": 2.0 / 1.9,
            "control_band": [0.5, 1.5],
            "resolved": False,
        }, failures, rows_b="near", control=True)
        # Throughput: A = [100, 200, 300], A' = [300, 100, 200]; per-repeat
        # B/A-style ratios A'/A = 3, 0.5, 2/3 and best-of-N 1, so a 1.05x
        # gain is unresolved.
        check_record(repo_root, directory, "routes_per_sec", {
            "control_band": [0.5, 3.0],
            "speedup": 1.05,
            "resolved": False,
        }, failures, rows_b="near", control=True)
        # No pairing: B's rows carry another geometry, so no key matches.
        proc = run_ab(repo_root, directory, "routes_per_sec",
                      geometry_b="xor")
        expect(proc.returncode == 1,
               f"unpaired arms: exit {proc.returncode}, expected 1",
               failures)
        expect("no comparable rows" in proc.stderr,
               "unpaired arms: missing 'no comparable rows' message",
               failures)
    with tempfile.TemporaryDirectory() as directory:
        check_bench_mode(repo_root, directory, failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("perf_ab self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
