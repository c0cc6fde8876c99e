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

Usage: check_perf_ab.py <repo-root>
"""

import json
import os
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
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("perf_ab self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
