#!/usr/bin/env python3
"""Build and run the benchmark, check its result, and compare result sets.

Run one measurement (the form the metrics contract names):

    python3 perfbench/run.py --workload handshake_churn --seed 1 --seconds 30 --trace 0

Add ``--save FILE`` to append the full record (host, kernel labels,
checks and result) to a JSON-lines file inside the checkout.

    python3 perfbench/run.py --smoke
        runs every workload briefly, traced and untraced, and checks that
        every metric BENCHMARK.json names is present, finite and in its unit.

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
        prints per-workload, per-metric median ratios NEW/BASE and flags
        the end-to-end metrics that got worse by more than their bound.

The benchmark is a Cargo package of its own (``perfbench/Cargo.toml``)
built from the checkout's sources into ``$CARGO_TARGET_DIR`` (default
``.bench_build`` at the checkout root).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC.name}: {e}")


def tool_output(cmd):
    # A checkout that is not a git repository must not report the rev of
    # a repository that happens to enclose it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build():
    """Builds the release binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (report lines, result object)."""
    env = dict(os.environ,
               PERFBENCH_RUSTC=tool_output(["rustc", "--version"]),
               PERFBENCH_GIT_REV=tool_output(["git", "rev-parse", "HEAD"]))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not JSON: {lines[-1][:200]}")
    return lines[:-1], result


def check_result(spec, result, trace):
    """Checks the result object against BENCHMARK.json; returns problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append(f"correct={result['correct']!r}")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1
            and 0 <= failed <= attempted):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{m['name']}: missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not trace and value == 0:
            problems.append(f"{m['name']}: end-to-end metric is 0")
    return problems


def save(path, workload, seed, seconds, trace, report, result):
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "report": report, "result": result}
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")


def measure(args):
    spec = load_spec()
    binary = build()
    report, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    problems = check_result(spec, result, args.trace == 1)
    for line in report:
        print(line)
    if problems:
        fail("; ".join(problems))
    if not result["correct"]:
        print("run.py: the benchmark's output checks failed; see 'perfbench checks'",
              file=sys.stderr)
    if args.save:
        save(args.save, args.workload, args.seed, args.seconds, args.trace, report, result)
    print(json.dumps(result))


def smoke():
    spec = load_spec()
    binary = build()
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result = run_once(binary, w["name"], 1, 1, trace)
            problems = check_result(spec, result, trace == 1)
            if result.get("correct") is not True:
                problems.append("outputs were not correct")
            n = len(result.get("metrics", {}))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']:<16} trace={trace} metrics={n:<3} {status}")
            bad += bool(problems)
    if bad:
        fail(f"{bad} smoke run(s) failed")
    print("smoke: every metric present, finite and in its unit")


def compare(base_path, new_path):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def medians(path):
        values = {}
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(m["value"])
        return {k: (statistics.median(v), len(v)) for k, v in values.items()}

    base, new = medians(base_path), medians(new_path)
    flagged = 0
    print(f"{'workload':<16} {'metric':<36} {'unit':<6} {'base':>12} {'new':>12} {'new/base':>9}")
    for key in sorted(set(base) & set(new)):
        (b, nb), (n, nn) = base[key], new[key]
        ratio = n / b if b else float("nan")
        flag = ""
        spec_m = bounds.get(key[1])
        if spec_m and b:
            worse = (n - b) / abs(b) if spec_m["better"] == "lower" else (b - n) / abs(b)
            if worse > spec_m["bound"]:
                flag = f"  WORSE by {worse:.1%} > bound {spec_m['bound']:.0%}"
                flagged += 1
        print(f"{key[0]:<16} {key[1]:<36} {units.get(key[1], '?'):<6} {b:>12.4g} {n:>12.4g} "
              f"{ratio:>9.3f}  (n={nb}/{nn}){flag}")
    print(f"compare: {flagged} end-to-end metric(s) outside their bound")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--save", help="append the full record to this JSON-lines file")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.smoke:
        smoke()
    elif args.compare:
        compare(*args.compare)
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    else:
        measure(args)


if __name__ == "__main__":
    main()
