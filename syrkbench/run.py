#!/usr/bin/env python3
"""Build and run the SYRK stack benchmark, or compare two result sets.

Run one measurement from the repository root:

    python3 syrkbench/run.py --workload sweep-3case --seed 1 --seconds 20 --trace 0

The benchmark package is built in release mode into ``$CARGO_TARGET_DIR``
(default ``.bench_build``). With ``--trace 0`` the workload's set-up is
also measured in separate processes and ``setup_s`` reports the median of
all set-up samples. The last line of standard output is the result
object; the full record, with host and build metadata, is appended to
``.bench_out/results.jsonl``.

Compare two result sets (files of such records):

    python3 syrkbench/run.py compare BASE.jsonl NEW.jsonl

For each workload and metric it prints both sides' median and quartiles,
the pair wins of NEW over BASE, and a verdict against the bounds in
``BENCHMARK.json``. It also checks that the metric and workload names in
``BENCHMARK.json`` match what the runner printed. It exits non-zero on a
regression or a name mismatch.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up-only processes per --trace 0 run, beside the measured ones: at
# least MIN_SETUPS, and more while they have taken under SETUP_BUDGET_S
# (a sub-millisecond set-up needs many samples for a steady median), up
# to MAX_SETUPS.
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 4, 2.0, 24
# Measured processes per --trace 0 run; each figure is the median over
# them. A process's speed depends on state of its own (where the
# allocator places the large buffers, whether they are already backed
# by memory), so independent processes average it out. The gate runs
# once per process, so no cache carries over between its runs (and
# ignores --seconds); the others split --seconds among their processes.
PROCESSES = {"gate-2d-10k": 2, "sweep-3case": 3}
# Every run must end within 180 s; leave room for start-up and output.
DEADLINE_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark; return the binary path, or None on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(ROOT, target, "release", "syrkbench")


def run_child(binary, args, timeout):
    """Run the binary; return (exit code, stdout lines), killing it and
    waiting for it to end if it overruns ``timeout``."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args)} overran {timeout:.0f} s and was stopped")
        return None, []
    return done.returncode, done.stdout.splitlines()


def last_result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("the benchmark printed no result line")
        return None


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_hash():
    """SHA-256 over the sources that build the benchmarked program, so a
    record identifies its build even outside a git checkout."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "crates"), os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(HERE, "Cargo.toml")]
    for top in tops:
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith((".rs", ".toml"))]
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure(args):
    started = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    setup_attempted = setup_failed = 0
    setup_started = time.monotonic()

    def more_setups():
        n, spent = len(setup_samples), time.monotonic() - setup_started
        return n < MIN_SETUPS or (spent < SETUP_BUDGET_S and n < MAX_SETUPS)

    while not args.trace and more_setups():
        code, lines = run_child(binary, common + ["--setup-only"], deadline - time.monotonic())
        sample = last_result(lines)
        if sample is None:
            return 1
        setup_samples.append(sample["setup_s"])
        setup_attempted += sample["attempted"]
        setup_failed += sample["failed"] or int(code != 0)

    processes = 1 if args.trace else PROCESSES.get(args.workload, 1)
    seconds = max(1, round(args.seconds / processes))
    untraced = common + ["--seconds", str(seconds), "--trace", "0"]
    runs = []
    for _ in range(processes):
        code, lines = run_child(binary, untraced, deadline - time.monotonic())
        runs.append(last_result(lines))
        if code is None or runs[-1] is None:
            return 1
    if args.trace:
        # The tracing overhead is measured against an untraced run in a
        # process of its own.
        run_args = common + ["--seconds", str(args.seconds), "--trace", "1",
                             "--baseline-wall-s", repr(runs[0]["metrics"]["wall_s"]["value"])]
        code, lines = run_child(binary, run_args, deadline - time.monotonic())
        result = last_result(lines)
        if code is None or result is None:
            return 1
    else:
        result = runs.pop()
        setup_samples += [r["metrics"]["setup_s"]["value"] for r in runs + [result]]
        for name, m in result["metrics"].items():
            m["value"] = statistics.median([r["metrics"][name]["value"] for r in runs] + [m["value"]])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
    for r in runs:
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
        result["correct"] = result["correct"] and r["correct"]
    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        else:
            print(line)

    if not args.trace:
        if runs:
            print(f"  end-to-end figures are medians over {len(runs) + 1} processes")
        print(f"  setup_s is the median of {len(setup_samples)} set-ups: "
              + ", ".join(f"{s:.6f}" for s in setup_samples))
        result["attempted"] += setup_attempted
        result["failed"] += setup_failed
        result["correct"] = result["correct"] and not setup_failed

    meta.update({
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_hash(),
        "run_s": round(time.monotonic() - started, 3),
    })
    print("meta " + json.dumps(meta, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "meta": meta, "setup_samples": setup_samples,
              "result": result}
    try:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_out", "results.jsonl"), "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as e:
        log(f"cannot append the record: {e}")
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def check_names(spec, records):
    """Names in BENCHMARK.json against the names the runner printed."""
    problems = []
    workloads = {w["name"] for w in spec["workloads"]}
    for name in sorted({r["workload"] for r in records}):
        lengths = {r["seconds"] for r in records if r["workload"] == name}
        if len(lengths) > 1:
            problems.append(f"{name}: runs of different --seconds {sorted(lengths)} cannot be compared")
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for rec in records:
        if rec["workload"] not in workloads:
            problems.append(f"workload {rec['workload']!r} is not in BENCHMARK.json")
        got = {k: v["unit"] for k, v in rec["result"]["metrics"].items()}
        expected = want[rec["trace"]]
        for name in sorted(set(expected) - set(got)):
            problems.append(f"{rec['workload']} (trace {rec['trace']}): {name} not printed")
        for name in sorted(set(got) - set(expected)):
            problems.append(f"{rec['workload']} (trace {rec['trace']}): {name} not in BENCHMARK.json")
        for name in sorted(set(got) & set(expected)):
            if got[name] != expected[name]:
                problems.append(f"{name}: unit {got[name]!r} printed, {expected[name]!r} declared")
    return sorted(set(problems))


def compare(args):
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    problems = check_names(spec, base + new)
    for p in problems:
        print(f"NAME MISMATCH: {p}")
    regressed = False
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for w in spec["workloads"]:
            name = w["name"]
            side = {}
            for label, recs in (("base", base), ("new", new)):
                side[label] = sorted((r for r in recs if r["workload"] == name
                                      and r["trace"] == trace and r["result"]["correct"]),
                                     key=lambda r: r["seed"])
            if not side["base"] or not side["new"]:
                continue
            print(f"\n== {name} (trace {trace}): {len(side['base'])} base runs, "
                  f"{len(side['new'])} new runs ==")
            print(f"  {'metric':<32} {'base q1/med/q3':>34} {'new q1/med/q3':>34} "
                  f"{'wins':>9}  verdict")
            for m in metrics:
                b = [r["result"]["metrics"][m["name"]]["value"] for r in side["base"]
                     if m["name"] in r["result"]["metrics"]]
                n = [r["result"]["metrics"][m["name"]]["value"] for r in side["new"]
                     if m["name"] in r["result"]["metrics"]]
                if not b or not n:
                    continue
                bq, nq = quartiles(b), quartiles(n)
                lower = m.get("better", "lower") == "lower"
                pairs = list(zip(b, n))
                wins = sum((y < x) if lower else (y > x) for x, y in pairs)
                verdict = ""
                bound = m.get("bound")
                if bound is not None and bq[1] != 0:
                    worse = (nq[1] - bq[1]) / abs(bq[1]) * (1 if lower else -1)
                    spread = max((bq[2] - bq[0]) / abs(bq[1]),
                                 (nq[2] - nq[0]) / abs(nq[1]) if nq[1] else 0.0)
                    all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
                    gain = (bq[1] - nq[1]) * (1 if lower else -1)
                    if spread > bound and not all_better:
                        verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
                    elif worse > bound:
                        verdict = f"REGRESSED by {worse:.3f} (bound {bound})"
                        regressed = True
                    elif wins >= 0.9 * len(pairs) and gain > bq[2] - bq[0]:
                        verdict = f"improved by {-worse:.3f}"
                    else:
                        verdict = f"within bound ({worse:+.3f} of {bound})"
                fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
                print(f"  {m['name']:<32} {fmt(bq):>34} {fmt(nq):>34} "
                      f"{wins:>4}/{len(pairs):<4}  {verdict}")
    return 1 if problems or regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
        return compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return measure(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
