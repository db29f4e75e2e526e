#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 301-310]
        [--sets 2] [--seconds S]

Run from the repository root. Runs `perfbench/run.py --trace 0` once per
(set, workload, seed), sets back to back, and prints for every workload
and end-to-end metric of BENCHMARK.json each set's median and spread,
the spread being (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, and how far each later set's median
lies from the first set's, in the metric's worse direction, as a share
of the first median. A metric passes when every spread (except that of
`setup_s`) and every median shift stays within its bound. The raw
results go to $CARGO_TARGET_DIR/perfbench/spread.json (default
`.bench_build`). Exits 1 when a run fails or a metric does not pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="301-310", type=seed_range)
    parser.add_argument("--sets", default=2, type=int)
    parser.add_argument("--seconds", default=bench["run_seconds"], type=int)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    runs = {}  # (set, workload) -> [metrics of each seed]
    for s in range(args.sets):
        for w in workloads:
            for seed in args.seeds:
                runs.setdefault((s, w), []).append(one_run(w, seed, args.seconds))
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr, flush=True)
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spread.json"), "w") as f:
        json.dump({f"{s + 1}/{w}": v for (s, w), v in runs.items()}, f, indent=1)

    ok = True
    print(f"{'workload':<12} {'metric':<18} {'median per set':<36} {'spread per set':<22} worse shift")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            meds, spreads = [], []
            for s in range(args.sets):
                values = [r[name] for r in runs[(s, w)]]
                meds.append(statistics.median(values))
                spreads.append(spread(values))
            shifts = [sign * (m - meds[0]) / meds[0] if meds[0] else 0.0 for m in meds[1:]]
            passed = all(x <= bound for x in shifts)
            if name != "setup_s":
                passed = passed and all(x <= bound for x in spreads)
            ok = ok and passed
            print(f"{w:<12} {name:<18} {' '.join(f'{m:.6g}' for m in meds):<36} "
                  f"{' '.join(f'{x:.1%}' for x in spreads):<22} "
                  f"{' '.join(f'{x:+.1%}' for x in shifts):<14} "
                  f"bound {bound:.0%} {'ok' if passed else 'OVER'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
