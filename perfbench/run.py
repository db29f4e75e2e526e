#!/usr/bin/env python3
"""Benchmark entry point for the BFGTS simulator.

    python3 perfbench/run.py --workload paper_grid|scale_1024|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `bfgts_serve` (repository workspace)
and the harness (`perfbench/harness`, a workspace of its own) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the harness,
and prints its metric table, the host facts, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end set, with --trace 1 the per-layer ledger. The
exit code is non-zero when the build fails or the correctness gate fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_build(args):
    """Runs one release build; its output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log(f"build failed: {' '.join(cmd)}")
        sys.exit(1)


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts():
    git = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "git_revision": git,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def run_harness(cmd):
    """Runs the harness; returns (stdout text, exit code, peak RSS in MB).

    The peak RSS is that of the harness and every process it waited for
    (the `bfgts_serve` it drives included), from wait4's rusage.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_grid", "scale_1024", "serve_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    for required in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "bench")):
        if not os.path.exists(os.path.join(ROOT, required)):
            log(f"not a repository checkout: {required} is missing")
            sys.exit(1)
    cargo_build(["-p", "bfgts-bench", "--bin", "bfgts_serve"])
    cargo_build(["--manifest-path", HARNESS_MANIFEST])

    release = os.path.join(target_dir(), "release")
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(out_dir, f"spans-{tag}.jsonl")
    cmd = [
        os.path.join(release, "bfgts-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "bfgts_serve"),
        "--spans", spans,
    ]
    out, code, peak_rss_mb = run_harness(cmd)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        log(f"harness exited {code} without a result line")
        sys.exit(code or 1)
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        lines.insert(-1, f"{'peak_rss_mb':<28} {peak_rss_mb:>18.6f} MB")
    facts = host_facts()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": facts, "result": result}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    sys.exit(code)


if __name__ == "__main__":
    main()
