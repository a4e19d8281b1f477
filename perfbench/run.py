#!/usr/bin/env python3
"""Host wall-clock benchmark of the Cudele reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload batchfs_merge --seed 1 --seconds 40 --trace 0

Builds the `cudele-perfbench` package (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload's equivalence self-test once, then runs
the workload in fresh processes until --seconds have passed. Each process
runs the pipeline once; for the workloads BENCHMARK.json lists that takes
well under a second, so a run makes hundreds of them. With --trace 0 it
reports the end-to-end metrics: ops_per_s and setup_s from the fastest
process (see NOTES.md, Steadiness), peak_rss_mb as the median. With --trace 1 it alternates
untraced and traced processes and reports the per-layer split (medians
over the traced processes). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it are for
people: a host note, the spread of the per-process times (fastest, median,
p90, count), and a summary with error_rate and the telemetry drop
counters.

`--workload all` runs every workload in turn and prints each one's lines.

Exits non-zero without a result when the program cannot be built or no
process completes.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

# Every workload the benchmark program runs. BENCHMARK.json lists the
# ones whose run-to-run spread fits its bounds; posix_create is runnable
# by name but left out there (see NOTES.md).
WORKLOADS = ["posix_create", "batchfs_merge", "history_check", "shared_open_loop"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "cudele-perfbench"
# Fewest processes a --trace 0 run measures, however long each takes.
MIN_PROCESSES = 5
# Stop starting processes once this much time has gone since the build,
# so a slow host still finishes inside the three minutes a run may take.
HARD_STOP_S = 120.0
# No process may run past this point (seconds since the build).
DEADLINE_S = 165.0


def log(*parts):
    print(*parts, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    binary = os.path.join(target, "release", BINARY)
    if r.returncode != 0 or not os.path.isfile(binary):
        fail(f"build failed (cargo exit {r.returncode})")
    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    return binary, scratch


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    patterns = ["Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "shims/**/*.rs", "shims/**/Cargo.toml", "perfbench/**/*"]
    files = set()
    for p in patterns:
        files.update(f for f in glob.glob(os.path.join(ROOT, p), recursive=True)
                     if os.path.isfile(f))
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def host_note():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit = command_output(["git", "rev-parse", "--short=12", "HEAD"])
    if not commit:
        commit = "none (not a git checkout), sources sha256 " + source_digest()
    rustc = command_output(["rustc", "--version"]) or "unknown"
    return (f"host: nproc={nproc} cpu={cpu!r} rustc={rustc!r} "
            f"profile=release(opt-level=3, debug=line-tables-only) commit={commit}")


def child(binary, scratch, mode, workload, seed, deadline):
    """Runs one benchmark process; returns its JSON line, or None."""
    cmd = [binary, mode, workload, "--seed", str(seed), "--scratch", scratch]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"  {mode}: timed out after {timeout:.0f} s")
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        tail = r.stderr.strip().splitlines()[-3:]
        log(f"  {mode}: exit {r.returncode}: {' | '.join(tail)}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(f"  {mode}: unparsable output {lines[-1][:200]!r}")
        return None


def median(values):
    return statistics.median(values) if values else None


def spread_line(what, seconds):
    """One line for people: fastest, median and p90 of per-process times."""
    xs = sorted(seconds)
    p90 = xs[min(len(xs) - 1, int(0.9 * len(xs)))]
    return (f"  {what}: fastest {xs[0] * 1e3:.4f} ms, median {median(xs) * 1e3:.4f} ms, "
            f"p90 {p90 * 1e3:.4f} ms over {len(xs)} processes")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload == "all":
        # For people: every workload in turn, each exactly as alone.
        for name in WORKLOADS:
            log(f"== {name}")
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], cwd=ROOT)
            if r.returncode:
                sys.exit(r.returncode)
        return
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    binary, scratch = build()
    built = time.monotonic()
    deadline = built + DEADLINE_S
    log(host_note())

    errors = []
    st = child(binary, scratch, "selftest", args.workload, args.seed, deadline)
    if st is None:
        errors.append("equivalence self-test did not complete")
        st_failed = True
    else:
        # Untraced processes run the program's own client processes; the
        # traced ones run the instrumented copies. A copy that drifted
        # from the program spoils only the per-layer split, so it gates
        # --trace 1 runs alone.
        gating = st["errors"] + (st["trace_errors"] if args.trace else [])
        st_failed = bool(gating)
        errors += [f"self-test: {e}" for e in gating]
        if not args.trace:
            for e in st["trace_errors"]:
                log(f"  warning: self-test: {e} (gates --trace 1 runs only)")
        log(f"  selftest: {st['clients']} x {st['files']} vs mdbench::run"
            f"{' and check::run_files' if args.workload == 'history_check' else ''}: "
            f"{'MISMATCH' if st_failed else 'OK'}")

    runs, traces, crashed, rounds = [], [], 0, 0
    started = time.monotonic()
    while True:
        modes = ["run", "trace"] if args.trace else ["run"]
        for mode in modes:
            r = child(binary, scratch, mode, args.workload, args.seed, deadline)
            if r is None:
                crashed += 1
                continue
            (traces if mode == "trace" else runs).append(r)
            errors += r["errors"]
        rounds += 1
        elapsed = time.monotonic() - started
        # Stop at the round boundary closest to --seconds.
        next_end = elapsed + elapsed / rounds
        enough = args.trace or len(runs) + crashed >= MIN_PROCESSES
        if (enough and next_end - args.seconds > args.seconds - elapsed) or \
                time.monotonic() - built >= HARD_STOP_S:
            break

    if not runs or (args.trace and not traces):
        fail("no benchmark process completed")
    log(spread_line("run op phase", [r["op_s"] for r in runs]))
    log(spread_line("run set-up", [r["setup_s"] for r in runs]))
    if traces:
        log(spread_line("traced total", [t["metrics"]["trace.total_s"] for t in traces]))
    models = {json.dumps(r["model"], sort_keys=True) for r in runs + traces}
    if len(models) > 1:
        errors.append("model outputs differ between processes: " + " vs ".join(sorted(models)))
    ops = int(median([r["ops"] for r in runs]))
    attempted = sum(r["ops"] for r in runs + traces) + crashed * ops
    failed = crashed * ops + sum(r["ops"] for r in runs + traces if r["errors"])
    if st_failed:
        # The self-test gates the whole run: a pipeline that drifted from
        # mdbench measures something users do not run.
        failed = attempted
    correct = not errors and crashed == 0
    for e in dict.fromkeys(errors):
        log(f"  error: {e}")

    spans_dropped = runs[0]["spans_dropped"]
    windows_dropped = runs[0]["windows_dropped"]
    if args.trace:
        wanted = spec["per_layer"]
        values = {}
        for m in wanted:
            vs = [t["metrics"].get(m["name"]) for t in traces]
            if m["name"] == "trace.overhead_ratio":
                untraced = median([r["setup_s"] + r["op_s"] for r in runs])
                vs = [t["metrics"]["trace.total_s"] / untraced for t in traces]
            if any(v is None for v in vs):
                fail(f"traced process did not report {m['name']}")
            values[m["name"]] = median(vs)
    else:
        # Every process does the same work, so the fastest one is the
        # program's speed with the least interference from the host.
        values = {
            "ops_per_s": ops / min(r["op_s"] for r in runs),
            "setup_s": min(r["setup_s"] for r in runs),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    log(f"{args.workload}: {summary}")
    log(f"{args.workload}: error_rate={failed / max(attempted, 1):.6g} ratio "
        f"({failed} of {attempted} ops failed) obs.spans_dropped={spans_dropped} count "
        f"obs.windows_dropped={windows_dropped} count")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
