#!/usr/bin/env python3
"""The anosy-cpp benchmark: one command builds perfbench_driver from source,
runs one workload, checks every answer, and prints the report.

    python3 perfbench/run.py --workload register-cold --seed 1 \\
        --seconds 10 --trace 0

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

WORKLOADS = ("register-cold", "serve-steady")
DRIVER_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def output_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(build_dir):
    """Configures (once) and builds perfbench_driver; returns its path or
    None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "--parallel", "3"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench_driver")


def source_digest():
    """sha256 over the sources perfbench_driver is built from; stands in
    for the commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_block(raw, args):
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": raw["host"]["hardware_threads"],
        "compiler": raw["host"]["compiler"],
        "build_type": raw["host"]["build_type"],
        "commit": commit,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_driver(driver, args, trace, work_dir, raw_path, span_path):
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--raw", raw_path, "--spans", span_path]
    try:
        code = subprocess.call(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        log("perfbench: driver exited with", code)
        return None
    with open(raw_path) as f:
        return report.derive_open_loop(json.load(f))


def fmt(value):
    return "%.6g" % value


def print_counters(title, raw):
    print(title)
    for name in sorted(raw["counters"]):
        mark = " [exact]" if name in report.EXACT_COUNTERS else ""
        print("  %-34s %14s%s" % (name, fmt(raw["counters"][name]), mark))
    if raw["failures"]:
        print("failures:", ", ".join("%s=%d" % kv
                                     for kv in raw["failures"].items()))
        for note in raw["notes"]:
            print("  " + note)


CAPACITY_NOTES = {
    "no ladder": "no daemon in this workload",
    "capped": "capped: the top rate qualified, so this is a lower bound",
    "none": "no rate qualified (see the ladder's misses)",
    "measured": "highest qualifying rate",
}


def print_report(host, raw, figures, details, traced, layers):
    print("# anosy-cpp benchmark: workload %s, seed %d, %s s, trace %d"
          % (host["workload"], host["seed"], fmt(host["seconds"]),
             1 if layers is not None else 0))
    print("host: " + " ".join("%s=%s" % (k, host[k]) for k in (
        "nproc", "hardware_threads", "compiler", "build_type", "commit",
        "source_sha256")))
    notes = {
        "setup_s": "median of %d set-ups" % len(raw["samples"]["setup_s"]),
        "serve.ok_share": "answered over %d decided"
                          % details["downgrade.decided"],
        "ads.answered_per_user": "mean over %d users" % details["users"],
        "register.p50_ms": "%d samples" % details["register.samples"],
        "register.p99_ms": "p%s of %d samples" % (
            details["register.tail_percentile"], details["register.samples"]),
        "downgrade.p50_us": "%d answered" % details["downgrade.samples"],
        "downgrade.p99_us": "p%s of %d answered" % (
            details["downgrade.tail_percentile"],
            details["downgrade.samples"]),
        "restart.salvage_s": "median of %d restarts" % details["restarts"],
        "serve.capacity_rps": CAPACITY_NOTES[details["capacity_status"]],
    }
    print("end-to-end (bounded):")
    for name, unit, _, bound in report.END_TO_END:
        print("  %-26s %14s %-5s  bound %.2f  %s" % (
            name, fmt(figures[name]), unit, bound, notes.get(name, "")))
    print("end-to-end, unbounded (not steady on a shared virtual machine; "
          "see README.md):")
    for name, unit, _ in report.MOVED:
        print("  %-26s %14s %-5s  %s" % (
            name, fmt(figures[name]), unit, notes.get(name, "")))
    print("  %-26s %14s %-5s  %d failed of %d attempted" % (
        "failed_share", fmt(details["failed_share"]), "ratio", raw["failed"],
        raw["attempted"]))
    rows = report.ladder_rows(raw)
    if rows:
        print("ladder (answered latency from the scheduled send; a rate "
              "qualifies with answered and late tails <= %g us and drain "
              "<= %g ms):" % (report.CAPACITY_P99_US,
                              report.CAPACITY_DRAIN_MS))
        for r in rows:
            print("  rate %6d/s  sent %6d  answered %6d  p50 %8.1f us  "
                  "p%s %8.1f us  late tail %8.1f us  drain %6.2f ms  "
                  "misses: %s"
                  % (r["rate"], r["sent"], r["answered"], r["p50_us"],
                     r["tail_percentile"], r["tail_us"], r["late_tail_us"],
                     r["drain_ms"], ", ".join(r["misses"]) or "none"))
    print_counters("counters (work done, kept apart from wall time):", raw)
    if traced is not None:
        print_counters("traced-run counters ([exact] must repeat for this "
                       "seed; the rest may not):", traced)
        print("per-layer (traced run):")
        for name, unit, _ in report.PER_LAYER:
            print("  %-30s %14s %s" % (name, fmt(layers[name]), unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = output_root()
    driver = build(os.path.join(out, "perfbench"))
    if driver is None:
        return 1
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    reports = os.path.join(out, "reports")
    os.makedirs(reports, exist_ok=True)
    work = os.path.join(out, "work", "%s-%d" % (tag, os.getpid()))
    raw_path = os.path.join(reports, tag + ".raw.json")
    span_path = os.path.join(reports, tag + ".spans.jsonl")

    # Untraced first; the traced run follows it so the tracing overhead is
    # the ratio of the two.
    raw = run_driver(driver, args, 0, work, raw_path, span_path)
    if raw is None:
        return 1
    figures, details = report.headline(raw)
    layers = traced = None
    result_raw = raw
    if args.trace:
        traced = run_driver(driver, args, 1, work, raw_path, span_path)
        if traced is None:
            return 1
        layers = report.per_layer(traced, raw)
        result_raw = {**traced,
                      "attempted": raw["attempted"] + traced["attempted"],
                      "failed": raw["failed"] + traced["failed"]}
    host = host_block(raw, args)
    print_report(host, raw, figures, details, traced, layers)

    table = report.PER_LAYER if args.trace else report.END_TO_END
    line = report.result_line(result_raw, layers if args.trace else figures,
                              table)
    report.check_result_line(line, table)
    with open(os.path.join(reports, tag + ".json"), "w") as f:
        json.dump({"host": host, "end_to_end": figures, "details": details,
                   "ladder": report.ladder_rows(raw), "per_layer": layers, "counters": raw["counters"],
                   "traced_counters": traced["counters"] if traced else None,
                   "exact_counters": list(report.EXACT_COUNTERS),
                   "result": line}, f, indent=1)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
