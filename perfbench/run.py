#!/usr/bin/env python3
"""SliceLine benchmark: builds the driver from source, runs one workload,
checks its outputs, and prints its metrics.

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 12 \
        --trace 0

Run from the repository root. `--workload all` runs every workload in turn
and prints one table. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

WORKLOADS = ["batch-wide", "batch-deep", "dist-shards", "serve-mixed"]
DRIVER_TIMEOUT_S = 170
# Global pool threads of the driver. On a shared 4-vCPU host the work that
# kept every vCPU busy (batch-deep, batch-wide, serve-mixed at 4 threads)
# ran up to 2.4x slower for minutes at a time while dist-shards, with two
# busy threads, moved 15%: the host at times gives the benchmark about two
# cores, and a wider pool then measures the scheduler, not the program.
POOL_THREADS = 2
# Stamp fields that must agree before two runs' numbers may be compared.
STAMP_COMPARED = ("isa", "pool_threads", "nproc", "git_sha", "source_sha",
                  "generator", "datasets", "rows", "features", "max_level",
                  "k", "alpha", "mix", "dist_workers", "dist_block_slices",
                  "server_workers", "clients",
                  "stream_base_rows", "watch_window_rows", "seconds")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, base, "perfbench")


def source_sha(root):
    """Content hash of everything the driver is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, out_dir, env):
    """Configures (once) and builds the driver; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as handle:
                    log(handle.read()[-4000:])
                return None
    return os.path.join(out_dir, "perfbench_driver")


def run_driver(driver, out_dir, env, args, workload):
    """Runs one workload; returns the raw record document or None."""
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    raw_path = os.path.join(workdir, "raw.json")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [driver, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--raw", raw_path, "--workdir", workdir]
    try:
        proc = subprocess.run(command, env=env, timeout=DRIVER_TIMEOUT_S,
                              stdout=sys.stderr, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            log(proc.stderr[-4000:])
            log("perfbench: driver exited with %d" % proc.returncode)
            return None
        with open(raw_path) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %d s" % DRIVER_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_trace(out_dir, raw, label):
    """Writes the run's spans (plus derived per-level gen spans) as a
    Chrome/Perfetto trace, one track per op."""
    spans = metrics.derived_gen_spans(raw["spans"])
    selfs = metrics.self_times(spans)
    events = [{"name": s["name"] + ("" if not s["level"] else
                                    " L%d" % s["level"]),
               "ph": "X", "pid": 1, "tid": s["op"], "ts": s["b"] / 1e3,
               "dur": (s["e"] - s["b"]) / 1e3,
               "args": {"span": s["id"], "parent": s["parent"],
                        "self_us": selfs[s["id"]] / 1e3}}
              for s in spans]
    path = os.path.join(out_dir, "traces", label + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
    return path


def check_stamp(out_dir, workload, trace, stamp):
    """Appends this run's stamp to the history and returns the fields that
    differ from the previous run of the same workload and mode."""
    path = os.path.join(out_dir, "history.jsonl")
    previous = None
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                entry = json.loads(line)
                if entry["workload"] == workload and entry["trace"] == trace:
                    previous = entry["stamp"]
    with open(path, "a") as handle:
        handle.write(json.dumps({"workload": workload, "trace": trace,
                                 "stamp": stamp}) + "\n")
    if previous is None:
        return []
    return [key for key in STAMP_COMPARED
            if previous.get(key) != stamp.get(key)]


def measure(root, driver, out_dir, env, args, workload):
    """Runs one workload; returns (result, lines) or None on failure."""
    raw = run_driver(driver, out_dir, env, args, workload)
    if raw is None:
        return None
    stamp = dict(raw["stamp"], git_sha=git_sha(root),
                 source_sha=source_sha(root), seed=args.seed,
                 seconds=args.seconds)
    lines = ["workload %s  seed %d  trace %d" % (workload, args.seed,
                                                 args.trace),
             "stamp " + json.dumps(stamp, sort_keys=True)]
    differing = check_stamp(out_dir, workload, args.trace, stamp)
    if differing:
        lines.append("STAMP DIFFERS from the previous %s run in %s: do not "
                     "compare these numbers" % (workload, ", ".join(differing)))
    attempted, failed = raw["attempted"], raw["failed"]
    lines.append("failed_frac %.6g (%d of %d ops)" % (
        failed / attempted if attempted else 1.0, failed, attempted))
    for message in raw["failures"]:
        lines.append("FAILED: " + message)
    if args.trace:
        values = metrics.per_layer(raw)
        units = metrics.PER_LAYER
        notes = {}
        trace_path = write_trace(out_dir, raw, "%s-seed%d" % (workload,
                                                              args.seed))
        lines.append("trace " + os.path.relpath(trace_path, root))
        for check, ok in metrics.split_checks(
                workload, values, raw.get("extra", {})).items():
            lines.append("split %s: %s" % (check, "yes" if ok else "NO"))
    else:
        values, notes = metrics.end_to_end(raw)
        units = metrics.END_TO_END
    for name, unit in units.items():
        note = notes.get(name, "")
        lines.append("  %-24s %14.6g %-8s %s" % (name, values[name], unit,
                                                  note))
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            log("perfbench: %s not found; run from the repository root"
                % needed)
            return 2
    out_dir = build_dir(root)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("SLICELINE_")}
    env["SLICELINE_NUM_THREADS"] = str(POOL_THREADS)
    env["TMPDIR"] = os.path.join(out_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    driver = build(root, out_dir, env)
    if driver is None:
        log("perfbench: build failed")
        return 1

    results = []
    for workload in (WORKLOADS if args.workload == "all" else
                     [args.workload]):
        measured = measure(root, driver, out_dir, env, args, workload)
        if measured is None:
            return 1
        result, lines = measured
        print("\n".join(lines), flush=True)
        results.append(result)

    combined = results[0]
    if len(results) > 1:
        combined = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (w, name): value
                        for w, r in zip(WORKLOADS, results)
                        for name, value in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
