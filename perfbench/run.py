#!/usr/bin/env python3
"""Builds and runs one run of the MGSP product benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oltp|overwrite|read_mostly \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark binary is built with CMake from perfbench/CMakeLists.txt
(which compiles the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Build output
and diagnostics go to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("nvm_write_amp", "B/B"),
    ("restart_ms", "ms"),
    ("setup_s", "s"),
    ("dram_mib", "MiB"),
]

# Stages of the engine's write path, read from its stats JSON.
STAGES = ["claim", "lock", "data_write", "commit_fence", "bitmap_apply"]

PER_LAYER = [
    ("minidb.txn_self_us", "us"),
    ("minidb.vfs_calls_per_txn", "1/txn"),
    ("minidb.bytes_staged_per_commit", "B"),
    ("minidb.commit_retries", "count"),
    ("vfs.pwrite_us", "us"),
    ("vfs.pread_us", "us"),
    ("vfs.txn_pwrite_us", "us"),
    ("vfs.txn_commit_us", "us"),
    ("mgsp.pwrite_512B_us", "us"),
    ("mgsp.pwrite_4K_us", "us"),
    ("mgsp.pwrite_16K_us", "us"),
    ("mgsp.pwrite_64K_us", "us"),
    ("mgsp.pwrite_sw_512B_us", "us"),
    ("mgsp.pwrite_sw_4K_us", "us"),
    ("mgsp.pwrite_sw_16K_us", "us"),
    ("mgsp.pwrite_sw_64K_us", "us"),
    ("mgsp.pwrite_stats_off_512B_us", "us"),
] + [("stage.%s.ns_per_write" % s, "ns") for s in STAGES] + [
    ("shadow_tree.leaf_logs_per_write", "1/write"),
    ("shadow_tree.coarse_logs_per_write", "1/write"),
    ("shadow_tree.fine_units_per_write", "1/write"),
    ("shadow_tree.min_tree_hit_ratio", "ratio"),
    ("read.optimistic_share", "ratio"),
    ("read.fallback_per_kread", "1/kread"),
    ("page_cache.hit_ratio", "ratio"),
    ("page_cache.invalidations_per_write", "1/write"),
    ("page_cache.evictions_per_kread", "1/kread"),
    ("pmem.bytes_per_write", "B"),
    ("pmem.flush_lines_per_write", "1/write"),
    ("pmem.fences_per_write", "1/write"),
    ("pmem.modeled_us_per_write", "us"),
    ("checksum.crc32c_ns_per_KiB", "ns"),
    ("recovery.records_scanned", "count"),
    ("recovery.entries_replayed", "count"),
    ("recovery.bytes_written_back", "B"),
    ("recovery.ns_per_record", "ns"),
]

WORKLOADS = ("oltp", "overwrite", "read_mostly")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "mgsp", "mgsp_fs.h")):
        log("perfbench: no MGSP sources under %s/src; nothing to build" % ROOT)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    binary = os.path.join(out, "mgsp_perfbench")
    return binary if os.path.isfile(binary) else None


def stage_metrics(stats_path, writes):
    """stage.*.ns_per_write from the engine's own stats JSON."""
    with open(stats_path) as f:
        stats = json.load(f)
    per = max(writes, 1)
    return {"stage.%s.ns_per_write" % s:
            {"value": stats["stages"][s]["nanos_total"] / per, "unit": "ns"}
            for s in STAGES}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant one wrong byte per correctness check "
                             "and show that each check fails")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        stats_path = os.path.join(scratch, "stats.json")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--stats-out", stats_path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("perfbench: benchmark exited with %d" % proc.returncode)
            return proc.returncode or 3
        raw = json.loads(lines[-1])
        measured = raw["metrics"]
        if args.trace:
            measured.update(stage_metrics(stats_path, raw["writes"]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        m = measured.get(name)
        if m is None or m["unit"] != unit:
            log("perfbench: metric %s missing or not in %s" % (name, unit))
            return 3
        metrics[name] = {"value": m["value"], "unit": unit}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
