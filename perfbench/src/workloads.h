/**
 * @file
 * The benchmark's workloads and the traced run's layer probes.
 *
 * Each run* function formats the default engine, runs set-up, the
 * measured phase for opts.seconds, the restart measurement and the
 * durability check, and returns every metric it measured (end-to-end
 * and per-layer); main.cc prints the set the run mode asks for.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** Random size-aligned failure-atomic overwrites plus 10 % reads. */
RunResult runOverwrite(const Options &opts);
/** Several threads, 95 % cached 4 KiB reads, 5 % small writes. */
RunResult runReadMostly(const Options &opts);
/** TPC-C-shaped transactions on minidb in JournalMode::Txn. */
RunResult runOltp(const Options &opts);

/**
 * Fills minidb.* and vfs.txn_* metrics the workload left unmeasured
 * from a short fixed TPC-C run on a fresh engine.
 */
void probeMinidb(const Options &opts, RunResult &result);

/**
 * The traced run's fixed probes: mgsp.pwrite_* (delays on, delays
 * off, stats off), checksum.crc32c_ns_per_KiB, and vfs.pwrite_us /
 * vfs.pread_us when the workload issued no such calls.
 */
void runLayerProbes(const Options &opts, RunResult &result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
