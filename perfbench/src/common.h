/**
 * @file
 * Shared pieces of the MGSP product benchmark: run options, the result
 * record printed as JSON, timing and percentile helpers, the engine
 * rig (device + MgspFs + counting wrapper), the self-describing block
 * content used by the file workloads, and the restart measurement.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "counting_fs.h"
#include "mgsp/mgsp_fs.h"
#include "pmem/pmem_device.h"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Traced run: where to write MgspFs::statsReport().json. */
    std::string statsOut;
    /**
     * Self-test only: the check that gets one planted wrong byte
     * (read|live|restart|durability) and where it goes: "model" (the
     * benchmark's reference) or "image" (the engine's stored bytes).
     * Empty = no plant.
     */
    std::string plantCheck;
    std::string plantWhere;

    bool
    planted(const char *check, const char *where) const
    {
        return plantCheck == check && plantWhere == where;
    }
};

/** Wall-clock instant the process entered main(); setup_s counts from it. */
std::chrono::steady_clock::time_point processStart();

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a run prints (see main.cc for the JSON shape). */
struct RunResult
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    /** Writing operations of the measured phase (stage.* divisor). */
    u64 writes = 0;
    std::map<std::string, Metric> metrics;

    /** Records a failed correctness check (message on stderr). */
    void fail(const std::string &why);
    void set(const std::string &name, double value, const std::string &unit);
    bool has(const std::string &name) const;
};

/** Median of @p ns samples, in microseconds (0 when empty). */
double medianUs(std::vector<u64> ns);
/** @p q-quantile (nearest rank) of @p ns in microseconds. */
double quantileUs(std::vector<u64> ns, double q);
double median(std::vector<double> v);

/** Resident set size of this process in bytes (/proc/self/statm). */
u64 residentBytes();

// ---- engine rig ---------------------------------------------------

/**
 * The engine under test. Member order is destruction order in
 * reverse: the wrapper dies before the engine, the engine before its
 * device. Files opened through fs must be closed first.
 */
struct Rig
{
    std::shared_ptr<PmemDevice> device;
    std::unique_ptr<MgspFs> mgsp;
    std::unique_ptr<CountingFs> fs;

    /** Closes the engine without write-back of its own (files closed). */
    void
    reset()
    {
        fs.reset();
        mgsp.reset();
        device.reset();
    }
};

/** Formats a fresh device of config.arenaSize bytes. */
StatusOr<Rig> formatRig(const MgspConfig &config, PmemDevice::Mode mode,
                        bool timed);
/** Mounts (runs recovery on) a device made from @p image. */
StatusOr<Rig> mountRig(const CrashImage &image, const MgspConfig &config,
                       bool timed);

/** Copy of a Flat device's media: an unclean stop, no close. */
CrashImage copyMedia(const PmemDevice &device);

/** Device counters, read as plain numbers. */
struct DeviceCounts
{
    u64 bytesWritten = 0;
    u64 flushedLines = 0;
    u64 fences = 0;
};
DeviceCounts deviceCounts(PmemDevice &device);

/** Engine-side counters taken around a measured phase. */
struct EngineSnapshot
{
    DeviceCounts device;
    CacheStats cache;
    TreeStats tree;  ///< summed over the workload's files
};
EngineSnapshot snapshotEngine(Rig &rig, const std::vector<std::string> &paths);

/** Latency samples of a phase: one chronological vector per thread. */
using Samples = std::vector<const std::vector<u64> *>;

/** The @p q-quantile of all @p samples pooled, in microseconds. */
double pooledQuantileUs(const Samples &samples, double q);

/**
 * Sets the end-to-end metrics every workload reports, except
 * restart_ms and setup_s, from a measured phase of @p seconds.
 */
void setEndToEnd(const Samples &writes, const Samples &reads, double seconds,
                 const EngineSnapshot &before, const EngineSnapshot &after,
                 u64 user_bytes, double dram_mib, RunResult &result);

/**
 * Sets the shadow_tree.*, read.*, page_cache.* and pmem.* per-layer
 * metrics of a measured phase with @p writes writing and @p reads
 * reading operations. read.* come from the stats registry, which the
 * caller reset at the start of the phase.
 */
void setEngineLayers(const EngineSnapshot &before, const EngineSnapshot &after,
                     u64 writes, u64 reads, const LatencyModel &model,
                     RunResult &result);

/**
 * Arena of the durability check's Tracked device. Smaller than the
 * default 512 MiB so the Tracked copy, its crash image and the mount
 * stay within ~0.8 GiB; it still holds the 64 MiB default file.
 */
inline constexpr u64 kDurabilityArena = 192 * MiB;

// ---- restart ------------------------------------------------------

/** Mounts per restart_ms measurement. */
inline constexpr int kRestartMounts = 25;

/**
 * Mounts @p mounts fresh copies of @p image (the copy is not timed),
 * reports restart_ms as their mean and the recovery.* metrics, and
 * runs @p verify on the last mounted engine. The mean, not the median:
 * the same mount takes one of two times about 1.5x apart, in stretches
 * that come and go with the host's load, and a median flips between
 * them where a mean moves with their mix.
 */
void measureRestart(const CrashImage &image, const MgspConfig &config,
                    int mounts, RunResult &result,
                    const std::function<void(Rig &)> &verify);

// ---- self-describing block content --------------------------------

/** Write unit of the file workloads: every 512 B unit names itself. */
inline constexpr u64 kUnit = 512;

/**
 * Fills the unit at file offset @p off with version @p version:
 * a 16-byte header (offset, version) and a payload derived from
 * (seed, offset, version), so a reader can tell a whole unit from a
 * torn or misplaced one without any other state.
 */
void fillUnit(u8 *dst, u64 seed, u64 off, u64 version);

/**
 * True iff @p src holds a whole unit written for offset @p off; its
 * version goes to @p version.
 */
bool unitIntact(const u8 *src, u64 seed, u64 off, u64 *version);

/**
 * Offsets of every occurrence of @p pattern in [base, base+size).
 * The self-test uses it to find a stored copy of known bytes.
 */
std::vector<u64> findPattern(const u8 *base, u64 size, const void *pattern,
                             u64 len);

/** splitmix64 step, used for the payload and for seed derivation. */
u64 mix64(u64 x);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
