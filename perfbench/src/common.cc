#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <unistd.h>

#include "common/stats.h"

namespace perfbench {

std::chrono::steady_clock::time_point
processStart()
{
    static const auto start = std::chrono::steady_clock::now();
    return start;
}

void
RunResult::fail(const std::string &why)
{
    if (correct)
        std::fprintf(stderr, "check failed: %s\n", why.c_str());
    correct = false;
}

void
RunResult::set(const std::string &name, double value, const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

bool
RunResult::has(const std::string &name) const
{
    return metrics.count(name) != 0;
}

double
quantileUs(std::vector<u64> ns, double q)
{
    if (ns.empty())
        return 0;
    const std::size_t k =
        std::min(ns.size() - 1,
                 static_cast<std::size_t>(q * static_cast<double>(ns.size())));
    std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                     ns.end());
    return static_cast<double>(ns[k]) / 1000.0;
}

double
medianUs(std::vector<u64> ns)
{
    return quantileUs(std::move(ns), 0.5);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

u64
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long pages_total = 0, pages_resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
    std::fclose(f);
    if (got != 2)
        return 0;
    return pages_resident * static_cast<u64>(sysconf(_SC_PAGESIZE));
}

namespace {

StatusOr<Rig>
wrap(std::shared_ptr<PmemDevice> device,
     StatusOr<std::unique_ptr<MgspFs>> mgsp, bool timed)
{
    if (!mgsp.isOk())
        return mgsp.status();
    Rig rig;
    rig.device = std::move(device);
    rig.mgsp = std::move(*mgsp);
    rig.fs = std::make_unique<CountingFs>(rig.mgsp.get(), timed);
    return rig;
}

}  // namespace

StatusOr<Rig>
formatRig(const MgspConfig &config, PmemDevice::Mode mode, bool timed)
{
    auto device = std::make_shared<PmemDevice>(config.arenaSize, mode);
    return wrap(device, MgspFs::format(device, config), timed);
}

StatusOr<Rig>
mountRig(const CrashImage &image, const MgspConfig &config, bool timed)
{
    auto device = std::make_shared<PmemDevice>(image, PmemDevice::Mode::Flat);
    return wrap(device, MgspFs::mount(device, config), timed);
}

CrashImage
copyMedia(const PmemDevice &device)
{
    CrashImage image;
    const u8 *base = device.rawRead(0);
    image.media.assign(base, base + device.size());
    return image;
}

DeviceCounts
deviceCounts(PmemDevice &device)
{
    PmemStats &s = device.stats();
    return DeviceCounts{s.bytesWritten.load(), s.flushedLines.load(),
                        s.fences.load()};
}

EngineSnapshot
snapshotEngine(Rig &rig, const std::vector<std::string> &paths)
{
    EngineSnapshot s;
    s.device = deviceCounts(*rig.device);
    s.cache = rig.fs->cacheStats();
    for (const std::string &path : paths) {
        StatusOr<TreeStats> t = rig.mgsp->statsFor(path);
        if (!t.isOk())
            continue;
        s.tree.leafLogWrites += t->leafLogWrites;
        s.tree.coarseLogWrites += t->coarseLogWrites;
        s.tree.fineSubWrites += t->fineSubWrites;
        s.tree.minTreeHits += t->minTreeHits;
        s.tree.minTreeMisses += t->minTreeMisses;
    }
    return s;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
registryCounter(const char *name)
{
    return static_cast<double>(
        stats::StatsRegistry::instance().counter(name).value());
}

}  // namespace

double
pooledQuantileUs(const Samples &samples, double q)
{
    std::vector<u64> pooled;
    for (const std::vector<u64> *s : samples)
        pooled.insert(pooled.end(), s->begin(), s->end());
    return quantileUs(std::move(pooled), q);
}

void
setEndToEnd(const Samples &writes, const Samples &reads, double seconds,
            const EngineSnapshot &before, const EngineSnapshot &after,
            u64 user_bytes, double dram_mib, RunResult &result)
{
    const double stored = static_cast<double>(after.device.bytesWritten -
                                              before.device.bytesWritten);
    if (stored < static_cast<double>(user_bytes))
        result.fail("device stored fewer bytes than were acknowledged");
    u64 ops = 0;
    for (const Samples *group : {&writes, &reads})
        for (const std::vector<u64> *s : *group)
            ops += s->size();
    result.set("ops_per_s", static_cast<double>(ops) / seconds, "1/s");
    result.set("write_p50_us", pooledQuantileUs(writes, 0.5), "us");
    result.set("write_p99_us", pooledQuantileUs(writes, 0.99), "us");
    result.set("read_p50_us", pooledQuantileUs(reads, 0.5), "us");
    result.set("read_p99_us", pooledQuantileUs(reads, 0.99), "us");
    result.set("nvm_write_amp", ratio(stored, static_cast<double>(user_bytes)),
               "B/B");
    result.set("dram_mib", dram_mib, "MiB");
}

void
setEngineLayers(const EngineSnapshot &before, const EngineSnapshot &after,
                u64 writes, u64 reads, const LatencyModel &model,
                RunResult &result)
{
    const double w = static_cast<double>(std::max<u64>(writes, 1));
    const double kreads = static_cast<double>(std::max<u64>(reads, 1)) / 1000;
    const TreeStats &t0 = before.tree;
    const TreeStats &t1 = after.tree;
    result.set("shadow_tree.leaf_logs_per_write",
               static_cast<double>(t1.leafLogWrites - t0.leafLogWrites) / w,
               "1/write");
    result.set("shadow_tree.coarse_logs_per_write",
               static_cast<double>(t1.coarseLogWrites - t0.coarseLogWrites) / w,
               "1/write");
    result.set("shadow_tree.fine_units_per_write",
               static_cast<double>(t1.fineSubWrites - t0.fineSubWrites) / w,
               "1/write");
    const double mt_hits = static_cast<double>(t1.minTreeHits - t0.minTreeHits);
    const double mt_miss =
        static_cast<double>(t1.minTreeMisses - t0.minTreeMisses);
    result.set("shadow_tree.min_tree_hit_ratio",
               ratio(mt_hits, mt_hits + mt_miss), "ratio");

    const double optimistic = registryCounter("read.optimistic");
    const double fallback = registryCounter("read.fallback");
    result.set("read.optimistic_share", ratio(optimistic, optimistic + fallback),
               "ratio");
    result.set("read.fallback_per_kread", fallback / kreads, "1/kread");

    const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    result.set("page_cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    result.set("page_cache.invalidations_per_write",
               static_cast<double>(after.cache.invalidations -
                                   before.cache.invalidations) /
                   w,
               "1/write");
    result.set("page_cache.evictions_per_kread",
               static_cast<double>(after.cache.evictions - before.cache.evictions) /
                   kreads,
               "1/kread");

    const double bytes = static_cast<double>(after.device.bytesWritten -
                                             before.device.bytesWritten);
    const double lines = static_cast<double>(after.device.flushedLines -
                                             before.device.flushedLines);
    const double fences =
        static_cast<double>(after.device.fences - before.device.fences);
    result.set("pmem.bytes_per_write", bytes / w, "B");
    result.set("pmem.flush_lines_per_write", lines / w, "1/write");
    result.set("pmem.fences_per_write", fences / w, "1/write");
    // The LatencyModel charges per call and rounds each call up; from
    // totals this is the lower bound of the modeled media time.
    result.set("pmem.modeled_us_per_write",
               (bytes / 256 * static_cast<double>(model.writePer256BNanos) +
                lines * static_cast<double>(model.flushPerLineNanos) +
                fences * static_cast<double>(model.fenceNanos)) /
                   w / 1000,
               "us");
}

void
measureRestart(const CrashImage &image, const MgspConfig &config, int mounts,
               RunResult &result, const std::function<void(Rig &)> &verify)
{
    std::vector<double> ms, ns_per_record;
    RecoveryReport last;
    for (int i = 0; i < mounts; ++i) {
        auto device =
            std::make_shared<PmemDevice>(image, PmemDevice::Mode::Flat);
        const u64 t0 = nowNanos();
        StatusOr<std::unique_ptr<MgspFs>> fs = MgspFs::mount(device, config);
        const u64 dt = nowNanos() - t0;
        if (!fs.isOk()) {
            result.fail("restart mount: " + fs.status().toString());
            return;
        }
        ms.push_back(static_cast<double>(dt) / 1e6);
        last = (*fs)->recoveryReport();
        ns_per_record.push_back(static_cast<double>(last.nanos) /
                                std::max<u32>(1, last.recordsScanned));
        if (i + 1 == mounts) {
            Rig rig;
            rig.device = device;
            rig.mgsp = std::move(*fs);
            rig.fs = std::make_unique<CountingFs>(rig.mgsp.get(), false);
            verify(rig);
        }
    }
    result.set("restart_ms",
               std::accumulate(ms.begin(), ms.end(), 0.0) /
                   static_cast<double>(ms.size()),
               "ms");
    result.set("recovery.records_scanned", last.recordsScanned, "count");
    result.set("recovery.entries_replayed", last.liveEntriesReplayed, "count");
    result.set("recovery.bytes_written_back",
               static_cast<double>(last.bytesWrittenBack), "B");
    result.set("recovery.ns_per_record", median(ns_per_record), "ns");
}

std::vector<u64>
findPattern(const u8 *base, u64 size, const void *pattern, u64 len)
{
    std::vector<u64> at;
    const u8 *p = base;
    const u8 *end = base + size;
    while (p < end) {
        const void *hit =
            memmem(p, static_cast<std::size_t>(end - p), pattern, len);
        if (hit == nullptr)
            break;
        at.push_back(static_cast<u64>(static_cast<const u8 *>(hit) - base));
        p = static_cast<const u8 *>(hit) + 1;
    }
    return at;
}

u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

namespace {

constexpr u64 kHeaderBytes = 16;

void
payload(u64 *words, u64 seed, u64 off, u64 version)
{
    u64 state = mix64(seed ^ mix64(off ^ mix64(version)));
    for (u64 i = 0; i < (kUnit - kHeaderBytes) / 8; ++i) {
        state = mix64(state);
        words[i] = state;
    }
}

}  // namespace

void
fillUnit(u8 *dst, u64 seed, u64 off, u64 version)
{
    u64 words[kUnit / 8];
    words[0] = off;
    words[1] = version;
    payload(words + 2, seed, off, version);
    std::memcpy(dst, words, kUnit);
}

bool
unitIntact(const u8 *src, u64 seed, u64 off, u64 *version)
{
    u64 words[kUnit / 8];
    std::memcpy(words, src, kHeaderBytes);
    if (words[0] != off)
        return false;
    *version = words[1];
    payload(words + 2, seed, off, words[1]);
    return std::memcmp(words + 2, src + kHeaderBytes,
                       kUnit - kHeaderBytes) == 0;
}

}  // namespace perfbench
