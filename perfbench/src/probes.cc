/**
 * @file
 * The traced run's fixed layer probes. They run after the workload on
 * fresh default engines and are the same on every workload, so the
 * write-path and checksum numbers of any two traced runs compare.
 */
#include "common/checksum.h"
#include "common/clock.h"
#include "common/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr u64 kProbeFile = 64 * MiB;
constexpr const char *kProbePath = "probe";

struct Size
{
    u64 bytes;
    const char *label;
    u32 count;
};
constexpr Size kSizes[] = {
    {512, "512B", 2000}, {4 * KiB, "4K", 2000}, {16 * KiB, "16K", 1000},
    {64 * KiB, "64K", 400}};

StatusOr<std::unique_ptr<File>>
openProbeFile(FileSystem *fs, u64 seed)
{
    StatusOr<std::unique_ptr<File>> f =
        fs->open(kProbePath, OpenOptions::Create(kProbeFile, false));
    if (!f.isOk() || (*f)->size() == kProbeFile)
        return f;
    Rng rng(seed);
    std::vector<u8> buf(64 * KiB);
    for (u64 off = 0; off < kProbeFile; off += buf.size()) {
        rng.fillBytes(buf.data(), buf.size());
        MGSP_RETURN_IF_ERROR(
            (*f)->pwrite(off, ConstSlice(buf.data(), buf.size())));
    }
    return f;
}

/**
 * Median of @p count timed size-aligned random overwrites of @p size
 * bytes, after a quarter as many untimed ones.
 */
double
pwriteProbeUs(File *f, u64 size, u32 count, Rng &rng, RunResult &result)
{
    std::vector<u8> buf(size);
    rng.fillBytes(buf.data(), buf.size());
    std::vector<u64> ns;
    for (u32 i = 0; i < count + count / 4; ++i) {
        const u64 off = size * rng.nextBelow(kProbeFile / size);
        const u64 t0 = nowNanos();
        const Status s = f->pwrite(off, ConstSlice(buf.data(), size));
        const u64 dt = nowNanos() - t0;
        if (!s.isOk()) {
            result.fail("probe pwrite: " + s.toString());
            return 0;
        }
        if (i >= count / 4)
            ns.push_back(dt);
    }
    return medianUs(ns);
}

/** Keeps the checksum loop's result observable. */
volatile u32 crcSink = 0;

/** Times crc32c over 4 KiB and 64 KiB buffers; median ns per KiB. */
double
crc32cNsPerKiB(u64 seed)
{
    Rng rng(seed);
    std::vector<u8> small(4 * KiB), large(64 * KiB);
    rng.fillBytes(small.data(), small.size());
    rng.fillBytes(large.data(), large.size());
    std::vector<double> per_kib;
    u32 sink = 0;
    for (int batch = 0; batch < 7; ++batch) {
        const u64 t0 = nowNanos();
        for (int i = 0; i < 512; ++i)
            sink ^= crc32c(small.data(), small.size(), sink);
        for (int i = 0; i < 32; ++i)
            sink ^= crc32c(large.data(), large.size(), sink);
        const u64 dt = nowNanos() - t0;
        per_kib.push_back(static_cast<double>(dt) / (512 * 4 + 32 * 64));
    }
    crcSink = sink;
    return median(per_kib);
}

}  // namespace

void
runLayerProbes(const Options &opts, RunResult &result)
{
    Rng rng(mix64(opts.seed ^ 0xB0));
    {
        StatusOr<Rig> rig =
            formatRig(MgspConfig{}, PmemDevice::Mode::Flat, true);
        if (!rig.isOk()) {
            result.fail("probe format: " + rig.status().toString());
            return;
        }
        StatusOr<std::unique_ptr<File>> f =
            openProbeFile(rig->mgsp.get(), opts.seed);
        if (!f.isOk()) {
            result.fail("probe file: " + f.status().toString());
            return;
        }
        for (const Size &s : kSizes)
            result.set(std::string("mgsp.pwrite_") + s.label + "_us",
                       pwriteProbeUs(f->get(), s.bytes, s.count, rng, result),
                       "us");
        const bool delays = delayInjectionEnabled();
        setDelayInjectionEnabled(false);
        for (const Size &s : kSizes)
            result.set(std::string("mgsp.pwrite_sw_") + s.label + "_us",
                       pwriteProbeUs(f->get(), s.bytes, s.count, rng, result),
                       "us");
        setDelayInjectionEnabled(delays);

        // vfs.pwrite_us / vfs.pread_us for a workload that issues
        // neither: 4 KiB calls through the wrapper on this engine.
        if (!result.has("vfs.pwrite_us") || !result.has("vfs.pread_us")) {
            StatusOr<std::unique_ptr<File>> wf =
                rig->fs->open(kProbePath, OpenOptions{});
            if (!wf.isOk()) {
                result.fail("probe open: " + wf.status().toString());
                return;
            }
            rig->fs->resetTallies();
            std::vector<u8> buf(4 * KiB);
            for (u32 i = 0; i < 1000; ++i) {
                const u64 off =
                    buf.size() * rng.nextBelow(kProbeFile / buf.size());
                const Status w =
                    (*wf)->pwrite(off, ConstSlice(buf.data(), buf.size()));
                const StatusOr<u64> r =
                    (*wf)->pread(off, MutSlice(buf.data(), buf.size()));
                if (!w.isOk() || !r.isOk())
                    result.fail("probe vfs call failed");
            }
            const Tally tally = rig->fs->tally();
            if (!result.has("vfs.pwrite_us"))
                result.set("vfs.pwrite_us", medianUs(tally.pwriteNs), "us");
            if (!result.has("vfs.pread_us"))
                result.set("vfs.pread_us", medianUs(tally.preadNs), "us");
        }
    }
    {
        MgspConfig config;
        config.enableStats = false;
        StatusOr<Rig> rig = formatRig(config, PmemDevice::Mode::Flat, false);
        if (!rig.isOk()) {
            result.fail("probe format: " + rig.status().toString());
            return;
        }
        StatusOr<std::unique_ptr<File>> f =
            openProbeFile(rig->mgsp.get(), opts.seed);
        if (!f.isOk()) {
            result.fail("probe file: " + f.status().toString());
            return;
        }
        result.set("mgsp.pwrite_stats_off_512B_us",
                   pwriteProbeUs(f->get(), 512, kSizes[0].count, rng, result),
                   "us");
    }
    result.set("checksum.crc32c_ns_per_KiB", crc32cNsPerKiB(opts.seed), "ns");
}

}  // namespace perfbench
