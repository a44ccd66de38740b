/**
 * @file
 * The two file workloads, overwrite and read_mostly, on one 64 MiB
 * MGSP file (the default file capacity) whose every 512 B unit
 * carries self-describing content (see fillUnit). The content is
 * appended in set-up. The reference model is one version number per
 * unit.
 *
 * overwrite: one thread; 90 % overwrites and 10 % reads, sizes 512 B
 * 40 %, 4 KiB 30 %, 16 KiB 20 %, 64 KiB 10 %, size-aligned and uniform
 * over the file, so reads mostly miss the 8 MiB read cache.
 *
 * read_mostly: min(3, nproc) threads, one handle each, on the one
 * shared file and read cache; 95 % 4 KiB reads, 90 % of them in a
 * 4 MiB hot set that fits the cache, and 5 % writes of 512 B..4 KiB,
 * half into the hot set. Reads draw from every block; each thread
 * writes only the 4 KiB blocks it owns (block % threads == thread), so
 * every unit has one writer and a read of another thread's unit can be
 * bounded by that writer's acknowledged and issued versions.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "common/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr u64 kFileBytes = 64 * MiB;
constexpr u64 kBlock = 4 * KiB;
constexpr u64 kHotBlocks = 4 * MiB / kBlock;
/**
 * File of the durability check: the Tracked device tracks every dirty
 * line, so its set-up is kept small; the hot set is half the file.
 */
constexpr u64 kDurabilityFileBytes = 4 * MiB;
constexpr u64 kMaxOp = 64 * KiB;
constexpr u64 kAppendChunk = 64 * KiB;
constexpr const char *kPath = "data";
/**
 * Operations per round; a run stops only between rounds. A read_mostly
 * round also ends with one CacheProbe operation.
 */
constexpr u64 kRoundOps = 256;
constexpr u64 kReadMostlyRoundOps = 1024;
/** Operations replayed on the Tracked device by the durability check. */
constexpr u64 kDurabilityOps = 2 * kReadMostlyRoundOps;

struct Op
{
    bool write = false;
    u64 off = 0;
    u64 len = 0;
};

/** The op stream of one thread over a file of @p blocks blocks. */
struct Mix
{
    bool readMostly = false;
    u32 tid = 0;
    u32 threads = 1;
    u64 blocks = kFileBytes / kBlock;
    u64 hotBlocks = kHotBlocks;

    Op
    next(Rng &rng) const
    {
        Op op;
        if (!readMostly) {
            op.write = rng.nextBelow(10) != 0;
            const u64 d = rng.nextBelow(10);
            op.len = d < 4   ? 512
                     : d < 7 ? 4 * KiB
                     : d < 9 ? 16 * KiB
                             : 64 * KiB;
            op.off = op.len * rng.nextBelow(blocks * kBlock / op.len);
            return op;
        }
        const bool read = rng.nextBelow(100) < 95;
        u64 block = rng.nextBelow(read ? 10 : 2) != 0 ? rng.nextBelow(hotBlocks)
                                                      : rng.nextBelow(blocks);
        if (read)
            return Op{false, block * kBlock, kBlock};
        block = block - block % threads + tid;
        if (block >= blocks)
            block -= threads;
        op.write = true;
        op.len = u64(512) << rng.nextBelow(4);
        op.off = block * kBlock + op.len * rng.nextBelow(kBlock / op.len);
        return op;
    }
};

/**
 * Version per unit, written only by the unit's owner thread: `issued`
 * before its pwrite is called, `acked` after it returned. A read that
 * overlaps another thread's writes must then return, for each of that
 * thread's units, a version between `acked` before the read and
 * `issued` after it.
 */
struct Model
{
    Model(u32 threads_in, u64 file_bytes)
        : threads(threads_in), units(file_bytes / kUnit),
          issued(new std::atomic<u64>[units]()),
          acked(new std::atomic<u64>[units]())
    {
    }
    u64 fileBytes() const { return units * kUnit; }
    u32 owner(u64 unit) const { return (unit * kUnit / kBlock) % threads; }
    u64 bytes() const { return units * 2 * sizeof(u64); }

    u32 threads;
    u64 units;
    std::unique_ptr<std::atomic<u64>[]> issued;
    std::unique_ptr<std::atomic<u64>[]> acked;
};

void
fillRange(u8 *buf, u64 seed, u64 off, u64 len, u64 version)
{
    for (u64 pos = 0; pos < len; pos += kUnit)
        fillUnit(buf + pos, seed, off + pos, version);
}

/**
 * Checks bytes read at [off, off+len): every unit whole; a unit of
 * thread @p tid at the model's version; a unit of another thread at
 * one of its versions no older than @p acked_before (its acknowledged
 * versions loaded before the read) and no newer than what it has
 * issued by now. Empty string = pass.
 */
std::string
checkRead(const u8 *buf, u64 seed, u64 off, u64 len, const Model &model,
          u32 tid, const u64 *acked_before)
{
    for (u64 pos = 0; pos < len; pos += kUnit) {
        const u64 unit = (off + pos) / kUnit;
        u64 v = 0;
        char what[160];
        if (!unitIntact(buf + pos, seed, off + pos, &v)) {
            std::snprintf(what, sizeof(what), "torn or misplaced unit at %llu",
                          static_cast<unsigned long long>(off + pos));
            return what;
        }
        const u32 owner = model.owner(unit);
        const u64 lo = acked_before[pos / kUnit];
        const u64 hi = model.issued[unit].load();
        const bool ok = owner == tid
                            ? v == lo
                            : lo <= v && v <= hi &&
                                  (v == 0 || v % model.threads == owner);
        if (!ok) {
            std::snprintf(what, sizeof(what),
                          "unit at %llu has version %llu, model %llu..%llu",
                          static_cast<unsigned long long>(off + pos),
                          static_cast<unsigned long long>(v),
                          static_cast<unsigned long long>(lo),
                          static_cast<unsigned long long>(hi));
            return what;
        }
    }
    return {};
}

/** Reads the whole file and compares every unit with the model. */
std::string
checkWholeFile(File *f, u64 seed, const Model &model)
{
    if (f->size() != model.fileBytes())
        return "file size changed";
    std::vector<u8> buf(std::min(MiB, model.fileBytes()));
    for (u64 off = 0; off < model.fileBytes(); off += buf.size()) {
        StatusOr<u64> n = f->pread(off, MutSlice(buf.data(), buf.size()));
        if (!n.isOk())
            return "read: " + n.status().toString();
        if (*n != buf.size())
            return "short read";
        for (u64 pos = 0; pos < buf.size(); pos += kUnit) {
            const u64 unit = (off + pos) / kUnit;
            u64 v = 0;
            if (!unitIntact(buf.data() + pos, seed, off + pos, &v) ||
                v != model.acked[unit].load())
                return "unit at " + std::to_string(off + pos) +
                       " differs from the model";
        }
    }
    return {};
}

/** Appends the file's content, every unit at version 0. */
Status
fillByAppending(File *f, u64 seed, u64 file_bytes)
{
    std::vector<u8> buf(kAppendChunk);
    for (u64 off = 0; off < file_bytes; off += kAppendChunk) {
        fillRange(buf.data(), seed, off, kAppendChunk, 0);
        MGSP_RETURN_IF_ERROR(
            f->pwrite(off, ConstSlice(buf.data(), kAppendChunk)));
    }
    return Status::ok();
}

/**
 * Writes every 4 KiB block once more at version 0 (the content does
 * not change), so each block has its own shadow-tree leaf before the
 * measured phase. read_mostly needs it: see CacheProbe.
 */
Status
writeEveryBlock(File *f, u64 seed, u64 file_bytes)
{
    std::vector<u8> buf(kBlock);
    for (u64 off = 0; off < file_bytes; off += kBlock) {
        fillRange(buf.data(), seed, off, kBlock, 0);
        MGSP_RETURN_IF_ERROR(f->pwrite(off, ConstSlice(buf.data(), kBlock)));
    }
    return Status::ok();
}

/**
 * The read_mostly round's closing operation, on fixed inputs (not
 * drawn from the seed) in a side file with two handles, like the data
 * file. It appends two 4 KiB blocks and overwrites the second, which
 * gives it a shadow-tree leaf; it reads the first (the file is advised
 * ReadMostly, so the read caches it), overwrites the first and reads
 * it back. With the read-cache fault described in the README ("The
 * read-cache fault, counted") the last read returns the appended bytes,
 * and the probe counts as a failed operation; once the cache is
 * mended it passes.
 *
 * The same fault makes the data file's random reads stale at a rate
 * that depends on the seed and on thread timing, whenever a block is
 * cached while it has no leaf but a neighbour in its 64 KiB subtree
 * has one. read_mostly therefore writes every block once in set-up
 * (writeEveryBlock), and this probe shows the fault instead, at one
 * failed operation per round.
 */
class CacheProbe
{
  public:
    CacheProbe(FileSystem *fs, u32 tid)
        : fs_(fs), path_("probe." + std::to_string(tid)), buf_(kPair)
    {
    }

    /**
     * One probe: true = fresh bytes read back on kAttempts pairs in a
     * row, false = stale bytes on one of them. Another thread's cache
     * traffic can, now and then, keep a pair's block out of the cache
     * (about once in 10^5 pairs), and that pair then reads fresh bytes
     * even while the fault stands; the further attempts keep the
     * probe failing on every round until the fault is mended.
     */
    StatusOr<bool>
    run()
    {
        for (int i = 0; i < kAttempts; ++i) {
            StatusOr<bool> fresh = runPair();
            if (!fresh.isOk() || !*fresh)
                return fresh;
        }
        return true;
    }

  private:
    static constexpr int kAttempts = 4;
    static constexpr u64 kPair = 2 * kBlock;
    static constexpr u64 kCapacity = 4 * MiB;
    static constexpr u64 kSeed = 0;

    StatusOr<bool>
    runPair()
    {
        if (file_ == nullptr || file_->size() + kPair > kCapacity)
            MGSP_RETURN_IF_ERROR(recreate());
        const u64 off = file_->size();
        fillRange(buf_.data(), kSeed, off, kPair, 1);
        MGSP_RETURN_IF_ERROR(file_->pwrite(off, ConstSlice(buf_.data(), kPair)));
        MGSP_RETURN_IF_ERROR(overwriteBlock(off + kBlock));
        StatusOr<u64> version = readBlock(off);
        if (!version.isOk())
            return version.status();
        if (*version != 1)
            return Status::corruption("probe read wrong appended bytes");
        MGSP_RETURN_IF_ERROR(overwriteBlock(off));
        version = readBlock(off);
        if (!version.isOk())
            return version.status();
        if (*version != 1 && *version != 2)
            return Status::corruption("probe read a torn or misplaced block");
        return *version == 2;
    }

    Status
    recreate()
    {
        if (file_ != nullptr) {
            file_.reset();
            second_.reset();
            MGSP_RETURN_IF_ERROR(fs_->remove(path_));
        }
        StatusOr<std::unique_ptr<File>> f =
            fs_->open(path_, OpenOptions::Create(kCapacity));
        if (!f.isOk())
            return f.status();
        file_ = std::move(*f);
        f = fs_->open(path_, OpenOptions{});
        if (!f.isOk())
            return f.status();
        second_ = std::move(*f);
        return file_->advise(AccessHint::ReadMostly);
    }

    Status
    overwriteBlock(u64 off)
    {
        fillRange(buf_.data(), kSeed, off, kBlock, 2);
        return file_->pwrite(off, ConstSlice(buf_.data(), kBlock));
    }

    /** The block's version if all its units are whole and agree. */
    StatusOr<u64>
    readBlock(u64 off)
    {
        StatusOr<u64> n = file_->pread(off, MutSlice(buf_.data(), kBlock));
        if (!n.isOk())
            return n.status();
        u64 first = ~u64(0);
        for (u64 pos = 0; pos < kBlock; pos += kUnit) {
            u64 v = 0;
            if (*n != kBlock ||
                !unitIntact(buf_.data() + pos, kSeed, off + pos, &v) ||
                (pos != 0 && v != first))
                return ~u64(0);
            first = v;
        }
        return first;
    }

    FileSystem *fs_;
    std::string path_;
    std::vector<u8> buf_;
    std::unique_ptr<File> file_;
    std::unique_ptr<File> second_;
};

/** What one thread did in a phase. */
struct ThreadOut
{
    std::vector<u64> writeNs, readNs;
    u64 attempted = 0;
    u64 failed = 0;
    u64 writes = 0;
    u64 badReads = 0;  ///< reads that failed their check
    Op lastWrite;
    u64 lastVersion = 0;
    std::string error;  ///< first failed check or op
};

/**
 * Runs whole rounds of @p mix until @p deadline passes or @p max_ops
 * operations were attempted. Times each call; checks each read. With
 * a @p probe, every round ends with one CacheProbe operation.
 */
void
runThread(File *f, const Mix &mix, Model &model, u64 seed, u64 deadline,
          u64 max_ops, CacheProbe *probe, ThreadOut &out)
{
    Rng rng(mix64(seed ^ (0x100 + mix.tid)));
    std::vector<u8> buf(kMaxOp);
    u64 acked_before[kMaxOp / kUnit];
    for (;;) {
        const u64 round_ops = mix.readMostly ? kReadMostlyRoundOps : kRoundOps;
        for (u64 i = 0; i < round_ops; ++i) {
            const Op op = mix.next(rng);
            const u64 first = op.off / kUnit;
            const u64 units = op.len / kUnit;
            ++out.attempted;
            if (op.write) {
                const u64 version = (++out.writes) * mix.threads + mix.tid;
                fillRange(buf.data(), seed, op.off, op.len, version);
                for (u64 u = 0; u < units; ++u)
                    model.issued[first + u].store(version);
                const u64 t0 = nowNanos();
                const Status s =
                    f->pwrite(op.off, ConstSlice(buf.data(), op.len));
                const u64 dt = nowNanos() - t0;
                if (!s.isOk()) {
                    ++out.failed;
                    if (out.error.empty())
                        out.error = "pwrite: " + s.toString();
                    continue;
                }
                out.writeNs.push_back(dt);
                for (u64 u = 0; u < units; ++u)
                    model.acked[first + u].store(version);
                out.lastWrite = op;
                out.lastVersion = version;
            } else {
                for (u64 u = 0; u < units; ++u)
                    acked_before[u] = model.acked[first + u].load();
                const u64 t0 = nowNanos();
                const StatusOr<u64> n =
                    f->pread(op.off, MutSlice(buf.data(), op.len));
                const u64 dt = nowNanos() - t0;
                if (!n.isOk() || *n != op.len) {
                    ++out.failed;
                    if (out.error.empty())
                        out.error = "pread: " + n.status().toString();
                    continue;
                }
                out.readNs.push_back(dt);
                std::string err = checkRead(buf.data(), seed, op.off, op.len,
                                            model, mix.tid, acked_before);
                if (!err.empty()) {
                    ++out.badReads;
                    if (out.error.empty())
                        out.error = err;
                }
            }
        }
        if (probe != nullptr) {
            ++out.attempted;
            const StatusOr<bool> fresh = probe->run();
            if (!fresh.isOk() || !*fresh)
                ++out.failed;
            if (!fresh.isOk() && out.error.empty())
                out.error = "cache probe: " + fresh.status().toString();
        }
        if (nowNanos() >= deadline || out.attempted >= max_ops)
            return;
    }
}

/** Flips one payload byte of every stored copy of the unit in @p image. */
void
flipUnitInImage(CrashImage &image, u64 off, u64 version)
{
    const u64 header[2] = {off, version};
    for (u64 pos : findPattern(image.media.data(), image.media.size(),
                               header, sizeof(header)))
        image.media[pos + 100] ^= 0x5A;
}

/**
 * Self-test plant for the per-read check: breaks the model or the
 * engine's stored copy of the last written unit, then reads it back
 * through the same check the measured phase uses.
 */
void
plantReadCheck(const Options &opts, Rig &rig, File *f, Model &model,
               const ThreadOut &out, u32 tid, RunResult &result)
{
    const u64 off = out.lastWrite.off;
    const u64 unit = off / kUnit;
    if (opts.planted("read", "model")) {
        model.acked[unit] += model.threads;
        model.issued[unit] += model.threads;
    } else if (opts.planted("read", "image")) {
        const u64 header[2] = {off, out.lastVersion};
        for (u64 pos : findPattern(rig.device->rawRead(0), rig.device->size(),
                                   header, sizeof(header))) {
            const u8 bad = rig.device->rawRead(pos + 100)[0] ^ 0x5A;
            rig.device->write(pos + 100, &bad, 1);
        }
        (void)rig.fs->dropCaches();
    } else {
        return;
    }
    u8 buf[kUnit];
    const u64 acked_before = model.acked[unit].load();
    const StatusOr<u64> n = f->pread(off, MutSlice(buf, kUnit));
    if (!n.isOk() || *n != kUnit)
        result.fail("planted read: " + n.status().toString());
    else if (std::string err = checkRead(buf, opts.seed, off, kUnit, model,
                                         tid, &acked_before);
             !err.empty())
        result.fail("planted read: " + err);
}

/**
 * Replays the first kDurabilityOps operations of the workload (one
 * thread) on a Tracked device, keeps only fenced lines, mounts the
 * image and requires every acknowledged write to be there.
 */
void
durabilityCheck(const Options &opts, bool read_mostly, RunResult &result)
{
    MgspConfig config;
    config.arenaSize = kDurabilityArena;
    StatusOr<Rig> rig = formatRig(config, PmemDevice::Mode::Tracked, false);
    if (!rig.isOk()) {
        result.fail("durability format: " + rig.status().toString());
        return;
    }
    Model model(1, kDurabilityFileBytes);
    ThreadOut out;
    CrashImage image;
    {
        StatusOr<std::unique_ptr<File>> f =
            rig->fs->open(kPath, OpenOptions::Create(kFileBytes));
        if (!f.isOk()) {
            result.fail("durability open: " + f.status().toString());
            return;
        }
        if (Status s =
                fillByAppending(f->get(), opts.seed, kDurabilityFileBytes);
            !s.isOk()) {
            result.fail("durability set-up: " + s.toString());
            return;
        }
        const u64 blocks = kDurabilityFileBytes / kBlock;
        runThread(f->get(), Mix{read_mostly, 0, 1, blocks, blocks / 2}, model,
                  opts.seed, ~u64(0), kDurabilityOps, nullptr, out);
        if (!out.error.empty())
            result.fail("durability prefix: " + out.error);
        Rng rng(opts.seed);
        image = rig->device->captureCrashImage(rng, 0.0);
    }
    rig->reset();
    const u64 unit = out.lastWrite.off / kUnit;
    if (opts.planted("durability", "model"))
        model.acked[unit] += 1;
    if (opts.planted("durability", "image"))
        flipUnitInImage(image, out.lastWrite.off, out.lastVersion);
    StatusOr<Rig> mounted = mountRig(image, config, false);
    if (!mounted.isOk()) {
        result.fail("durability mount: " + mounted.status().toString());
        return;
    }
    StatusOr<std::unique_ptr<File>> f = mounted->fs->open(kPath, OpenOptions{});
    if (!f.isOk()) {
        result.fail("durability open: " + f.status().toString());
        return;
    }
    if (std::string err = checkWholeFile(f->get(), opts.seed, model);
        !err.empty())
        result.fail("durability: " + err);
}

RunResult
runBlock(const Options &opts, bool read_mostly)
{
    RunResult result;
    const u32 threads =
        read_mostly ? std::clamp<u32>(std::thread::hardware_concurrency(), 1, 3)
                    : 1;
    const MgspConfig config;
    StatusOr<Rig> rig = formatRig(config, PmemDevice::Mode::Flat, opts.trace);
    if (!rig.isOk()) {
        result.fail("format: " + rig.status().toString());
        return result;
    }
    Model model(threads, kFileBytes);

    // ---- set-up: append the content; read_mostly also writes every
    // block once and warms the hot set into the cache
    std::vector<std::unique_ptr<File>> files;
    for (u32 t = 0; t < threads; ++t) {
        StatusOr<std::unique_ptr<File>> f =
            rig->fs->open(kPath, OpenOptions::Create(kFileBytes, false));
        if (!f.isOk()) {
            result.fail("open: " + f.status().toString());
            return result;
        }
        files.push_back(std::move(*f));
    }
    if (Status s = fillByAppending(files[0].get(), opts.seed, kFileBytes);
        !s.isOk()) {
        result.fail("set-up: " + s.toString());
        return result;
    }
    if (read_mostly) {
        if (Status s = writeEveryBlock(files[0].get(), opts.seed, kFileBytes);
            !s.isOk()) {
            result.fail("set-up: " + s.toString());
            return result;
        }
        std::vector<u8> buf(kBlock);
        for (int pass = 0; pass < 2; ++pass)
            for (u64 b = 0; b < kHotBlocks; ++b)
                (void)files[0]->pread(b * kBlock, MutSlice(buf.data(), kBlock));
    }
    result.set("setup_s",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             processStart())
                   .count(),
               "s");

    // ---- measured phase
    const u64 setup_bytes = rig->fs->tally(false).pwriteBytes;
    rig->fs->resetTallies();
    stats::resetAll();
    const EngineSnapshot before = snapshotEngine(*rig, {kPath});
    std::vector<ThreadOut> outs(threads);
    const u64 start = nowNanos();
    const u64 deadline = start + static_cast<u64>(opts.seconds * 1e9);
    {
        std::vector<std::thread> workers;
        for (u32 t = 0; t < threads; ++t)
            workers.emplace_back([&, t] {
                const Mix mix{read_mostly, t, threads, kFileBytes / kBlock,
                              kHotBlocks};
                CacheProbe probe(rig->fs.get(), t);
                runThread(files[t].get(), mix, model, opts.seed, deadline,
                          ~u64(0), read_mostly ? &probe : nullptr, outs[t]);
            });
        for (std::thread &w : workers)
            w.join();
    }
    const double seconds = static_cast<double>(nowNanos() - start) / 1e9;
    const EngineSnapshot after = snapshotEngine(*rig, {kPath});
    const Tally tally = rig->fs->tally();

    // Benchmark-side memory: the model and every latency sample.
    u64 own_bytes = model.bytes() +
                    8 * (tally.pwriteNs.size() + tally.preadNs.size());
    for (const ThreadOut &o : outs)
        own_bytes += 8 * (o.writeNs.size() + o.readNs.size());
    const double dram_mib =
        (static_cast<double>(residentBytes()) -
         static_cast<double>(rig->device->size() + own_bytes)) /
        static_cast<double>(MiB);

    Samples writes, reads;
    u64 read_count = 0;
    for (const ThreadOut &o : outs) {
        result.attempted += o.attempted;
        result.failed += o.failed;
        result.writes += o.writeNs.size();
        read_count += o.readNs.size();
        if (!o.error.empty())
            result.fail(o.error + " (" + std::to_string(o.badReads) +
                        " reads of this thread failed their check)");
        writes.push_back(&o.writeNs);
        reads.push_back(&o.readNs);
    }

    if (setup_bytes + tally.pwriteBytes != rig->fs->logicalBytesWritten())
        result.fail("wrapper write bytes disagree with logicalBytesWritten()");
    setEndToEnd(writes, reads, seconds, before, after, tally.userBytes(),
                dram_mib, result);
    if (!tally.pwriteNs.empty())
        result.set("vfs.pwrite_us", medianUs(tally.pwriteNs), "us");
    if (!tally.preadNs.empty())
        result.set("vfs.pread_us", medianUs(tally.preadNs), "us");
    setEngineLayers(before, after, result.writes, read_count,
                    rig->device->latency(), result);
    if (opts.trace && !opts.statsOut.empty())
        std::ofstream(opts.statsOut) << rig->mgsp->statsReport().json;

    plantReadCheck(opts, *rig, files[0].get(), model, outs[0], 0, result);

    // ---- restart from an unclean-stop copy of the media
    CrashImage image = copyMedia(*rig->device);
    files.clear();
    rig->reset();
    const u64 last_unit = outs[0].lastWrite.off / kUnit;
    if (opts.planted("restart", "model"))
        model.acked[last_unit] += threads;
    if (opts.planted("restart", "image"))
        flipUnitInImage(image, outs[0].lastWrite.off, outs[0].lastVersion);
    measureRestart(image, config, kRestartMounts, result, [&](Rig &r) {
        StatusOr<std::unique_ptr<File>> f = r.fs->open(kPath, OpenOptions{});
        if (!f.isOk()) {
            result.fail("restart open: " + f.status().toString());
            return;
        }
        if (std::string err = checkWholeFile(f->get(), opts.seed, model);
            !err.empty())
            result.fail("after restart: " + err);
    });
    image = CrashImage{};
    durabilityCheck(opts, read_mostly, result);
    return result;
}

}  // namespace

RunResult
runOverwrite(const Options &opts)
{
    return runBlock(opts, false);
}

RunResult
runReadMostly(const Options &opts)
{
    return runBlock(opts, true);
}

}  // namespace perfbench
