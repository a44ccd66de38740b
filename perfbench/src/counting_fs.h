/**
 * @file
 * Pass-through vfs wrapper that counts (and, when timed, times) every
 * call a workload makes into a FileSystem, File or FileTxn.
 *
 * Every workload of the benchmark talks to the engine through this
 * wrapper, so bytes handed to the file system and per-call latencies
 * are measured from outside the program. Counting is always on; per-
 * call timing is on only in the traced run, whose numbers feed the
 * vfs.* and minidb.* per-layer metrics.
 *
 * Threading: each CountingFile / CountingTxn handle keeps its own
 * Tally, written only by the thread using the handle (the vfs
 * contract already asks for one committer per txn handle; workloads
 * here keep one thread per file handle). tally() may be called from
 * a thread that owns every live handle, or once all are quiesced.
 */
#ifndef PERFBENCH_COUNTING_FS_H
#define PERFBENCH_COUNTING_FS_H

#include <mutex>
#include <set>
#include <vector>

#include "vfs/vfs.h"

namespace perfbench {

using namespace mgsp;

/** Monotonic clock in nanoseconds; every timed call uses it. */
u64 nowNanos();

/** Calls and bytes seen by the wrapper; samples are nanoseconds. */
struct Tally
{
    u64 pwriteCalls = 0;  ///< pwrite + pwritev
    u64 pwriteBytes = 0;
    u64 preadCalls = 0;   ///< pread + preadv
    u64 preadBytes = 0;
    u64 txnPwriteCalls = 0;
    u64 txnPwriteBytes = 0;
    u64 txnCommits = 0;
    u64 otherCalls = 0;   ///< open, sync, truncate, beginTxn, ...
    u64 vfsNanos = 0;     ///< time inside timed calls
    std::vector<u64> pwriteNs, preadNs, txnPwriteNs, txnCommitNs;

    u64
    calls() const
    {
        return pwriteCalls + preadCalls + txnPwriteCalls + txnCommits +
               otherCalls;
    }
    /** Bytes the workload handed to write calls. */
    u64 userBytes() const { return pwriteBytes + txnPwriteBytes; }
    /** Adds @p o's counts, and its samples when @p with_samples. */
    void merge(const Tally &o, bool with_samples = true);
};

class CountingFile;

/** See file comment. Does not own @p inner. */
class CountingFs final : public FileSystem
{
  public:
    CountingFs(FileSystem *inner, bool timed) : inner_(inner), timed_(timed)
    {
    }
    ~CountingFs() override;

    CountingFs(const CountingFs &) = delete;
    CountingFs &operator=(const CountingFs &) = delete;

    const char *name() const override { return inner_->name(); }
    ConsistencyLevel
    consistency() const override
    {
        return inner_->consistency();
    }
    StatusOr<std::unique_ptr<File>>
    open(const std::string &path, const OpenOptions &options) override;
    Status remove(const std::string &path) override;
    bool exists(const std::string &path) const override;
    u64 logicalBytesWritten() const override
    {
        return inner_->logicalBytesWritten();
    }
    CacheStats cacheStats() const override { return inner_->cacheStats(); }
    Status dropCaches() override { return inner_->dropCaches(); }
    StatusOr<std::unique_ptr<FileTxn>> beginTxn() override;
    HealthState health() const override { return inner_->health(); }

    bool timed() const { return timed_; }

    /**
     * Sum over retired and live handles (see file comment). Without
     * @p with_samples only the counts are summed, which is cheap
     * enough to call once per transaction.
     */
    Tally tally(bool with_samples = true) const;
    /** Zeroes every tally, live handles' too (all handles quiesced). */
    void resetTallies();

  private:
    friend class CountingFile;
    friend class CountingTxn;

    /** Folds a dying handle's tally in; @p f (if any) leaves live_. */
    void retire(const Tally &t, CountingFile *f = nullptr);

    FileSystem *inner_;
    const bool timed_;
    mutable std::mutex mu_;
    std::set<CountingFile *> live_;  ///< guarded by mu_
    Tally retired_;                        ///< guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_FS_H
