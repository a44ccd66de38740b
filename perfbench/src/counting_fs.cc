#include "counting_fs.h"

#include <chrono>

namespace perfbench {
u64
nowNanos()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

/**
 * Runs @p call; when @p timed, adds its duration to @p tally's
 * vfsNanos and, if @p samples is given, appends it there.
 */
template <typename F>
auto
timedCall(bool timed, Tally &tally, std::vector<u64> *samples, F &&call)
{
    if (!timed)
        return call();
    const u64 t0 = nowNanos();
    auto result = call();
    const u64 dt = nowNanos() - t0;
    tally.vfsNanos += dt;
    if (samples != nullptr)
        samples->push_back(dt);
    return result;
}

void
append(std::vector<u64> &dst, const std::vector<u64> &src)
{
    dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace

void
Tally::merge(const Tally &o, bool with_samples)
{
    pwriteCalls += o.pwriteCalls;
    pwriteBytes += o.pwriteBytes;
    preadCalls += o.preadCalls;
    preadBytes += o.preadBytes;
    txnPwriteCalls += o.txnPwriteCalls;
    txnPwriteBytes += o.txnPwriteBytes;
    txnCommits += o.txnCommits;
    otherCalls += o.otherCalls;
    vfsNanos += o.vfsNanos;
    if (!with_samples)
        return;
    append(pwriteNs, o.pwriteNs);
    append(preadNs, o.preadNs);
    append(txnPwriteNs, o.txnPwriteNs);
    append(txnCommitNs, o.txnCommitNs);
}

/** Forwards every File call to the engine's handle, counting it. */
class CountingFile final : public File
{
  public:
    CountingFile(CountingFs *fs, std::unique_ptr<File> inner)
        : fs_(fs), inner_(std::move(inner))
    {
    }
    ~CountingFile() override { fs_->retire(tally_, this); }

    CountingFile(const CountingFile &) = delete;
    CountingFile &operator=(const CountingFile &) = delete;

    File *inner() const { return inner_.get(); }
    const Tally &tally() const { return tally_; }
    void resetTally() { tally_ = Tally{}; }

    StatusOr<u64>
    pread(u64 offset, MutSlice dst) override
    {
        ++tally_.preadCalls;
        StatusOr<u64> n = timedCall(fs_->timed(), tally_, &tally_.preadNs,
                                    [&] { return inner_->pread(offset, dst); });
        if (n.isOk())
            tally_.preadBytes += *n;
        return n;
    }

    Status
    pwrite(u64 offset, ConstSlice src) override
    {
        ++tally_.pwriteCalls;
        Status s = timedCall(fs_->timed(), tally_, &tally_.pwriteNs,
                             [&] { return inner_->pwrite(offset, src); });
        if (s.isOk())
            tally_.pwriteBytes += src.size();
        return s;
    }

    StatusOr<u64>
    preadv(u64 offset, const std::vector<MutSlice> &spans) override
    {
        ++tally_.preadCalls;
        StatusOr<u64> n =
            timedCall(fs_->timed(), tally_, &tally_.preadNs,
                      [&] { return inner_->preadv(offset, spans); });
        if (n.isOk())
            tally_.preadBytes += *n;
        return n;
    }

    Status
    pwritev(u64 offset, const std::vector<ConstSlice> &spans) override
    {
        ++tally_.pwriteCalls;
        Status s = timedCall(fs_->timed(), tally_, &tally_.pwriteNs,
                             [&] { return inner_->pwritev(offset, spans); });
        if (s.isOk()) {
            for (const ConstSlice &span : spans)
                tally_.pwriteBytes += span.size();
        }
        return s;
    }

    Status
    advise(AccessHint hint) override
    {
        ++tally_.otherCalls;
        return timedCall(fs_->timed(), tally_, nullptr,
                         [&] { return inner_->advise(hint); });
    }

    Status
    sync() override
    {
        ++tally_.otherCalls;
        return timedCall(fs_->timed(), tally_, nullptr,
                         [&] { return inner_->sync(); });
    }

    Status
    rangeSync(u64 offset, u64 len) override
    {
        ++tally_.otherCalls;
        return timedCall(fs_->timed(), tally_, nullptr,
                         [&] { return inner_->rangeSync(offset, len); });
    }

    FileHealthState health() const override { return inner_->health(); }
    u64 size() const override { return inner_->size(); }

    Status
    truncate(u64 new_size) override
    {
        ++tally_.otherCalls;
        return timedCall(fs_->timed(), tally_, nullptr,
                         [&] { return inner_->truncate(new_size); });
    }

  private:
    CountingFs *fs_;
    std::unique_ptr<File> inner_;
    Tally tally_;
};

/**
 * Forwards a cross-file transaction, unwrapping each participant to
 * the engine's own handle (the engine only accepts its own files).
 * The tally folds into the file system when the handle dies.
 */
class CountingTxn final : public FileTxn
{
  public:
    CountingTxn(CountingFs *fs, std::unique_ptr<FileTxn> inner)
        : fs_(fs), inner_(std::move(inner))
    {
    }
    ~CountingTxn() override { fs_->retire(tally_); }

    CountingTxn(const CountingTxn &) = delete;
    CountingTxn &operator=(const CountingTxn &) = delete;

    Status
    pwrite(File *file, u64 offset, ConstSlice src) override
    {
        auto *counted = dynamic_cast<CountingFile *>(file);
        if (counted == nullptr)
            return Status::invalidArgument(
                "txn participant was not opened through the wrapper");
        ++tally_.txnPwriteCalls;
        Status s = timedCall(fs_->timed(), tally_, &tally_.txnPwriteNs, [&] {
            return inner_->pwrite(counted->inner(), offset, src);
        });
        if (s.isOk())
            tally_.txnPwriteBytes += src.size();
        return s;
    }

    Status
    commit() override
    {
        ++tally_.txnCommits;
        return timedCall(fs_->timed(), tally_, &tally_.txnCommitNs,
                         [&] { return inner_->commit(); });
    }

    Status
    abort() override
    {
        ++tally_.otherCalls;
        return timedCall(fs_->timed(), tally_, nullptr,
                         [&] { return inner_->abort(); });
    }

  private:
    CountingFs *fs_;
    std::unique_ptr<FileTxn> inner_;
    Tally tally_;
};

CountingFs::~CountingFs() = default;

StatusOr<std::unique_ptr<File>>
CountingFs::open(const std::string &path, const OpenOptions &options)
{
    StatusOr<std::unique_ptr<File>> f = inner_->open(path, options);
    if (!f.isOk())
        return f.status();
    auto counted = std::make_unique<CountingFile>(this, std::move(*f));
    std::lock_guard<std::mutex> guard(mu_);
    ++retired_.otherCalls;
    live_.insert(counted.get());
    return std::unique_ptr<File>(std::move(counted));
}

Status
CountingFs::remove(const std::string &path)
{
    {
        std::lock_guard<std::mutex> guard(mu_);
        ++retired_.otherCalls;
    }
    return inner_->remove(path);
}

bool
CountingFs::exists(const std::string &path) const
{
    return inner_->exists(path);
}

StatusOr<std::unique_ptr<FileTxn>>
CountingFs::beginTxn()
{
    {
        std::lock_guard<std::mutex> guard(mu_);
        ++retired_.otherCalls;
    }
    StatusOr<std::unique_ptr<FileTxn>> txn = inner_->beginTxn();
    if (!txn.isOk())
        return txn.status();
    return std::unique_ptr<FileTxn>(
        std::make_unique<CountingTxn>(this, std::move(*txn)));
}

Tally
CountingFs::tally(bool with_samples) const
{
    std::lock_guard<std::mutex> guard(mu_);
    Tally sum;
    sum.merge(retired_, with_samples);
    for (const CountingFile *f : live_)
        sum.merge(f->tally(), with_samples);
    return sum;
}

void
CountingFs::resetTallies()
{
    std::lock_guard<std::mutex> guard(mu_);
    retired_ = Tally{};
    for (CountingFile *f : live_)
        f->resetTally();
}

void
CountingFs::retire(const Tally &t, CountingFile *f)
{
    std::lock_guard<std::mutex> guard(mu_);
    retired_.merge(t);
    if (f != nullptr)
        live_.erase(f);
}

}  // namespace perfbench
