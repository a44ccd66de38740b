/**
 * @file
 * The oltp workload: a TPC-C-shaped mix (New-Order 45 %, Payment 43 %,
 * Order-Status 12 %) at the schema scale of src/workloads/tpcc (1
 * warehouse, 10 districts, 100 customers per district, 1000 items),
 * one client, on minidb in JournalMode::Txn, so every commit is one
 * cross-file FileTxn. The client is the benchmark's own, so that each
 * transaction can be timed and what it generated can be kept apart
 * from the database: the sum of payment amounts and the New-Orders
 * committed per district.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/random.h"
#include "common/stats.h"
#include "minidb/db.h"
#include "workloads.h"

namespace perfbench {
namespace {

using minidb::Database;

constexpr u32 kDistricts = 10;
constexpr u32 kCustomers = 100;
constexpr u32 kItems = 1000;
constexpr const char *kDbPath = "tpcc.db";
/** Transactions per round; a run stops only between rounds. */
constexpr u64 kRoundTxns = 50;
constexpr u64 kDurabilityTxns = 4 * kRoundTxns;
constexpr u64 kProbeTxns = 6 * kRoundTxns;
/** Orders an Order-Status transaction reads back. */
constexpr u64 kRecentOrders = 20;

// Composite keys and rows follow the layout of src/workloads/tpcc
// (one warehouse, w = 1).
i64
districtKey(u32 d)
{
    return 100 + d;
}

i64
customerKey(u32 d, u32 c)
{
    return districtKey(d) * 100000 + c;
}

i64
stockKey(u32 i)
{
    return 1000000 + static_cast<i64>(i);
}

i64
orderKey(u32 d, u64 o)
{
    return districtKey(d) * 10000000 + static_cast<i64>(o);
}

struct WarehouseRow
{
    double ytd;
    char name[24];
};
struct DistrictRow
{
    double ytd;
    u64 nextOrderId;
    char name[24];
};
struct CustomerRow
{
    double balance;
    double ytdPayment;
    u32 paymentCount;
    char data[200];
};
struct ItemRow
{
    double price;
    char name[32];
};
struct StockRow
{
    i32 quantity;
    u32 orderCount;
    char dist[24];
};
struct OrderRow
{
    u32 customer;
    u32 lineCount;
    u64 entryNanos;
};
struct OrderLineRow
{
    u32 item;
    u32 quantity;
    double amount;
};
struct HistoryRow
{
    double amount;
    u64 when;
};

template <typename Row>
ConstSlice
bytesOf(const Row &row)
{
    return ConstSlice(&row, sizeof(row));
}

template <typename Row>
StatusOr<Row>
readRow(Database *db, const char *table, i64 key)
{
    StatusOr<std::vector<u8>> raw = db->get(table, key);
    if (!raw.isOk())
        return raw.status();
    if (raw->size() != sizeof(Row))
        return Status::corruption(std::string("row size mismatch in ") + table);
    Row row;
    std::memcpy(&row, raw->data(), sizeof(row));
    return row;
}

/** What the client generated, kept apart from the database. */
struct Ledger
{
    u64 paidCents = 0;
    std::array<u64, kDistricts + 1> newOrders{};  ///< by district

    u64
    totalNewOrders() const
    {
        u64 n = 0;
        for (u64 v : newOrders)
            n += v;
        return n;
    }
};

enum class Kind { NewOrder, Payment, OrderStatus };

/** The transaction mix on one database; one client. */
class Client
{
  public:
    Client(Database *db, u64 seed) : db_(db), rng_(mix64(seed ^ 0x7C)) {}

    /** Schema and initial population, one transaction. */
    Status
    load()
    {
        for (const char *table : {"warehouse", "district", "customer", "item",
                                  "stock", "orders", "order_line", "history"})
            MGSP_RETURN_IF_ERROR(db_->createTable(table));
        MGSP_RETURN_IF_ERROR(db_->begin());
        for (u32 i = 1; i <= kItems; ++i) {
            ItemRow item{};
            item.price = 1.0 + static_cast<double>(rng_.nextBelow(9900)) / 100;
            std::snprintf(item.name, sizeof(item.name), "item-%u", i);
            MGSP_RETURN_IF_ERROR(db_->insert("item", i, bytesOf(item)));
            StockRow stock{};
            stock.quantity = 50 + static_cast<i32>(rng_.nextBelow(50));
            MGSP_RETURN_IF_ERROR(
                db_->insert("stock", stockKey(i), bytesOf(stock)));
        }
        WarehouseRow warehouse{};
        std::snprintf(warehouse.name, sizeof(warehouse.name), "w-1");
        MGSP_RETURN_IF_ERROR(db_->insert("warehouse", 1, bytesOf(warehouse)));
        for (u32 d = 1; d <= kDistricts; ++d) {
            DistrictRow district{};
            district.nextOrderId = 1;
            std::snprintf(district.name, sizeof(district.name), "d-1-%u", d);
            MGSP_RETURN_IF_ERROR(
                db_->insert("district", districtKey(d), bytesOf(district)));
            for (u32 c = 1; c <= kCustomers; ++c) {
                CustomerRow customer{};
                customer.balance = -10.0;
                rng_.fillBytes(customer.data, sizeof(customer.data));
                MGSP_RETURN_IF_ERROR(db_->insert(
                    "customer", customerKey(d, c), bytesOf(customer)));
            }
        }
        return db_->commit();
    }

    /**
     * Draws and runs one transaction; the ledger changes only when it
     * commits. A failed transaction is rolled back.
     */
    Status
    runOne(Kind *kind)
    {
        const u64 dice = rng_.nextBelow(100);
        *kind = dice < 45 ? Kind::NewOrder
                : dice < 88 ? Kind::Payment
                            : Kind::OrderStatus;
        Status s = *kind == Kind::NewOrder  ? newOrder()
                   : *kind == Kind::Payment ? payment()
                                            : orderStatus();
        if (!s.isOk() && *kind != Kind::OrderStatus)
            (void)db_->rollback();
        return s;
    }

    Ledger ledger;

  private:
    Status
    newOrder()
    {
        const u32 d = 1 + static_cast<u32>(rng_.nextBelow(kDistricts));
        const u32 c = 1 + static_cast<u32>(rng_.nextBelow(kCustomers));
        const u32 lines = 5 + static_cast<u32>(rng_.nextBelow(11));
        MGSP_RETURN_IF_ERROR(db_->begin());
        StatusOr<DistrictRow> district =
            readRow<DistrictRow>(db_, "district", districtKey(d));
        if (!district.isOk())
            return district.status();
        const u64 order_id = district->nextOrderId++;
        MGSP_RETURN_IF_ERROR(
            db_->update("district", districtKey(d), bytesOf(*district)));
        OrderRow order{c, lines, 0};
        MGSP_RETURN_IF_ERROR(
            db_->insert("orders", orderKey(d, order_id), bytesOf(order)));
        for (u32 line = 0; line < lines; ++line) {
            const u32 item_id = 1 + static_cast<u32>(rng_.nextZipf(kItems, 0.4));
            StatusOr<ItemRow> item = readRow<ItemRow>(db_, "item", item_id);
            if (!item.isOk())
                return item.status();
            StatusOr<StockRow> stock =
                readRow<StockRow>(db_, "stock", stockKey(item_id));
            if (!stock.isOk())
                return stock.status();
            const u32 qty = 1 + static_cast<u32>(rng_.nextBelow(10));
            stock->quantity -= static_cast<i32>(qty);
            if (stock->quantity < 10)
                stock->quantity += 91;
            stock->orderCount++;
            MGSP_RETURN_IF_ERROR(
                db_->update("stock", stockKey(item_id), bytesOf(*stock)));
            OrderLineRow order_line{item_id, qty, item->price * qty};
            MGSP_RETURN_IF_ERROR(db_->insert(
                "order_line", orderKey(d, order_id) * 16 + line,
                bytesOf(order_line)));
        }
        MGSP_RETURN_IF_ERROR(db_->commit());
        ++ledger.newOrders[d];
        return Status::ok();
    }

    Status
    payment()
    {
        const u32 d = 1 + static_cast<u32>(rng_.nextBelow(kDistricts));
        const u32 c = 1 + static_cast<u32>(rng_.nextBelow(kCustomers));
        const u64 cents = 100 + rng_.nextBelow(499900);
        const double amount = static_cast<double>(cents) / 100;
        const u64 history_key = ++historySeq_;
        MGSP_RETURN_IF_ERROR(db_->begin());
        StatusOr<WarehouseRow> warehouse =
            readRow<WarehouseRow>(db_, "warehouse", 1);
        if (!warehouse.isOk())
            return warehouse.status();
        warehouse->ytd += amount;
        MGSP_RETURN_IF_ERROR(db_->update("warehouse", 1, bytesOf(*warehouse)));
        StatusOr<DistrictRow> district =
            readRow<DistrictRow>(db_, "district", districtKey(d));
        if (!district.isOk())
            return district.status();
        district->ytd += amount;
        MGSP_RETURN_IF_ERROR(
            db_->update("district", districtKey(d), bytesOf(*district)));
        StatusOr<CustomerRow> customer =
            readRow<CustomerRow>(db_, "customer", customerKey(d, c));
        if (!customer.isOk())
            return customer.status();
        customer->balance -= amount;
        customer->ytdPayment += amount;
        customer->paymentCount++;
        MGSP_RETURN_IF_ERROR(
            db_->update("customer", customerKey(d, c), bytesOf(*customer)));
        HistoryRow history{amount, history_key};
        MGSP_RETURN_IF_ERROR(db_->insert("history", static_cast<i64>(history_key),
                                         bytesOf(history)));
        MGSP_RETURN_IF_ERROR(db_->commit());
        ledger.paidCents += cents;
        return Status::ok();
    }

    /**
     * The customer, the district and its most recent orders (up to
     * kRecentOrders, as many as the client committed there).
     */
    Status
    orderStatus()
    {
        const u32 d = 1 + static_cast<u32>(rng_.nextBelow(kDistricts));
        const u32 c = 1 + static_cast<u32>(rng_.nextBelow(kCustomers));
        StatusOr<CustomerRow> customer =
            readRow<CustomerRow>(db_, "customer", customerKey(d, c));
        if (!customer.isOk())
            return customer.status();
        StatusOr<DistrictRow> district =
            readRow<DistrictRow>(db_, "district", districtKey(d));
        if (!district.isOk())
            return district.status();
        const u64 next = district->nextOrderId;
        const u64 first = next > kRecentOrders ? next - kRecentOrders : 1;
        u64 seen = 0;
        MGSP_RETURN_IF_ERROR(db_->scan("orders", orderKey(d, first),
                                       orderKey(d, next - 1),
                                       [&](i64, ConstSlice) {
                                           ++seen;
                                           return true;
                                       }));
        const u64 expected = std::min(kRecentOrders, ledger.newOrders[d]);
        if (seen != expected)
            return Status::corruption(
                "order-status saw " + std::to_string(seen) +
                " recent orders, " + std::to_string(expected) + " committed");
        return Status::ok();
    }

    Database *db_;
    Rng rng_;
    u64 historySeq_ = 0;
};

/**
 * The database against the ledger: warehouse YTD equals the sum of
 * the generated payments, each district's order count equals its
 * committed New-Orders, and so does the orders table. Empty = pass.
 */
std::string
checkInvariants(Database *db, const Ledger &ledger)
{
    StatusOr<WarehouseRow> warehouse = readRow<WarehouseRow>(db, "warehouse", 1);
    if (!warehouse.isOk())
        return "warehouse: " + warehouse.status().toString();
    const double paid = static_cast<double>(ledger.paidCents) / 100;
    if (std::fabs(warehouse->ytd - paid) > 0.005)
        return "warehouse YTD " + std::to_string(warehouse->ytd) +
               " != payments " + std::to_string(paid);
    for (u32 d = 1; d <= kDistricts; ++d) {
        StatusOr<DistrictRow> district =
            readRow<DistrictRow>(db, "district", districtKey(d));
        if (!district.isOk())
            return "district: " + district.status().toString();
        if (district->nextOrderId - 1 != ledger.newOrders[d])
            return "district " + std::to_string(d) + " has " +
                   std::to_string(district->nextOrderId - 1) + " orders, " +
                   std::to_string(ledger.newOrders[d]) + " committed";
    }
    StatusOr<u64> orders = db->rowCount("orders");
    if (!orders.isOk())
        return "orders: " + orders.status().toString();
    if (*orders != ledger.totalNewOrders())
        return "orders table has " + std::to_string(*orders) + " rows, " +
               std::to_string(ledger.totalNewOrders()) + " committed";
    return {};
}

minidb::DbOptions
dbOptions()
{
    minidb::DbOptions options;
    options.journal = minidb::JournalMode::Txn;
    return options;
}

/** Timings of a run of transactions. */
struct TxnSamples
{
    std::vector<u64> writeNs, readNs;  ///< whole transactions
    std::vector<u64> selfNs;           ///< minus time in vfs calls (traced)
    u64 attempted = 0;
    u64 failed = 0;
    u64 vfsCalls = 0;
    std::string error;
};

/**
 * Runs whole rounds of transactions until @p deadline passes or
 * @p max_txns were attempted.
 */
void
runTxns(Client &client, CountingFs &fs, u64 deadline, u64 max_txns,
        TxnSamples &out)
{
    for (;;) {
        for (u64 i = 0; i < kRoundTxns; ++i) {
            const Tally before = fs.timed() ? fs.tally(false) : Tally{};
            Kind kind;
            const u64 t0 = nowNanos();
            const Status s = client.runOne(&kind);
            const u64 dt = nowNanos() - t0;
            ++out.attempted;
            if (!s.isOk()) {
                ++out.failed;
                if (out.error.empty())
                    out.error = "transaction: " + s.toString();
                continue;
            }
            (kind == Kind::OrderStatus ? out.readNs : out.writeNs).push_back(dt);
            if (fs.timed()) {
                const Tally after = fs.tally(false);
                out.selfNs.push_back(dt - (after.vfsNanos - before.vfsNanos));
                out.vfsCalls += after.calls() - before.calls();
            }
        }
        if (nowNanos() >= deadline || out.attempted >= max_txns)
            return;
    }
}

/** minidb.* and vfs.txn_* metrics of a traced run of transactions. */
void
setMinidbMetrics(const TxnSamples &txns, const Tally &tally, u64 retries,
                 RunResult &result)
{
    const u64 ok = txns.attempted - txns.failed;
    result.set("minidb.txn_self_us", medianUs(txns.selfNs), "us");
    result.set("minidb.vfs_calls_per_txn",
               static_cast<double>(txns.vfsCalls) / std::max<u64>(ok, 1),
               "1/txn");
    result.set("minidb.bytes_staged_per_commit",
               static_cast<double>(tally.txnPwriteBytes) /
                   std::max<u64>(tally.txnCommits, 1),
               "B");
    result.set("minidb.commit_retries", static_cast<double>(retries), "count");
    result.set("vfs.txn_pwrite_us", medianUs(tally.txnPwriteNs), "us");
    result.set("vfs.txn_commit_us", medianUs(tally.txnCommitNs), "us");
}

/** Bytes of the stored warehouse row, as the database holds them now. */
std::vector<u8>
warehouseBytes(Database *db)
{
    StatusOr<std::vector<u8>> raw = db->get("warehouse", 1);
    return raw.isOk() ? *raw : std::vector<u8>{};
}

/**
 * Flips one bit in a high mantissa byte of the YTD in every stored
 * copy of @p row: a change of several percent, far outside the
 * check's rounding tolerance.
 */
void
flipRowInImage(CrashImage &image, const std::vector<u8> &row)
{
    if (row.size() < sizeof(double))
        return;
    for (u64 pos : findPattern(image.media.data(), image.media.size(),
                               row.data(), row.size()))
        image.media[pos + 6] ^= 0x01;
}

/** Reopens the database on @p rig and checks it against @p ledger. */
void
reopenAndCheck(Rig &rig, const minidb::DbOptions &options,
               const Ledger &ledger, const char *when, RunResult &result)
{
    StatusOr<std::unique_ptr<Database>> db =
        Database::open(rig.fs.get(), kDbPath, options);
    if (!db.isOk()) {
        result.fail(std::string(when) + " reopen: " + db.status().toString());
        return;
    }
    if (std::string err = checkInvariants(db->get(), ledger); !err.empty())
        result.fail(std::string(when) + ": " + err);
}

/**
 * Replays load plus kDurabilityTxns transactions on a Tracked device,
 * keeps only fenced lines, mounts the image, reopens the database and
 * requires every committed transaction to be there.
 */
void
durabilityCheck(const Options &opts, RunResult &result)
{
    MgspConfig config;
    config.arenaSize = kDurabilityArena;
    // The db and -wal files must fit the smaller arena's file area.
    minidb::DbOptions options = dbOptions();
    options.fileCapacity = 32 * MiB;
    StatusOr<Rig> rig = formatRig(config, PmemDevice::Mode::Tracked, false);
    if (!rig.isOk()) {
        result.fail("durability format: " + rig.status().toString());
        return;
    }
    Ledger ledger;
    CrashImage image;
    std::vector<u8> row;
    {
        StatusOr<std::unique_ptr<Database>> db =
            Database::open(rig->fs.get(), kDbPath, options);
        if (!db.isOk()) {
            result.fail("durability open: " + db.status().toString());
            return;
        }
        Client client(db->get(), opts.seed);
        if (Status s = client.load(); !s.isOk()) {
            result.fail("durability load: " + s.toString());
            return;
        }
        TxnSamples txns;
        runTxns(client, *rig->fs, ~u64(0), kDurabilityTxns, txns);
        if (!txns.error.empty())
            result.fail("durability prefix: " + txns.error);
        ledger = client.ledger;
        row = warehouseBytes(db->get());
        Rng rng(opts.seed);
        image = rig->device->captureCrashImage(rng, 0.0);
    }
    rig->reset();
    if (opts.planted("durability", "model"))
        ledger.paidCents += 1;
    if (opts.planted("durability", "image"))
        flipRowInImage(image, row);
    StatusOr<Rig> mounted = mountRig(image, config, false);
    if (!mounted.isOk()) {
        result.fail("durability mount: " + mounted.status().toString());
        return;
    }
    reopenAndCheck(*mounted, options, ledger, "durability", result);
}

}  // namespace

RunResult
runOltp(const Options &opts)
{
    RunResult result;
    const MgspConfig config;
    StatusOr<Rig> rig = formatRig(config, PmemDevice::Mode::Flat, opts.trace);
    if (!rig.isOk()) {
        result.fail("format: " + rig.status().toString());
        return result;
    }
    StatusOr<std::unique_ptr<Database>> db =
        Database::open(rig->fs.get(), kDbPath, dbOptions());
    if (!db.isOk()) {
        result.fail("open: " + db.status().toString());
        return result;
    }
    Client client(db->get(), opts.seed);
    if (Status s = client.load(); !s.isOk()) {
        result.fail("load: " + s.toString());
        return result;
    }
    result.set("setup_s",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             processStart())
                   .count(),
               "s");

    // ---- measured phase
    const std::vector<std::string> paths = {kDbPath,
                                            std::string(kDbPath) + "-wal"};
    rig->fs->resetTallies();
    stats::resetAll();
    const EngineSnapshot before = snapshotEngine(*rig, paths);
    const u64 retries0 = (*db)->stats().txnCommitRetries;
    TxnSamples txns;
    const u64 start = nowNanos();
    runTxns(client, *rig->fs, start + static_cast<u64>(opts.seconds * 1e9),
            ~u64(0), txns);
    const double seconds = static_cast<double>(nowNanos() - start) / 1e9;
    const EngineSnapshot after = snapshotEngine(*rig, paths);
    const Tally tally = rig->fs->tally();

    result.attempted = txns.attempted;
    result.failed = txns.failed;
    if (!txns.error.empty())
        result.fail(txns.error);
    result.writes = txns.writeNs.size();
    const u64 own_bytes =
        8 * (txns.writeNs.size() + txns.readNs.size() + txns.selfNs.size() +
             tally.txnPwriteNs.size() + tally.txnCommitNs.size() +
             tally.pwriteNs.size() + tally.preadNs.size());
    const double dram_mib =
        (static_cast<double>(residentBytes()) -
         static_cast<double>(rig->device->size() + own_bytes)) /
        static_cast<double>(MiB);
    setEndToEnd({&txns.writeNs}, {&txns.readNs}, seconds, before, after,
                tally.userBytes(), dram_mib, result);
    if (opts.trace)
        setMinidbMetrics(txns, tally,
                         (*db)->stats().txnCommitRetries - retries0, result);
    if (!tally.pwriteNs.empty())
        result.set("vfs.pwrite_us", medianUs(tally.pwriteNs), "us");
    if (!tally.preadNs.empty())
        result.set("vfs.pread_us", medianUs(tally.preadNs), "us");
    setEngineLayers(before, after, txns.writeNs.size(), txns.readNs.size(),
                    rig->device->latency(), result);
    if (opts.trace && !opts.statsOut.empty())
        std::ofstream(opts.statsOut) << rig->mgsp->statsReport().json;

    if (std::string err = checkInvariants(db->get(), client.ledger); !err.empty())
        result.fail(err);
    Ledger ledger = client.ledger;
    if (opts.planted("live", "model")) {
        ledger.paidCents += 1;
        if (std::string err = checkInvariants(db->get(), ledger); !err.empty())
            result.fail("planted: " + err);
    }

    // ---- restart from an unclean-stop copy of the media
    const std::vector<u8> row = warehouseBytes(db->get());
    CrashImage image = copyMedia(*rig->device);
    *db = nullptr;
    rig->reset();
    if (opts.planted("restart", "model"))
        ledger.paidCents += 1;
    if (opts.planted("restart", "image"))
        flipRowInImage(image, row);
    measureRestart(image, config, kRestartMounts, result,
                   [&](Rig &r) {
                       reopenAndCheck(r, dbOptions(), ledger, "after restart",
                                      result);
                   });
    image = CrashImage{};
    durabilityCheck(opts, result);
    return result;
}

void
probeMinidb(const Options &opts, RunResult &result)
{
    if (result.has("minidb.txn_self_us"))
        return;
    StatusOr<Rig> rig = formatRig(MgspConfig{}, PmemDevice::Mode::Flat, true);
    if (!rig.isOk()) {
        result.fail("probe format: " + rig.status().toString());
        return;
    }
    StatusOr<std::unique_ptr<Database>> db =
        Database::open(rig->fs.get(), kDbPath, dbOptions());
    if (!db.isOk()) {
        result.fail("probe open: " + db.status().toString());
        return;
    }
    Client client(db->get(), opts.seed);
    if (Status s = client.load(); !s.isOk()) {
        result.fail("probe load: " + s.toString());
        return;
    }
    rig->fs->resetTallies();
    const u64 retries0 = (*db)->stats().txnCommitRetries;
    TxnSamples txns;
    runTxns(client, *rig->fs, ~u64(0), kProbeTxns, txns);
    if (!txns.error.empty())
        result.fail("probe: " + txns.error);
    setMinidbMetrics(txns, rig->fs->tally(),
                     (*db)->stats().txnCommitRetries - retries0, result);
    if (std::string err = checkInvariants(db->get(), client.ledger); !err.empty())
        result.fail("probe: " + err);
    *db = nullptr;
}

}  // namespace perfbench
