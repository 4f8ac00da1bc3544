/**
 * @file
 * oltp_sync: sysbench-style OLTP on OltpDatabase over Db(sync_wal)
 * over ZonedEnv over RAIZN. Alternating batches of read-only and
 * write-only transactions, each batch one run_sysbench call, then a
 * read-only batch with member 0 failed and an unthrottled rebuild.
 * Same kv/env/raizn stack as kv_bulk, but every commit is a small
 * synced WAL write (RAIZN's FUA/flush ordering) and each read-only
 * transaction does ~410 gets, so a change that speeds up bulk appends
 * at the cost of sync latency shows here. prepare() is set-up.
 */
#include "common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "oltp/sysbench.h"
#include "workloads.h"

namespace rzbench {

using namespace raizn;

namespace {

constexpr uint32_t kTables = 8;
constexpr uint64_t kRowsPerTable = 5000;
constexpr int kBatches = 4;
constexpr uint64_t kReadTxnsPerBatch = 30;
constexpr uint64_t kWriteTxnsPerBatch = 400;

void
run_batch(Stack &s, OltpDatabase &db, OltpWorkload w, uint64_t txns,
          uint64_t seed, OpClass *c)
{
    uint64_t h0 = cpu_ns();
    OltpResult res = [&] {
        Span span(kOltp);
        return run_sysbench(s.loop(), &db, w, txns, seed);
    }();
    c->host_ns += cpu_ns() - h0;
    c->n += res.transactions;
    c->errors += res.errors;
    c->virt_ns += res.elapsed;
    c->lat.merge(res.latency);
}

uint64_t
scaled(uint64_t n, double scale)
{
    return std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(n) * scale), 1);
}

} // namespace

RepResult
run_oltp_sync(const Options &o)
{
    RepResult r;
    r.calibrate();
    BenchScale scale; // 5 members x 24 zones x 6 MiB, 64 KiB stripe units
    scale.zone_cap_sectors = 1536;
    scale.data_mode = DataMode::kStore;
    DbOptions opt;
    // Durable commits: fsync the WAL on every write, as MySQL's
    // redo-log settings do.
    opt.sync_wal = true;
    // Inputs: table size and write batch sizes vary by about a percent
    // with the seed, the transactions' keys entirely.
    Rng rng(o.seed);
    auto jitter = [&](uint64_t n) {
        uint64_t v = scaled(n, o.scale * (0.99 + 0.02 * rng.next_double()));
        r.inputs_digest = mix(r.inputs_digest, v);
        return v;
    };
    OltpDatabase::Config cfg;
    cfg.tables = kTables;
    cfg.rows_per_table = std::max<uint64_t>(jitter(kRowsPerTable), 200);

    uint64_t t0 = cpu_ns();
    Stack s = build_stack(scale, o.traced);
    Status st = s.open_db(opt);
    if (!st)
        RAIZN_PANIC("db open failed: %s", st.to_string().c_str());
    OltpDatabase db(s.db.get(), cfg);
    st = db.prepare();
    r.setup_s = static_cast<double>(cpu_ns() - t0) * 1e-9;
    if (!st)
        RAIZN_PANIC("prepare failed: %s", st.to_string().c_str());

    const uint64_t ro = scaled(kReadTxnsPerBatch, o.scale);
    const uint64_t wo = jitter(kWriteTxnsPerBatch);
    auto next_seed = [&] {
        uint64_t v = rng.next();
        r.inputs_digest = mix(r.inputs_digest, v);
        return v;
    };

    LayerTrace trace(&s);
    if (o.traced)
        trace.begin();
    uint64_t h0 = cpu_ns();
    uint64_t dev0 = s.member_bytes_written();
    DbStats db0 = s.db->stats();
    for (int b = 0; b < kBatches; ++b) {
        run_batch(s, db, OltpWorkload::kReadOnly, ro, next_seed(), &r.read);
        run_batch(s, db, OltpWorkload::kWriteOnly, wo, next_seed(),
                  &r.write);
    }
    r.dev_bytes_written = s.member_bytes_written() - dev0;
    // Rows and keys the transactions asked the database to store.
    const uint64_t key_bytes = OltpDatabase::row_key(0, 0).size();
    const DbStats &db1 = s.db->stats();
    r.user_bytes = (db1.puts - db0.puts) * (key_bytes + cfg.row_bytes) +
        (db1.deletes - db0.deletes) * key_bytes;

    uint64_t recon0 = s.vol()->stats().reconstructed_sectors;
    s.vol()->mark_device_failed(0);
    run_batch(s, db, OltpWorkload::kReadOnly, ro, next_seed(), &r.degraded);
    bool reconstructed = s.vol()->stats().reconstructed_sectors > recon0;

    if (o.traced)
        trace.mark_rebuild();
    Status rb = s.rebuild_member0(&r.ttr_ns);
    r.host_s = static_cast<double>(cpu_ns() - h0) * 1e-9;
    if (o.traced)
        trace.end();
    r.calibrate();

    OpClass after;
    run_batch(s, db, OltpWorkload::kReadOnly, ro, next_seed(), &after);
    run_batch(s, db, OltpWorkload::kWriteOnly, wo, next_seed(), &after);

    r.check("oltp.read_txns_ok",
            r.read.errors == 0 && r.read.n == ro * kBatches);
    r.check("oltp.write_txns_ok",
            r.write.errors == 0 && r.write.n == wo * kBatches);
    r.check("oltp.degraded_read_txns_ok",
            r.degraded.errors == 0 && r.degraded.n == ro && reconstructed);
    r.check("oltp.rebuild_ok", rb.is_ok() && s.vol()->failed_device() < 0);
    r.check("oltp.txns_ok_after_rebuild",
            after.errors == 0 && after.n == ro + wo);

    r.attempted = (ro + wo) * kBatches + ro + 1 + ro + wo;
    r.failed = r.read.errors + r.write.errors + r.degraded.errors +
        (rb.is_ok() ? 0 : 1) + after.errors;

    if (o.traced) {
        LayerTrace::Ops ops;
        ops.ops = r.write.n + r.read.n + r.degraded.n;
        ops.txns = ops.ops;
        ops.user_bytes = r.user_bytes;
        trace.report(ops, &r);
    }
    return r;
}

} // namespace rzbench
