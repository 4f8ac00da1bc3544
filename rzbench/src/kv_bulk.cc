/**
 * @file
 * kv_bulk: db_bench-style phases on Db over ZonedEnv over RAIZN with
 * stored payloads: fillrandom, overwrite, readwhilewriting (8 gets per
 * put), then gets with member 0 failed and an unthrottled rebuild.
 * Values are 4000 B and the key space holds several times the 4 MiB
 * memtable, the store's only cache, so memtable flushes, SST builds,
 * compaction, and env zone allocation and reclaim do most of the work,
 * while RAIZN moves real bytes in large sequential appends. Every value
 * encodes (key, version) and a shadow map checks each get.
 */
#include <cstdio>
#include <cstring>

#include "common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "sim/event_loop.h"
#include "workloads.h"

namespace rzbench {

using namespace raizn;

namespace {

constexpr uint64_t kKeys = 6000;
// readwhilewriting puts; at 8 gets each, 20000 gets put the read tail
// at p99.9 inside the two-SST-read mode instead of on its edge.
constexpr uint64_t kReadWhileWritingPuts = 2500;
constexpr uint32_t kValueBytes = 4000;
constexpr int kGetsPerPut = 8;

std::string
make_key(uint64_t k)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llu", (unsigned long long)k);
    return buf;
}

/// The value stored for version `ver` of key `k`: a readable header
/// naming both, then 8-byte words derived from them (cheap to build,
/// so bench-side work stays a small share of host_s).
std::string
make_value(uint64_t k, uint32_t ver)
{
    std::string v(kValueBytes, '\0');
    int n = std::snprintf(v.data(), v.size(), "key=%llu ver=%u ",
                          (unsigned long long)k, ver);
    uint64_t x = mix(mix(0, k), ver);
    for (size_t i = static_cast<size_t>(n); i + 8 <= v.size(); i += 8) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::memcpy(v.data() + i, &x, 8);
    }
    return v;
}

/// Db client with the shadow map: versions[k] is the latest version
/// put for key k (0 = never put).
struct Client {
    Stack *s;
    std::vector<uint32_t> versions;
    uint64_t user_bytes = 0;

    void
    put(uint64_t k, OpClass *c)
    {
        uint32_t ver = ++versions[k];
        std::string key = make_key(k);
        std::string value = make_value(k, ver);
        user_bytes += key.size() + value.size();
        Tick v0 = s->loop()->now();
        uint64_t h0 = cpu_ns();
        Status st = [&] {
            Span span(kKvPut);
            return s->db->put(key, value);
        }();
        c->host_ns += cpu_ns() - h0;
        Tick lat = s->loop()->now() - v0;
        c->virt_ns += lat;
        c->lat.add(lat);
        c->n++;
        c->errors += !st.is_ok();
    }

    void
    get(uint64_t k, OpClass *c)
    {
        std::string key = make_key(k);
        Tick v0 = s->loop()->now();
        uint64_t h0 = cpu_ns();
        Result<std::string> res = [&] {
            Span span(kKvGet);
            return s->db->get(key);
        }();
        c->host_ns += cpu_ns() - h0;
        Tick lat = s->loop()->now() - v0;
        c->virt_ns += lat;
        c->lat.add(lat);
        c->n++;
        bool ok = versions[k] == 0
            ? res.status().code() == StatusCode::kNotFound
            : res.is_ok() && res.value() == make_value(k, versions[k]);
        c->errors += !ok;
    }
};

} // namespace

RepResult
run_kv_bulk(const Options &o)
{
    RepResult r;
    r.calibrate();
    BenchScale scale; // 5 members x 24 zones x 6 MiB, 64 KiB stripe units
    scale.zone_cap_sectors = 1536;
    scale.data_mode = DataMode::kStore;
    uint64_t t0 = cpu_ns();
    Stack s = build_stack(scale, o.traced);
    Status opened = s.open_db(DbOptions{});
    r.setup_s = static_cast<double>(cpu_ns() - t0) * 1e-9;
    if (!opened)
        RAIZN_PANIC("db open failed: %s", opened.to_string().c_str());

    const uint64_t nkeys = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(kKeys) * o.scale), 64);
    const uint64_t rww_puts = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(kReadWhileWritingPuts) *
                              o.scale),
        8);
    Rng rng(o.seed);
    auto next_key = [&] {
        uint64_t k = rng.next_below(nkeys);
        r.inputs_digest = mix(r.inputs_digest, k);
        return k;
    };
    Client d{&s, std::vector<uint32_t>(nkeys, 0)};

    LayerTrace trace(&s);
    if (o.traced)
        trace.begin();
    uint64_t h0 = cpu_ns();
    uint64_t dev0 = s.member_bytes_written();
    // The write tail is the mean of the three phases' tails, as db_bench
    // reports them: the pooled p99.9 of all puts sits on the edge of the
    // memtable-flush stalls and jumped between 729 and 1027 us by seed.
    for (uint64_t i = 0; i < nkeys; ++i) // fillrandom
        d.put(next_key(), &r.write);
    r.write.end_phase();
    for (uint64_t i = 0; i < nkeys; ++i) // overwrite
        d.put(next_key(), &r.write);
    r.write.end_phase();
    for (uint64_t i = 0; i < rww_puts; ++i) { // readwhilewriting
        d.put(next_key(), &r.write);
        for (int g = 0; g < kGetsPerPut; ++g)
            d.get(next_key(), &r.read);
    }
    r.write.end_phase();
    r.dev_bytes_written = s.member_bytes_written() - dev0;
    r.user_bytes = d.user_bytes;

    uint64_t recon0 = s.vol()->stats().reconstructed_sectors;
    s.vol()->mark_device_failed(0);
    for (uint64_t i = 0; i < nkeys / 3; ++i)
        d.get(next_key(), &r.degraded);
    bool reconstructed = s.vol()->stats().reconstructed_sectors > recon0;

    if (o.traced)
        trace.mark_rebuild();
    Status rb = s.rebuild_member0(&r.ttr_ns);
    r.host_s = static_cast<double>(cpu_ns() - h0) * 1e-9;
    if (o.traced)
        trace.end();
    r.calibrate();

    // Every key, healthy again after the rebuild.
    OpClass after;
    for (uint64_t k = 0; k < nkeys; ++k)
        d.get(k, &after);

    r.check("kv.puts_ok", r.write.errors == 0);
    r.check("kv.gets_match_shadow", r.read.errors == 0);
    r.check("kv.degraded_gets_match_shadow",
            r.degraded.errors == 0 && reconstructed);
    r.check("kv.rebuild_ok", rb.is_ok() && s.vol()->failed_device() < 0);
    r.check("kv.all_keys_match_after_rebuild", after.errors == 0);

    r.attempted = r.write.n + r.read.n + r.degraded.n + 1 + after.n;
    r.failed = r.write.errors + r.read.errors + r.degraded.errors +
        (rb.is_ok() ? 0 : 1) + after.errors;

    if (o.traced) {
        LayerTrace::Ops ops;
        ops.ops = r.write.n + r.read.n + r.degraded.n;
        ops.kv_puts = r.write.n;
        ops.kv_gets = r.read.n + r.degraded.n;
        ops.user_bytes = r.user_bytes;
        trace.report(ops, &r);
    }
    return r;
}

} // namespace rzbench
