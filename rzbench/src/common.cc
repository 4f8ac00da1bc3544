#include "common.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

#include <sys/resource.h>

#include "calib.h"
#include "common/logging.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"
#include "zns/timing_model.h"

namespace rzbench {

using namespace raizn;

uint64_t
mix(uint64_t h, uint64_t v)
{
    if (h == 0)
        h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
tail_quantile(uint64_t n)
{
    double q = 0.5;
    for (double level : {0.9, 0.99, 0.999, 0.9999}) {
        if (static_cast<double>(n) * (1.0 - level) >= 10.0 - 1e-9)
            q = level;
    }
    return q;
}

void
OpClass::end_phase()
{
    Histogram w = lat.window();
    phase_tail_ns.push_back(
        static_cast<double>(w.percentile(tail_quantile(w.count()))));
}

double
tail_ns(const OpClass &c)
{
    if (c.phase_tail_ns.empty())
        return static_cast<double>(
            c.lat.percentile(tail_quantile(c.lat.count())));
    double sum = 0;
    for (double t : c.phase_tail_ns)
        sum += t;
    return sum / static_cast<double>(c.phase_tail_ns.size());
}

namespace {

double
peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
kops(const OpClass &c)
{
    return c.virt_ns == 0 ? 0.0
                          : static_cast<double>(c.n) * 1e6 /
            static_cast<double>(c.virt_ns);
}

double
host_us(const OpClass &c)
{
    return c.n == 0 ? 0.0
                    : static_cast<double>(c.host_ns) * 1e-3 /
            static_cast<double>(c.n);
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// `"name": value` pairs joined into a JSON object body.
std::string
object(const std::vector<std::pair<std::string, std::string>> &kv)
{
    std::string out = "{";
    for (size_t i = 0; i < kv.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "\"" + kv[i].first + "\": " + kv[i].second;
    }
    return out + "}";
}

std::string
number_object(const std::vector<std::pair<std::string, double>> &kv)
{
    std::vector<std::pair<std::string, std::string>> s;
    for (const auto &[k, v] : kv)
        s.emplace_back(k, num(v));
    return object(s);
}

/// Which quantile the tail is (of an average-sized phase), over how
/// many samples and phases.
std::string
tail_info(const OpClass &c)
{
    const uint64_t phases = std::max<uint64_t>(c.phase_tail_ns.size(), 1);
    return object({{"q", num(tail_quantile(c.lat.count() / phases))},
                   {"n", std::to_string(c.lat.count())},
                   {"phases", std::to_string(phases)}});
}

double
median_ms(std::vector<uint64_t> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    double mid = n % 2 ? static_cast<double>(v[n / 2])
                       : (static_cast<double>(v[n / 2 - 1]) +
                          static_cast<double>(v[n / 2])) /
            2;
    return mid * 1e-6;
}

double
us(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-3;
}

} // namespace

void
RepResult::calibrate()
{
    for (int i = 0; i < 2; ++i)
        calib_ns.push_back(calibration_cpu_ns());
}

std::string
to_json(const Options &o, const RepResult &r)
{
    const double waf = r.user_bytes == 0
        ? 0.0
        : static_cast<double>(r.dev_bytes_written) /
            static_cast<double>(r.user_bytes);
    const double error_rate = r.attempted == 0
        ? 0.0
        : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    std::vector<std::pair<std::string, double>> host = {
        {"setup_s", r.setup_s},
        {"host_s", r.host_s},
        {"host_write_us", host_us(r.write)},
        {"host_read_us", host_us(r.read)},
        {"peak_rss_mib", peak_rss_mib()},
        {"calib_ms", r.calib_ns.empty() ? 0.0 : median_ms(r.calib_ns)},
    };
    std::vector<std::pair<std::string, double>> virt = {
        {"write_kops", kops(r.write)},
        {"read_kops", kops(r.read)},
        {"write_p50_us", us(r.write.lat.p50())},
        {"read_p50_us", us(r.read.lat.p50())},
        {"write_tail_us", tail_ns(r.write) * 1e-3},
        {"read_tail_us", tail_ns(r.read) * 1e-3},
        {"degraded_read_kops", kops(r.degraded)},
        {"ttr_s", static_cast<double>(r.ttr_ns) * 1e-9},
        {"waf", waf},
        {"error_rate", error_rate},
    };
    std::vector<std::pair<std::string, std::string>> checks;
    for (const auto &[k, ok] : r.checks)
        checks.emplace_back(k, ok ? "true" : "false");
    char digest[32];
    std::snprintf(digest, sizeof(digest), "\"%016" PRIx64 "\"",
                  r.inputs_digest);
    std::vector<std::pair<std::string, std::string>> top = {
        {"workload", "\"" + o.workload + "\""},
        {"seed", std::to_string(o.seed)},
        {"traced", o.traced ? "true" : "false"},
        {"inputs_digest", digest},
        {"attempted", std::to_string(r.attempted)},
        {"failed", std::to_string(r.failed)},
        {"host", number_object(host)},
        {"virtual", number_object(virt)},
        {"tails",
         object({{"write", tail_info(r.write)}, {"read", tail_info(r.read)}})},
        {"checks", object(checks)},
    };
    if (o.traced) {
        top.emplace_back("layers", number_object(r.layers));
        top.emplace_back("self_s", number_object(r.self_s));
    }
    return object(top);
}

// ---- Stack --------------------------------------------------------------

Stack
build_stack(const BenchScale &scale, bool traced)
{
    Stack s;
    if (!traced) {
        s.arr = make_raizn_array(scale);
        return s;
    }
    // The same devices and volume make_raizn_array builds, with each
    // member behind a TimedDevice. Traced and untraced reps must agree
    // on every virtual-clock metric, which run.py checks.
    s.arr.loop = std::make_unique<EventLoop>();
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < scale.num_devices; ++i) {
        ZnsDeviceConfig cfg;
        cfg.nzones = scale.zones_per_device;
        cfg.zone_size = scale.zone_cap_sectors;
        cfg.zone_capacity = scale.zone_cap_sectors;
        cfg.data_mode = scale.data_mode;
        cfg.timing = TimingParams::zns();
        cfg.name = "zns" + std::to_string(i);
        s.arr.devs.push_back(
            std::make_unique<ZnsDevice>(s.arr.loop.get(), cfg));
        s.timed.push_back(std::make_unique<TimedDevice>(
            s.arr.loop.get(), s.arr.devs.back().get()));
        ptrs.push_back(s.timed.back().get());
    }
    RaiznConfig rcfg;
    rcfg.num_devices = scale.num_devices;
    rcfg.su_sectors = scale.su_sectors;
    auto res = RaiznVolume::create(s.arr.loop.get(), ptrs, rcfg);
    if (!res.is_ok())
        RAIZN_PANIC("RAIZN create failed: %s",
                    res.status().to_string().c_str());
    s.arr.vol = std::move(res).value();
    return s;
}

Status
Stack::open_db(const DbOptions &opt)
{
    zenv = std::make_unique<ZonedEnv>(loop(), vol());
    Env *env = zenv.get();
    if (traced()) {
        tenv = std::make_unique<TimedEnv>(loop(), zenv.get());
        env = tenv.get();
    }
    auto d = Db::open(env, opt);
    if (!d.is_ok())
        return d.status();
    db = std::move(d).value();
    return Status::ok();
}

Status
Stack::rebuild_member0(Tick *ttr)
{
    arr.devs[0]->replace();
    if (traced())
        timed[0]->restart_sectors();
    Tick t0 = loop()->now();
    Status st;
    bool done = false;
    {
        Span span(kRaizn);
        vol()->rebuild_device(0, nullptr, [&](Status s) {
            st = s;
            done = true;
        });
    }
    loop()->run_until_pred([&] { return done; });
    *ttr = loop()->now() - t0;
    if (!done)
        return Status(StatusCode::kIoError, "rebuild never completed");
    return st;
}

uint64_t
Stack::member_bytes_written() const
{
    uint64_t sectors = 0;
    for (const auto &d : arr.devs)
        sectors += d->stats().sectors_written;
    return sectors * kSectorSize;
}

// ---- LayerTrace ---------------------------------------------------------

struct LayerTrace::Snap {
    uint64_t host = 0;
    Tick virt = 0;
    uint64_t events = 0;
    std::array<uint64_t, kNumLayers> self{};
    uint64_t top = 0;
    size_t depth = 0;
    DevCounts dev; ///< summed over members
    std::vector<uint64_t> busy; ///< per member
    VolumeStats vol;
    EnvCounts env;
    EnvStats env_stats;
    DbStats db;
    uint64_t alloc_count = 0, alloc_bytes = 0, copy_bytes = 0;
    Histogram wlat, rlat;
};

LayerTrace::Snap
LayerTrace::take() const
{
    Snap s;
    s.host = host_ns();
    s.virt = s_->loop()->now();
    s.events = s_->loop()->events_processed();
    s.self = tracer_.self_ns();
    s.top = tracer_.top_ns();
    s.depth = tracer_.depth();
    for (const auto &t : s_->timed) {
        const DevCounts &c = t->counts();
        s.dev.cmds += c.cmds;
        s.dev.flushes += c.flushes;
        s.dev.zone_resets += c.zone_resets;
        s.dev.lat_ns += c.lat_ns;
        for (size_t k = 0; k < c.sectors.size(); ++k) {
            s.dev.sectors[k][0] += c.sectors[k][0];
            s.dev.sectors[k][1] += c.sectors[k][1];
        }
        s.busy.push_back(t->stats().busy_ns);
    }
    s.vol = s_->vol()->stats();
    if (s_->tenv) {
        s.env = s_->tenv->counts();
        s.env_stats = s_->tenv->stats();
    }
    if (s_->db)
        s.db = s_->db->stats();
    s.alloc_count = prof::g_alloc_count;
    s.alloc_bytes = prof::g_alloc_bytes;
    s.copy_bytes = prof::g_copy_bytes;
    if (reg_) {
        s.wlat = reg_->latency("raizn.write.total_ns")->histogram();
        s.rlat = reg_->latency("raizn.read.total_ns")->histogram();
    }
    return s;
}

void
LayerTrace::begin()
{
    reg_ = std::make_unique<obs::MetricsRegistry>();
    s_->vol()->attach_observability(reg_.get(), nullptr);
    g_tracer = &tracer_;
    tracer_.attach(s_->loop());
    snaps_.push_back(std::make_shared<Snap>(take()));
}

void
LayerTrace::mark_rebuild()
{
    snaps_.push_back(std::make_shared<Snap>(take()));
}

void
LayerTrace::end()
{
    snaps_.push_back(std::make_shared<Snap>(take()));
    tracer_.detach(s_->loop());
    g_tracer = nullptr;
    s_->vol()->attach_observability(nullptr, nullptr);
}

void
LayerTrace::report(const Ops &o, RepResult *r) const
{
    const Snap &a = *snaps_.at(0), &b = *snaps_.at(1), &c = *snaps_.at(2);
    auto per = [](double n, double d) { return d > 0 ? n / d : 0.0; };
    auto delta = [](uint64_t hi, uint64_t lo) {
        return static_cast<double>(hi - lo);
    };
    const double ops = static_cast<double>(o.ops);
    auto self_us_per = [&](Layer l, double n) {
        return per(delta(b.self[l], a.self[l]), n) * 1e-3;
    };
    auto sectors = [](const Snap &s, obs::Cause cause, bool written) {
        return s.dev.cause_sectors(cause, written);
    };
    auto &m = r->layers;

    const double events = delta(b.events, a.events);
    m.emplace_back("sim.events_per_op", per(events, ops));
    m.emplace_back("sim.host_ns_per_event",
                   per(delta(b.self[kSim], a.self[kSim]), events));

    const double cmds = delta(b.dev.cmds, a.dev.cmds);
    m.emplace_back("zns.cmds_per_op", per(cmds, ops));
    m.emplace_back("zns.flushes_per_op",
                   per(delta(b.dev.flushes, a.dev.flushes), ops));
    m.emplace_back("zns.cmd_lat_us",
                   per(delta(b.dev.lat_ns, a.dev.lat_ns), cmds) * 1e-3);
    double busy_max = 0;
    const double span_ns = delta(b.virt, a.virt) *
        static_cast<double>(TimingParams::zns().units);
    for (size_t d = 0; d < a.busy.size(); ++d)
        busy_max = std::max(busy_max,
                            per(delta(b.busy[d], a.busy[d]), span_ns) * 100);
    m.emplace_back("zns.busy_pct_max", busy_max);
    m.emplace_back("zns.zone_resets",
                   delta(c.dev.zone_resets, a.dev.zone_resets));
    m.emplace_back("zns.host_us_per_op", self_us_per(kZns, ops));

    // Cumulative since the array was formatted: the health monitor's
    // verdicts during set-up (OLTP prepare) count too.
    m.emplace_back("fault.io_retries", static_cast<double>(c.vol.io_retries));
    m.emplace_back("fault.dev_errors", static_cast<double>(c.vol.dev_errors));
    m.emplace_back("fault.fail_slow_detected",
                   static_cast<double>(c.vol.fail_slow_detected));

    const double vol_written =
        delta(b.vol.sectors_written, a.vol.sectors_written);
    m.emplace_back("raizn.pp_log_bytes_per_user_byte",
                   per(delta(sectors(b, obs::Cause::kPpLog, true),
                             sectors(a, obs::Cause::kPpLog, true)),
                       vol_written));
    m.emplace_back("raizn.parity_bytes_per_user_byte",
                   per(delta(sectors(b, obs::Cause::kParity, true),
                             sectors(a, obs::Cause::kParity, true)),
                       vol_written));
    m.emplace_back("raizn.fua_dependency_flushes_per_write",
                   per(delta(b.vol.fua_dependency_flushes,
                             a.vol.fua_dependency_flushes),
                       delta(b.vol.logical_writes, a.vol.logical_writes)));
    m.emplace_back("raizn.relocated_writes",
                   delta(b.vol.relocated_writes, a.vol.relocated_writes));
    m.emplace_back("raizn.reconstructed_sectors_per_read",
                   per(delta(b.vol.reconstructed_sectors,
                             a.vol.reconstructed_sectors),
                       delta(b.vol.logical_reads, a.vol.logical_reads)));
    // Nothing but the rebuild runs in S1..S2, so all member traffic
    // there is the rebuild's (its reads reuse the degraded-read path
    // and keep that path's causes; only its writes are tagged rebuild).
    m.emplace_back("raizn.rebuild_bytes_read",
                   delta(c.dev.total_sectors(false),
                         b.dev.total_sectors(false)) *
                       kSectorSize);
    m.emplace_back("raizn.rebuild_bytes_written",
                   delta(c.dev.total_sectors(true),
                         b.dev.total_sectors(true)) *
                       kSectorSize);
    m.emplace_back("raizn.write_lat_us", b.wlat.mean() * 1e-3);
    m.emplace_back("raizn.read_lat_us", b.rlat.mean() * 1e-3);
    m.emplace_back("raizn.host_us_per_op", self_us_per(kRaizn, ops));

    m.emplace_back("host.alloc_count_per_op",
                   per(delta(b.alloc_count, a.alloc_count), ops));
    m.emplace_back("host.alloc_bytes_per_op",
                   per(delta(b.alloc_bytes, a.alloc_bytes), ops));
    m.emplace_back("host.copy_bytes_per_op",
                   per(delta(b.copy_bytes, a.copy_bytes), ops));

    const double puts = delta(b.db.puts, a.db.puts);
    const double gets = delta(b.db.gets, a.db.gets);
    const double appends = delta(b.env.appends, a.env.appends);
    const double syncs = delta(b.env.syncs, a.env.syncs);
    const double reads = delta(b.env.reads, a.env.reads);
    m.emplace_back("env.appends_per_put", per(appends, puts));
    m.emplace_back("env.syncs_per_write",
                   per(syncs, puts + delta(b.db.deletes, a.db.deletes)));
    m.emplace_back("env.reads_per_get", per(reads, gets));
    m.emplace_back("env.read_bytes_per_get",
                   per(delta(b.env.read_bytes, a.env.read_bytes), gets));
    m.emplace_back("env.append_us",
                   per(delta(b.env.append_ns, a.env.append_ns), appends) *
                       1e-3);
    m.emplace_back("env.sync_us",
                   per(delta(b.env.sync_ns, a.env.sync_ns), syncs) * 1e-3);
    m.emplace_back("env.read_us",
                   per(delta(b.env.read_ns, a.env.read_ns), reads) * 1e-3);
    m.emplace_back("env.gc_relocated_bytes",
                   delta(b.env_stats.gc_relocated_bytes,
                         a.env_stats.gc_relocated_bytes));
    m.emplace_back("env.zones_reclaimed",
                   delta(b.env_stats.zones_reclaimed,
                         a.env_stats.zones_reclaimed));
    m.emplace_back("env.host_us_per_op", self_us_per(kEnv, ops));

    m.emplace_back("kv.memtable_flushes",
                   delta(b.db.memtable_flushes, a.db.memtable_flushes));
    m.emplace_back("kv.compactions",
                   delta(b.db.compactions, a.db.compactions));
    m.emplace_back("kv.compaction_bytes_per_user_byte",
                   per(delta(b.db.compaction_bytes_written,
                             a.db.compaction_bytes_written),
                       static_cast<double>(o.user_bytes)));
    m.emplace_back("kv.host_us_per_put",
                   self_us_per(kKvPut, static_cast<double>(o.kv_puts)));
    m.emplace_back("kv.host_us_per_get",
                   self_us_per(kKvGet, static_cast<double>(o.kv_gets)));

    const double txns = static_cast<double>(o.txns);
    m.emplace_back("oltp.kv_ops_per_txn",
                   per(puts + gets + delta(b.db.deletes, a.db.deletes),
                       txns));
    m.emplace_back("oltp.host_us_per_txn", self_us_per(kOltp, txns));
    m.emplace_back("wkld.host_us_per_io",
                   self_us_per(kWkld, static_cast<double>(o.ios)));

    // Conservation over the whole traced window S0..S2: layer self
    // times sum to the outermost spans, and those plus the named
    // residual (bench code outside any span) to the window's wall time.
    const uint64_t wall = c.host - a.host;
    const uint64_t spans = c.top - a.top;
    uint64_t self_sum = 0;
    for (int l = 0; l < kNumLayers; ++l) {
        uint64_t v = c.self[l] - a.self[l];
        self_sum += v;
        r->self_s.emplace_back(kLayerNames[l], static_cast<double>(v) * 1e-9);
    }
    const uint64_t residual = wall >= spans ? wall - spans : 0;
    r->self_s.emplace_back("residual", static_cast<double>(residual) * 1e-9);
    r->self_s.emplace_back("window", static_cast<double>(wall) * 1e-9);
    m.emplace_back("trace.residual_share",
                   per(static_cast<double>(residual),
                       static_cast<double>(wall)));
    r->check("trace.spans_closed_at_windows",
             a.depth == 0 && b.depth == 0 && c.depth == 0);
    r->check("trace.self_times_sum_to_host_s",
             self_sum == spans && spans <= wall);

    // Device bytes split by IoRequest.cause sum to DeviceStats.
    bool bytes_ok = true;
    bool tagged = true;
    for (const auto &t : s_->timed) {
        bytes_ok = bytes_ok &&
            t->sectors_since_restart(true) == t->stats().sectors_written &&
            t->sectors_since_restart(false) == t->stats().sectors_read;
        tagged = tagged &&
            t->counts().cause_sectors(obs::Cause::kUntagged, true) == 0 &&
            t->counts().cause_sectors(obs::Cause::kUntagged, false) == 0;
    }
    r->check("trace.device_bytes_by_cause_match_stats", bytes_ok);
    r->check("trace.device_bytes_all_tagged", tagged);
}

} // namespace rzbench
