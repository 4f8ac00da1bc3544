/**
 * @file
 * Where do the bytes go? Write/read-amplification accounting from the
 * byte-provenance ledger, per volume type (RAIZN, mdraid, and every
 * generic ZonedEngine mode) and per lifecycle phase:
 *
 *   healthy  — fig8-style sequential write + random read
 *   degraded — one member failed, zones recycled, same workload
 *   rebuild  — failed member replaced and rebuilt/resynced
 *
 * After each phase the bench snapshots the ledger's cumulative WAF/RAF
 * and per-cause amplification components (milli units, exact integers)
 * and runs the conservation audit — any device byte that reached a
 * member without a cause tag fails the bench. Emits BENCH_waf.json
 * under exact (abs=0) bench-gate bands: amplification in this
 * deterministic simulation is a property of the data path, so any
 * drift is a behavior change that must be acknowledged by
 * regenerating the baseline. Also writes per-volume breakdown and
 * zone-churn heatmap CSVs for the CI artifacts.
 *
 * --smoke runs the RAIZN healthy phase only (ctest waf_smoke): audit
 * plus the paper's qualitative claim that RAIZN pays a partial-parity
 * log premium mdraid does not have.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "array/engine.h"
#include "array/raid_mode.h"
#include "bench_util.h"
#include "common/logging.h"
#include "obs/ledger.h"

using namespace raizn;
using namespace raizn::bench;

namespace {

/// Per-cause WAF components reported as JSON fields. scrub/zone_mgmt
/// move no write bytes in these phases; untagged is audited to zero.
constexpr obs::Cause kCauseCols[] = {
    obs::Cause::kUserData, obs::Cause::kParity,
    obs::Cause::kPpLog,    obs::Cause::kWalMd,
    obs::Cause::kRelocation, obs::Cause::kRebuild,
    obs::Cause::kResync,   obs::Cause::kGc,
};
constexpr size_t kNumCols = sizeof(kCauseCols) / sizeof(kCauseCols[0]);

struct WafPoint {
    std::string volume;
    std::string phase;
    long long waf_milli = 0;
    long long raf_milli = 0;
    long long comp_milli[kNumCols] = {};
    unsigned long long untagged_ops = 0;
};

long long
milli(double v)
{
    return std::llround(v * 1000.0);
}

/// One array under test behind the shared ZonedArray interface, with
/// whatever owns it kept alive alongside.
struct VolRun {
    RaiznArray ra;
    MdArray ma;
    struct {
        std::unique_ptr<EventLoop> loop;
        std::vector<std::unique_ptr<ZnsDevice>> devs;
        std::unique_ptr<ZonedEngine> eng;
    } ea;
    ZonedArray *arr = nullptr;
    EventLoop *loop = nullptr;
    std::function<void()> replace_victim;
};

VolRun
make_vol(const std::string &name, uint32_t victim)
{
    BenchScale scale;
    VolRun v;
    if (name == "raizn") {
        v.ra = make_raizn_array(scale);
        v.arr = v.ra.vol.get();
        v.loop = v.ra.loop.get();
        ZnsDevice *d = v.ra.devs[victim].get();
        v.replace_victim = [d] { d->replace(); };
        return v;
    }
    if (name == "mdraid") {
        v.ma = make_mdraid_array(scale);
        v.arr = v.ma.vol.get();
        v.loop = v.ma.loop.get();
        ConvDevice *d = v.ma.devs[victim].get();
        v.replace_victim = [d] { d->replace(); };
        return v;
    }
    RaidMode mode = RaidMode::kAuto;
    if (name == "raid0")
        mode = RaidMode::kRaid0;
    else if (name == "raid1")
        mode = RaidMode::kRaid1;
    else if (name == "raid5")
        mode = RaidMode::kRaid5;
    else if (name == "raid6")
        mode = RaidMode::kRaid6;
    else if (name == "raid10")
        mode = RaidMode::kRaid10;
    v.ea.loop = std::make_unique<EventLoop>();
    // Mirror pairs need an even member count.
    uint32_t ndev = mode == RaidMode::kRaid10 ? scale.num_devices & ~1u
                                              : scale.num_devices;
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < ndev; ++i) {
        ZnsDeviceConfig cfg;
        cfg.nzones = scale.zones_per_device;
        cfg.zone_size = scale.zone_cap_sectors;
        cfg.zone_capacity = scale.zone_cap_sectors;
        cfg.data_mode = scale.data_mode;
        cfg.timing = TimingParams::zns();
        cfg.name = "zns" + std::to_string(i);
        v.ea.devs.push_back(
            std::make_unique<ZnsDevice>(v.ea.loop.get(), cfg));
        ptrs.push_back(v.ea.devs.back().get());
    }
    EngineConfig ecfg;
    ecfg.mode = mode;
    ecfg.su_sectors = scale.su_sectors;
    auto res = ZonedEngine::create(v.ea.loop.get(), ptrs, ecfg);
    if (!res.is_ok())
        RAIZN_PANIC("%s create failed: %s", name.c_str(),
                    res.status().to_string().c_str());
    v.ea.eng = std::move(res).value();
    v.arr = v.ea.eng.get();
    v.loop = v.ea.loop.get();
    ZnsDevice *d = v.ea.devs[victim].get();
    v.replace_victim = [d] { d->replace(); };
    return v;
}

/// Sequential-write pass at 4 jobs (not fig8's 8): the generic engine
/// modes keep one physical zone active per in-flight logical zone on
/// every member, and 8 jobs straddling zone boundaries (plus the
/// journal zone) overrun the paper's 14-active-zone device limit.
/// Amplification ratios are what this bench measures and they do not
/// depend on the job count.
WorkloadPoint
run_seq_write(EventLoop *loop, IoTarget *target, uint32_t bs,
              uint64_t zone_align)
{
    WorkloadRunner runner(loop, target);
    auto jobs = seq_jobs(RwMode::kSeqWrite, bs, 4, 64,
                         target->capacity(), zone_align);
    for (auto &j : jobs)
        j.io_limit = kIosPerJob;
    auto res = runner.run_merged(jobs);
    return {res.throughput_mibs(),
            static_cast<double>(res.latency.p50()) / 1e3,
            static_cast<double>(res.latency.p999()) / 1e3};
}

/// Random reads bounded to the span the sequential-write pass
/// actually wrote (the first seq job's prefix): reads of never-written
/// stripes are an error on the participant-gated engine modes (and
/// would escalate into device failures), not a workload.
WorkloadPoint
run_rand_read_written(EventLoop *loop, IoTarget *target, uint32_t bs)
{
    WorkloadRunner runner(loop, target);
    JobSpec s = rand_read_job(bs, 256, kIosPerJob * bs);
    s.io_limit = 8 * kIosPerJob;
    auto res = runner.run_merged({s});
    return {res.throughput_mibs(),
            static_cast<double>(res.latency.p50()) / 1e3,
            static_cast<double>(res.latency.p999()) / 1e3};
}

/// Recycles every logical zone so a second sequential-write pass has
/// fresh write pointers (and the heatmap gets real churn). No-op for
/// the conventional md stack.
void
reset_all_zones(EventLoop *loop, IoTarget *target, uint64_t zone_align)
{
    if (!target->zoned() || zone_align == 0)
        return;
    uint64_t nzones = target->capacity() / zone_align;
    uint64_t done = 0;
    for (uint64_t z = 0; z < nzones; ++z)
        target->reset_zone_at(z * zone_align,
                              [&done](IoResult) { ++done; });
    loop->run_until_pred([&] { return done == nzones; });
}

/// Snapshots one (volume, phase) point and runs the conservation
/// audit. Returns false (and prints the violations) on audit failure.
bool
snap_phase(const std::string &volume, const std::string &phase,
           const obs::IoLedger &ledger, std::vector<WafPoint> *out)
{
    obs::LedgerAudit audit = ledger.audit();
    if (!audit.ok()) {
        std::fprintf(stderr,
                     "FAIL: %s/%s ledger conservation audit:\n%s",
                     volume.c_str(), phase.c_str(),
                     audit.summary().c_str());
        return false;
    }
    WafPoint p;
    p.volume = volume;
    p.phase = phase;
    p.waf_milli = milli(ledger.waf());
    p.raf_milli = milli(ledger.raf());
    for (size_t i = 0; i < kNumCols; ++i)
        p.comp_milli[i] = milli(ledger.waf_component(kCauseCols[i]));
    p.untagged_ops = ledger.untagged_ops();
    std::printf("  %-8s %-8s waf=%.3f raf=%.3f (pp_log %.3f, parity "
                "%.3f, wal_md %.3f, rebuild %.3f, resync %.3f)\n",
                volume.c_str(), phase.c_str(),
                static_cast<double>(p.waf_milli) / 1000.0,
                static_cast<double>(p.raf_milli) / 1000.0,
                static_cast<double>(p.comp_milli[2]) / 1000.0,
                static_cast<double>(p.comp_milli[1]) / 1000.0,
                static_cast<double>(p.comp_milli[3]) / 1000.0,
                static_cast<double>(p.comp_milli[5]) / 1000.0,
                static_cast<double>(p.comp_milli[6]) / 1000.0);
    out->push_back(std::move(p));
    return true;
}

/// Runs healthy -> degraded -> rebuild for one volume type, appending
/// one point per phase. raid0 has no redundancy: healthy only.
bool
run_volume(const std::string &name, const ObsOptions &oo,
           std::vector<WafPoint> *out)
{
    constexpr uint32_t kBs = 16; // 64 KiB, fig8's default block
    constexpr uint32_t kVictim = 1;
    obs::Session session;
    const obs::IoLedger &ledger = session.ledger();
    VolRun v = make_vol(name, kVictim);
    v.arr->attach(&session);
    if (!oo.obs_dir.empty())
        session.start();
    ZonedArrayTarget target(v.arr);
    // 0 for the conventional md stack.
    const uint64_t zone_align = v.arr->zone_capacity();

    run_seq_write(v.loop, &target, kBs, zone_align);
    run_rand_read_written(v.loop, &target, kBs);
    if (!snap_phase(name, "healthy", ledger, out))
        return false;

    if (v.arr->fault_tolerance() > 0) {
        v.arr->mark_device_failed(kVictim);
        reset_all_zones(v.loop, &target, zone_align);
        run_seq_write(v.loop, &target, kBs, zone_align);
        run_rand_read_written(v.loop, &target, kBs);
        if (!snap_phase(name, "degraded", ledger, out))
            return false;

        v.replace_victim();
        Status st;
        bool done = false;
        v.arr->rebuild_device(kVictim, nullptr, [&](Status s) {
            st = s;
            done = true;
        });
        v.loop->run_until_pred([&] { return done; });
        if (!st.is_ok()) {
            std::fprintf(stderr, "FAIL: %s rebuild: %s\n", name.c_str(),
                         st.to_string().c_str());
            return false;
        }
        if (!snap_phase(name, "rebuild", ledger, out))
            return false;
    }

    write_obs(oo, session, name);
    Status sb = prof::write_file("waf_breakdown_" + name + ".csv",
                                 ledger.breakdown_csv());
    Status sh = prof::write_file("waf_heatmap_" + name + ".csv",
                                 ledger.heatmap_csv());
    if (!sb.is_ok() || !sh.is_ok()) {
        std::fprintf(stderr, "FAIL: csv export: %s / %s\n",
                     sb.to_string().c_str(), sh.to_string().c_str());
        return false;
    }
    return true;
}

const WafPoint *
find_point(const std::vector<WafPoint> &pts, const std::string &vol,
           const std::string &phase)
{
    for (const WafPoint &p : pts) {
        if (p.volume == vol && p.phase == phase)
            return &p;
    }
    return nullptr;
}

/// Paper sanity: RAIZN's breakdown must show the partial-parity-log
/// premium (plus parity) that mdraid does not pay, and mdraid must
/// still show its parity and resync components.
bool
check_story(const std::vector<WafPoint> &pts)
{
    const WafPoint *rz = find_point(pts, "raizn", "healthy");
    const WafPoint *md = find_point(pts, "mdraid", "healthy");
    if (rz == nullptr || md == nullptr) {
        std::fprintf(stderr, "FAIL: missing raizn/mdraid points\n");
        return false;
    }
    // comp_milli columns: 1 = parity, 2 = pp_log.
    if (rz->comp_milli[2] <= 0 || rz->comp_milli[1] <= 0) {
        std::fprintf(stderr, "FAIL: raizn pp_log/parity components "
                             "empty — provenance tags missing\n");
        return false;
    }
    if (md->comp_milli[2] != 0) {
        std::fprintf(stderr, "FAIL: mdraid shows pp_log bytes — "
                             "taxonomy crossed volumes\n");
        return false;
    }
    if (md->comp_milli[1] <= 0) {
        std::fprintf(stderr, "FAIL: mdraid parity component empty\n");
        return false;
    }
    return true;
}

int
write_json(const std::vector<WafPoint> &pts, const HostMeter &meter)
{
    FILE *f = std::fopen("BENCH_waf.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_waf.json\n");
        return 1;
    }
    BenchScale scale;
    std::fprintf(f,
                 "{\n  \"config\": {\"num_devices\": %u, "
                 "\"zones_per_device\": %u, \"zone_cap_sectors\": %llu, "
                 "\"su_sectors\": %u, \"block_sectors\": 16},\n"
                 "  %s,\n"
                 "  \"points\": [\n",
                 scale.num_devices, scale.zones_per_device,
                 (unsigned long long)scale.zone_cap_sectors,
                 scale.su_sectors, meter.json("").c_str());
    for (size_t i = 0; i < pts.size(); ++i) {
        const WafPoint &p = pts[i];
        std::fprintf(f,
                     "    {\"volume\": \"%s\", \"phase\": \"%s\", "
                     "\"waf_milli\": %lld, \"raf_milli\": %lld",
                     p.volume.c_str(), p.phase.c_str(), p.waf_milli,
                     p.raf_milli);
        for (size_t c = 0; c < kNumCols; ++c)
            std::fprintf(f, ", \"%s_milli\": %lld",
                         obs::cause_name(kCauseCols[c]),
                         p.comp_milli[c]);
        std::fprintf(f, ", \"untagged_ops\": %llu}%s\n", p.untagged_ops,
                     i + 1 < pts.size() ? "," : "");
    }
    // The simulation is deterministic, so every amplification figure
    // is exact: abs=0 bands make any drift a hard gate failure that
    // forces a conscious baseline regeneration. Host-clock fields
    // stay warn-only as everywhere else.
    std::fprintf(f, "  ],\n  \"tolerance\": {\n"
                    "    \"waf_milli\": {\"abs\": 0},\n"
                    "    \"raf_milli\": {\"abs\": 0},\n");
    for (size_t c = 0; c < kNumCols; ++c)
        std::fprintf(f, "    \"%s_milli\": {\"abs\": 0},\n",
                     obs::cause_name(kCauseCols[c]));
    std::fprintf(
        f,
        "    \"untagged_ops\": {\"abs\": 0},\n"
        "    \"wall_ms\": {\"rel\": 10.0, \"abs\": 5000, "
        "\"warn\": true},\n"
        "    \"events_per_sec\": {\"rel\": 10.0, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"events\": {\"rel\": 0.25, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"alloc_count\": {\"rel\": 0.25, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"alloc_bytes\": {\"rel\": 0.25, \"abs\": 65536, "
        "\"warn\": true},\n"
        "    \"copy_count\": {\"rel\": 0.25, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"copy_bytes\": {\"rel\": 0.25, \"abs\": 65536, "
        "\"warn\": true}\n"
        "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_waf.json (%zu points)\n", pts.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsOptions oo;
    if (!parse_obs_args(argc, argv, &oo))
        return 2;

    std::vector<WafPoint> pts;
    if (oo.smoke) {
        print_header("WAF smoke: RAIZN + mdraid healthy phase");
        // Smoke keeps the qualitative cross-volume check (RAIZN pays
        // pp_log, mdraid does not) without the full phase matrix.
        for (const char *name : {"raizn", "mdraid"}) {
            obs::Session session;
            VolRun v = make_vol(name, 1);
            v.arr->attach(&session);
            if (!oo.obs_dir.empty())
                session.start();
            ZonedArrayTarget target(v.arr);
            run_seq_write(v.loop, &target, 16, v.arr->zone_capacity());
            run_rand_read_written(v.loop, &target, 16);
            if (!snap_phase(name, "healthy", session.ledger(), &pts))
                return 1;
            write_obs(oo, session, name);
        }
        if (!check_story(pts))
            return 1;
        std::printf("waf smoke: conservation + provenance story ok\n");
        return 0;
    }

    print_header("Where do the bytes go? WAF/RAF per volume and phase");
    HostMeter meter;
    for (const char *name : {"raizn", "mdraid", "raid0", "raid1",
                             "raid5", "raid6", "raid10", "auto"}) {
        if (!run_volume(name, oo, &pts))
            return 1;
    }
    if (!check_story(pts))
        return 1;
    std::printf("\nconservation audit ok for all %zu points; breakdown "
                "+ heatmap CSVs: waf_breakdown_<vol>.csv / "
                "waf_heatmap_<vol>.csv\n",
                pts.size());
    return write_json(pts, meter);
}
