/**
 * @file
 * Fig. 12: time-to-repair (TTR) a replaced device vs the amount of
 * valid data on the volume. mdraid resyncs the entire address space
 * (constant TTR); RAIZN rebuilds only written stripes, so TTR scales
 * linearly with valid data. Both are bottlenecked by the replacement
 * device's write throughput.
 *
 * Second section: MTTR vs foreground service under concurrent load at
 * two rebuild throttle settings (unthrottled, fixed-rate token
 * bucket). An online rebuild competes with foreground writes
 * for device bandwidth; the throttle trades longer MTTR for a
 * foreground throughput floor. Emits BENCH_rebuild_mttr.json. The
 * fixed-throttle run is an obs::Session: --obs-dir DIR writes it to
 * DIR/mttr_fixed/, its timeline.csv holding the per-interval rebuild
 * write rate vs foreground rate, throttle stalls and per-device
 * utilization.
 *
 *   bench_fig12_rebuild [--smoke] [--obs-dir DIR]
 */
#include <cstdio>
#include <iterator>

#include "bench_util.h"

using namespace raizn;
using namespace raizn::bench;

namespace {

double
raizn_ttr(double fill_fraction)
{
    BenchScale scale;
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    uint64_t fill = static_cast<uint64_t>(
        static_cast<double>(arr.vol->capacity()) * fill_fraction);
    // Whole zones, as user data would be laid out.
    fill = fill / arr.vol->zone_capacity() * arr.vol->zone_capacity();
    if (fill > 0)
        prime_target(arr.loop.get(), &target, fill);

    arr.vol->mark_device_failed(0);
    arr.devs[0]->replace();
    Tick start = arr.loop->now();
    Status st;
    bool done = false;
    arr.vol->rebuild_device(0, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    arr.loop->run_until_pred([&] { return done; });
    if (!st)
        std::fprintf(stderr, "rebuild failed: %s\n",
                     st.to_string().c_str());
    return static_cast<double>(arr.loop->now() - start) / kNsPerSec;
}

double
mdraid_ttr(double fill_fraction)
{
    BenchScale scale;
    auto arr = make_mdraid_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    uint64_t fill = static_cast<uint64_t>(
        static_cast<double>(arr.vol->capacity()) * fill_fraction);
    if (fill > 0)
        prime_target(arr.loop.get(), &target, fill);

    arr.vol->mark_device_failed(0);
    arr.devs[0]->replace();
    Tick start = arr.loop->now();
    Status st;
    bool done = false;
    arr.vol->rebuild_device(0, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    arr.loop->run_until_pred([&] { return done; });
    if (!st)
        std::fprintf(stderr, "resync failed: %s\n",
                     st.to_string().c_str());
    return static_cast<double>(arr.loop->now() - start) / kNsPerSec;
}

// ---- MTTR vs foreground service under a throttled online rebuild ----

/// Pipelined (QD 4) sequential writer into the unprimed tail of the
/// volume; counts acked sectors so foreground throughput during the
/// rebuild window can be computed.
struct FgLoad {
    RaiznVolume *vol = nullptr;
    uint64_t next_lba = 0;
    uint64_t end_lba = 0;
    uint32_t bs = 64;
    uint64_t acked_sectors = 0;
    bool stop = false;

    void
    issue()
    {
        if (stop || next_lba + bs > end_lba)
            return;
        uint64_t lba = next_lba;
        next_lba += bs;
        vol->write_len(lba, bs, {}, [this](IoResult r) {
            if (r.status.is_ok())
                acked_sectors += bs;
            issue();
        });
    }
};

struct MttrRecord {
    std::string setting;
    uint64_t rate = 0; ///< sectors/s (0 = unthrottled)
    double mttr_s = 0;
    double fg_mibs = 0;
    uint64_t throttle_stalls = 0;
    uint64_t zones_rebuilt = 0;
    uint64_t rebuilt_sectors = 0; ///< written to the replacement
};

MttrRecord
run_mttr(const BenchScale &scale, const char *setting, uint64_t rate,
         const ObsOptions *oo = nullptr)
{
    MttrRecord rec;
    rec.setting = setting;
    rec.rate = rate;

    obs::Session session; // outlives the array it watches
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    uint64_t zc = arr.vol->zone_capacity();
    uint64_t fill = arr.vol->capacity() / 2 / zc * zc;
    prime_target(arr.loop.get(), &target, fill);

    // Telemetry on the throttled online rebuild: the session starts
    // after priming so its window is the rebuild itself.
    if (oo != nullptr) {
        arr.vol->attach(&session);
        session.start();
    }

    arr.vol->mark_device_failed(0);
    arr.devs[0]->replace();
    RaiznVolume::LifecycleConfig lc;
    lc.throttle.rate_sectors_per_sec = rate;
    arr.vol->set_lifecycle(lc);

    FgLoad fg;
    fg.vol = arr.vol.get();
    fg.next_lba = fill;
    fg.end_lba = arr.vol->capacity();

    uint64_t replaced_before = arr.devs[0]->stats().sectors_written;
    Tick start = arr.loop->now();
    Status st;
    bool done = false;
    arr.vol->rebuild_device(0, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    for (int q = 0; q < 4; ++q)
        fg.issue();
    arr.loop->run_until_pred([&] { return done; });
    fg.stop = true;
    if (!st)
        std::fprintf(stderr, "rebuild (%s) failed: %s\n", setting,
                     st.to_string().c_str());

    rec.mttr_s =
        static_cast<double>(arr.loop->now() - start) / kNsPerSec;
    rec.fg_mibs = rec.mttr_s > 0
        ? static_cast<double>(fg.acked_sectors) * kSectorSize /
            static_cast<double>(kMiB) / rec.mttr_s
        : 0;
    rec.throttle_stalls = arr.vol->stats().rebuild_throttle_stalls;
    rec.zones_rebuilt = arr.vol->stats().zones_rebuilt;
    rec.rebuilt_sectors =
        arr.devs[0]->stats().sectors_written - replaced_before;
    if (oo != nullptr)
        write_obs(*oo, session, std::string("mttr_") + setting);
    return rec;
}

/// Same foreground load on a healthy array for `duration_ns`: the
/// throughput floor the throttled rebuild is supposed to preserve.
double
fg_baseline_mibs(const BenchScale &scale, uint64_t duration_ns)
{
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    uint64_t zc = arr.vol->zone_capacity();
    uint64_t fill = arr.vol->capacity() / 2 / zc * zc;
    prime_target(arr.loop.get(), &target, fill);

    FgLoad fg;
    fg.vol = arr.vol.get();
    fg.next_lba = fill;
    fg.end_lba = arr.vol->capacity();
    Tick start = arr.loop->now();
    for (int q = 0; q < 4; ++q)
        fg.issue();
    arr.loop->run_until_pred(
        [&] { return arr.loop->now() - start >= duration_ns; });
    fg.stop = true;
    double secs = static_cast<double>(arr.loop->now() - start) / kNsPerSec;
    return secs > 0 ? static_cast<double>(fg.acked_sectors) *
            kSectorSize / static_cast<double>(kMiB) / secs
                    : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsOptions oo;
    if (!parse_obs_args(argc, argv, &oo))
        return 2;
    bool smoke = oo.smoke;
    HostMeter meter;

    print_header("Fig 12: time-to-repair vs valid data");
    std::printf("%-10s %14s %14s\n", "fill", "mdraid_TTR_s",
                "raizn_TTR_s");
    const std::vector<double> fills = smoke
        ? std::vector<double>{0.125, 0.5}
        : std::vector<double>{0.066, 0.125, 0.25, 0.5, 0.75, 1.0};
    double md_full = 0, rz_min = 1e18, rz_max = 0;
    for (double f : fills) {
        double md = mdraid_ttr(f);
        double rz = raizn_ttr(f);
        std::printf("%8.0f%% %14.2f %14.2f\n", f * 100, md, rz);
        md_full = md;
        rz_min = std::min(rz_min, rz);
        rz_max = std::max(rz_max, rz);
    }
    std::printf("\nmdraid TTR is flat (full address-space resync); "
                "RAIZN scales %.1fx from emptiest to full, converging "
                "to mdraid's TTR (%.2fs) at 100%% fill.\n",
                rz_max / rz_min, md_full);
    std::printf("Paper shape: identical — linear RAIZN TTR, constant "
                "mdraid TTR, equal when the volume is full.\n");

    print_header("MTTR vs foreground service (online rebuild, 50% fill)");
    BenchScale scale;
    if (smoke)
        scale.zones_per_device = 12;

    // Calibrate the throttle from the unthrottled run: the fixed
    // setting caps rebuild traffic at a quarter of the bandwidth an
    // unconstrained rebuild achieved under this load.
    MttrRecord unthrottled = run_mttr(scale, "unthrottled", 0);
    uint64_t rebuild_bw = unthrottled.mttr_s > 0
        ? static_cast<uint64_t>(
              static_cast<double>(unthrottled.rebuilt_sectors) /
              unthrottled.mttr_s)
        : 0;
    uint64_t capped = rebuild_bw > 4 ? rebuild_bw / 4 : 1;
    MttrRecord fixed = run_mttr(scale, "fixed", capped, &oo);
    double baseline = fg_baseline_mibs(
        scale,
        static_cast<uint64_t>(unthrottled.mttr_s * kNsPerSec) + 1);

    std::printf("%-12s %10s %10s %10s %10s\n", "setting", "MTTR_s",
                "fg_MiBs", "stalls", "zones");
    const MttrRecord *recs[] = {&unthrottled, &fixed};
    for (const MttrRecord *r : recs) {
        std::printf("%-12s %10.3f %10.1f %10llu %10llu\n",
                    r->setting.c_str(), r->mttr_s, r->fg_mibs,
                    (unsigned long long)r->throttle_stalls,
                    (unsigned long long)r->zones_rebuilt);
    }
    std::printf("fg baseline (no rebuild): %.1f MiB/s\n", baseline);
    std::printf("Throttling trades MTTR (%.3fs -> %.3fs) for foreground "
                "throughput (%.1f -> %.1f MiB/s of %.1f healthy).\n",
                unthrottled.mttr_s, fixed.mttr_s, unthrottled.fg_mibs,
                fixed.fg_mibs, baseline);

    FILE *f = std::fopen("BENCH_rebuild_mttr.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_rebuild_mttr.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"config\": {\"num_devices\": %u, "
                 "\"zones_per_device\": %u, \"zone_cap_sectors\": %llu, "
                 "\"su_sectors\": %u, \"fill\": 0.5, "
                 "\"fg_qd\": 4, \"fg_block_sectors\": 64},\n"
                 "  \"fg_baseline_mibs\": %.2f,\n"
                 "  %s,\n"
                 "  \"points\": [\n",
                 scale.num_devices, scale.zones_per_device,
                 (unsigned long long)scale.zone_cap_sectors,
                 scale.su_sectors, baseline, meter.json("").c_str());
    for (size_t i = 0; i < std::size(recs); ++i) {
        const MttrRecord *r = recs[i];
        std::fprintf(
            f,
            "    {\"setting\": \"%s\", \"rate_sectors_per_sec\": %llu, "
            "\"mttr_s\": %.4f, \"fg_mibs\": %.2f, "
            "\"throttle_stalls\": %llu, \"zones_rebuilt\": %llu, "
            "\"rebuilt_sectors\": %llu}%s\n",
            r->setting.c_str(), (unsigned long long)r->rate, r->mttr_s,
            r->fg_mibs, (unsigned long long)r->throttle_stalls,
            (unsigned long long)r->zones_rebuilt,
            (unsigned long long)r->rebuilt_sectors,
            i + 1 < std::size(recs) ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n"
        "  \"tolerance\": {\n"
        "    \"mttr_s\": {\"rel\": 0.15},\n"
        "    \"fg_mibs\": {\"rel\": 0.15, \"abs\": 2},\n"
        "    \"throttle_stalls\": {\"rel\": 0.5, \"abs\": 20},\n"
        "    \"zones_rebuilt\": {\"abs\": 0},\n"
        "    \"rebuilt_sectors\": {\"rel\": 0.05},\n"
        "    \"fg_baseline_mibs\": {\"rel\": 0.10},\n"
        "    \"rate_sectors_per_sec\": {\"rel\": 0.25},\n"
        "    \"wall_ms\": {\"rel\": 10.0, \"abs\": 5000, \"warn\": true},\n"
        "    \"events_per_sec\": {\"rel\": 10.0, \"abs\": 1000, "
        "\"warn\": true},\n"
        "    \"events\": {\"rel\": 0.25, \"abs\": 1000, \"warn\": true},\n"
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
    std::printf("\nwrote BENCH_rebuild_mttr.json (2 points)\n");
    return 0;
}
