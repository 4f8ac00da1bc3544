/**
 * @file
 * Transient-fault injection and resilience tests: the fault-injecting
 * device decorator (determinism, one-shot injections), the volume's
 * retry/backoff and watchdog behavior, health-based failure
 * escalation, fail-slow detection, CRC-based corruption detection
 * with degraded-read fallback, the scrubber's read-repair, and the
 * retrier's and health monitor's contracts in isolation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "fault/fault_device.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

/// TestArray variant with a FaultInjectingDevice in front of every
/// ZnsDevice. `cfgs` has one FaultConfig per device.
struct FaultArray {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
    std::unique_ptr<RaiznVolume> vol;

    void
    make(const std::vector<FaultConfig> &cfgs, uint32_t su = 16,
         uint32_t nzones = 8, uint64_t zone_cap = 128)
    {
        uint32_t ndev = static_cast<uint32_t>(cfgs.size());
        loop = std::make_unique<EventLoop>();
        devs.clear();
        fdevs.clear();
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < ndev; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = nzones;
            dc.zone_size = zone_cap;
            dc.zone_capacity = zone_cap;
            dc.max_open_zones = 14;
            dc.max_active_zones = 14;
            dc.atomic_write_sectors = 4;
            dc.data_mode = DataMode::kStore;
            dc.name = "zns" + std::to_string(i);
            devs.push_back(std::make_unique<ZnsDevice>(loop.get(), dc));
            fdevs.push_back(std::make_unique<FaultInjectingDevice>(
                loop.get(), devs.back().get(), cfgs[i]));
            ptrs.push_back(fdevs.back().get());
        }
        RaiznConfig rc;
        rc.num_devices = ndev;
        rc.su_sectors = su;
        auto res = RaiznVolume::create(loop.get(), ptrs, rc);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        vol = std::move(res).value();
    }

    IoResult
    write(uint64_t lba, std::vector<uint8_t> data, WriteFlags flags = {})
    {
        IoResult out;
        bool done = false;
        vol->write(lba, std::move(data), flags, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        return out;
    }

    IoResult
    read(uint64_t lba, uint32_t nsectors)
    {
        IoResult out;
        bool done = false;
        vol->read(lba, nsectors, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        EXPECT_TRUE(done);
        return out;
    }

    IoResult
    flush()
    {
        IoResult out;
        bool done = false;
        vol->flush([&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    IoResult
    reset_zone(uint32_t zone)
    {
        IoResult out;
        bool done = false;
        vol->reset_zone(zone, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    IoResult
    finish_zone(uint32_t zone)
    {
        IoResult out;
        bool done = false;
        vol->finish_zone(zone, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    void
    write_pattern(uint64_t lba, uint32_t nsectors, uint64_t seed,
                  WriteFlags flags = {})
    {
        auto r = write(lba, pattern_data(nsectors, seed), flags);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    }

    void
    expect_pattern(uint64_t lba, uint32_t nsectors, uint64_t seed)
    {
        auto r = read(lba, nsectors);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        EXPECT_EQ(r.data, pattern_data(nsectors, seed))
            << "data mismatch at lba " << lba;
    }
};

std::vector<FaultConfig>
no_faults(uint32_t ndev = 5)
{
    return std::vector<FaultConfig>(ndev);
}

// ---- Decorator behavior ------------------------------------------------

TEST(FaultDeviceTest, SameSeedSameFaultSchedule)
{
    EventLoop loop;
    ZnsDeviceConfig dc;
    dc.nzones = 4;
    dc.zone_size = 64;
    dc.zone_capacity = 64;
    dc.data_mode = DataMode::kStore;

    FaultConfig fc;
    fc.seed = 42;
    fc.read_error_rate = 0.3;
    fc.bitflip_rate = 0.2;

    std::vector<std::vector<StatusCode>> outcomes;
    std::vector<FaultStats> fstats;
    for (int run = 0; run < 2; ++run) {
        ZnsDevice dev(&loop, dc);
        FaultInjectingDevice fdev(&loop, &dev, fc);
        auto w = submit_sync(loop, dev,
                             IoRequest::write(0, pattern_data(32, 7)));
        ASSERT_TRUE(w.status.is_ok());
        std::vector<StatusCode> codes;
        for (int i = 0; i < 64; ++i) {
            auto r = submit_sync(loop, fdev, IoRequest::read(0, 8));
            codes.push_back(r.status.code());
        }
        outcomes.push_back(std::move(codes));
        fstats.push_back(fdev.fault_stats());
    }
    EXPECT_EQ(outcomes[0], outcomes[1]);
    EXPECT_EQ(fstats[0].read_errors, fstats[1].read_errors);
    EXPECT_EQ(fstats[0].bitflips, fstats[1].bitflips);
    EXPECT_GT(fstats[0].read_errors, 0u);
    EXPECT_GT(fstats[0].bitflips, 0u);
}

TEST(FaultDeviceTest, InjectedErrorNeverReachesDevice)
{
    EventLoop loop;
    ZnsDeviceConfig dc;
    dc.nzones = 4;
    dc.zone_size = 64;
    dc.zone_capacity = 64;
    dc.data_mode = DataMode::kStore;
    ZnsDevice dev(&loop, dc);
    FaultInjectingDevice fdev(&loop, &dev, FaultConfig{});

    fdev.inject_once(IoOp::kWrite, FaultKind::kIoError);
    auto w = submit_sync(loop, fdev,
                         IoRequest::write(0, pattern_data(8, 1)));
    EXPECT_EQ(w.status.code(), StatusCode::kIoError);
    // The device never saw the command: wp is untouched, a resubmit
    // lands exactly where the failed attempt would have.
    auto zi = dev.zone_info(0);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_EQ(zi.value().wp, 0u);
    auto w2 = submit_sync(loop, fdev,
                          IoRequest::write(0, pattern_data(8, 1)));
    EXPECT_TRUE(w2.status.is_ok());
}

TEST(FaultDeviceTest, TornWriteLeavesPrefixAndAdvancesWp)
{
    EventLoop loop;
    ZnsDeviceConfig dc;
    dc.nzones = 4;
    dc.zone_size = 64;
    dc.zone_capacity = 64;
    dc.data_mode = DataMode::kStore;
    ZnsDevice dev(&loop, dc);
    FaultInjectingDevice fdev(&loop, &dev, FaultConfig{});

    fdev.inject_once(IoOp::kWrite, FaultKind::kTornWrite);
    auto w = submit_sync(loop, fdev,
                         IoRequest::write(0, pattern_data(16, 3)));
    EXPECT_EQ(w.status.code(), StatusCode::kIoError);
    auto zi = dev.zone_info(0);
    ASSERT_TRUE(zi.is_ok());
    EXPECT_GT(zi.value().wp, 0u); // a prefix reached the media
    EXPECT_LT(zi.value().wp, 16u); // but not the whole payload
    EXPECT_EQ(fdev.fault_stats().torn_writes, 1u);
}

// ---- Volume resilience -------------------------------------------------

TEST(FaultVolumeTest, TransientErrorsAreRetriedTransparently)
{
    std::vector<FaultConfig> cfgs(5);
    for (uint32_t i = 0; i < 5; ++i) {
        cfgs[i].seed = 100 + i;
        cfgs[i].read_error_rate = 0.05;
        cfgs[i].write_error_rate = 0.05;
        cfgs[i].zone_error_rate = 0.02;
    }
    FaultArray a;
    a.make(cfgs);
    for (uint32_t i = 0; i < 16; ++i)
        a.write_pattern(i * 64, 64, 1000 + i);
    ASSERT_TRUE(a.flush().status.is_ok());
    for (uint32_t i = 0; i < 16; ++i)
        a.expect_pattern(i * 64, 64, 1000 + i);
    EXPECT_GT(a.vol->stats().io_retries, 0u);
    EXPECT_EQ(a.vol->failed_device(), -1);
}

TEST(FaultVolumeTest, TornWriteRecoveredViaWritePointerProbe)
{
    FaultArray a;
    a.make(no_faults());
    // Tear the first multi-sector data sub-IO of the next write.
    a.fdevs[1]->inject_once(IoOp::kWrite, FaultKind::kTornWrite);
    a.write_pattern(0, 64, 77);
    ASSERT_TRUE(a.flush().status.is_ok());
    a.expect_pattern(0, 64, 77);
    EXPECT_GT(a.vol->stats().io_retries, 0u);
    EXPECT_EQ(a.vol->failed_device(), -1);
}

TEST(FaultVolumeTest, StuckIoTripsWatchdogAndRetries)
{
    FaultArray a;
    a.make(no_faults());
    RaiznVolume::ResilienceConfig rc;
    rc.retry.io_deadline = 10 * kNsPerMs; // stuck delay is 50ms
    a.vol->set_resilience(rc);

    a.write_pattern(0, 64, 5);
    a.fdevs[2]->inject_once(IoOp::kRead, FaultKind::kStuck);
    a.expect_pattern(0, 64, 5);
    EXPECT_GT(a.vol->stats().io_timeouts, 0u);
    EXPECT_EQ(a.vol->failed_device(), -1);
}

TEST(FaultVolumeTest, PersistentReadErrorEscalatesAndReadsDegraded)
{
    FaultArray a;
    a.make(no_faults());
    a.write_pattern(0, 64, 9);
    ASSERT_TRUE(a.flush().status.is_ok());

    // Exhaust the whole retry budget (1 attempt + 3 retries) of one
    // read on device 2: health escalation must kick the member and
    // the read must complete from parity.
    for (int i = 0; i < 4; ++i)
        a.fdevs[2]->inject_once(IoOp::kRead, FaultKind::kIoError);
    a.expect_pattern(0, 64, 9);
    EXPECT_EQ(a.vol->failed_device(), 2);
    EXPECT_GT(a.vol->stats().degraded_reads, 0u);
    EXPECT_GT(a.vol->health().device(2).op_failures, 0u);
}

TEST(FaultVolumeTest, FailSlowDeviceIsDetected)
{
    std::vector<FaultConfig> cfgs(5);
    cfgs[3].latency_multiplier = 16.0; // one clearly slow member
    FaultArray a;
    a.make(cfgs);
    for (uint32_t i = 0; i < 12; ++i)
        a.write_pattern(i * 64, 64, 400 + i);
    ASSERT_TRUE(a.flush().status.is_ok());
    for (uint32_t i = 0; i < 12; ++i)
        a.expect_pattern(i * 64, 64, 400 + i);

    EXPECT_TRUE(a.vol->health().fail_slow(3));
    for (uint32_t d = 0; d < 5; ++d) {
        if (d != 3) {
            EXPECT_FALSE(a.vol->health().fail_slow(d)) << "dev " << d;
        }
    }
    // Advisory only: the slow device is not failed.
    EXPECT_EQ(a.vol->failed_device(), -1);
}

/// Non-zoned device that holds every command until the test completes
/// it, so a test can order completions against watchdogs and reuse.
class HeldDevice : public BlockDevice
{
  public:
    explicit HeldDevice(EventLoop *loop) : loop_(loop)
    {
        geom_.nsectors = 1024;
    }
    const DeviceGeometry &geometry() const override { return geom_; }
    const DeviceStats &stats() const override { return stats_; }
    DataMode data_mode() const override { return DataMode::kNone; }
    void
    submit(IoRequest req, IoCallback cb) override
    {
        held.push_back({std::move(req), std::move(cb)});
    }
    Result<ZoneInfo> zone_info(uint32_t) const override
    {
        return Status(StatusCode::kNotSupported, "not zoned");
    }
    bool failed() const override { return false; }
    void fail() override {}

    /// Completes held command `i` successfully at the current tick.
    void
    complete(size_t i)
    {
        IoResult r;
        r.lba = held[i].req.slba;
        r.submit_tick = r.complete_tick = loop_->now();
        IoCallback cb = std::move(held[i].cb);
        cb(std::move(r));
    }

    struct Held {
        IoRequest req;
        IoCallback cb;
    };
    std::vector<Held> held;

  private:
    EventLoop *loop_;
    DeviceGeometry geom_;
    DeviceStats stats_;
};

TEST(IoRetrierTest, SupersededAttemptIsDroppedAfterItsSlotIsReused)
{
    EventLoop loop;
    HeldDevice dev(&loop);
    std::vector<BlockDevice *> slots{&dev};
    RetryPolicy policy;
    policy.io_deadline = 100 * kNsPerUs;
    uint64_t retries = 0, timeouts = 0;
    IoRetrier retrier(&loop, policy, nullptr, &retries, &timeouts, &slots);

    std::vector<uint64_t> a_done, b_done;
    retrier.submit(&dev, 0, IoRequest::read(10, 1),
                   [&](IoResult r) { a_done.push_back(r.lba); });
    // Op A's first attempt outlives the watchdog; the retry is issued.
    loop.run_until_pred([&] { return dev.held.size() == 2; });
    ASSERT_EQ(timeouts, 1u);
    dev.complete(1); // the retry lands: op A finishes, its slot frees
    ASSERT_EQ(a_done, std::vector<uint64_t>{10});

    retrier.submit(&dev, 0, IoRequest::read(20, 1),
                   [&](IoResult r) { b_done.push_back(r.lba); });
    ASSERT_EQ(dev.held.size(), 3u);
    dev.complete(0); // A's superseded first attempt, into B's slot
    EXPECT_TRUE(b_done.empty()) << "stale completion reached op B";
    EXPECT_EQ(a_done.size(), 1u);
    dev.complete(2);
    EXPECT_EQ(b_done, std::vector<uint64_t>{20});
    // Op B's watchdog was disarmed by its completion; A's were too.
    loop.run();
    EXPECT_EQ(timeouts, 1u);
    EXPECT_EQ(dev.held.size(), 3u);
}

TEST(IoRetrierTest, SupersededAttemptOutlivesTheCallersPayload)
{
    // A fail-slow member delays every completion past the watchdog. The
    // first attempt's bytes land, the deadline fires, the retry's probe
    // finds them on media and completes the write, and the caller drops
    // its payload at once. The superseded attempt's completion arrives
    // later still; nothing it touches may be gone (asan checks this),
    // and the media holds exactly the bytes written.
    EventLoop loop;
    ZnsDeviceConfig dc;
    dc.nzones = 2;
    dc.zone_size = 128;
    ZnsDevice inner(&loop, dc);
    FaultConfig fc;
    fc.latency_multiplier = 200.0; // tens of microseconds become ms
    FaultInjectingDevice dev(&loop, &inner, fc);
    std::vector<BlockDevice *> slots{&dev};
    RetryPolicy policy;
    policy.io_deadline = kNsPerMs;
    uint64_t retries = 0, timeouts = 0;
    IoRetrier retrier(&loop, policy, nullptr, &retries, &timeouts, &slots);

    constexpr uint32_t kSectors = 8;
    const std::vector<uint8_t> want = pattern_data(kSectors, 77);
    auto payload = std::make_unique<IoBuf>(IoBuf::copy_of(want));
    bool done = false;
    Status st;
    retrier.submit(&dev, 0, IoRequest::write(0, *payload),
                   [&](IoResult r) {
                       done = true;
                       st = r.status;
                       payload.reset(); // the caller lets go at once
                   });
    loop.run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(payload, nullptr);
    EXPECT_GE(timeouts, 1u);
    const Tick acked = loop.now();
    loop.run(); // the superseded attempt's completion lands
    EXPECT_GT(loop.now(), acked);

    IoResult r = submit_sync(loop, inner, IoRequest::read(0, kSectors));
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.data, want);
}

TEST(HealthMonitorTest, FailSlowMatchesSortedPeerMedian)
{
    // Device counts on both sides of the monitor's stack buffer.
    Rng rng(17);
    for (uint32_t n : {2u, 3u, 5u, 8u, 31u, 32u, 33u, 64u, 100u}) {
        for (int round = 0; round < 20; ++round) {
            HealthConfig cfg;
            cfg.min_samples = 4;
            cfg.slow_factor = 1.0 + rng.next_double() * 4.0;
            HealthMonitor h(n, cfg);
            for (uint32_t d = 0; d < n; ++d) {
                // Some devices stay under min_samples; latencies repeat
                // so the median has ties.
                uint64_t samples = rng.next_below(8);
                for (uint64_t i = 0; i < samples; ++i)
                    h.record_success(d, 1000 * (1 + rng.next_below(6)));
            }
            for (uint32_t d = 0; d < n; ++d) {
                std::vector<double> peers;
                for (uint32_t p = 0; p < n; ++p) {
                    if (p != d && h.device(p).successes >= cfg.min_samples &&
                        h.device(p).ewma_latency_ns > 0.0)
                        peers.push_back(h.device(p).ewma_latency_ns);
                }
                bool want = false;
                const DeviceHealth &me = h.device(d);
                if (me.successes >= cfg.min_samples &&
                    me.ewma_latency_ns > 0.0 && !peers.empty()) {
                    std::sort(peers.begin(), peers.end());
                    want = me.ewma_latency_ns >
                        cfg.slow_factor * peers[peers.size() / 2];
                }
                EXPECT_EQ(h.fail_slow(d), want)
                    << "n " << n << " round " << round << " dev " << d;
            }
        }
    }
}

TEST(FaultVolumeTest, BitflipCaughtByChecksumAndServedFromParity)
{
    FaultArray a;
    a.make(no_faults());
    a.write_pattern(0, 256, 31);
    ASSERT_TRUE(a.flush().status.is_ok());

    // Flip one bit in the payload of the next read on every device:
    // whichever device serves the extent, the checksum catalog must
    // catch it and reconstruction must return the true data.
    for (auto &fd : a.fdevs)
        fd->inject_once(IoOp::kRead, FaultKind::kBitflip);
    a.expect_pattern(0, 256, 31);
    EXPECT_GT(a.vol->stats().crc_mismatches, 0u);
    EXPECT_GT(a.vol->stats().degraded_reads, 0u);
    EXPECT_EQ(a.vol->failed_device(), -1);
}

// ---- Scrub -------------------------------------------------------------

TEST(ScrubTest, RepairsAllInjectedSilentCorruptions)
{
    FaultArray a;
    a.make(no_faults());
    // Fill logical zone 0 (8 stripes of 64 sectors).
    for (uint32_t i = 0; i < 8; ++i)
        a.write_pattern(i * 64, 64, 2000 + i);
    ASSERT_TRUE(a.flush().status.is_ok());

    // Silently corrupt N distinct stripe units on the media, bypassing
    // the host entirely.
    const Layout &lay = a.vol->layout();
    struct Hit {
        uint64_t stripe;
        uint32_t unit;
    };
    std::vector<Hit> hits = {{0, 0}, {2, 1}, {4, 3}, {7, 2}};
    for (size_t i = 0; i < hits.size(); ++i) {
        uint32_t dev = lay.data_dev(0, hits[i].stripe, hits[i].unit);
        uint64_t pba = lay.slot_pba(0, hits[i].stripe);
        a.devs[dev]->corrupt(pba, 16, 0xbad0 + i);
    }

    RaiznVolume::ScrubReport rep;
    ASSERT_TRUE(a.vol->scrub_all(&rep).is_ok());
    EXPECT_EQ(rep.parity_mismatches, hits.size());
    EXPECT_EQ(rep.repaired_units, hits.size()); // 100% repaired
    EXPECT_EQ(rep.unrecoverable, 0u);
    EXPECT_EQ(a.vol->stats().read_repairs, hits.size());

    // A second pass finds nothing left to repair.
    RaiznVolume::ScrubReport rep2;
    ASSERT_TRUE(a.vol->scrub_all(&rep2).is_ok());
    EXPECT_EQ(rep2.parity_mismatches, 0u);
    EXPECT_EQ(rep2.repaired_units, 0u);

    // And every pattern reads back clean.
    for (uint32_t i = 0; i < 8; ++i)
        a.expect_pattern(i * 64, 64, 2000 + i);
}

TEST(ScrubTest, RepairsCorruptParity)
{
    FaultArray a;
    a.make(no_faults());
    for (uint32_t i = 0; i < 4; ++i)
        a.write_pattern(i * 64, 64, 3000 + i);
    ASSERT_TRUE(a.flush().status.is_ok());

    const Layout &lay = a.vol->layout();
    uint32_t pdev = lay.parity_dev(0, 1);
    a.devs[pdev]->corrupt(lay.slot_pba(0, 1), 16, 0xfeed);

    RaiznVolume::ScrubReport rep;
    ASSERT_TRUE(a.vol->scrub_all(&rep).is_ok());
    EXPECT_EQ(rep.parity_mismatches, 1u);
    EXPECT_EQ(rep.repaired_parity, 1u);
    EXPECT_EQ(rep.repaired_units, 0u);
    EXPECT_EQ(rep.unrecoverable, 0u);

    RaiznVolume::ScrubReport rep2;
    ASSERT_TRUE(a.vol->scrub_all(&rep2).is_ok());
    EXPECT_EQ(rep2.parity_mismatches, 0u);
    for (uint32_t i = 0; i < 4; ++i)
        a.expect_pattern(i * 64, 64, 3000 + i);
}

TEST(ScrubTest, BackgroundScrubberRepairsAndReports)
{
    FaultArray a;
    a.make(no_faults());
    for (uint32_t i = 0; i < 8; ++i)
        a.write_pattern(i * 64, 64, 5000 + i);
    ASSERT_TRUE(a.flush().status.is_ok());

    const Layout &lay = a.vol->layout();
    uint32_t dev = lay.data_dev(0, 3, 1);
    a.devs[dev]->corrupt(lay.slot_pba(0, 3), 16, 0xdead);

    uint64_t passes = 0;
    RaiznVolume::ScrubReport last;
    a.vol->start_scrubber(100 * kNsPerUs,
                          [&](const RaiznVolume::ScrubReport &r) {
                              passes++;
                              last = r;
                          });
    EXPECT_TRUE(a.vol->scrubber_running());
    a.loop->run_until_pred([&] { return passes >= 1; });
    a.vol->stop_scrubber();
    EXPECT_FALSE(a.vol->scrubber_running());

    EXPECT_GE(last.stripes_scanned, 8u);
    EXPECT_EQ(last.repaired_units, 1u);
    EXPECT_EQ(last.unrecoverable, 0u);
    for (uint32_t i = 0; i < 8; ++i)
        a.expect_pattern(i * 64, 64, 5000 + i);
}

TEST(ScrubTest, RestartWithinIntervalDoesNotDoubleRate)
{
    // A stop and restart half an interval after the start must leave one
    // wake-up chain: the first pass's armed wake-up ends without scrubbing.
    auto stripes_in_40_intervals = [](bool restart) {
        FaultArray a;
        a.make(no_faults());
        for (uint32_t i = 0; i < 8; ++i)
            a.write_pattern(i * 64, 64, 6000 + i);
        EXPECT_TRUE(a.flush().status.is_ok());
        const Tick interval = 100 * kNsPerUs;
        const Tick t0 = a.loop->now();
        a.vol->start_scrubber(interval);
        if (restart) {
            a.loop->run_until(t0 + interval / 2);
            a.vol->stop_scrubber();
            a.vol->start_scrubber(interval);
        }
        a.loop->run_until(t0 + 40 * interval);
        a.vol->stop_scrubber();
        return a.vol->stats().scrubbed_stripes;
    };
    const uint64_t single = stripes_in_40_intervals(false);
    EXPECT_GE(single, 8u);
    EXPECT_LE(stripes_in_40_intervals(true), single + 1);
}

// ---- Acceptance: mixed workload under a full fault schedule ------------

TEST(FaultVolumeTest, MixedWorkloadUnderSeededFaultsKeepsIntegrity)
{
    std::vector<FaultConfig> cfgs(5);
    for (uint32_t i = 0; i < 5; ++i) {
        cfgs[i].seed = 0xace0 + i;
        cfgs[i].read_error_rate = 0.005;
        cfgs[i].write_error_rate = 0.005;
        cfgs[i].zone_error_rate = 0.002;
        cfgs[i].torn_write_rate = 0.002;
        cfgs[i].bitflip_rate = 0.002;
    }
    // One fail-slow member with occasionally stuck commands.
    cfgs[4].latency_multiplier = 4.0;
    cfgs[4].stuck_rate = 0.02;

    FaultArray a;
    a.make(cfgs);
    RaiznVolume::ResilienceConfig rc;
    rc.retry.io_deadline = 10 * kNsPerMs;
    a.vol->set_resilience(rc);

    // Mixed workload: stripe-aligned and unaligned writes, FUA,
    // flushes, zone resets and finishes, interleaved reads.
    a.write_pattern(0, 64, 1);
    a.write_pattern(64, 24, 2);
    a.write_pattern(88, 40, 3);
    ASSERT_TRUE(a.flush().status.is_ok());
    a.expect_pattern(0, 64, 1);

    WriteFlags fua;
    fua.fua = true;
    uint64_t z1 = a.vol->layout().zone_start_lba(1);
    a.write_pattern(z1, 48, 4, fua);
    a.write_pattern(z1 + 48, 16, 5);
    a.expect_pattern(z1, 48, 4);

    uint64_t z2 = a.vol->layout().zone_start_lba(2);
    a.write_pattern(z2, 128, 6);
    ASSERT_TRUE(a.finish_zone(2).status.is_ok());

    // Zone 0's data is verified before its reset discards it.
    a.expect_pattern(64, 24, 2);
    a.expect_pattern(88, 40, 3);
    ASSERT_TRUE(a.reset_zone(0).status.is_ok());
    a.write_pattern(0, 32, 7);
    ASSERT_TRUE(a.flush().status.is_ok());

    // Zero integrity violations: every surviving range reads back
    // exactly as written.
    a.expect_pattern(0, 32, 7);
    a.expect_pattern(z1, 48, 4);
    a.expect_pattern(z1 + 48, 16, 5);
    a.expect_pattern(z2, 128, 6);

    // And a scrub pass confirms parity consistency end to end.
    RaiznVolume::ScrubReport rep;
    ASSERT_TRUE(a.vol->scrub_all(&rep).is_ok());
    EXPECT_EQ(rep.unrecoverable, 0u);
    EXPECT_EQ(rep.repaired_units, 0u);
}

} // namespace
} // namespace raizn
