/**
 * @file
 * Timing-only equivalence: a RAIZN array whose members store no bytes
 * (DataMode::kNone) carries lengths instead of zero-filled parity and
 * partial-parity payloads, so it must issue exactly the device traffic
 * of the same array with byte-storing members. One write sequence —
 * full and partial stripes, a FUA write, enough one-sector writes to
 * force a parity-log metadata GC, a zone finish, a degraded write and a
 * rebuild — drives both; every member's write-side counters, the
 * metadata write pointers, the parity counters and the ledger's cause
 * totals must match.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/session.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

constexpr uint32_t kDevs = 5;

/// One 5-member RAIZN array (stripe unit 16, 64-sector physical zones:
/// 256-sector logical zones, 64-sector metadata zones) with an obs
/// session attached for its ledger.
struct Side {
    obs::Session session;
    obs::IoLedger &ledger = session.ledger();
    bool store;
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::unique_ptr<RaiznVolume> vol;

    explicit Side(DataMode mode) : store(mode == DataMode::kStore)
    {
        loop = std::make_unique<EventLoop>();
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < kDevs; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = 8;
            dc.zone_size = 64;
            dc.zone_capacity = 64;
            dc.atomic_write_sectors = 4;
            dc.data_mode = mode;
            dc.name = "zns" + std::to_string(i);
            devs.push_back(std::make_unique<ZnsDevice>(loop.get(), dc));
            ptrs.push_back(devs.back().get());
        }
        RaiznConfig rc;
        rc.num_devices = kDevs;
        rc.su_sectors = 16;
        rc.md_zones_per_device = 4;
        auto res = RaiznVolume::create(loop.get(), ptrs, rc);
        EXPECT_TRUE(res.is_ok()) << res.status().to_string();
        vol = std::move(res).value();
        vol->attach(&session);
    }

    /// Byte-storing arrays get a seeded payload; timing-only arrays get
    /// the length alone.
    void
    write(uint64_t lba, uint32_t nsectors, bool fua = false)
    {
        WriteFlags flags;
        flags.fua = fua;
        Status out;
        bool done = false;
        auto cb = [&](IoResult r) {
            out = r.status;
            done = true;
        };
        if (store)
            vol->write(lba, pattern_data(nsectors, lba), flags, cb);
        else
            vol->write_len(lba, nsectors, flags, cb);
        loop->run_until_pred([&] { return done; });
        ASSERT_TRUE(out.is_ok()) << out.to_string();
    }

    void
    finish_zone(uint32_t zone)
    {
        IoResult out;
        bool done = false;
        vol->finish_zone(zone, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
    }

    void
    flush()
    {
        bool done = false;
        vol->flush([&](IoResult) { done = true; });
        loop->run_until_pred([&] { return done; });
    }

    void
    rebuild(uint32_t dev)
    {
        devs[dev]->replace();
        Status out;
        bool done = false;
        vol->rebuild_device(dev, nullptr, [&](Status s) {
            out = s;
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        ASSERT_TRUE(out.is_ok()) << out.to_string();
    }
};

/// The shared sequence; zone 0 spans LBAs [0, 256), zone 1 [256, 512).
void
drive(Side &s, uint32_t victim)
{
    s.write(0, 64); // full stripe
    // Stripe 1 from one-sector writes: 63 partial-parity entries of two
    // sectors each on one parity member overflow its 64-sector log zone.
    for (uint64_t lba = 64; lba < 128; ++lba)
        s.write(lba, 1);
    s.write(128, 8, /*fua=*/true);
    s.write(136, 40); // leaves stripe 2 incomplete
    s.finish_zone(0); // seals stripe 2's parity
    s.write(256, 100); // zone 1: one full stripe plus a partial one
    s.flush();
    s.vol->mark_device_failed(victim);
    s.write(356, 60); // degraded: partial, then completes a stripe
    s.rebuild(victim);
    s.write(416, 20);
    s.flush();
}

TEST(TimingEquivalence, LengthOnlyArrayIssuesIdenticalTraffic)
{
    Side store(DataMode::kStore);
    Side none(DataMode::kNone);
    uint32_t victim = store.vol->layout().data_dev(1, 1, 0);
    drive(store, victim);
    drive(none, victim);

    EXPECT_GT(store.vol->md_manager().gc_runs(), 0u)
        << "the sequence must force a metadata GC";
    EXPECT_EQ(store.vol->md_manager().gc_runs(),
              none.vol->md_manager().gc_runs());
    EXPECT_GT(store.vol->stats().zones_rebuilt, 0u);

    for (uint32_t d = 0; d < kDevs; ++d) {
        const DeviceStats &a = store.devs[d]->stats();
        const DeviceStats &b = none.devs[d]->stats();
        EXPECT_EQ(a.writes, b.writes) << "dev " << d;
        EXPECT_EQ(a.appends, b.appends) << "dev " << d;
        EXPECT_EQ(a.sectors_written, b.sectors_written) << "dev " << d;
        EXPECT_EQ(a.zone_resets, b.zone_resets) << "dev " << d;
        EXPECT_EQ(a.flushes, b.flushes) << "dev " << d;
        for (MdZoneRole role :
             {MdZoneRole::kGeneral, MdZoneRole::kParityLog}) {
            EXPECT_EQ(store.vol->md_manager().active_zone_wp(d, role),
                      none.vol->md_manager().active_zone_wp(d, role))
                << "dev " << d << " role " << static_cast<int>(role);
        }
        EXPECT_EQ(store.vol->md_manager().md_sectors_written(d),
                  none.vol->md_manager().md_sectors_written(d))
            << "dev " << d;
    }

    const VolumeStats &vs = store.vol->stats();
    const VolumeStats &vn = none.vol->stats();
    EXPECT_GT(vs.partial_parity_sectors, 0u);
    EXPECT_EQ(vs.partial_parity_sectors, vn.partial_parity_sectors);
    EXPECT_EQ(vs.partial_parity_logs, vn.partial_parity_logs);
    EXPECT_EQ(vs.full_parity_writes, vn.full_parity_writes);

    for (uint32_t c = 0; c < obs::kNumCauses; ++c) {
        auto cause = static_cast<obs::Cause>(c);
        EXPECT_EQ(store.ledger.cause_write_bytes(cause),
                  none.ledger.cause_write_bytes(cause))
            << obs::cause_name(cause);
    }
    EXPECT_EQ(store.ledger.device_write_bytes(),
              none.ledger.device_write_bytes());
    EXPECT_EQ(store.ledger.user_write_bytes(),
              none.ledger.user_write_bytes());
}

} // namespace
} // namespace raizn
