/**
 * @file
 * Cross-engine conservation property for the byte-provenance ledger:
 * every volume kind (the paper's RaiznVolume, all six ZonedEngine
 * modes, and the mdraid baseline) is driven through healthy, degraded,
 * and rebuild phases with a ledger attached, and after each phase the
 * conservation audit must hold — every byte each member device counted
 * is attributed to exactly one cause, and no sub-I/O reached a device
 * untagged. This is the regression net for new issuing sites: adding a
 * device-level I/O without a Cause tag fails here for the mode that
 * issues it.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "array/engine.h"
#include "mdraid/md_volume.h"
#include "obs/session.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/conv_device.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

using obs::IoLedger;
using obs::LedgerAudit;

/// Any ZonedArray over member devices with an obs session attached.
/// The session is declared first so its ledger outlives the devices
/// that record into it during teardown-free operation.
struct Sut {
    std::string name;
    obs::Session session;
    IoLedger &ledger = session.ledger();
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> zdevs;
    std::vector<std::unique_ptr<ConvDevice>> cdevs;
    std::unique_ptr<ZonedArray> arr;

    std::vector<BlockDevice *>
    dev_ptrs() const
    {
        std::vector<BlockDevice *> ptrs;
        for (const auto &d : zdevs)
            ptrs.push_back(d.get());
        for (const auto &d : cdevs)
            ptrs.push_back(d.get());
        return ptrs;
    }

    void
    make_engine(RaidMode mode)
    {
        name = std::string(to_string(mode));
        loop = std::make_unique<EventLoop>();
        for (uint32_t i = 0; i < 4; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = 7;
            dc.zone_size = 64;
            dc.zone_capacity = 64;
            dc.atomic_write_sectors = 4;
            dc.data_mode = DataMode::kStore;
            dc.name = "zns" + std::to_string(i);
            zdevs.push_back(
                std::make_unique<ZnsDevice>(loop.get(), dc));
        }
        EngineConfig ec;
        ec.mode = mode;
        ec.su_sectors = 4;
        auto res = ZonedEngine::create(loop.get(), dev_ptrs(), ec);
        ASSERT_TRUE(res.is_ok())
            << name << ": " << res.status().to_string();
        arr = std::move(res).value();
        arr->attach(&session);
    }

    void
    make_raizn()
    {
        name = "raizn";
        loop = std::make_unique<EventLoop>();
        for (uint32_t i = 0; i < 4; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = 8;
            dc.zone_size = 128;
            dc.zone_capacity = 128;
            dc.atomic_write_sectors = 4;
            dc.data_mode = DataMode::kStore;
            dc.name = "zns" + std::to_string(i);
            zdevs.push_back(
                std::make_unique<ZnsDevice>(loop.get(), dc));
        }
        RaiznConfig rc;
        rc.num_devices = 4;
        rc.su_sectors = 4;
        auto res = RaiznVolume::create(loop.get(), dev_ptrs(), rc);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        arr = std::move(res).value();
        arr->attach(&session);
    }

    void
    make_mdraid()
    {
        name = "mdraid";
        loop = std::make_unique<EventLoop>();
        for (uint32_t i = 0; i < 4; ++i) {
            ConvDeviceConfig cc;
            cc.nsectors = 16 * kMiB / kSectorSize;
            cc.pages_per_block = 64;
            cc.name = "conv" + std::to_string(i);
            cdevs.push_back(
                std::make_unique<ConvDevice>(loop.get(), cc));
        }
        MdVolumeConfig mc;
        mc.chunk_sectors = 4;
        arr = std::make_unique<MdVolume>(loop.get(), dev_ptrs(),
                                         MdVolumeConfig(mc));
        arr->attach(&session);
    }

    // -- sync op wrappers --------------------------------------------
    IoResult
    write(uint64_t lba, uint32_t nsectors, uint64_t seed,
          WriteFlags flags = {})
    {
        IoResult out;
        bool done = false;
        arr->write(lba, pattern_data(nsectors, seed), flags,
                   [&](IoResult r) {
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
        arr->read(lba, nsectors, [&](IoResult r) {
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
        arr->flush([&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    IoResult
    zone_op(bool reset, uint32_t zone)
    {
        IoResult out;
        bool done = false;
        auto cb = [&](IoResult r) {
            out = std::move(r);
            done = true;
        };
        if (reset)
            arr->reset_zone(zone, cb);
        else
            arr->finish_zone(zone, cb);
        loop->run_until_pred([&] { return done; });
        return out;
    }

    uint64_t
    zone_start(uint32_t zone)
    {
        if (arr->zoned())
            return arr->zone_info(zone).value().start;
        return static_cast<uint64_t>(zone) * 64;
    }

    void
    expect_audit_ok(const char *phase)
    {
        LedgerAudit audit = ledger.audit();
        EXPECT_TRUE(audit.ok())
            << name << " " << phase << ":\n" << audit.summary();
    }

    /// Healthy traffic: sequential writes into two zones with FUA and
    /// preflush variants, a standalone flush, read-back, and (zoned
    /// kinds) a finish+reset cycle.
    void
    run_healthy()
    {
        ASSERT_TRUE(write(zone_start(0), 16, 1).status.is_ok()) << name;
        WriteFlags fua;
        fua.fua = true;
        ASSERT_TRUE(write(zone_start(0) + 16, 16, 2, fua).status.is_ok())
            << name;
        ASSERT_TRUE(write(zone_start(0) + 32, 16, 3).status.is_ok())
            << name;
        WriteFlags pre;
        pre.preflush = true;
        ASSERT_TRUE(write(zone_start(1), 8, 4, pre).status.is_ok())
            << name;
        ASSERT_TRUE(flush().status.is_ok()) << name;
        ASSERT_TRUE(read(zone_start(0), 48).status.is_ok()) << name;
        ASSERT_TRUE(read(zone_start(1), 8).status.is_ok()) << name;
        if (arr->zoned()) {
            ASSERT_TRUE(zone_op(false, 1).status.is_ok()) << name;
            ASSERT_TRUE(zone_op(true, 1).status.is_ok()) << name;
        }
        expect_audit_ok("healthy");
    }

    /// Degraded traffic: member 1 failed; writes land degraded and
    /// reads reconstruct from the survivors.
    void
    run_degraded()
    {
        arr->mark_device_failed(1);
        ASSERT_TRUE(write(zone_start(2), 16, 5).status.is_ok()) << name;
        ASSERT_TRUE(read(zone_start(0), 48).status.is_ok()) << name;
        ASSERT_TRUE(flush().status.is_ok()) << name;
        expect_audit_ok("degraded");
    }

    /// Rebuild reads, whichever path serves them.
    uint64_t
    rebuild_read_bytes() const
    {
        return ledger.cause_read_bytes(obs::Cause::kRebuild) +
            ledger.cause_read_bytes(obs::Cause::kResync);
    }

    /// Rebuild onto a factory-fresh replacement (mdraid: resync); the
    /// device re-baselines the ledger via rebind on replace(). Every
    /// survivor read the rebuild issues is tagged rebuild (resync),
    /// never parity.
    void
    run_rebuild()
    {
        // Finished zones leave RAIZN's stripe buffers, so its rebuild
        // reconstructs zone 0 from the members.
        if (arr->zoned()) {
            ASSERT_TRUE(zone_op(false, 0).status.is_ok()) << name;
        }
        const uint64_t parity0 = ledger.cause_read_bytes(obs::Cause::kParity);
        const uint64_t rebuild0 = rebuild_read_bytes();
        if (!zdevs.empty())
            zdevs[1]->replace();
        else
            cdevs[1]->replace();
        bool done = false;
        Status st;
        arr->rebuild_device(1, nullptr, [&](Status s) {
            st = s;
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        ASSERT_TRUE(done) << name;
        EXPECT_TRUE(st.is_ok()) << name << ": " << st.to_string();
        EXPECT_LT(arr->failed_device(), 0) << name;
        EXPECT_EQ(ledger.cause_read_bytes(obs::Cause::kParity), parity0)
            << name << ": rebuild reads booked as parity";
        EXPECT_GT(rebuild_read_bytes(), rebuild0) << name;
        expect_audit_ok("rebuild");
        // Post-rebuild reads come back clean and stay conserved.
        ASSERT_TRUE(read(zone_start(0), 48).status.is_ok()) << name;
        expect_audit_ok("post-rebuild read");
    }

    void
    run_all_phases()
    {
        run_healthy();
        if (::testing::Test::HasFatalFailure())
            return;
        if (arr->fault_tolerance() == 0)
            return; // raid0: healthy only
        run_degraded();
        if (::testing::Test::HasFatalFailure())
            return;
        run_rebuild();
    }
};

TEST(LedgerConservation, Raizn)
{
    Sut sut;
    sut.make_raizn();
    if (::testing::Test::HasFatalFailure())
        return;
    sut.run_all_phases();
}

TEST(LedgerConservation, Mdraid)
{
    Sut sut;
    sut.make_mdraid();
    sut.run_all_phases();
}

class LedgerConservationEngine
    : public ::testing::TestWithParam<RaidMode>
{
};

TEST_P(LedgerConservationEngine, AllPhasesConserved)
{
    Sut sut;
    sut.make_engine(GetParam());
    if (::testing::Test::HasFatalFailure())
        return;
    sut.run_all_phases();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, LedgerConservationEngine,
    ::testing::Values(RaidMode::kRaid0, RaidMode::kRaid1,
                      RaidMode::kRaid5, RaidMode::kRaid6,
                      RaidMode::kRaid10, RaidMode::kAuto),
    [](const ::testing::TestParamInfo<RaidMode> &info) {
        return std::string(to_string(info.param));
    });

} // namespace
} // namespace raizn
