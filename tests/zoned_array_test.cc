/**
 * @file
 * Cross-engine differential tests over the ZonedArray interface: one
 * seeded workload replayed against every zoned mode (the paper's
 * RaiznVolume plus each ZonedEngine level) must produce identical
 * logical semantics — the same per-op statuses, the same read-back
 * bytes, the same acked-write durability floor after a power cut, and
 * unchanged behavior under a mid-workload device failure for the
 * redundant modes. Also the regression for the hoisted resilience
 * wiring: RaiznVolume, MdVolume, and ZonedEngine all count retries
 * through the shared ZonedArray retrier into the metrics registry.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "array/engine.h"
#include "common/rng.h"
#include "fault/fault_device.h"
#include "mdraid/md_volume.h"
#include "obs/metrics.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/conv_device.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

// The workload touches zones [0, kZones) and never fills any zone past
// kFillCap sectors, so it replays identically on every geometry (the
// smallest zone capacity in the matrix is auto mode's 60 sectors).
constexpr uint32_t kZones = 3;
constexpr uint64_t kFillCap = 48;

// ---------------------------------------------------------------------
// System under test: any ZonedArray over power-cuttable ZNS members.
// ---------------------------------------------------------------------

struct Sut {
    std::string name;
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::unique_ptr<ZonedArray> arr;
    bool is_engine = false;
    EngineConfig ecfg;

    static ZnsDeviceConfig
    dev_config(uint32_t i, uint32_t nzones, uint64_t zone_cap)
    {
        ZnsDeviceConfig dc;
        dc.nzones = nzones;
        dc.zone_size = zone_cap;
        dc.zone_capacity = zone_cap;
        dc.max_open_zones = 14;
        dc.max_active_zones = 14;
        dc.atomic_write_sectors = 4;
        dc.data_mode = DataMode::kStore;
        dc.name = "zns" + std::to_string(i);
        return dc;
    }

    std::vector<BlockDevice *>
    dev_ptrs() const
    {
        std::vector<BlockDevice *> ptrs;
        for (const auto &d : devs)
            ptrs.push_back(d.get());
        return ptrs;
    }

    void
    make_engine(RaidMode mode)
    {
        name = std::string(to_string(mode));
        is_engine = true;
        ecfg = EngineConfig{};
        ecfg.mode = mode;
        ecfg.su_sectors = 4;
        loop = std::make_unique<EventLoop>();
        for (uint32_t i = 0; i < 4; ++i)
            devs.push_back(std::make_unique<ZnsDevice>(
                loop.get(), dev_config(i, 7, 64)));
        auto res = ZonedEngine::create(loop.get(), dev_ptrs(), ecfg);
        ASSERT_TRUE(res.is_ok()) << name << ": " << res.status().to_string();
        arr = std::move(res).value();
    }

    void
    make_raizn()
    {
        name = "raizn";
        is_engine = false;
        loop = std::make_unique<EventLoop>();
        for (uint32_t i = 0; i < 4; ++i)
            devs.push_back(std::make_unique<ZnsDevice>(
                loop.get(), dev_config(i, 8, 128)));
        RaiznConfig rc;
        rc.num_devices = 4;
        rc.su_sectors = 16;
        auto res = RaiznVolume::create(loop.get(), dev_ptrs(), rc);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        arr = std::move(res).value();
    }

    /// Power-cuts every member with `spec` and remounts the array.
    void
    crash_and_remount(const PowerLossSpec &spec)
    {
        for (auto &d : devs)
            d->power_cut(spec);
        arr.reset();
        loop = std::make_unique<EventLoop>();
        for (auto &d : devs)
            d->reattach(loop.get());
        if (is_engine) {
            auto res = ZonedEngine::mount(loop.get(), dev_ptrs(), ecfg);
            ASSERT_TRUE(res.is_ok())
                << name << ": " << res.status().to_string();
            arr = std::move(res).value();
        } else {
            auto res = RaiznVolume::mount(loop.get(), dev_ptrs());
            ASSERT_TRUE(res.is_ok())
                << name << ": " << res.status().to_string();
            arr = std::move(res).value();
        }
    }

    // -- sync op wrappers --------------------------------------------
    IoResult
    write(uint64_t lba, std::vector<uint8_t> data, WriteFlags flags = {})
    {
        IoResult out;
        bool done = false;
        arr->write(lba, std::move(data), flags, [&](IoResult r) {
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
    reset_zone(uint32_t zone)
    {
        IoResult out;
        bool done = false;
        arr->reset_zone(zone, [&](IoResult r) {
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
        arr->finish_zone(zone, [&](IoResult r) {
            out = std::move(r);
            done = true;
        });
        loop->run_until_pred([&] { return done; });
        return out;
    }
};

// ---------------------------------------------------------------------
// Seeded workload, generated once, replayed on every mode.
// ---------------------------------------------------------------------

struct Op {
    enum Kind : uint8_t { kWrite, kRead, kFlush, kReset, kFinish };
    Kind kind;
    uint32_t zone = 0;
    uint64_t off = 0; ///< zone-relative sector offset
    uint32_t n = 0;
    uint64_t seed = 0; ///< payload seed (writes)
};

/// Builds a valid op sequence against a master shadow so every array
/// sees only ops it must accept.
std::vector<Op>
generate_workload(uint64_t seed, size_t nops)
{
    Rng rng(seed);
    std::vector<Op> ops;
    uint64_t wp[kZones] = {0, 0, 0};
    uint64_t gen[kZones] = {0, 0, 0};
    bool finished[kZones] = {false, false, false};
    while (ops.size() < nops) {
        uint32_t z = static_cast<uint32_t>(rng.next_below(kZones));
        double r = rng.next_double();
        if (r < 0.50) {
            if (finished[z] || wp[z] >= kFillCap)
                continue;
            uint32_t room = static_cast<uint32_t>(kFillCap - wp[z]);
            uint32_t n = static_cast<uint32_t>(
                rng.next_range(1, std::min<uint32_t>(6, room)));
            uint64_t pseed =
                (static_cast<uint64_t>(z) << 32) ^ (gen[z] << 16) ^ wp[z];
            ops.push_back({Op::kWrite, z, wp[z], n, pseed});
            wp[z] += n;
        } else if (r < 0.78) {
            if (wp[z] == 0)
                continue;
            uint64_t off = rng.next_below(wp[z]);
            uint32_t n = static_cast<uint32_t>(
                rng.next_range(1, wp[z] - off));
            ops.push_back({Op::kRead, z, off, n, 0});
        } else if (r < 0.86) {
            ops.push_back({Op::kFlush});
        } else if (r < 0.94) {
            if (wp[z] == 0 && !finished[z])
                continue;
            ops.push_back({Op::kReset, z});
            wp[z] = 0;
            ++gen[z];
            finished[z] = false;
        } else {
            if (finished[z])
                continue;
            ops.push_back({Op::kFinish, z});
            finished[z] = true;
        }
    }
    return ops;
}

/// Per-zone logical shadow maintained during replay.
struct Shadow {
    std::vector<uint8_t> bytes =
        std::vector<uint8_t>(kFillCap * kSectorSize, 0);
    uint64_t wp = 0;
};

/**
 * Replays `ops` on `sut`, asserting every op succeeds and every read
 * matches the shadow. When `fail_at` >= 0, member `fail_dev` is marked
 * failed before op `fail_at` — redundant modes must not change any
 * outcome. Returns the final written contents of each zone as read
 * back from the array.
 */
std::vector<std::vector<uint8_t>>
replay(Sut &sut, const std::vector<Op> &ops, int fail_at = -1,
       uint32_t fail_dev = 0)
{
    const uint64_t zcap = sut.arr->zone_capacity();
    EXPECT_GE(zcap, kFillCap) << sut.name;
    EXPECT_GE(sut.arr->num_zones(), kZones) << sut.name;
    Shadow shadow[kZones];
    for (size_t i = 0; i < ops.size(); ++i) {
        if (fail_at >= 0 && i == static_cast<size_t>(fail_at))
            sut.arr->mark_device_failed(fail_dev);
        const Op &op = ops[i];
        SCOPED_TRACE(sut.name + " op " + std::to_string(i));
        switch (op.kind) {
        case Op::kWrite: {
            std::vector<uint8_t> data = pattern_data(op.n, op.seed);
            std::memcpy(shadow[op.zone].bytes.data() +
                            op.off * kSectorSize,
                        data.data(), data.size());
            shadow[op.zone].wp = op.off + op.n;
            IoResult r =
                sut.write(op.zone * zcap + op.off, std::move(data));
            EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
            break;
        }
        case Op::kRead: {
            IoResult r = sut.read(op.zone * zcap + op.off, op.n);
            EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
            if (r.status.is_ok() &&
                r.data.size() == op.n * kSectorSize) {
                EXPECT_EQ(0, std::memcmp(r.data.data(),
                                         shadow[op.zone].bytes.data() +
                                             op.off * kSectorSize,
                                         r.data.size()));
            } else if (r.status.is_ok()) {
                ADD_FAILURE() << "short read: " << r.data.size();
            }
            break;
        }
        case Op::kFlush:
            EXPECT_TRUE(sut.flush().status.is_ok());
            break;
        case Op::kReset: {
            IoResult r = sut.reset_zone(op.zone);
            EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
            shadow[op.zone].wp = 0;
            std::fill(shadow[op.zone].bytes.begin(),
                      shadow[op.zone].bytes.end(), 0);
            break;
        }
        case Op::kFinish: {
            IoResult r = sut.finish_zone(op.zone);
            EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
            break;
        }
        }
    }
    // Final read-back of every zone's written prefix.
    std::vector<std::vector<uint8_t>> out(kZones);
    for (uint32_t z = 0; z < kZones; ++z) {
        uint64_t wp = shadow[z].wp;
        if (wp == 0)
            continue;
        IoResult r = sut.read(z * zcap, static_cast<uint32_t>(wp));
        EXPECT_TRUE(r.status.is_ok())
            << sut.name << " zone " << z << ": " << r.status.to_string();
        if (r.status.is_ok()) {
            EXPECT_EQ(0, std::memcmp(r.data.data(),
                                     shadow[z].bytes.data(),
                                     r.data.size()))
                << sut.name << " zone " << z;
            out[z] = std::move(r.data).to_vector();
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

TEST(ZonedArrayDifferential, SameWorkloadSameSemanticsEveryMode)
{
    const std::vector<Op> ops = generate_workload(0xd1ff, 140);
    std::vector<std::vector<uint8_t>> reference;
    bool have_ref = false;
    const RaidMode modes[] = {
        RaidMode::kRaizn, RaidMode::kRaid0,  RaidMode::kRaid1,
        RaidMode::kRaid5, RaidMode::kRaid6,  RaidMode::kRaid10,
        RaidMode::kAuto,
    };
    for (RaidMode mode : modes) {
        Sut sut;
        if (mode == RaidMode::kRaizn)
            sut.make_raizn();
        else
            sut.make_engine(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        auto final_state = replay(sut, ops);
        if (!have_ref) {
            reference = std::move(final_state);
            have_ref = true;
            continue;
        }
        // Byte-identical logical state across every mode.
        ASSERT_EQ(reference.size(), final_state.size());
        for (uint32_t z = 0; z < kZones; ++z)
            EXPECT_EQ(reference[z], final_state[z])
                << sut.name << " zone " << z;
    }
}

TEST(ZonedArrayDifferential, MidWorkloadFailureChangesNothing)
{
    const std::vector<Op> ops = generate_workload(0xfa11, 120);
    const RaidMode modes[] = {
        RaidMode::kRaizn, RaidMode::kRaid1, RaidMode::kRaid5,
        RaidMode::kRaid6, RaidMode::kRaid10, RaidMode::kAuto,
    };
    for (RaidMode mode : modes) {
        Sut sut;
        if (mode == RaidMode::kRaizn)
            sut.make_raizn();
        else
            sut.make_engine(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        // Kill a member halfway through; every subsequent op must
        // succeed with the same results.
        replay(sut, ops, /*fail_at=*/static_cast<int>(ops.size() / 2),
               /*fail_dev=*/1);
        EXPECT_TRUE(sut.arr->degraded()) << sut.name;
    }
    // RAID-6 keeps the same contract with two members down.
    Sut r6;
    r6.make_engine(RaidMode::kRaid6);
    if (::testing::Test::HasFatalFailure())
        return;
    r6.arr->mark_device_failed(3);
    replay(r6, ops, /*fail_at=*/static_cast<int>(ops.size() / 2),
           /*fail_dev=*/1);
}

TEST(ZonedArrayDifferential, AckedWritesShareOneDurabilityFloor)
{
    // Same sequence on every mode: a flushed prefix, a FUA write, then
    // unflushed tail data; after an adversarial power cut, the acked
    // floor (17 sectors in zone 0, 6 in zone 1) must read back.
    const RaidMode modes[] = {
        RaidMode::kRaizn, RaidMode::kRaid0,  RaidMode::kRaid1,
        RaidMode::kRaid5, RaidMode::kRaid6,  RaidMode::kRaid10,
        RaidMode::kAuto,
    };
    for (RaidMode mode : modes) {
        Sut sut;
        if (mode == RaidMode::kRaizn)
            sut.make_raizn();
        else
            sut.make_engine(mode);
        if (::testing::Test::HasFatalFailure())
            return;
        SCOPED_TRACE(sut.name);
        const uint64_t zcap = sut.arr->zone_capacity();
        IoResult r = sut.write(0, pattern_data(17, 21));
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        ASSERT_TRUE(sut.flush().status.is_ok());
        WriteFlags fua;
        fua.fua = true;
        r = sut.write(zcap, pattern_data(6, 22), fua);
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        // Unflushed: allowed (but not required) to survive.
        r = sut.write(17, pattern_data(5, 23));
        ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
        sut.crash_and_remount({PowerLossSpec::Policy::kDropCache, 0});
        if (::testing::Test::HasFatalFailure())
            return;
        auto z0 = sut.arr->zone_info(0);
        auto z1 = sut.arr->zone_info(1);
        ASSERT_TRUE(z0.is_ok() && z1.is_ok());
        EXPECT_GE(z0.value().written(), 17u);
        EXPECT_GE(z1.value().written(), 6u);
        IoResult rb = sut.read(0, 17);
        ASSERT_TRUE(rb.status.is_ok()) << rb.status.to_string();
        std::vector<uint8_t> want = pattern_data(17, 21);
        EXPECT_EQ(0,
                  std::memcmp(rb.data.data(), want.data(), want.size()));
        rb = sut.read(zcap, 6);
        ASSERT_TRUE(rb.status.is_ok()) << rb.status.to_string();
        want = pattern_data(6, 22);
        EXPECT_EQ(0,
                  std::memcmp(rb.data.data(), want.data(), want.size()));
    }
}

// ---------------------------------------------------------------------
// Hoisted-resilience regression: every ZonedArray family counts device
// retries through the shared base wiring into the metrics registry.
// ---------------------------------------------------------------------

/// Runs one transient write error through `arr` and asserts the shared
/// retrier retried it and the registry mirrors the engine's counter.
void
expect_retry_accounted(
    EventLoop *loop, ZonedArray *arr,
    const std::vector<std::unique_ptr<FaultInjectingDevice>> &fdevs,
    const std::string &prefix, const uint64_t &io_retries_cell)
{
    obs::MetricsRegistry reg;
    arr->attach_observability(&reg, nullptr);
    // One-shot transient error on every member: whichever members the
    // write lands on, at least one command fails once and is retried.
    for (const auto &fd : fdevs)
        fd->inject_once(IoOp::kWrite, FaultKind::kIoError);
    IoResult out;
    bool done = false;
    arr->write(0, pattern_data(48, 77), WriteFlags{}, [&](IoResult r) {
        out = std::move(r);
        done = true;
    });
    loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(done);
    EXPECT_TRUE(out.status.is_ok()) << out.status.to_string();
    EXPECT_GE(io_retries_cell, 1u) << prefix;
    bool found = false;
    for (const auto &smp : reg.snapshot()) {
        if (smp.name == prefix + ".io_retries") {
            found = true;
            EXPECT_EQ(io_retries_cell, smp.value) << prefix;
        }
    }
    EXPECT_TRUE(found) << prefix << ".io_retries missing from registry";
}

TEST(ZonedArrayObs, RetrierCountsFlowIntoRegistryForEveryFamily)
{
    // RaiznVolume over fault-wrapped ZNS members.
    {
        EventLoop loop;
        std::vector<std::unique_ptr<ZnsDevice>> devs;
        std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < 4; ++i) {
            devs.push_back(std::make_unique<ZnsDevice>(
                &loop, Sut::dev_config(i, 8, 128)));
            fdevs.push_back(std::make_unique<FaultInjectingDevice>(
                &loop, devs.back().get(), FaultConfig{}));
            ptrs.push_back(fdevs.back().get());
        }
        RaiznConfig rc;
        rc.num_devices = 4;
        rc.su_sectors = 16;
        auto res = RaiznVolume::create(&loop, ptrs, rc);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        auto vol = std::move(res).value();
        expect_retry_accounted(&loop, vol.get(), fdevs, "raizn",
                               vol->stats().io_retries);
    }
    // ZonedEngine (RAID-5) over fault-wrapped ZNS members.
    {
        EventLoop loop;
        std::vector<std::unique_ptr<ZnsDevice>> devs;
        std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < 4; ++i) {
            devs.push_back(std::make_unique<ZnsDevice>(
                &loop, Sut::dev_config(i, 7, 64)));
            fdevs.push_back(std::make_unique<FaultInjectingDevice>(
                &loop, devs.back().get(), FaultConfig{}));
            ptrs.push_back(fdevs.back().get());
        }
        EngineConfig cfg;
        cfg.mode = RaidMode::kRaid5;
        cfg.su_sectors = 4;
        auto res = ZonedEngine::create(&loop, ptrs, cfg);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        auto eng = std::move(res).value();
        expect_retry_accounted(&loop, eng.get(), fdevs, "raid5",
                               eng->stats().io_retries);
    }
    // MdVolume over fault-wrapped conventional members.
    {
        EventLoop loop;
        std::vector<std::unique_ptr<ConvDevice>> devs;
        std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < 4; ++i) {
            ConvDeviceConfig cc;
            cc.nsectors = 16 * kMiB / kSectorSize;
            cc.pages_per_block = 64;
            cc.name = "conv" + std::to_string(i);
            devs.push_back(std::make_unique<ConvDevice>(&loop, cc));
            fdevs.push_back(std::make_unique<FaultInjectingDevice>(
                &loop, devs.back().get(), FaultConfig{}));
            ptrs.push_back(fdevs.back().get());
        }
        MdVolumeConfig mc;
        mc.chunk_sectors = 16;
        auto vol =
            std::make_unique<MdVolume>(&loop, ptrs, MdVolumeConfig(mc));
        expect_retry_accounted(&loop, vol.get(), fdevs,
                               "mdraid", vol->stats().io_retries);
    }
}

} // namespace
} // namespace raizn
