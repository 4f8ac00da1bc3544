/**
 * @file
 * Shared fixture helpers for RAIZN volume tests: a small 5-device
 * array with data storage enabled, synchronous wrappers, and a
 * power-cut + remount harness.
 */
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {

struct TestArray {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::unique_ptr<RaiznVolume> vol;

    static ZnsDeviceConfig
    device_config(uint32_t nzones = 8, uint64_t zone_cap = 128)
    {
        ZnsDeviceConfig cfg;
        cfg.nzones = nzones;
        cfg.zone_size = zone_cap;
        cfg.zone_capacity = zone_cap;
        cfg.max_open_zones = 14;
        cfg.max_active_zones = 14;
        cfg.atomic_write_sectors = 4;
        cfg.data_mode = DataMode::kStore;
        return cfg;
    }

    static RaiznConfig
    array_config(uint32_t ndev = 5, uint32_t su = 16)
    {
        RaiznConfig cfg;
        cfg.num_devices = ndev;
        cfg.su_sectors = su;
        cfg.md_zones_per_device = 3;
        cfg.stripe_buffers_per_zone = 8;
        return cfg;
    }

    /// Creates a fresh array (mkfs).
    void
    make(uint32_t ndev = 5, uint32_t su = 16, uint32_t nzones = 8,
         uint64_t zone_cap = 128)
    {
        make(array_config(ndev, su), nzones, zone_cap);
    }

    /// Creates a fresh array (mkfs) of `cfg`.
    void
    make(const RaiznConfig &cfg, uint32_t nzones = 8, uint64_t zone_cap = 128)
    {
        vol.reset();
        loop = std::make_unique<EventLoop>();
        devs.clear();
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < cfg.num_devices; ++i) {
            ZnsDeviceConfig dc = device_config(nzones, zone_cap);
            dc.name = "zns" + std::to_string(i);
            devs.push_back(std::make_unique<ZnsDevice>(loop.get(), dc));
            ptrs.push_back(devs.back().get());
        }
        auto res = RaiznVolume::create(loop.get(), ptrs, cfg);
        ASSERT_TRUE(res.is_ok()) << res.status().to_string();
        vol = std::move(res).value();
    }

    /// Simulates power loss on every device, then remounts the array
    /// on a fresh event loop. Returns the mount status.
    Status
    crash_and_remount(PowerLossSpec spec)
    {
        for (auto &dev : devs)
            dev->power_cut(spec);
        vol.reset();
        loop = std::make_unique<EventLoop>();
        std::vector<BlockDevice *> ptrs;
        for (auto &dev : devs) {
            dev->reattach(loop.get());
            ptrs.push_back(dev.get());
        }
        auto res = RaiznVolume::mount(loop.get(), ptrs);
        if (!res.is_ok())
            return res.status();
        vol = std::move(res).value();
        return Status::ok();
    }

    /// Power loss with a distinct spec per device — volatile caches
    /// survive or vanish independently, the divergence that makes
    /// partial-parity logging necessary (§5.1). `specs` must have one
    /// entry per device.
    Status
    crash_and_remount(const std::vector<PowerLossSpec> &specs)
    {
        EXPECT_EQ(specs.size(), devs.size());
        for (size_t i = 0; i < devs.size(); ++i)
            devs[i]->power_cut(specs[i]);
        vol.reset();
        loop = std::make_unique<EventLoop>();
        std::vector<BlockDevice *> ptrs;
        for (auto &dev : devs) {
            dev->reattach(loop.get());
            ptrs.push_back(dev.get());
        }
        auto res = RaiznVolume::mount(loop.get(), ptrs);
        if (!res.is_ok())
            return res.status();
        vol = std::move(res).value();
        return Status::ok();
    }

    /// Clean remount (no power loss): flush, then remount.
    Status
    remount()
    {
        flush();
        return crash_and_remount(
            {PowerLossSpec::Policy::kKeepAll, 0});
    }

    // ---- Synchronous wrappers ----
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

    Status
    rebuild(uint32_t dev)
    {
        Status out;
        bool done = false;
        vol->rebuild_device(
            dev, nullptr, [&](Status s) {
                out = s;
                done = true;
            });
        loop->run_until_pred([&] { return done; });
        return out;
    }

    /// Writes a seeded pattern and remembers nothing: callers use
    /// pattern_data(n, seed) to verify.
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

} // namespace raizn
