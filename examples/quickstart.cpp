/**
 * @file
 * Quickstart: create a 5-device RAIZN array, write and read back data
 * through the logical zoned interface, inspect zones and statistics.
 *
 *   $ ./build/examples/quickstart
 */
#include <cstdio>

#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

using namespace raizn;

int
main()
{
    // One event loop drives the emulated devices and the volume.
    EventLoop loop;

    // Five emulated ZNS SSDs: 16 zones x 8 MiB, storing real bytes.
    std::vector<std::unique_ptr<ZnsDevice>> devices;
    std::vector<BlockDevice *> ptrs;
    for (int i = 0; i < 5; ++i) {
        ZnsDeviceConfig cfg;
        cfg.nzones = 16;
        cfg.zone_size = 2048; // 8 MiB
        cfg.name = "zns" + std::to_string(i);
        devices.push_back(std::make_unique<ZnsDevice>(&loop, cfg));
        ptrs.push_back(devices.back().get());
    }

    // mkfs + mount a RAIZN volume: RAID-5-style striping with 64 KiB
    // stripe units, 3 metadata zones per device.
    RaiznConfig cfg;
    auto vol_res = RaiznVolume::create(&loop, ptrs, cfg);
    if (!vol_res.is_ok()) {
        std::fprintf(stderr, "create failed: %s\n",
                     vol_res.status().to_string().c_str());
        return 1;
    }
    auto vol = std::move(vol_res).value();

    std::printf("RAIZN volume: %u logical zones x %llu MiB = %llu MiB\n",
                vol->num_zones(),
                (unsigned long long)(vol->zone_capacity() * kSectorSize /
                                     kMiB),
                (unsigned long long)(vol->capacity() * kSectorSize /
                                     kMiB));

    // Sequential zone write (the only kind ZNS allows), then read.
    auto payload = pattern_data(64, /*seed=*/42); // one full stripe
    bool done = false;
    // The volume takes its own copy: `payload` checks the read below.
    vol->write(0, IoBuf::copy_of(payload), {}, [&](IoResult r) {
        std::printf("write:  %s (%u sectors at LBA 0)\n",
                    r.status.to_string().c_str(), 64);
        done = true;
    });
    loop.run_until_pred([&] { return done; });

    done = false;
    vol->read(0, 64, [&](IoResult r) {
        bool match = r.data == payload;
        std::printf("read:   %s (%s)\n", r.status.to_string().c_str(),
                    match ? "data matches" : "DATA MISMATCH");
        done = true;
    });
    loop.run_until_pred([&] { return done; });

    // A small unaligned write: RAIZN logs partial parity (Sec 5.1).
    done = false;
    vol->write(64, pattern_data(4, 7), {}, [&](IoResult r) {
        std::printf("write:  %s (16 KiB partial stripe)\n",
                    r.status.to_string().c_str());
        done = true;
    });
    loop.run_until_pred([&] { return done; });

    // FUA write: completes only once all preceding LBAs in the zone
    // are durable (Sec 5.3).
    WriteFlags fua;
    fua.fua = true;
    done = false;
    vol->write(68, pattern_data(4, 8), fua, [&](IoResult r) {
        std::printf("fua:    %s\n", r.status.to_string().c_str());
        done = true;
    });
    loop.run_until_pred([&] { return done; });

    auto zi = vol->zone_info(0).value();
    std::printf("zone 0: state=%s wp=%llu\n",
                std::string(to_string(zi.state)).c_str(),
                (unsigned long long)zi.wp);

    // Reset the zone and write again.
    done = false;
    vol->reset_zone(0, [&](IoResult r) {
        std::printf("reset:  %s\n", r.status.to_string().c_str());
        done = true;
    });
    loop.run_until_pred([&] { return done; });

    const VolumeStats &st = vol->stats();
    std::printf("\nstats: %llu writes, %llu full-parity writes, "
                "%llu partial-parity logs, %llu dependency flushes, "
                "%llu zone resets\n",
                (unsigned long long)st.logical_writes,
                (unsigned long long)st.full_parity_writes,
                (unsigned long long)st.partial_parity_logs,
                (unsigned long long)st.fua_dependency_flushes,
                (unsigned long long)st.zone_resets);
    std::printf("virtual time elapsed: %.3f ms\n",
                static_cast<double>(loop.now()) / kNsPerMs);
    return 0;
}
