/**
 * @file
 * Table 1: persistent location, storage per update, and memory
 * footprint of each RAIZN metadata type, reproduced from a live array
 * configured like the paper's (5 devices, 64 KiB stripe units; zone
 * capacity scaled, with the paper's 1077 MiB figure computed
 * analytically alongside).
 */
#include <cstdio>

#include "bench_util.h"

using namespace raizn;
using namespace raizn::bench;

int
main()
{
    print_header("Table 1: RAIZN metadata location and size");

    BenchScale scale;
    scale.data_mode = DataMode::kStore;
    scale.zones_per_device = 11; // 8 logical zones
    scale.zone_cap_sectors = 2048; // 8 MiB (scaled from 1077 MiB)
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());

    // Touch the array so per-open-zone structures exist: open one zone
    // with a partial stripe (forces a stripe buffer + parity log).
    WorkloadRunner runner(arr.loop.get(), &target);
    JobSpec s;
    s.mode = RwMode::kSeqWrite;
    s.block_sectors = 4;
    s.queue_depth = 1;
    s.io_limit = 5;
    s.region_len = arr.vol->zone_capacity();
    runner.run({s});

    auto fp = arr.vol->memory_footprint();
    const RaiznConfig &cfg = arr.vol->layout().config();

    std::printf("%-24s %-22s %-26s %s\n", "Metadata type",
                "Persistent location", "Storage per update",
                "Memory footprint");
    std::printf("%-24s %-22s %-26s %s\n", "Remapped stripe unit",
                "affected device only", "4 KiB hdr + 64 KiB SU",
                "4 KiB + 64 KiB per entry");
    std::printf("%-24s %-22s %-26s %s\n", "Zone reset log",
                "two devices (rotated)", "4 KiB", "-");
    std::printf("%-24s %-22s %-26s 8.05 B/zone (measured %.2f)\n",
                "Generation counters", "all devices", "4 KiB",
                static_cast<double>(fp.gen_counters) /
                    arr.vol->num_zones());
    std::printf("%-24s %-22s %-26s %s\n", "Partial parity",
                "device with parity", "4 KiB hdr + <=64 KiB", "-");
    std::printf("%-24s %-22s %-26s %zu B\n", "Superblock", "all devices",
                "4 KiB", fp.superblock);
    uint64_t su_bytes = static_cast<uint64_t>(cfg.su_sectors) *
        kSectorSize;
    std::printf("%-24s %-22s %-26s %llu KiB x %u per open zone\n",
                "Stripe buffers", "-", "-",
                (unsigned long long)(cfg.data_units() * su_bytes / kKiB),
                cfg.stripe_buffers_per_zone);
    // Persistence bitmap at the paper's geometry: one bit per stripe
    // unit of a 1077 MiB physical zone -> ~2 KiB (Table 1).
    uint64_t paper_zone_cap = 1077 * kMiB / kSectorSize;
    uint64_t paper_sus = paper_zone_cap / cfg.su_sectors;
    std::printf("%-24s %-22s %-26s %.1f KiB per logical zone "
                "(paper geometry)\n",
                "Persistence bitmaps", "-", "-",
                static_cast<double>(paper_sus) / 8 / kKiB);
    std::printf("%-24s %-22s %-26s 64 B per zone per device\n",
                "Physical zone desc.", "-", "-");
    std::printf("%-24s %-22s %-26s 64 B per logical zone\n",
                "Logical zone desc.", "-", "-");

    std::printf("\nLive array measurements (scaled geometry):\n");
    std::printf("  gen counters        : %zu B\n", fp.gen_counters);
    std::printf("  stripe buffers      : %zu B (1 open zone)\n",
                fp.stripe_buffers);
    std::printf("  persistence bitmaps : %zu B\n",
                fp.persistence_bitmaps);
    std::printf("  zone descriptors    : %zu B\n", fp.zone_descriptors);
    std::printf("  partial parity logs : %llu written\n",
                (unsigned long long)arr.vol->stats().partial_parity_logs);
    std::printf("\nPaper: total metadata < 100 MiB, fully cached in "
                "memory; valid persistent metadata typically "
                "192 KiB-4096 KiB.\n");
    return 0;
}
