/**
 * @file
 * Ablation: cost of partial-parity logging (§5.1). For each write
 * size, measures RAIZN's metadata write amplification — the extra
 * sectors written for parity-log headers and deltas — and compares
 * against (a) a hypothetical design that logs data+parity (what a
 * journal would write) and (b) mdraid's read-modify-write preread
 * traffic for the same workload. Explains Fig. 9's small-write gap.
 */
#include <cstdio>

#include "bench_util.h"

using namespace raizn;
using namespace raizn::bench;

int
main()
{
    print_header("Ablation: partial parity logging cost per write size");
    std::printf("%-6s %12s %12s %12s %12s %12s %12s\n", "bs",
                "data_sect", "pp_logs", "pp_sect", "raizn_WA",
                "journal_WA", "md_rmw_rd");
    for (uint32_t bs : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        uint64_t data_sectors, pp_logs, pp_sectors;
        {
            BenchScale scale;
            auto arr = make_raizn_array(scale);
            ZonedArrayTarget target(arr.vol.get());
            WorkloadRunner runner(arr.loop.get(), &target);
            auto jobs = seq_jobs(RwMode::kSeqWrite, bs, 4, 16,
                                 arr.vol->capacity(),
                                 arr.vol->zone_capacity());
            for (auto &j : jobs)
                j.io_limit = 1000;
            runner.run(jobs);
            const VolumeStats &st = arr.vol->stats();
            data_sectors = st.sectors_written;
            pp_logs = st.partial_parity_logs;
            pp_sectors = st.partial_parity_sectors + pp_logs; // + header
        }
        uint64_t md_rmw;
        {
            BenchScale scale;
            auto arr = make_mdraid_array(scale);
            ZonedArrayTarget target(arr.vol.get());
            WorkloadRunner runner(arr.loop.get(), &target);
            auto jobs =
                seq_jobs(RwMode::kSeqWrite, bs, 4, 16,
                         arr.vol->capacity(), 0);
            for (auto &j : jobs)
                j.io_limit = 1000;
            runner.run(jobs);
            md_rmw = arr.vol->stats().rmw_reads;
        }
        // RAIZN WA: (data + parity(1/D amortized) + pp) / data. The
        // full parity is 1/4 of data for complete stripes; partial
        // parity adds header+delta per non-aligned write.
        double raizn_wa =
            static_cast<double>(data_sectors + data_sectors / 4 +
                                pp_sectors) /
            static_cast<double>(data_sectors);
        // Journal alternative: every partial write logs data AND
        // parity (mdraid journal behaviour): delta becomes data+delta.
        double journal_wa =
            static_cast<double>(data_sectors + data_sectors / 4 +
                                pp_sectors + data_sectors) /
            static_cast<double>(data_sectors);
        std::printf("%-6s %12llu %12llu %12llu %12.2f %12.2f %12llu\n",
                    block_label(bs).c_str(),
                    (unsigned long long)data_sectors,
                    (unsigned long long)pp_logs,
                    (unsigned long long)pp_sectors, raizn_wa, journal_wa,
                    (unsigned long long)md_rmw);
    }
    std::printf("\nShape: the 4 KiB-write parity-log header dominates "
                "(3x+ amplification), shrinking as writes approach the "
                "64 KiB stripe unit; logging only the parity delta "
                "halves the journal alternative's overhead. mdraid "
                "avoids log writes but pays RMW prereads on cache "
                "misses.\n");
    return 0;
}
