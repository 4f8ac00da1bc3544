/**
 * @file
 * Fig. 9: RAIZN vs mdraid with 64 KiB stripe units: throughput,
 * median latency, and 99.9th percentile latency across block sizes
 * for the three §6.1 workloads. Paper observation 2: comparable
 * overall; mdraid wins small (4-64 KiB) reads/writes, RAIZN matches
 * or wins at large block sizes.
 */
#include <cstdio>
#include <string>

#include "bench_util.h"

using namespace raizn;
using namespace raizn::bench;

int
main()
{
    print_header("Fig 9: RAIZN vs mdraid (64KiB stripe units)");
    for (const char *wl : {"seqread", "write", "randread"}) {
        std::printf("\n-- %s --\n", wl);
        std::printf("%-6s %12s %12s %10s %10s %12s %12s\n", "bs",
                    "md_MiBs", "rz_MiBs", "md_p50us", "rz_p50us",
                    "md_p999us", "rz_p999us");
        for (uint32_t bs : kBlockSweep) {
            WorkloadPoint md, rz;
            {
                BenchScale scale;
                auto arr = make_mdraid_array(scale);
                ZonedArrayTarget target(arr.vol.get());
                if (std::string(wl) == "write") {
                    md = run_seq(arr.loop.get(), &target,
                                 RwMode::kSeqWrite, bs, 0);
                } else {
                    prime_target(arr.loop.get(), &target,
                                 target.capacity());
                    md = std::string(wl) == "seqread"
                        ? run_seq(arr.loop.get(), &target,
                                  RwMode::kSeqRead, bs, 0)
                        : run_rand_read(arr.loop.get(), &target, bs);
                }
            }
            {
                BenchScale scale;
                auto arr = make_raizn_array(scale);
                ZonedArrayTarget target(arr.vol.get());
                uint64_t zc = arr.vol->zone_capacity();
                if (std::string(wl) == "write") {
                    rz = run_seq(arr.loop.get(), &target,
                                 RwMode::kSeqWrite, bs, zc);
                } else {
                    prime_target(arr.loop.get(), &target,
                                 target.capacity());
                    rz = std::string(wl) == "seqread"
                        ? run_seq(arr.loop.get(), &target,
                                  RwMode::kSeqRead, bs, zc)
                        : run_rand_read(arr.loop.get(), &target, bs);
                }
            }
            std::printf("%-6s %12.0f %12.0f %10.0f %10.0f %12.0f %12.0f\n",
                        block_label(bs).c_str(), md.mibs, rz.mibs,
                        md.p50_us, rz.p50_us, md.p999_us, rz.p999_us);
        }
    }
    std::printf("\nPaper shape: mdraid ahead on 4-64K writes (RAIZN "
                "pays the parity-log header); parity at large blocks; "
                "tail latencies comparable.\n");
    return 0;
}
