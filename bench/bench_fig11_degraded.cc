/**
 * @file
 * Fig. 11: degraded performance. After priming, the first device is
 * removed without replacement; sequential and random read throughput
 * and latency are measured on both systems. Paper: comparable, RAIZN
 * slightly worse at 4 KiB and better at larger sizes.
 */
#include <cstdio>
#include <string>

#include "bench_util.h"

using namespace raizn;
using namespace raizn::bench;

int
main()
{
    print_header("Fig 11: degraded (1 failed device) read performance");
    for (const char *wl : {"seqread", "randread"}) {
        std::printf("\n-- degraded %s --\n", wl);
        std::printf("%-6s %12s %12s %10s %10s %12s %12s\n", "bs",
                    "md_MiBs", "rz_MiBs", "md_p50us", "rz_p50us",
                    "md_p999us", "rz_p999us");
        for (uint32_t bs : kBlockSweep) {
            WorkloadPoint md, rz;
            {
                BenchScale scale;
                auto arr = make_mdraid_array(scale);
                ZonedArrayTarget target(arr.vol.get());
                prime_target(arr.loop.get(), &target, target.capacity());
                arr.vol->mark_device_failed(0);
                md = std::string(wl) == "seqread"
                    ? run_seq(arr.loop.get(), &target, RwMode::kSeqRead,
                              bs, 0)
                    : run_rand_read(arr.loop.get(), &target, bs);
            }
            {
                BenchScale scale;
                auto arr = make_raizn_array(scale);
                ZonedArrayTarget target(arr.vol.get());
                prime_target(arr.loop.get(), &target, target.capacity());
                arr.vol->mark_device_failed(0);
                rz = std::string(wl) == "seqread"
                    ? run_seq(arr.loop.get(), &target, RwMode::kSeqRead,
                              bs, arr.vol->zone_capacity())
                    : run_rand_read(arr.loop.get(), &target, bs);
            }
            std::printf("%-6s %12.0f %12.0f %10.0f %10.0f %12.0f %12.0f\n",
                        block_label(bs).c_str(), md.mibs, rz.mibs,
                        md.p50_us, rz.p50_us, md.p999_us, rz.p999_us);
        }
    }
    std::printf("\nPaper shape: degraded performance of the two systems "
                "is comparable; RAIZN slightly behind at 4 KiB, ahead at "
                "larger IO sizes.\n");
    return 0;
}
