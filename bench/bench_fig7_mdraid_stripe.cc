/**
 * @file
 * Fig. 7: mdraid throughput (sequential read, sequential write,
 * random read) vs block size, one series per stripe-unit ("chunk")
 * size from 8 KiB to 128 KiB. Paper observation 1: 64 KiB chunks
 * maximize random read throughput without significantly hurting
 * sequential read/write.
 */
#include <cstdio>

#include "bench_util.h"

using namespace raizn;
using namespace raizn::bench;

int
main()
{
    print_header("Fig 7: mdraid throughput vs block size per chunk size");
    for (const char *wl : {"seqread", "write", "randread"}) {
        std::printf("\n-- mdraid %s (MiB/s) --\n%-6s", wl, "bs");
        for (uint32_t su : kSuSweep)
            std::printf(" %9s", (block_label(su) + "-chunk").c_str());
        std::printf("\n");
        for (uint32_t bs : kBlockSweep) {
            std::printf("%-6s", block_label(bs).c_str());
            for (uint32_t su : kSuSweep) {
                BenchScale scale;
                scale.su_sectors = su;
                auto arr = make_mdraid_array(scale);
                ZonedArrayTarget target(arr.vol.get());
                double mibs = 0;
                if (std::string(wl) == "write") {
                    mibs = run_seq(arr.loop.get(), &target,
                                   RwMode::kSeqWrite, bs, 0)
                               .mibs;
                } else {
                    // Prime, then read (paper: 1 TiB priming, scaled).
                    prime_target(arr.loop.get(), &target,
                                 target.capacity());
                    if (std::string(wl) == "seqread") {
                        mibs = run_seq(arr.loop.get(), &target,
                                       RwMode::kSeqRead, bs, 0)
                                   .mibs;
                    } else {
                        mibs = run_rand_read(arr.loop.get(), &target, bs)
                                   .mibs;
                    }
                }
                std::printf(" %9.0f", mibs);
            }
            std::printf("\n");
        }
    }
    std::printf("\nPaper shape: 16K chunks win large seq reads; 64K "
                "chunks win random reads without hurting writes much.\n");
    return 0;
}
