/**
 * @file
 * Tests for the workload layer: job generation, the runner's stop
 * conditions and accounting, the sampler, and the array factories.
 */
#include <gtest/gtest.h>

#include "wkld/runner.h"
#include "wkld/setup.h"
#include "wkld/target.h"

namespace raizn {
namespace {

TEST(WkldTest, SeqJobsPartitionCapacity)
{
    auto jobs = seq_jobs(RwMode::kSeqWrite, 16, 8, 64, 8192, 512);
    ASSERT_EQ(jobs.size(), 8u);
    for (uint32_t j = 0; j < 8; ++j) {
        EXPECT_EQ(jobs[j].region_start % 512, 0u) << "zone aligned";
        EXPECT_EQ(jobs[j].region_len, 1024u);
        EXPECT_EQ(jobs[j].region_start, j * 1024u);
    }
}

TEST(WkldTest, RunnerSeqWriteCoversRegion)
{
    BenchScale scale;
    scale.zones_per_device = 8;
    scale.zone_cap_sectors = 512;
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    WorkloadRunner runner(arr.loop.get(), &target);

    JobSpec s;
    s.mode = RwMode::kSeqWrite;
    s.block_sectors = 64;
    s.queue_depth = 8;
    s.region_len = arr.vol->zone_capacity(); // one logical zone
    auto res = runner.run_merged({s});
    EXPECT_EQ(res.errors, 0u);
    EXPECT_EQ(res.ios, arr.vol->zone_capacity() / 64);
    EXPECT_EQ(res.bytes, arr.vol->zone_capacity() * kSectorSize);
    EXPECT_GT(res.elapsed, 0u);
    EXPECT_GT(res.throughput_mibs(), 0.0);
    EXPECT_EQ(arr.vol->zone_info(0).value().wp,
              arr.vol->zone_capacity());
}

TEST(WkldTest, RunnerIoLimitStops)
{
    BenchScale scale;
    scale.zones_per_device = 8;
    scale.zone_cap_sectors = 512;
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    WorkloadRunner runner(arr.loop.get(), &target);
    prime_target(arr.loop.get(), &target, arr.vol->zone_capacity());

    JobSpec s = rand_read_job(16, 32, arr.vol->zone_capacity());
    s.io_limit = 500;
    auto res = runner.run_merged({s});
    EXPECT_EQ(res.ios, 500u);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_GT(res.latency.p50(), 0u);
}

TEST(WkldTest, RunnerTimeLimitStops)
{
    BenchScale scale;
    scale.zones_per_device = 8;
    scale.zone_cap_sectors = 512;
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    prime_target(arr.loop.get(), &target, arr.vol->zone_capacity());
    WorkloadRunner runner(arr.loop.get(), &target);

    JobSpec s = rand_read_job(16, 16, arr.vol->zone_capacity());
    s.time_limit = 10 * kNsPerMs;
    auto res = runner.run_merged({s});
    EXPECT_GT(res.ios, 0u);
    EXPECT_GE(res.elapsed, 10 * kNsPerMs);
    EXPECT_LT(res.elapsed, 20 * kNsPerMs);
}

TEST(WkldTest, MultipleJobsAllComplete)
{
    BenchScale scale;
    scale.zones_per_device = 11; // 8 logical zones
    scale.zone_cap_sectors = 512;
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    WorkloadRunner runner(arr.loop.get(), &target);

    auto jobs = seq_jobs(RwMode::kSeqWrite, 64, 8, 8,
                         arr.vol->capacity(), arr.vol->zone_capacity());
    auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), 8u);
    for (const auto &r : results) {
        EXPECT_EQ(r.errors, 0u);
        EXPECT_GT(r.ios, 0u);
    }
}

TEST(WkldTest, SamplerBucketsByInterval)
{
    Sampler sampler(kNsPerMs);
    sampler.record(500 * kNsPerUs, 4096, 10);
    sampler.record(1500 * kNsPerUs, 4096, 10);
    sampler.record(1600 * kNsPerUs, 8192, 20);
    ASSERT_EQ(sampler.samples().size(), 2u);
    EXPECT_EQ(sampler.samples()[0].ios, 1u);
    EXPECT_EQ(sampler.samples()[1].ios, 2u);
    EXPECT_EQ(sampler.samples()[1].bytes, 12288u);
}

TEST(WkldTest, MdArrayFactoryWorks)
{
    BenchScale scale;
    scale.zones_per_device = 8;
    scale.zone_cap_sectors = 512;
    auto arr = make_mdraid_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    WorkloadRunner runner(arr.loop.get(), &target);
    JobSpec s;
    s.mode = RwMode::kRandWrite; // allowed on block devices
    s.block_sectors = 16;
    s.queue_depth = 8;
    s.io_limit = 200;
    s.region_len = arr.vol->capacity();
    auto res = runner.run_merged({s});
    EXPECT_EQ(res.errors, 0u);
    EXPECT_EQ(res.ios, 200u);
}

TEST(WkldTest, ThroughputScalesWithBlockSizeOnReads)
{
    BenchScale scale;
    auto arr = make_raizn_array(scale);
    ZonedArrayTarget target(arr.vol.get());
    prime_target(arr.loop.get(), &target, arr.vol->capacity());
    WorkloadRunner runner(arr.loop.get(), &target);

    auto tput = [&](uint32_t bs) {
        auto jobs = seq_jobs(RwMode::kSeqRead, bs, 8, 64,
                             arr.vol->capacity(),
                             arr.vol->zone_capacity());
        for (auto &j : jobs)
            j.io_limit = 2000 / 8;
        return runner.run_merged(jobs).throughput_mibs();
    };
    double small = tput(1); // 4 KiB
    double large = tput(256); // 1 MiB
    EXPECT_GT(large, small * 3)
        << "large sequential reads must be much faster";
    // Large reads approach the aggregate read bandwidth of D devices.
    EXPECT_GT(large, 4000.0);
}

} // namespace
} // namespace raizn
