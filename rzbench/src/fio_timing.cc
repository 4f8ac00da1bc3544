/**
 * @file
 * fio_timing: the paper's §6.1 fio path with no application layer and
 * no payload bytes. WorkloadRunner drives RAIZN over timing-only ZNS
 * members (DataMode::kNone): 64 KiB sequential writes (8 zone-aligned
 * jobs at QD64), 4 KiB random reads at QD256 over the written range
 * (32 epochs of 10000), the same reads with member 0 failed, then an
 * unthrottled rebuild of the replaced member. Host time here is RAIZN's
 * stripe buffer, pp-log and parity path plus the event loop and the ZNS
 * timing model; it is the only workload that runs reconstruct-heavy
 * reads at depth.
 */
#include "common.h"
#include "common/rng.h"
#include "wkld/runner.h"
#include "workloads.h"

namespace rzbench {

using namespace raizn;

namespace {

constexpr uint32_t kJobs = 8;
constexpr uint32_t kWriteSectors = 16; // 64 KiB
constexpr uint32_t kWriteQd = 64;
constexpr uint32_t kReadQdPerJob = 32; // 8 jobs -> QD256
constexpr uint64_t kReadsPerJob = 1250; // per epoch
// Each read phase is this many independent fio runs with fresh seeds,
// and the read tail is the mean of the epochs' tails: a closed loop on
// deterministic devices drifts, over tens of thousands of reads, into
// queueing patterns whose p99.9 differs by up to 40 %, so the tail of
// one long run (or of the pooled epochs, which is the worst few epochs'
// tail) is a lottery.
constexpr int kReadEpochs = 32;
constexpr uint64_t kVerifyReadsPerJob = 500;

void
run_phase(WorkloadRunner &runner, const std::vector<JobSpec> &jobs,
          OpClass *c)
{
    uint64_t t0 = cpu_ns();
    JobResult jr = runner.run_merged(jobs);
    c->host_ns += cpu_ns() - t0;
    c->n += jr.ios;
    c->errors += jr.errors;
    c->virt_ns += jr.elapsed;
    c->lat.merge(jr.latency);
    c->end_phase();
}

std::vector<JobSpec>
read_jobs(const std::vector<JobSpec> &writes, uint64_t per_job, Rng &rng)
{
    std::vector<JobSpec> out;
    for (const JobSpec &w : writes) {
        JobSpec s;
        s.mode = RwMode::kRandRead;
        s.block_sectors = 1;
        s.queue_depth = kReadQdPerJob;
        s.region_start = w.region_start;
        s.region_len = w.region_len;
        s.io_limit = per_job;
        s.seed = rng.next();
        out.push_back(s);
    }
    return out;
}

} // namespace

RepResult
run_fio_timing(const Options &o)
{
    RepResult r;
    r.calibrate();
    BenchScale scale; // 5 members x 24 zones x 32 MiB, 64 KiB stripe units
    scale.data_mode = DataMode::kNone;
    uint64_t t0 = cpu_ns();
    Stack s = build_stack(scale, o.traced);
    r.setup_s = static_cast<double>(cpu_ns() - t0) * 1e-9;
    RaiznVolume *vol = s.vol();

    // Inputs. Each job owns an equal run of whole logical zones and
    // fills a seed-chosen 90-100% of it; reads stay inside what was
    // written, spread evenly over the jobs' ranges.
    Rng rng(o.seed);
    const uint64_t stride =
        vol->zone_capacity() * (vol->num_zones() / kJobs);
    std::vector<JobSpec> writes;
    for (uint32_t j = 0; j < kJobs; ++j) {
        double fill = o.scale * (0.9 + 0.1 * rng.next_double());
        uint64_t len = static_cast<uint64_t>(
            static_cast<double>(stride) * fill);
        len = std::max<uint64_t>(len / kWriteSectors, 1) * kWriteSectors;
        JobSpec w;
        w.mode = RwMode::kSeqWrite;
        w.block_sectors = kWriteSectors;
        w.queue_depth = kWriteQd;
        w.region_start = j * stride;
        w.region_len = len;
        w.seed = j + 1;
        writes.push_back(w);
        r.inputs_digest = mix(r.inputs_digest, len);
    }
    const uint64_t reads_per_job = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(kReadsPerJob) * o.scale),
        kReadQdPerJob);
    std::vector<std::vector<JobSpec>> reads;
    for (int e = 0; e < kReadEpochs; ++e) {
        reads.push_back(read_jobs(writes, reads_per_job, rng));
        for (const JobSpec &j : reads.back())
            r.inputs_digest = mix(r.inputs_digest, j.seed);
    }
    std::vector<JobSpec> verify = read_jobs(writes, kVerifyReadsPerJob, rng);

    ZonedArrayTarget base(vol);
    TimedTarget timed(&base);
    WorkloadRunner runner(s.loop(),
                          o.traced ? static_cast<IoTarget *>(&timed) : &base);
    LayerTrace trace(&s);
    if (o.traced)
        trace.begin();
    uint64_t h0 = cpu_ns();

    uint64_t dev0 = s.member_bytes_written();
    run_phase(runner, writes, &r.write);
    r.dev_bytes_written = s.member_bytes_written() - dev0;
    r.user_bytes = r.write.n * kWriteSectors * kSectorSize;

    for (const auto &epoch : reads)
        run_phase(runner, epoch, &r.read);

    uint64_t recon0 = vol->stats().reconstructed_sectors;
    vol->mark_device_failed(0);
    for (const auto &epoch : reads)
        run_phase(runner, epoch, &r.degraded);
    bool reconstructed = vol->stats().reconstructed_sectors > recon0;

    if (o.traced)
        trace.mark_rebuild();
    Status rb = s.rebuild_member0(&r.ttr_ns);
    r.host_s = static_cast<double>(cpu_ns() - h0) * 1e-9;
    if (o.traced)
        trace.end();
    r.calibrate();

    OpClass after;
    run_phase(runner, verify, &after);

    uint64_t expect_writes = 0;
    for (const JobSpec &w : writes)
        expect_writes += w.region_len / kWriteSectors;
    const uint64_t expect_reads = reads_per_job * kJobs * kReadEpochs;
    r.check("fio.writes_ok",
            r.write.errors == 0 && r.write.n == expect_writes);
    r.check("fio.reads_ok", r.read.errors == 0 && r.read.n == expect_reads);
    r.check("fio.degraded_reads_ok", r.degraded.errors == 0 &&
                                         r.degraded.n == expect_reads &&
                                         reconstructed);
    r.check("fio.rebuild_ok", rb.is_ok() && vol->failed_device() < 0);
    r.check("fio.post_rebuild_reads_ok",
            after.errors == 0 && after.n == kVerifyReadsPerJob * kJobs);

    r.attempted = expect_writes + 2 * expect_reads + 1 +
        kVerifyReadsPerJob * kJobs;
    r.failed = r.write.errors + r.read.errors + r.degraded.errors +
        after.errors + (rb.is_ok() ? 0 : 1);

    if (o.traced) {
        LayerTrace::Ops ops;
        ops.ops = r.write.n + r.read.n + r.degraded.n;
        ops.ios = ops.ops;
        ops.user_bytes = r.user_bytes;
        trace.report(ops, &r);
    }
    return r;
}

} // namespace rzbench
