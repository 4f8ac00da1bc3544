#include "wkld/runner.h"

#include <cassert>
#include <memory>

#include "common/rng.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

struct JobState;

/// What every job of one run() shares. Lives on run()'s stack, which
/// outlasts every completion: run() returns once all jobs drained.
struct RunState {
    EventLoop *loop;
    Sampler *sampler;
    std::function<void(JobState &)> issue;
    size_t active;
};

/// Per-job driver: keeps queue_depth IOs outstanding until the stop
/// condition fires.
struct JobState {
    JobSpec spec;
    Rng rng;
    uint64_t next_off; ///< sequential position (sectors)
    uint64_t issued = 0;
    uint32_t outstanding = 0;
    bool stopped = false;
    bool finished = false;
    JobResult result;
    Tick start = 0;
    RunState *run = nullptr;

    JobState(const JobSpec &s, RunState *r)
        : spec(s), rng(s.seed), next_off(s.region_start), run(r)
    {
    }

    void
    finish_if_drained()
    {
        if (stopped && outstanding == 0 && !finished) {
            finished = true;
            result.elapsed = run->loop->now() - start;
            run->active--;
        }
    }
};

} // namespace

WorkloadRunner::WorkloadRunner(EventLoop *loop, IoTarget *target)
    : loop_(loop), target_(target)
{
}

std::vector<JobResult>
WorkloadRunner::run(const std::vector<JobSpec> &jobs, Sampler *sampler)
{
    PROF_SCOPE("wkld.run");
    RunState rs{loop_, sampler, nullptr, jobs.size()};
    std::vector<JobState> states;
    states.reserve(jobs.size());
    for (const JobSpec &s : jobs) {
        JobSpec spec = s;
        if (spec.region_len == 0)
            spec.region_len = target_->capacity() - spec.region_start;
        states.emplace_back(spec, &rs);
    }

    rs.issue = [this](JobState &job) {
        const JobSpec &s = job.spec;
        while (!job.stopped && job.outstanding < s.queue_depth) {
            // Stop conditions.
            if (s.io_limit && job.issued >= s.io_limit) {
                job.stopped = true;
                break;
            }
            if (s.time_limit && loop_->now() - job.start >= s.time_limit) {
                job.stopped = true;
                break;
            }
            uint64_t lba = 0;
            switch (s.mode) {
              case RwMode::kSeqWrite:
              case RwMode::kSeqRead:
                if (job.next_off + s.block_sectors >
                    s.region_start + s.region_len) {
                    job.stopped = true;
                    break;
                }
                lba = job.next_off;
                job.next_off += s.block_sectors;
                break;
              case RwMode::kRandRead:
              case RwMode::kRandWrite: {
                uint64_t slots = s.region_len / s.block_sectors;
                if (slots == 0) {
                    job.stopped = true;
                    break;
                }
                if (s.align_random) {
                    lba = s.region_start +
                        job.rng.next_below(slots) * s.block_sectors;
                } else {
                    lba = s.region_start +
                        job.rng.next_below(s.region_len -
                                           s.block_sectors + 1);
                }
                break;
              }
            }
            if (job.stopped)
                break;

            job.issued++;
            job.outstanding++;
            // Two words, so the completion fits std::function's inline
            // buffer: the rest is reached through the job.
            auto cb = [job = &job, submit = loop_->now()](IoResult r) {
                RunState &run = *job->run;
                Tick lat = run.loop->now() - submit;
                job->outstanding--;
                if (r.status.is_ok()) {
                    const uint64_t bytes =
                        static_cast<uint64_t>(job->spec.block_sectors) *
                        kSectorSize;
                    job->result.ios++;
                    job->result.bytes += bytes;
                    job->result.latency.add(lat);
                    if (run.sampler)
                        run.sampler->record(run.loop->now(), bytes, lat);
                } else {
                    job->result.errors++;
                }
                run.issue(*job);
                job->finish_if_drained();
            };
            bool is_write = s.mode == RwMode::kSeqWrite ||
                s.mode == RwMode::kRandWrite;
            if (is_write)
                target_->write(lba, s.block_sectors, cb);
            else
                target_->read(lba, s.block_sectors, cb);
        }
        job.finish_if_drained();
    };

    for (JobState &job : states) {
        job.start = loop_->now();
        rs.issue(job);
    }
    loop_->run_until_pred([&] { return rs.active == 0; });

    std::vector<JobResult> out;
    out.reserve(states.size());
    for (JobState &job : states)
        out.push_back(std::move(job.result));
    return out;
}

JobResult
WorkloadRunner::run_merged(const std::vector<JobSpec> &jobs,
                           Sampler *sampler)
{
    return merge_results(run(jobs, sampler));
}

std::vector<JobSpec>
seq_jobs(RwMode mode, uint32_t block_sectors, uint32_t njobs, uint32_t qd,
         uint64_t capacity, uint64_t region_align)
{
    std::vector<JobSpec> out;
    if (region_align == 0)
        region_align = block_sectors;
    uint64_t per_job = capacity / njobs;
    // Align regions (zone capacity for zoned write targets).
    per_job = per_job / region_align * region_align;
    per_job = per_job / block_sectors * block_sectors;
    for (uint32_t j = 0; j < njobs; ++j) {
        JobSpec s;
        s.mode = mode;
        s.block_sectors = block_sectors;
        s.queue_depth = qd;
        s.region_start = static_cast<uint64_t>(j) * per_job;
        s.region_len = per_job;
        s.seed = 1000 + j;
        out.push_back(s);
    }
    return out;
}

JobSpec
rand_read_job(uint32_t block_sectors, uint32_t qd, uint64_t capacity,
              uint64_t seed)
{
    JobSpec s;
    s.mode = RwMode::kRandRead;
    s.block_sectors = block_sectors;
    s.queue_depth = qd;
    s.region_start = 0;
    s.region_len = capacity;
    s.seed = seed;
    return s;
}

} // namespace raizn
