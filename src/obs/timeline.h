/**
 * @file
 * Time-series telemetry on the virtual clock.
 *
 * A Timeline periodically snapshots every metric in a MetricsRegistry
 * into ring-buffered rows: gauges sample as-is, counters additionally
 * derive a per-second rate over the interval, and latency metrics
 * report *windowed* percentiles (p50/p99 of the samples recorded during
 * the interval, via Histogram::delta against the previous snapshot)
 * instead of cumulative-only numbers. This is what turns end-of-run
 * aggregates into the mid-run story the paper's figures tell: Fig. 10's
 * GC throughput collapse and Fig. 12's rebuild interference are both
 * visible only as time series.
 *
 * Sampling is lazy and purely observational: the Timeline installs an
 * EventLoop probe and emits a row whenever dispatched events cross an
 * interval boundary. It never schedules events, so it cannot keep the
 * loop alive, perturb deterministic replay, or change any completion
 * time. The cost is that a row is stamped at the boundary but read at
 * the first event at-or-after it; in a discrete-event simulation the
 * gap is one event's spacing. Callers flush the final partial interval
 * with sample_now() before exporting.
 *
 * Registered probes run immediately before each row is read — this is
 * where point-in-time gauges (queue depth, FTL free blocks, zone
 * census, stripe-buffer backlog) get refreshed.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace raizn {
class EventLoop;
} // namespace raizn

namespace raizn::obs {

class AnomalyDetector;

struct TimelineConfig {
    Tick interval = 100 * kNsPerMs; ///< sampling period (virtual time)
    size_t capacity = 4096; ///< ring capacity in rows; older rows drop
};

/// One sample: the values of every column at virtual time `t`.
struct TimelineRow {
    Tick t = 0;
    uint64_t host_ns = 0; ///< host steady-clock ns since start()
    std::vector<double> values; ///< parallel to Timeline::columns()
};

class Timeline
{
  public:
    /// A gauge-refresh hook, run before each sample is read.
    using ProbeFn = std::function<void()>;

    Timeline(EventLoop *loop, MetricsRegistry *reg,
             TimelineConfig cfg = {});
    ~Timeline();
    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    /// `owner` tags the probe for remove_probes (a detaching array).
    void
    add_probe(ProbeFn probe, const void *owner = nullptr)
    {
        probes_.push_back({owner, std::move(probe)});
    }
    void remove_probes(const void *owner);

    /// Attaches an anomaly detector fed each row as it is recorded.
    /// Non-owning; pass nullptr to detach.
    void set_detector(AnomalyDetector *det) { detector_ = det; }

    /**
     * Fixes the column set from the registry's current contents, links
     * the event loop's own scheduling stats ("sim.*" counters,
     * "sim.sched_delay_ns", a "sim.pending" in-flight gauge), and arms
     * the sampler. Metrics registered after start() are not sampled.
     */
    void start();

    /// Disarms the sampler (rows already recorded are kept).
    void stop();
    bool running() const { return running_; }

    /**
     * Records a row at loop->now() regardless of the interval boundary
     * (no-op if no time passed since the last row). Benches call this
     * once after the workload drains so the final partial interval is
     * not lost.
     */
    void sample_now();

    const TimelineConfig &config() const { return cfg_; }
    /// Column names, fixed at start(). Counters contribute "<name>"
    /// and "<name>.rate"; latency metrics "<name>.win_n",
    /// "<name>.win_p50_ns", "<name>.win_p99_ns"; gauges "<name>".
    const std::vector<std::string> &columns() const { return columns_; }
    /// Recorded rows, oldest first.
    const std::deque<TimelineRow> &rows() const { return rows_; }
    size_t size() const { return rows_.size(); }
    /// Rows evicted by ring wraparound.
    uint64_t dropped() const { return dropped_; }

    /// Index of a column by exact name, or -1.
    int column_index(const std::string &name) const;
    /// Values of one column across all recorded rows.
    std::vector<double> series(const std::string &name) const;

    /// CSV: "t_s,host_ns,<col>,..." header then one row per sample.
    std::string to_csv() const;

    /// JSON: {"interval_ns":..., "columns":[...],
    /// "rows":[[t_ns,host_ns,...]]}.
    std::string to_json() const;

  private:
    /// Per-registry-metric sampling plan entry.
    struct Source {
        std::string name;
        MetricSample::Kind kind = MetricSample::Kind::kCounter;
        double prev_value = 0; ///< counters: value at the last row
        Histogram prev_hist; ///< latency: snapshot at the last row
    };

    void on_event(Tick now);
    void take_sample(Tick t);

    EventLoop *loop_;
    MetricsRegistry *reg_;
    TimelineConfig cfg_;
    std::vector<std::pair<const void *, ProbeFn>> probes_;
    AnomalyDetector *detector_ = nullptr;

    bool running_ = false;
    Tick next_due_ = 0;
    Tick last_t_ = 0; ///< time of the previous row (rate denominator)
    uint64_t host_start_ns_ = 0; ///< host clock at start()
    std::vector<Source> sources_;
    std::vector<std::string> columns_;
    std::deque<TimelineRow> rows_;
    uint64_t dropped_ = 0;
    Gauge *pending_gauge_ = nullptr; ///< "sim.pending"
};

} // namespace raizn::obs
