/**
 * @file
 * Pieces shared by the three workloads: the array/env/Db stack built
 * through the public factories, per-op accumulators, the per-rep
 * record printed as one JSON line, and the traced-run window snapshots
 * the per-layer metrics are computed from.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "env/zoned_env.h"
#include "kv/db.h"
#include "layers.h"
#include "obs/metrics.h"
#include "wkld/setup.h"

namespace rzbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double scale = 1.0; ///< multiplies every op count (the self-test runs small)
    bool traced = false;
};

/// One class of logical op (writes, reads, or degraded reads).
struct OpClass {
    uint64_t n = 0;
    uint64_t errors = 0;
    uint64_t host_ns = 0; ///< host time spent issuing these ops
    /// Virtual time the ops took: the phase span for the queue-depth
    /// fio phases, the summed latency for closed-loop single-client ops.
    raizn::Tick virt_ns = 0;
    raizn::Histogram lat; ///< virtual latency per op
    /// Tail of each separately run phase (tail_quantile of its own
    /// count). When set, the reported tail is their mean rather than
    /// the tail of the pooled `lat`.
    std::vector<double> phase_tail_ns;

    /// Closes a phase: records the tail of the samples added to `lat`
    /// since the previous call.
    void end_phase();
};

/// Everything one rep reports; rendered by to_json().
struct RepResult {
    double setup_s = 0;
    double host_s = 0;
    OpClass write, read, degraded;
    raizn::Tick ttr_ns = 0;
    uint64_t dev_bytes_written = 0; ///< member bytes during the writes
    uint64_t user_bytes = 0; ///< bytes the workload asked to store
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t inputs_digest = 0;
    std::vector<uint64_t> calib_ns; ///< reference-loop CPU times
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::pair<std::string, double>> layers; ///< traced only
    std::vector<std::pair<std::string, double>> self_s; ///< traced only

    void check(const std::string &name, bool ok) { checks.emplace_back(name, ok); }
    /// Times the calibration loop twice; call outside the host_s window.
    void calibrate();
};

std::string to_json(const Options &o, const RepResult &r);

/// Folds `v` into a running input digest (FNV-1a over the 8 bytes).
uint64_t mix(uint64_t h, uint64_t v);

/**
 * The system under test: a 5-member RAIZN array, and for the KV
 * workloads a ZonedEnv and Db on top. Traced reps put every member
 * behind a TimedDevice and the env behind a TimedEnv.
 */
struct Stack {
    // Declared first so they are destroyed after the volume using them.
    std::vector<std::unique_ptr<TimedDevice>> timed;
    raizn::RaiznArray arr;
    std::unique_ptr<raizn::ZonedEnv> zenv;
    std::unique_ptr<TimedEnv> tenv;
    std::unique_ptr<raizn::Db> db;

    raizn::EventLoop *loop() const { return arr.loop.get(); }
    raizn::RaiznVolume *vol() const { return arr.vol.get(); }
    bool traced() const { return !timed.empty(); }

    /// Opens a ZonedEnv (wrapped when traced) and a Db over it.
    raizn::Status open_db(const raizn::DbOptions &opt);
    /// Replaces member 0 and rebuilds it unthrottled.
    raizn::Status rebuild_member0(raizn::Tick *ttr);
    /// Bytes written by all members so far (DeviceStats).
    uint64_t member_bytes_written() const;
};

Stack build_stack(const raizn::BenchScale &scale, bool traced);

/**
 * Traced-run bookkeeping: snapshots at the start of the op phases
 * (S0), before the rebuild (S1) and after it (S2). Per-op metrics use
 * the op window S0..S1; conservation covers S0..S2.
 */
class LayerTrace
{
  public:
    /// What the workload counts as one op, and its user bytes.
    struct Ops {
        uint64_t ops = 0; ///< logical ops in S0..S1
        uint64_t ios = 0; ///< fio I/Os (wkld metric), else 0
        uint64_t txns = 0; ///< OLTP transactions, else 0
        uint64_t kv_puts = 0; ///< bench-issued Db puts (kv metric)
        uint64_t kv_gets = 0;
        uint64_t user_bytes = 0; ///< bytes asked to store in S0..S1
    };

    explicit LayerTrace(Stack *s) : s_(s) {}
    void begin();
    void mark_rebuild();
    void end();
    /// Per-layer metrics and conservation checks into `r`.
    void report(const Ops &ops, RepResult *r) const;

  private:
    struct Snap;
    Snap take() const;

    Stack *s_;
    Tracer tracer_;
    std::unique_ptr<raizn::obs::MetricsRegistry> reg_;
    std::vector<std::shared_ptr<Snap>> snaps_;
};

/// Virtual latency tail: the highest of p90 / p99 / p99.9 / p99.99
/// with at least ten samples beyond it (p50 below 100 samples).
double tail_quantile(uint64_t n);

/// Reported tail of `c`: the mean of its phase tails, or the tail of
/// its pooled histogram when it was not run in phases.
double tail_ns(const OpClass &c);

} // namespace rzbench
