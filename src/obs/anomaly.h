/**
 * @file
 * SLO / anomaly detection over Timeline rows.
 *
 * Three rule families, each naming the column(s) it watches:
 *
 *  - Throughput collapse: an EWMA of the watched series establishes
 *    the "normal" level; a sample below collapse_frac x EWMA trips a
 *    `throughput_collapse` event. While tripped the EWMA is frozen (a
 *    sustained collapse must not become the new normal); recovery
 *    above recover_frac x EWMA emits `throughput_recovered` and
 *    resumes tracking. This is how Fig. 10's OP-exhaustion collapse is
 *    detected rather than eyeballed.
 *
 *  - Latency burn: the watched series (typically a windowed p99
 *    column) exceeding a budget for `consecutive` samples in a row
 *    emits `latency_burn` — once per episode, re-arming when the
 *    series drops back under budget.
 *
 *  - Stall: a progress series (a rate column) at zero while an
 *    in-flight gauge is non-zero for `consecutive` samples emits
 *    `stall` — work is queued but nothing completes.
 *
 * Events are structured (type, triggering series, virtual timestamp,
 * observed value, reference level) and exportable as JSON, so benches
 * and CI can assert on them instead of parsing stdout.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace raizn::obs {

struct AnomalyEvent {
    enum class Type {
        kThroughputCollapse,
        kThroughputRecovered,
        kLatencyBurn,
        kStall,
    };
    Type type = Type::kThroughputCollapse;
    std::string series; ///< triggering column
    Tick t = 0; ///< virtual time of the triggering row
    double value = 0; ///< observed value at the trigger
    double reference = 0; ///< EWMA / budget the value was judged against

    static const char *type_name(Type t);
    std::string to_string() const;
};

/// EWMA throughput-collapse detection on one column.
struct CollapseRule {
    std::string series; ///< e.g. "mdraid.sectors_written.rate"
    double ewma_alpha = 0.3; ///< weight of the newest sample
    double collapse_frac = 0.5; ///< trip below this fraction of EWMA
    double recover_frac = 0.8; ///< re-arm above this fraction of EWMA
    uint32_t warmup_samples = 5; ///< rows to absorb before judging
    double min_reference = 0; ///< never trip while EWMA is below this
};

/// Latency budget on one column (typically a windowed p99).
struct LatencyBurnRule {
    std::string series; ///< e.g. "raizn.write.total_ns.win_p99_ns"
    double budget_ns = 0;
    uint32_t consecutive = 3; ///< samples over budget before tripping
};

/// No-progress detection: rate pinned at zero with work in flight.
struct StallRule {
    std::string progress_series; ///< e.g. "raizn.sectors_written.rate"
    std::string inflight_series; ///< e.g. "sim.pending"
    uint32_t consecutive = 5;
};

struct AnomalyConfig {
    std::vector<CollapseRule> collapse;
    std::vector<LatencyBurnRule> latency_burn;
    std::vector<StallRule> stall;
    size_t max_events = 1024; ///< hard cap; later events are dropped
};

class AnomalyDetector
{
  public:
    explicit AnomalyDetector(AnomalyConfig cfg);

    /**
     * Feeds one timeline row. `columns` must be the row's column-name
     * vector (stable across calls — rule series resolve to indices on
     * first use). Called by Timeline when attached via set_detector;
     * tests may call it directly with synthetic rows.
     */
    void observe(const std::vector<std::string> &columns, Tick t,
                 const std::vector<double> &values);

    const std::vector<AnomalyEvent> &events() const { return events_; }
    size_t count(AnomalyEvent::Type type) const;
    /// First event of `type`, or nullptr.
    const AnomalyEvent *first(AnomalyEvent::Type type) const;

    /// One line per event, in detection order.
    std::string dump() const;
    /// {"events": [{type, series, t_ns, value, reference}, ...]}.
    std::string to_json() const;

  private:
    static constexpr int kUnresolved = -2;
    static constexpr int kMissing = -1;

    struct CollapseState {
        int col = kUnresolved;
        double ewma = 0;
        uint32_t n = 0;
        bool tripped = false;
    };
    struct BurnState {
        int col = kUnresolved;
        uint32_t streak = 0;
        bool tripped = false;
    };
    struct StallState {
        int progress_col = kUnresolved;
        int inflight_col = kUnresolved;
        uint32_t streak = 0;
        bool tripped = false;
    };

    static int resolve(const std::vector<std::string> &columns,
                       const std::string &name);
    void emit(AnomalyEvent::Type type, const std::string &series, Tick t,
              double value, double reference);

    AnomalyConfig cfg_;
    std::vector<CollapseState> collapse_;
    std::vector<BurnState> burn_;
    std::vector<StallState> stall_;
    std::vector<AnomalyEvent> events_;
};

} // namespace raizn::obs
