/**
 * @file
 * One observability session: everything a run records, in one object.
 *
 * A Session owns a MetricsRegistry, a TraceRecorder, an IoLedger
 * linked into that registry, the Timeline of the event loop it watches
 * and a host-profiler window. One call wires an array into all of it:
 *
 *     obs::Session s;                  // bench shape: 100 ms rows
 *     s.start();                       // profiler window
 *     arr->attach(&s);                 // stats, spans, ledger, gauges
 *     ... run ...
 *     s.close();                       // snapshot every artifact
 *     arr.reset();                     // arrays may now die
 *     s.write("out/raizn");            // files + manifest.json
 *
 * close() flushes the timeline's last partial interval, ends the
 * profiler window and renders the registry, ledger and timeline to
 * text, so nothing written later reads a dead array. write(dir) emits
 * metrics.json, then trace.json, timeline.csv and ledger.json once an
 * array attached, prof.json and flame.folded once started, and a
 * manifest.json listing them; an empty dir writes nothing.
 *
 * The timeline fixes its columns when it starts: at start() or at the
 * first attach, whichever comes last, so metrics linked into the
 * registry afterwards are not sampled. The profiler is process-wide.
 * A session opens the window at start() unless one is already open; a
 * session nested in another's window (chk's per-crash-point bundles
 * inside a whole-run session) snapshots the enclosing window
 * cumulatively and leaves it open. A session never started records
 * no timeline rows and no profile.
 *
 * Purely observational, like its parts: no recorder schedules events
 * or changes timing, so replay hashes and virtual-clock results are
 * the same with or without a session.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace raizn {
class EventLoop;
} // namespace raizn

namespace raizn::obs {

/// Timeline shape of a bench run: 100 ms rows, and a ring that keeps
/// every row any bench produces.
inline constexpr TimelineConfig kBenchTimeline{100 * kNsPerMs, 1 << 16};

/// Span coverage of one request kind (TraceRecorder::request_coverage
/// over every traced request): worst case, mean and sample count.
struct SpanCoverage {
    double min = 0;
    double mean = 0;
    size_t n = 0;
};

class Session
{
  public:
    explicit Session(TimelineConfig tl = kBenchTimeline);
    ~Session();
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    MetricsRegistry &registry() { return registry_; }
    TraceRecorder &trace() { return trace_; }
    IoLedger &ledger() { return ledger_; }
    /// The watched loop's timeline; null until an array attaches.
    Timeline *timeline() { return timeline_.get(); }

    /**
     * Watches `loop` (ZonedArray::attach calls this): the first call
     * creates the timeline, with the ledger's gauge probe on it;
     * `install` adds the caller's probes, and a started session then
     * starts the timeline. `num_devices` names the device tracks in
     * trace.json. Every array of one session runs on the same loop.
     */
    void watch(EventLoop *loop, uint32_t num_devices,
               const std::function<void(Timeline *)> &install);
    /// Drops the timeline probes `owner` registered (array detach).
    void forget(const void *owner);

    /// Opens the profiler window unless one is open, and starts the
    /// timeline if an array is attached.
    void start();

    /// Snapshots every artifact; idempotent. Call before attached
    /// arrays die.
    void close();

    // ---- Read-outs of a closed session -----------------------------
    /// The ledger's conservation audit at close().
    const LedgerAudit &audit() const { return audit_; }
    /// Share of the profiler window in named scopes at close().
    double prof_coverage() const { return prof_coverage_; }
    /// Header plus the top-10 scopes by self time ("" if never
    /// started).
    const std::string &prof_table() const { return prof_table_; }

    /// Span coverage of every traced `total_stage` request.
    SpanCoverage span_coverage(const char *total_stage) const;

    /**
     * Writes the artifacts and manifest.json into `dir` (created with
     * its parents); an empty `dir` writes nothing. Closes the session
     * first if needed.
     */
    Status write(const std::string &dir);

  private:
    MetricsRegistry registry_;
    TraceRecorder trace_;
    IoLedger ledger_;
    TimelineConfig tl_cfg_;
    std::unique_ptr<Timeline> timeline_;
    EventLoop *loop_ = nullptr;
    uint32_t num_devices_ = 0;
    bool started_ = false;
    bool owns_prof_ = false;
    bool closed_ = false;

    // Snapshots taken by close().
    std::string metrics_json_;
    std::string ledger_json_;
    std::string timeline_csv_;
    std::string prof_json_;
    std::string prof_folded_;
    std::string prof_table_;
    double prof_coverage_ = 0;
    LedgerAudit audit_;
};

} // namespace raizn::obs
