/**
 * @file
 * Request-path tracing on the discrete-event clock.
 *
 * A TraceRecorder collects stage spans — user write, stripe-unit
 * fan-out, partial-parity log, full parity, metadata persistence,
 * per-device submit/complete — into a fixed-capacity ring buffer
 * (oldest events are overwritten, so a recorder attached for a whole
 * run keeps the most recent window: exactly what crash triage wants).
 *
 * Spans carry a request id so every sub-IO of one logical write can be
 * correlated, and a track id that maps to Chrome trace "threads":
 * track 0 is the logical request timeline, track 1 the metadata
 * manager, track 2+i device i. Export formats:
 *   - Chrome trace_event JSON (open in chrome://tracing or Perfetto),
 *   - a per-stage latency breakdown table (count / total / p50 / p99),
 *   - per-request span coverage (fraction of a request's wall time
 *     accounted for by its child spans).
 *
 * Tracing is purely observational: it never schedules events or
 * changes timing, so deterministic replay (src/chk) is unaffected.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/slab.h"
#include "common/status.h"
#include "common/units.h"

namespace raizn::obs {

/// Well-known track ids (Chrome trace "tid"s).
enum TraceTrack : uint32_t {
    kTrackRequest = 0,  ///< logical user-visible requests
    kTrackMetadata = 1, ///< metadata manager / parity-log appends
    kTrackDevBase = 2,  ///< device i lives on track kTrackDevBase + i
};

/// A completed span: [start, end) on the virtual clock.
struct TraceSpan {
    const char *stage = nullptr; ///< static string, e.g. "write.parity"
    uint64_t req = 0;            ///< request correlation id (0 = none)
    uint32_t track = kTrackRequest;
    Tick start = 0;
    Tick end = 0;

    Tick duration() const { return end - start; }
};

class TraceRecorder
{
  public:
    /// `capacity` bounds the ring; older spans are overwritten.
    explicit TraceRecorder(size_t capacity = 65536);

    /// Allocates a fresh request correlation id (never returns 0).
    uint64_t next_request_id() { return ++next_req_; }

    /**
     * Opens a span; returns a token to pass to end_span. Open spans
     * live in a side table, so a span that never completes (e.g. cut
     * by a crash) simply never enters the ring.
     */
    uint64_t begin_span(const char *stage, uint64_t req, uint32_t track,
                        Tick now);
    void end_span(uint64_t token, Tick now);

    /// Records an already-measured span in one call.
    void add_span(const char *stage, uint64_t req, uint32_t track,
                  Tick start, Tick end);

    /// Zero-duration marker (Chrome "instant" event).
    void instant(const char *stage, uint64_t req, uint32_t track, Tick now);

    size_t size() const;
    size_t capacity() const { return capacity_; }
    /// Completed spans evicted by ring wraparound.
    uint64_t dropped() const { return dropped_; }
    void clear();

    /// Completed spans, oldest first.
    std::vector<TraceSpan> spans() const;

    /**
     * Chrome trace_event JSON: one "X" (complete) event per span with
     * ts/dur in microseconds of virtual time, plus "M" metadata events
     * naming the tracks. `num_devices` controls how many device tracks
     * get names.
     */
    std::string to_chrome_json(uint32_t num_devices = 0) const;

    /**
     * Per-stage latency table: for each distinct stage name, count,
     * total time, and percentiles. Sorted by total time descending so
     * the dominant stage reads first.
     */
    std::string stage_breakdown() const;

    /**
     * Fraction of request `req`'s wall time covered by its other
     * spans, where wall time is the duration of the span named
     * `total_stage`. Overlapping child spans are unioned per track
     * group, then the union across the timeline is measured, so
     * concurrent device IOs aren't double-counted. Returns a value in
     * [0, 1]; 0 if the request or its total span isn't in the ring.
     */
    double request_coverage(uint64_t req, const char *total_stage) const;

    /**
     * request_coverage of the request of every `total_stage` span in
     * the ring, oldest first, from one pass that groups the spans by
     * request (calling request_coverage per request rescans the whole
     * ring each time).
     */
    std::vector<double> all_request_coverage(const char *total_stage) const;

  private:
    struct OpenSpan {
        const char *stage = nullptr;
        uint64_t req = 0;
        uint32_t track = 0;
        Tick start = 0;
    };

    void push(const TraceSpan &s);

    size_t capacity_;
    std::vector<TraceSpan> ring_;
    size_t head_ = 0;   ///< next write position once the ring is full
    bool wrapped_ = false;
    uint64_t dropped_ = 0;
    uint64_t next_req_ = 0;
    /// Open spans by token: (generation << 32 | slot) + 1, so closing
    /// one is a lookup however many are open.
    Slab<OpenSpan> open_;
};

} // namespace raizn::obs
