/**
 * @file
 * Host-side scoped profiler: deterministic, always compiled, zero cost
 * when disabled.
 *
 * The simulator's other observability layers (metrics, trace, timeline)
 * run on the *virtual* clock and explain what the simulated array did.
 * This layer answers the complementary question — where the simulator
 * process itself spends wall time — so optimisation work (SIMD parity,
 * zero-copy buffers, parallel simulation) starts from a measured
 * baseline instead of a guess.
 *
 * Usage:
 *
 *     void RaiznVolume::process_write(...) {
 *         PROF_SCOPE("raizn.write");
 *         ...
 *     }
 *
 * Each PROF_SCOPE names a call site. While the profiler is enabled
 * (prof::enable()), every scope entry/exit records dual-clock timing —
 * host std::chrono::steady_clock nanoseconds and virtual EventLoop
 * nanoseconds — into a call tree keyed by (parent node, site), giving
 * both per-site aggregates (hits, self/total on both clocks) and a
 * collapsed-stack flamegraph (`folded()`) consumable by flamegraph.pl
 * or speedscope.
 *
 * When disabled (the default), a PROF_SCOPE costs one predictable
 * branch on a global bool; no clock is read and no memory is touched.
 * A handful of unconditional counters (events dispatched, hot-path
 * allocations, memcpy bytes) are plain increments and stay live even
 * when timing is off so benches can always report them.
 *
 * Single-threaded by design: the profiler shares the simulator's
 * single-threaded discipline and takes no locks. All state is global
 * because the process hosts exactly one simulation at a time.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace raizn {
namespace prof {

/**
 * One named call site (or event-loop callback tag). Sites live forever
 * once interned; aggregates are cleared by reset(). `queue_wait_ns` is
 * host time between schedule and dispatch, attributed by the event
 * loop to the callback's tag site.
 */
struct Site {
    std::string name;
    uint64_t hits = 0;
    uint64_t host_total_ns = 0;
    uint64_t host_self_ns = 0;
    uint64_t virt_total_ns = 0;
    uint64_t virt_self_ns = 0;
    uint64_t queue_wait_ns = 0;
};

/// Master switch. Read inline by every PROF_SCOPE; flipped only by
/// enable()/disable().
extern bool g_enabled;

/// Virtual clock mirror: the EventLoop stores now() here before each
/// dispatch so scopes can stamp virtual time without a dependency on
/// the sim layer (prof sits *below* raizn_sim).
extern uint64_t g_virtual_now;

/// Unconditional hot-path counters (plain increments, never gated).
extern uint64_t g_events_dispatched;
extern uint64_t g_alloc_count;
extern uint64_t g_alloc_bytes;
extern uint64_t g_copy_count;
extern uint64_t g_copy_bytes;

inline bool enabled() { return g_enabled; }
inline void set_virtual_now(uint64_t t) { g_virtual_now = t; }
inline void count_event() { g_events_dispatched++; }

/// Records a hot-path buffer allocation of `bytes` bytes.
inline void
count_alloc(uint64_t bytes)
{
    g_alloc_count++;
    g_alloc_bytes += bytes;
}

/// Records a hot-path memcpy/assign of `bytes` bytes.
inline void
count_copy(uint64_t bytes)
{
    g_copy_count++;
    g_copy_bytes += bytes;
}

/// Host monotonic clock in ns (steady_clock).
uint64_t host_now_ns();

/**
 * Returns the unique Site for `name`, creating it on first use. Sites
 * are identified by string content; the returned pointer is stable for
 * the life of the process. PROF_SCOPE caches the result in a
 * function-local static so interning happens once per call site.
 */
Site *intern_site(const char *name);

/**
 * Site for an event-loop callback tag: interned as "sim.cb.<tag>"
 * ("sim.cb.untagged" for nullptr). Keyed by pointer identity — tags
 * must be string literals (or otherwise immortal) — so the per-dispatch
 * lookup is a pointer-hash, not a string hash.
 */
Site *event_site(const char *tag);

/// Adds host-clock queue wait (schedule -> dispatch) to a tag site.
inline void
add_queue_wait(Site *s, uint64_t host_ns)
{
    s->queue_wait_ns += host_ns;
}

/**
 * Starts a measurement window: clears the call tree and all site
 * aggregates, snapshots the unconditional counters, and turns scope
 * recording on. Must not be called with scopes live.
 */
void enable();

/// Ends the measurement window (idempotent). Scope objects already on
/// the stack finish recording normally.
void disable();

/// Clears the call tree, site aggregates, and window state. Sites
/// themselves (the name registry) persist.
void reset();

/// Host ns covered by the last enable()..disable() window (live value
/// while enabled). 0 before the first enable().
uint64_t wall_ns();

/**
 * Fraction of the measurement window attributed to top-level scopes:
 * sum of root-node host totals / wall_ns(). The fig8 instrumented pass
 * asserts this >= 0.95.
 */
double coverage();

/// Events dispatched / allocations / bytes during the current (or
/// last) measurement window — deltas of the unconditional counters.
struct WindowCounters {
    uint64_t events_dispatched = 0;
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
    uint64_t copy_count = 0;
    uint64_t copy_bytes = 0;
};
WindowCounters window_counters();

/// Events per second of host time over the measurement window.
double events_per_sec();

/**
 * Collapsed-stack flamegraph ("folded") export: one line per call-tree
 * path, `root;child;leaf <host_self_ns>`, lexicographically sorted so
 * the output is stable across runs with identical call structure.
 */
std::string folded();

/**
 * JSON summary: window wall/coverage/events-per-sec, window counters,
 * and per-site aggregate rows sorted by host self time (descending,
 * name as tie-break).
 */
std::string summary_json();

/// Human-readable top-N sites by host self time.
std::string table(size_t top_n);

/// Writes `text` to `path` (the obs layer's one file writer).
Status write_file(const std::string &path, const std::string &text);

/**
 * RAII scope. Constructing with the profiler disabled is a single
 * branch; enabled, entry/exit each read both clocks and update the
 * call tree. Scopes must strictly nest (automatic with RAII).
 */
class Scope
{
  public:
    explicit Scope(Site *site)
    {
        if (g_enabled)
            enter(site);
    }
    ~Scope()
    {
        if (active_)
            leave();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    void enter(Site *site);
    void leave();
    bool active_ = false;
};

} // namespace prof
} // namespace raizn

#define RAIZN_PROF_CONCAT2(a, b) a##b
#define RAIZN_PROF_CONCAT(a, b) RAIZN_PROF_CONCAT2(a, b)

/**
 * Names the enclosing block as a profiler scope. `name` must be a
 * string literal like "subsystem.op"; the site is interned once per
 * call site into a function-local static.
 */
#define PROF_SCOPE(name)                                                     \
    static ::raizn::prof::Site *RAIZN_PROF_CONCAT(prof_site_, __LINE__) =    \
        ::raizn::prof::intern_site(name);                                    \
    ::raizn::prof::Scope RAIZN_PROF_CONCAT(prof_scope_, __LINE__)(           \
        RAIZN_PROF_CONCAT(prof_site_, __LINE__))
