/**
 * @file
 * Bounded retry with exponential backoff and an I/O deadline watchdog
 * for per-device commands. Sits between a volume and its member
 * devices: transient errors (kIoError, kBusy) are retried on an
 * EventLoop timer with exponentially growing backoff; commands that
 * outlive the deadline are counted as timeouts, their eventual (stale)
 * completion is dropped, and the command is retried; a command that
 * exhausts its budget is reported to the HealthMonitor as a failed
 * operation and errors out to the caller.
 *
 * Zoned writes need more care than idempotent commands: a failed write
 * may have partially landed (torn write), and sibling sub-IOs retried
 * out of order surface kWritePointerMismatch. Retry therefore probes
 * the zone's write pointer (synchronous admin path) and acts on it:
 *   wp >= end           the payload already landed — synthesize
 *                       success (after an explicit flush if the
 *                       original command was FUA, so durability is
 *                       never claimed spuriously)
 *   slba < wp < end     resubmit only the missing tail
 *   wp == slba          resubmit the whole command
 *   wp < slba           an earlier sub-IO has not landed yet — wait a
 *                       backoff period and probe again, without
 *                       consuming transient-retry budget
 * kWritePointerMismatch likewise routes to the probe without spending
 * the transient budget (it is self-inflicted ordering, not a device
 * fault); the overall attempt cap still bounds the loop.
 *
 * Op state lives in a slab slot, and every closure the retrier hands
 * out (completion, watchdog, backoff) captures (this, slot, generation).
 * The slot's generation is bumped by every attempt and by the final
 * outcome: a completion or watchdog whose generation is not current is
 * superseded and dropped, and a backoff or probe timer runs only while
 * its op still holds the slot, so nothing stale touches a reused slot.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/slab.h"
#include "zns/block_device.h"

namespace raizn {

class EventLoop;
class HealthMonitor;

struct RetryPolicy {
    bool enabled = true;
    uint32_t max_transient_retries = 3; ///< retries after first attempt
    uint32_t attempt_cap = 16; ///< hard bound incl. wp-probe reissues
    Tick backoff_base = 50 * kNsPerUs;
    uint32_t backoff_mult = 4; ///< backoff = base * mult^(n-1) + jitter
    /// Watchdog deadline per attempt. 0 (the default) disables the
    /// watchdog: completion time includes device queueing, so a
    /// deadline is only meaningful for bounded-queue-depth workloads.
    /// When enabled it must exceed the slowest command at the expected
    /// queue depth (zone reset alone is 2ms).
    Tick io_deadline = 0;
    uint64_t jitter_seed = 0x7e717e5ULL;
};

class IoRetrier
{
  public:
    /**
     * `health` may be null. `retry_counter` / `timeout_counter` are
     * owner-provided stat cells (e.g. &VolumeStats::io_retries),
     * incremented per retry / per watchdog expiration; may be null.
     * `slots` is the owner's device-per-slot table: a command's
     * outcome counts as health evidence only while its device still
     * fills its slot, so late errors from a member that a spare
     * replaced are not charged to the spare.
     */
    IoRetrier(EventLoop *loop, RetryPolicy policy, HealthMonitor *health,
              uint64_t *retry_counter, uint64_t *timeout_counter,
              const std::vector<BlockDevice *> *slots);

    /**
     * Submits `req` to `dev` with retry/watchdog handling; `cb` fires
     * exactly once with the final outcome. `dev_index` identifies the
     * device to the HealthMonitor.
     */
    void submit(BlockDevice *dev, uint32_t dev_index, IoRequest req,
                IoCallback cb);

    const RetryPolicy &policy() const { return policy_; }

  private:
    struct OpState {
        BlockDevice *dev = nullptr;
        uint32_t idx = 0;
        IoRequest orig; ///< original request (never mutated)
        /// Request for the current attempt when it is not `orig`: a
        /// torn write's missing tail, or a synthesized flush.
        IoRequest active;
        bool use_active = false;
        IoCallback cb;
        bool synth_flush = false; ///< active is a flush standing in for
                                  ///< a write whose payload landed
        uint32_t transient = 0; ///< transient-retry budget consumed
        uint32_t attempts = 0;
        uint32_t stalls = 0; ///< consecutive wp probes with no progress
        uint64_t last_wp = UINT64_MAX; ///< wp seen by the previous probe
        /// Slot generation at the op's first attempt: timers captured
        /// at or after it belong to this op.
        uint32_t first_gen = 0;
        Tick first_submit = 0;
    };

    void issue(uint32_t slot);
    void on_complete(uint32_t slot, IoResult r);
    void handle_retryable(uint32_t slot, Status why);
    /// Schedules prepare_attempt after `delay`, for this op only.
    void retry_after(uint32_t slot, Tick delay, const char *tag);
    void prepare_attempt(uint32_t slot);
    void exhaust(uint32_t slot, Status why);
    void finish(uint32_t slot, IoResult r);
    Tick backoff_for(uint32_t transient);
    /// The monitor to charge with `st`'s outcome (null: none).
    HealthMonitor *health_for(const OpState &st) const;

    EventLoop *loop_;
    RetryPolicy policy_;
    HealthMonitor *health_;
    const std::vector<BlockDevice *> *slots_;
    uint64_t *retries_;
    uint64_t *timeouts_;
    Rng jitter_;
    Slab<OpState> ops_;
};

} // namespace raizn
