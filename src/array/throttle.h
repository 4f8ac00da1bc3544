/**
 * @file
 * Token-bucket rate limiter for online rebuild/resync traffic
 * (Fig. 11/12 interplay). Rebuild I/O competes with degraded
 * foreground service; the bucket caps rebuild sector throughput at a
 * fixed rate so the foreground keeps a floor.
 *
 * Tokens are denominated in sectors and refill against the simulated
 * clock (EventLoop::now()), so behaviour is fully deterministic.
 */
#pragma once

#include <cstdint>

namespace raizn {

class EventLoop;

struct RebuildThrottleConfig {
    /// Steady-state rebuild budget in sectors per second. 0 disables
    /// throttling entirely (full-speed rebuild).
    uint64_t rate_sectors_per_sec = 0;
    /// Bucket capacity: the largest burst the pump may issue at once.
    uint64_t burst_sectors = 256;
};

class RebuildThrottle {
  public:
    RebuildThrottle(EventLoop *loop, RebuildThrottleConfig cfg);

    bool enabled() const { return cfg_.rate_sectors_per_sec > 0; }

    /// Consumes `sectors` tokens if available (always succeeds when
    /// throttling is disabled). On failure the caller should sleep for
    /// ns_until(sectors) and retry. A request larger than the bucket
    /// waits for a full bucket and leaves the rest as debt, so it
    /// issues and the rate still holds.
    bool try_acquire(uint64_t sectors);

    /// Nanoseconds of refill needed before `sectors` tokens are
    /// available. 0 when they already are.
    uint64_t ns_until(uint64_t sectors) const;

    uint64_t stalls() const { return stalls_; }

  private:
    void refill();
    /// Tokens `sectors` waits for: at most a full bucket.
    double need(uint64_t sectors) const;

    EventLoop *loop_;
    RebuildThrottleConfig cfg_;
    double tokens_;
    uint64_t last_refill_ns_ = 0;
    uint64_t stalls_ = 0;
};

} // namespace raizn
