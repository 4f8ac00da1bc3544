#include "array/throttle.h"

#include <algorithm>

#include "sim/event_loop.h"

namespace raizn {

namespace {
constexpr double kSecNs = 1e9;
} // namespace

RebuildThrottle::RebuildThrottle(EventLoop *loop, RebuildThrottleConfig cfg)
    : loop_(loop), cfg_(cfg),
      tokens_(static_cast<double>(cfg.burst_sectors)),
      last_refill_ns_(loop->now())
{
}

void
RebuildThrottle::refill()
{
    uint64_t now = loop_->now();
    if (now <= last_refill_ns_)
        return;
    double earned = static_cast<double>(now - last_refill_ns_) *
        static_cast<double>(cfg_.rate_sectors_per_sec) / kSecNs;
    tokens_ = std::min(tokens_ + earned,
                       static_cast<double>(cfg_.burst_sectors));
    last_refill_ns_ = now;
}

double
RebuildThrottle::need(uint64_t sectors) const
{
    return static_cast<double>(std::min(sectors, cfg_.burst_sectors));
}

bool
RebuildThrottle::try_acquire(uint64_t sectors)
{
    if (!enabled())
        return true;
    refill();
    if (tokens_ + 1e-9 < need(sectors)) {
        stalls_++;
        return false;
    }
    tokens_ -= static_cast<double>(sectors);
    return true;
}

uint64_t
RebuildThrottle::ns_until(uint64_t sectors) const
{
    if (!enabled())
        return 0;
    double deficit = need(sectors) - tokens_;
    if (deficit <= 0)
        return 0;
    return static_cast<uint64_t>(
               deficit * kSecNs /
               static_cast<double>(cfg_.rate_sectors_per_sec)) + 1;
}

} // namespace raizn
