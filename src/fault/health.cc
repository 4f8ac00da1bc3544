#include "fault/health.h"

#include <algorithm>

#include "obs/prof/prof.h"

namespace raizn {

HealthMonitor::HealthMonitor(uint32_t num_devices, HealthConfig cfg)
    : cfg_(cfg), devs_(num_devices), fired_(num_devices)
{
}

void
HealthMonitor::record_success(uint32_t dev, Tick latency)
{
    PROF_SCOPE("health.record");
    DeviceHealth &h = devs_[dev];
    h.successes++;
    h.consec_errors = 0;
    h.consec_timeouts = 0;
    if (h.ewma_latency_ns == 0.0)
        h.ewma_latency_ns = static_cast<double>(latency);
    else
        h.ewma_latency_ns =
            cfg_.ewma_alpha * static_cast<double>(latency) +
            (1.0 - cfg_.ewma_alpha) * h.ewma_latency_ns;
    if (escalate_ && !fired_[dev].fail_slow && fail_slow(dev)) {
        fired_[dev].fail_slow = true;
        escalate_(dev, HealthEvent::kFailSlow);
    }
}

void
HealthMonitor::record_error(uint32_t dev)
{
    devs_[dev].errors++;
    devs_[dev].consec_errors++;
    maybe_escalate(dev);
}

void
HealthMonitor::record_timeout(uint32_t dev)
{
    devs_[dev].timeouts++;
    devs_[dev].consec_timeouts++;
    maybe_escalate(dev);
}

void
HealthMonitor::record_op_failure(uint32_t dev)
{
    devs_[dev].op_failures++;
    maybe_escalate(dev);
}

bool
HealthMonitor::suspect(uint32_t dev) const
{
    const DeviceHealth &h = devs_[dev];
    return h.consec_errors >= (cfg_.error_threshold + 1) / 2 ||
           h.consec_timeouts >= (cfg_.timeout_threshold + 1) / 2;
}

void
HealthMonitor::maybe_escalate(uint32_t dev)
{
    if (!escalate_)
        return;
    if (!fired_[dev].suspect && suspect(dev)) {
        fired_[dev].suspect = true;
        escalate_(dev, HealthEvent::kSuspect);
    }
    if (!fired_[dev].failed && should_fail(dev)) {
        fired_[dev].failed = true;
        escalate_(dev, HealthEvent::kFailed);
    }
}

void
HealthMonitor::reset_device(uint32_t dev)
{
    devs_[dev] = DeviceHealth{};
    fired_[dev] = Fired{};
}

bool
HealthMonitor::should_fail(uint32_t dev) const
{
    const DeviceHealth &h = devs_[dev];
    return h.op_failures >= cfg_.failed_op_threshold ||
           h.consec_errors >= cfg_.error_threshold ||
           h.consec_timeouts >= cfg_.timeout_threshold;
}

bool
HealthMonitor::fail_slow(uint32_t dev) const
{
    const DeviceHealth &h = devs_[dev];
    if (h.successes < cfg_.min_samples || h.ewma_latency_ns <= 0.0)
        return false;
    // Median latency EWMA of the peers that have enough samples, in a
    // stack buffer unless the array is wider than it.
    constexpr size_t kInline = 32;
    double inline_buf[kInline];
    std::vector<double> spill;
    double *peers = inline_buf;
    if (devs_.size() > kInline) {
        spill.resize(devs_.size());
        peers = spill.data();
    }
    size_t n = 0;
    for (uint32_t d = 0; d < devs_.size(); ++d) {
        if (d == dev || devs_[d].successes < cfg_.min_samples)
            continue;
        if (devs_[d].ewma_latency_ns > 0.0)
            peers[n++] = devs_[d].ewma_latency_ns;
    }
    if (n == 0)
        return false;
    std::nth_element(peers, peers + n / 2, peers + n);
    double median = peers[n / 2];
    return h.ewma_latency_ns > cfg_.slow_factor * median;
}

} // namespace raizn
