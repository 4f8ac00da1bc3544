/**
 * @file
 * Unified metrics registry: the one tree every layer reports through.
 *
 * A MetricsRegistry holds named counters, gauges, and Histogram-backed
 * latency metrics with hierarchical dot-separated names
 * ("raizn.write.parity_ns", "zns.dev0.read_ns", "fault.dev2.bitflips").
 * Handles are resolved once (by name) and then used as plain pointers,
 * so the hot path never performs a lookup; existing stats structs link
 * their fields in place, so migrated layers pay zero extra cost per
 * operation.
 *
 * Exports: a JSON object keyed by metric name, and a shared
 * "key=value" renderer that is the single source of truth for the
 * VolumeStats dump format.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace raizn::obs {

/// Monotonically increasing event count. Owned by the registry.
class Counter
{
  public:
    void inc(uint64_t delta = 1) { value_ += delta; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/// Point-in-time value (queue depth, open zones, ...).
class Gauge
{
  public:
    void set(uint64_t v) { value_ = v; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/// Latency distribution in nanoseconds, backed by the log-bucketed
/// Histogram (so percentiles, not just means — tail latency matters).
class LatencyMetric
{
  public:
    void record(uint64_t ns) { hist_.add(ns); }
    const Histogram &histogram() const { return hist_; }
    void reset() { hist_.clear(); }

  private:
    Histogram hist_;
};

/// One metric in a registry snapshot.
struct MetricSample {
    enum class Kind { kCounter, kGauge, kLatency };
    std::string name;
    Kind kind = Kind::kCounter;
    uint64_t value = 0; ///< counter/gauge value
    const Histogram *hist = nullptr; ///< latency metrics only
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Find-or-create: repeated calls with the same name return the
     * same handle, so layers can resolve once at attach time and keep
     * the pointer. Handles stay valid for the registry's lifetime.
     */
    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);
    LatencyMetric *latency(const std::string &name);

    /**
     * Links an externally owned counter field into the tree (reads
     * through the pointer at export time). This is how the legacy
     * stats structs migrate without changing their hot paths; `src`
     * must outlive the registry or be unlinked by re-linking the name.
     */
    void link_counter(const std::string &name, const uint64_t *src);
    /// Links an externally owned histogram (read-only).
    void link_histogram(const std::string &name, const Histogram *src);

    size_t size() const { return entries_.size(); }

    /// Name-sorted snapshot of every metric.
    std::vector<MetricSample> snapshot() const;

    /**
     * JSON object keyed by metric name. Counters/gauges render as
     * numbers; latency metrics as {count, mean_ns, p50_ns, p95_ns,
     * p99_ns, p999_ns, max_ns}.
     */
    std::string to_json() const;

  private:
    struct Entry {
        std::string name;
        MetricSample::Kind kind;
        // Exactly one of the owned objects or external pointers is set.
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<LatencyMetric> latency;
        const uint64_t *ext_value = nullptr;
        const Histogram *ext_hist = nullptr;
    };

    Entry *find(const std::string &name);
    Entry *add(const std::string &name, MetricSample::Kind kind);

    /// Insertion order; snapshot() sorts by name. Deque-like stability
    /// is provided by the unique_ptr indirection inside each Entry.
    std::vector<std::unique_ptr<Entry>> entries_;
};

/// Renders "k1=v1 k2=v2 ..." — the shared legacy stats format.
std::string render_kv(const std::vector<std::pair<const char *, uint64_t>> &kv);

/**
 * Renders a stats struct through its for_each_field enumeration; the
 * field list in the struct is the single source of truth for both
 * this rendering and registry linkage.
 */
template <typename Stats>
std::string
render_stats(const Stats &s)
{
    std::vector<std::pair<const char *, uint64_t>> kv;
    s.for_each_field(
        [&kv](const char *name, const uint64_t &v) { kv.emplace_back(name, v); });
    return render_kv(kv);
}

/// Links every field of a stats struct under "<prefix>.<field>".
template <typename Stats>
void
link_stats(MetricsRegistry &reg, const std::string &prefix, const Stats &s)
{
    s.for_each_field([&reg, &prefix](const char *name, const uint64_t &v) {
        reg.link_counter(prefix + "." + name, &v);
    });
}

} // namespace raizn::obs
