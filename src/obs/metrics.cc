#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace raizn::obs {

MetricsRegistry::Entry *
MetricsRegistry::find(const std::string &name)
{
    for (auto &e : entries_)
        if (e->name == name)
            return e.get();
    return nullptr;
}

MetricsRegistry::Entry *
MetricsRegistry::add(const std::string &name, MetricSample::Kind kind)
{
    entries_.push_back(std::make_unique<Entry>());
    Entry *e = entries_.back().get();
    e->name = name;
    e->kind = kind;
    return e;
}

Counter *
MetricsRegistry::counter(const std::string &name)
{
    Entry *e = find(name);
    if (e == nullptr) {
        e = add(name, MetricSample::Kind::kCounter);
        e->counter = std::make_unique<Counter>();
    }
    return e->counter.get();
}

Gauge *
MetricsRegistry::gauge(const std::string &name)
{
    Entry *e = find(name);
    if (e == nullptr) {
        e = add(name, MetricSample::Kind::kGauge);
        e->gauge = std::make_unique<Gauge>();
    }
    return e->gauge.get();
}

LatencyMetric *
MetricsRegistry::latency(const std::string &name)
{
    Entry *e = find(name);
    if (e == nullptr) {
        e = add(name, MetricSample::Kind::kLatency);
        e->latency = std::make_unique<LatencyMetric>();
    }
    return e->latency.get();
}

void
MetricsRegistry::link_counter(const std::string &name, const uint64_t *src)
{
    Entry *e = find(name);
    if (e == nullptr)
        e = add(name, MetricSample::Kind::kCounter);
    e->counter.reset();
    e->ext_value = src;
}

void
MetricsRegistry::link_histogram(const std::string &name, const Histogram *src)
{
    Entry *e = find(name);
    if (e == nullptr)
        e = add(name, MetricSample::Kind::kLatency);
    e->latency.reset();
    e->ext_hist = src;
}

std::vector<MetricSample>
MetricsRegistry::snapshot() const
{
    std::vector<MetricSample> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        MetricSample s;
        s.name = e->name;
        s.kind = e->kind;
        switch (e->kind) {
        case MetricSample::Kind::kCounter:
            s.value = e->ext_value != nullptr ? *e->ext_value
                                              : e->counter->value();
            break;
        case MetricSample::Kind::kGauge:
            s.value = e->gauge->value();
            break;
        case MetricSample::Kind::kLatency:
            s.hist = e->ext_hist != nullptr ? e->ext_hist
                                            : &e->latency->histogram();
            break;
        }
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return out;
}

std::string
MetricsRegistry::to_json() const
{
    std::string out = "{\n";
    bool first = true;
    for (const MetricSample &s : snapshot()) {
        if (!first)
            out += ",\n";
        first = false;
        if (s.kind == MetricSample::Kind::kLatency) {
            const Histogram &h = *s.hist;
            out += strprintf(
                "  \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
                "\"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu, "
                "\"p999_ns\": %llu, \"max_ns\": %llu}",
                s.name.c_str(), (unsigned long long)h.count(), h.mean(),
                (unsigned long long)h.p50(), (unsigned long long)h.p95(),
                (unsigned long long)h.p99(), (unsigned long long)h.p999(),
                (unsigned long long)h.max());
        } else {
            out += strprintf("  \"%s\": %llu", s.name.c_str(),
                             (unsigned long long)s.value);
        }
    }
    out += "\n}\n";
    return out;
}

std::string
render_kv(const std::vector<std::pair<const char *, uint64_t>> &kv)
{
    std::string out;
    for (const auto &[name, value] : kv)
        out += strprintf("%s=%llu ", name, (unsigned long long)value);
    if (!out.empty())
        out.pop_back();
    return out;
}

} // namespace raizn::obs
