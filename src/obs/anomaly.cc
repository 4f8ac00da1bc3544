#include "obs/anomaly.h"

#include <cstdio>

#include "common/logging.h"

namespace raizn::obs {

const char *
AnomalyEvent::type_name(Type t)
{
    switch (t) {
      case Type::kThroughputCollapse: return "throughput_collapse";
      case Type::kThroughputRecovered: return "throughput_recovered";
      case Type::kLatencyBurn: return "latency_burn";
      case Type::kStall: return "stall";
    }
    return "?";
}

std::string
AnomalyEvent::to_string() const
{
    return strprintf("[%.3fs] %s series=%s value=%.1f reference=%.1f",
                     static_cast<double>(t) / 1e9, type_name(type),
                     series.c_str(), value, reference);
}

AnomalyDetector::AnomalyDetector(AnomalyConfig cfg) : cfg_(std::move(cfg))
{
    collapse_.resize(cfg_.collapse.size());
    burn_.resize(cfg_.latency_burn.size());
    stall_.resize(cfg_.stall.size());
}

int
AnomalyDetector::resolve(const std::vector<std::string> &columns,
                         const std::string &name)
{
    for (size_t i = 0; i < columns.size(); ++i)
        if (columns[i] == name)
            return static_cast<int>(i);
    return kMissing;
}

void
AnomalyDetector::emit(AnomalyEvent::Type type, const std::string &series,
                      Tick t, double value, double reference)
{
    if (events_.size() >= cfg_.max_events)
        return;
    AnomalyEvent ev;
    ev.type = type;
    ev.series = series;
    ev.t = t;
    ev.value = value;
    ev.reference = reference;
    events_.push_back(std::move(ev));
}

void
AnomalyDetector::observe(const std::vector<std::string> &columns, Tick t,
                         const std::vector<double> &values)
{
    for (size_t i = 0; i < cfg_.collapse.size(); ++i) {
        const CollapseRule &rule = cfg_.collapse[i];
        CollapseState &st = collapse_[i];
        if (st.col == kUnresolved)
            st.col = resolve(columns, rule.series);
        if (st.col < 0)
            continue;
        double v = values[static_cast<size_t>(st.col)];
        if (st.tripped) {
            // EWMA frozen: a sustained collapse must not decay the
            // baseline into looking normal.
            if (v >= rule.recover_frac * st.ewma) {
                st.tripped = false;
                emit(AnomalyEvent::Type::kThroughputRecovered,
                     rule.series, t, v, st.ewma);
                st.ewma = rule.ewma_alpha * v +
                    (1.0 - rule.ewma_alpha) * st.ewma;
                st.n++;
            }
            continue;
        }
        if (st.n >= rule.warmup_samples &&
            st.ewma >= rule.min_reference &&
            v < rule.collapse_frac * st.ewma) {
            st.tripped = true;
            emit(AnomalyEvent::Type::kThroughputCollapse, rule.series, t,
                 v, st.ewma);
            continue;
        }
        st.ewma = st.n == 0
            ? v
            : rule.ewma_alpha * v + (1.0 - rule.ewma_alpha) * st.ewma;
        st.n++;
    }

    for (size_t i = 0; i < cfg_.latency_burn.size(); ++i) {
        const LatencyBurnRule &rule = cfg_.latency_burn[i];
        BurnState &st = burn_[i];
        if (st.col == kUnresolved)
            st.col = resolve(columns, rule.series);
        if (st.col < 0)
            continue;
        double v = values[static_cast<size_t>(st.col)];
        if (v > rule.budget_ns) {
            st.streak++;
            if (st.streak >= rule.consecutive && !st.tripped) {
                st.tripped = true;
                emit(AnomalyEvent::Type::kLatencyBurn, rule.series, t, v,
                     rule.budget_ns);
            }
        } else {
            st.streak = 0;
            st.tripped = false;
        }
    }

    for (size_t i = 0; i < cfg_.stall.size(); ++i) {
        const StallRule &rule = cfg_.stall[i];
        StallState &st = stall_[i];
        if (st.progress_col == kUnresolved) {
            st.progress_col = resolve(columns, rule.progress_series);
            st.inflight_col = resolve(columns, rule.inflight_series);
        }
        if (st.progress_col < 0 || st.inflight_col < 0)
            continue;
        double progress = values[static_cast<size_t>(st.progress_col)];
        double inflight = values[static_cast<size_t>(st.inflight_col)];
        if (progress == 0 && inflight > 0) {
            st.streak++;
            if (st.streak >= rule.consecutive && !st.tripped) {
                st.tripped = true;
                emit(AnomalyEvent::Type::kStall, rule.progress_series, t,
                     inflight, 0);
            }
        } else {
            st.streak = 0;
            st.tripped = false;
        }
    }
}

size_t
AnomalyDetector::count(AnomalyEvent::Type type) const
{
    size_t n = 0;
    for (const AnomalyEvent &ev : events_)
        if (ev.type == type)
            n++;
    return n;
}

const AnomalyEvent *
AnomalyDetector::first(AnomalyEvent::Type type) const
{
    for (const AnomalyEvent &ev : events_)
        if (ev.type == type)
            return &ev;
    return nullptr;
}

std::string
AnomalyDetector::dump() const
{
    std::string out;
    for (const AnomalyEvent &ev : events_)
        out += ev.to_string() + "\n";
    return out;
}

std::string
AnomalyDetector::to_json() const
{
    std::string out = "{\n  \"events\": [\n";
    bool first_ev = true;
    for (const AnomalyEvent &ev : events_) {
        if (!first_ev)
            out += ",\n";
        first_ev = false;
        out += strprintf(
            "    {\"type\": \"%s\", \"series\": \"%s\", \"t_ns\": %llu, "
            "\"value\": %.3f, \"reference\": %.3f}",
            AnomalyEvent::type_name(ev.type), ev.series.c_str(),
            (unsigned long long)ev.t, ev.value, ev.reference);
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace raizn::obs
