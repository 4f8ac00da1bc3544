#include "obs/timeline.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/anomaly.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn::obs {

Timeline::Timeline(EventLoop *loop, MetricsRegistry *reg,
                   TimelineConfig cfg)
    : loop_(loop), reg_(reg), cfg_(cfg)
{
}

Timeline::~Timeline()
{
    stop();
}

void
Timeline::remove_probes(const void *owner)
{
    probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                                 [owner](const auto &p) {
                                     return p.first == owner;
                                 }),
                  probes_.end());
}

void
Timeline::start()
{
    if (running_)
        return;

    // The loop's own scheduling stats are part of every timeline: the
    // queue depth is the simulation-wide in-flight depth and the
    // schedule delay attributes each event's queue wait.
    link_stats(*reg_, "sim", loop_->stats());
    reg_->link_histogram("sim.sched_delay_ns", &loop_->sched_delay_hist());
    pending_gauge_ = reg_->gauge("sim.pending");

    sources_.clear();
    columns_.clear();
    for (const MetricSample &s : reg_->snapshot()) {
        Source src;
        src.name = s.name;
        src.kind = s.kind;
        switch (s.kind) {
        case MetricSample::Kind::kCounter:
            src.prev_value = static_cast<double>(s.value);
            columns_.push_back(s.name);
            columns_.push_back(s.name + ".rate");
            break;
        case MetricSample::Kind::kGauge:
            columns_.push_back(s.name);
            break;
        case MetricSample::Kind::kLatency:
            src.prev_hist = *s.hist;
            columns_.push_back(s.name + ".win_n");
            columns_.push_back(s.name + ".win_p50_ns");
            columns_.push_back(s.name + ".win_p99_ns");
            break;
        }
        sources_.push_back(std::move(src));
    }

    last_t_ = loop_->now();
    next_due_ = last_t_ + cfg_.interval;
    host_start_ns_ = prof::host_now_ns();
    running_ = true;
    loop_->set_probe([this](Tick now) { on_event(now); });
}

void
Timeline::stop()
{
    if (!running_)
        return;
    running_ = false;
    loop_->set_probe(nullptr);
}

void
Timeline::on_event(Tick now)
{
    if (now < next_due_)
        return;
    // Stamp the row at the last boundary the clock jumped across; the
    // rate denominator is the true elapsed time since the previous
    // row, so bursty virtual time cannot inflate rates.
    Tick boundary = next_due_ + (now - next_due_) / cfg_.interval *
        cfg_.interval;
    take_sample(boundary);
    next_due_ = boundary + cfg_.interval;
}

void
Timeline::sample_now()
{
    Tick now = loop_->now();
    if (now <= last_t_)
        return;
    take_sample(now);
    next_due_ = now + cfg_.interval;
}

void
Timeline::take_sample(Tick t)
{
    for (const auto &p : probes_)
        p.second();
    if (pending_gauge_ != nullptr)
        pending_gauge_->set(loop_->pending());

    double elapsed_s =
        static_cast<double>(t - last_t_) / static_cast<double>(kNsPerSec);

    TimelineRow row;
    row.t = t;
    // Virtual rows carry the host clock too, so a slow wall-clock
    // interval (a simulator hot spot) can be lined up against what the
    // simulated system was doing at the time.
    row.host_ns = prof::host_now_ns() - host_start_ns_;
    row.values.reserve(columns_.size());

    // snapshot() is name-sorted and sources_ was built from one, so a
    // single merge pass matches every source; metrics registered after
    // start() are skipped.
    std::vector<MetricSample> snap = reg_->snapshot();
    size_t si = 0;
    for (Source &src : sources_) {
        while (si < snap.size() && snap[si].name < src.name)
            si++;
        bool found = si < snap.size() && snap[si].name == src.name &&
            snap[si].kind == src.kind;
        switch (src.kind) {
        case MetricSample::Kind::kCounter: {
            double v = found ? static_cast<double>(snap[si].value) : 0;
            double rate =
                elapsed_s > 0 ? (v - src.prev_value) / elapsed_s : 0;
            row.values.push_back(v);
            row.values.push_back(rate);
            src.prev_value = v;
            break;
        }
        case MetricSample::Kind::kGauge:
            row.values.push_back(
                found ? static_cast<double>(snap[si].value) : 0);
            break;
        case MetricSample::Kind::kLatency: {
            if (found) {
                Histogram win =
                    Histogram::delta(*snap[si].hist, src.prev_hist);
                row.values.push_back(static_cast<double>(win.count()));
                row.values.push_back(static_cast<double>(win.p50()));
                row.values.push_back(static_cast<double>(win.p99()));
                src.prev_hist = *snap[si].hist;
            } else {
                row.values.insert(row.values.end(), 3, 0.0);
            }
            break;
        }
        }
    }
    last_t_ = t;

    if (detector_ != nullptr)
        detector_->observe(columns_, row.t, row.values);

    rows_.push_back(std::move(row));
    if (rows_.size() > cfg_.capacity) {
        rows_.pop_front();
        dropped_++;
    }
}

int
Timeline::column_index(const std::string &name) const
{
    auto it = std::find(columns_.begin(), columns_.end(), name);
    if (it == columns_.end())
        return -1;
    return static_cast<int>(it - columns_.begin());
}

std::vector<double>
Timeline::series(const std::string &name) const
{
    std::vector<double> out;
    int idx = column_index(name);
    if (idx < 0)
        return out;
    out.reserve(rows_.size());
    for (const TimelineRow &r : rows_)
        out.push_back(r.values[static_cast<size_t>(idx)]);
    return out;
}

namespace {

/// %.10g keeps counters exact (< 2^33 ns and typical counts) while
/// staying compact for rates.
std::string
fmt_value(double v)
{
    return strprintf("%.10g", v);
}

} // namespace

std::string
Timeline::to_csv() const
{
    std::string out = "t_s,host_ns";
    for (const std::string &c : columns_) {
        out += ',';
        out += c;
    }
    out += '\n';
    for (const TimelineRow &r : rows_) {
        out += strprintf("%.6f,%llu",
                         static_cast<double>(r.t) /
                             static_cast<double>(kNsPerSec),
                         (unsigned long long)r.host_ns);
        for (double v : r.values) {
            out += ',';
            out += fmt_value(v);
        }
        out += '\n';
    }
    return out;
}

std::string
Timeline::to_json() const
{
    std::string out = strprintf(
        "{\n  \"interval_ns\": %llu,\n  \"dropped\": %llu,\n"
        "  \"columns\": [\"t_ns\", \"host_ns\"",
        (unsigned long long)cfg_.interval, (unsigned long long)dropped_);
    for (const std::string &c : columns_)
        out += strprintf(", \"%s\"", c.c_str());
    out += "],\n  \"rows\": [\n";
    bool first = true;
    for (const TimelineRow &r : rows_) {
        if (!first)
            out += ",\n";
        first = false;
        out += strprintf("    [%llu, %llu", (unsigned long long)r.t,
                         (unsigned long long)r.host_ns);
        for (double v : r.values)
            out += ", " + fmt_value(v);
        out += "]";
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace raizn::obs
