#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/logging.h"

namespace raizn::obs {

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    ring_.reserve(std::min<size_t>(capacity_, 4096));
}

uint64_t
TraceRecorder::begin_span(const char *stage, uint64_t req, uint32_t track,
                          Tick now)
{
    uint32_t slot = open_.acquire();
    open_[slot] = OpenSpan{stage, req, track, now};
    return (static_cast<uint64_t>(open_.gen(slot)) << 32 | slot) + 1;
}

void
TraceRecorder::end_span(uint64_t token, Tick now)
{
    // A token whose span was already closed, or dropped by clear(),
    // carries a stale generation and closes nothing; so does one from
    // another recorder.
    const uint32_t slot = static_cast<uint32_t>(token - 1);
    if (token == 0 || slot >= open_.size() ||
        open_.gen(slot) != (token - 1) >> 32)
        return;
    const OpenSpan o = open_[slot];
    open_.release(slot);
    push(TraceSpan{o.stage, o.req, o.track, o.start, now});
}

void
TraceRecorder::add_span(const char *stage, uint64_t req, uint32_t track,
                        Tick start, Tick end)
{
    push(TraceSpan{stage, req, track, start, end});
}

void
TraceRecorder::instant(const char *stage, uint64_t req, uint32_t track,
                       Tick now)
{
    push(TraceSpan{stage, req, track, now, now});
}

void
TraceRecorder::push(const TraceSpan &s)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(s);
        return;
    }
    ring_[head_] = s;
    head_ = (head_ + 1) % capacity_;
    wrapped_ = true;
    dropped_++;
}

size_t
TraceRecorder::size() const
{
    return ring_.size();
}

void
TraceRecorder::clear()
{
    ring_.clear();
    head_ = 0;
    wrapped_ = false;
    dropped_ = 0;
    open_.release_all();
}

std::vector<TraceSpan>
TraceRecorder::spans() const
{
    if (!wrapped_)
        return ring_;
    std::vector<TraceSpan> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % capacity_]);
    return out;
}

std::string
TraceRecorder::to_chrome_json(uint32_t num_devices) const
{
    // Chrome's trace viewer expects ts/dur in microseconds; the
    // virtual clock is nanoseconds, so export fractional ts.
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    auto emit = [&out, &first](const std::string &ev) {
        if (!first)
            out += ",\n";
        first = false;
        out += ev;
    };
    auto track_name = [num_devices](uint32_t track) -> std::string {
        if (track == kTrackRequest)
            return "requests";
        if (track == kTrackMetadata)
            return "metadata";
        return strprintf("dev%u", track - kTrackDevBase);
    };
    uint32_t max_track = kTrackDevBase + (num_devices ? num_devices - 1 : 0);
    for (uint32_t t = 0; t <= max_track; ++t) {
        emit(strprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                       t, track_name(t).c_str()));
        // sort_index keeps the request track on top in the viewer.
        emit(strprintf("{\"name\":\"thread_sort_index\",\"ph\":\"M\","
                       "\"pid\":1,\"tid\":%u,\"args\":{\"sort_index\":%u}}",
                       t, t));
    }
    for (const TraceSpan &s : spans()) {
        if (s.start == s.end) {
            emit(strprintf("{\"name\":\"%s\",\"ph\":\"i\",\"pid\":1,"
                           "\"tid\":%u,\"ts\":%.3f,\"s\":\"t\","
                           "\"args\":{\"req\":%llu}}",
                           s.stage, s.track, s.start / 1000.0,
                           (unsigned long long)s.req));
        } else {
            emit(strprintf("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                           "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                           "\"args\":{\"req\":%llu}}",
                           s.stage, s.track, s.start / 1000.0,
                           s.duration() / 1000.0,
                           (unsigned long long)s.req));
        }
    }
    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

std::string
TraceRecorder::stage_breakdown() const
{
    struct Agg {
        Histogram hist;
        uint64_t total = 0;
    };
    // Keyed by stage string content (static strings may differ by
    // pointer across translation units).
    std::map<std::string, Agg> agg;
    for (const TraceSpan &s : spans()) {
        if (s.start == s.end)
            continue; // instants carry no duration
        Agg &a = agg[s.stage];
        a.hist.add(s.duration());
        a.total += s.duration();
    }
    std::vector<std::pair<std::string, const Agg *>> rows;
    rows.reserve(agg.size());
    for (const auto &[name, a] : agg)
        rows.emplace_back(name, &a);
    std::sort(rows.begin(), rows.end(), [](const auto &x, const auto &y) {
        return x.second->total > y.second->total;
    });

    std::string out = strprintf("%-24s %8s %12s %10s %10s %10s\n", "stage",
                                "count", "total_us", "mean_us", "p50_us",
                                "p99_us");
    for (const auto &[name, a] : rows) {
        out += strprintf("%-24s %8llu %12.1f %10.1f %10.1f %10.1f\n",
                         name.c_str(),
                         (unsigned long long)a->hist.count(),
                         a->total / 1000.0, a->hist.mean() / 1000.0,
                         a->hist.p50() / 1000.0, a->hist.p99() / 1000.0);
    }
    if (dropped_ > 0)
        out += strprintf("(ring wrapped: %llu older spans dropped)\n",
                         (unsigned long long)dropped_);
    return out;
}

namespace {

/// request_coverage over one request's spans, in ring order.
double
coverage_of(const std::vector<const TraceSpan *> &spans,
            const std::string &total_name)
{
    Tick t_start = 0, t_end = 0;
    bool have_total = false;
    std::vector<std::pair<Tick, Tick>> ivs;
    for (const TraceSpan *sp : spans) {
        const TraceSpan &s = *sp;
        if (s.start == s.end)
            continue;
        if (!have_total && total_name == s.stage) {
            t_start = s.start;
            t_end = s.end;
            have_total = true;
        } else {
            ivs.emplace_back(s.start, s.end);
        }
    }
    if (!have_total || t_end <= t_start)
        return 0.0;
    // Clamp children to the total window and measure the union of the
    // merged intervals, so concurrent device IOs count once.
    for (auto &iv : ivs) {
        iv.first = std::max(iv.first, t_start);
        iv.second = std::min(iv.second, t_end);
    }
    std::sort(ivs.begin(), ivs.end());
    uint64_t covered = 0;
    Tick cur_s = 0, cur_e = 0;
    bool open = false;
    for (const auto &[s, e] : ivs) {
        if (e <= s)
            continue;
        if (!open) {
            cur_s = s;
            cur_e = e;
            open = true;
        } else if (s <= cur_e) {
            cur_e = std::max(cur_e, e);
        } else {
            covered += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
        }
    }
    if (open)
        covered += cur_e - cur_s;
    return static_cast<double>(covered) / (t_end - t_start);
}

} // namespace

double
TraceRecorder::request_coverage(uint64_t req, const char *total_stage) const
{
    std::vector<TraceSpan> all = spans();
    std::vector<const TraceSpan *> mine;
    for (const TraceSpan &s : all) {
        if (s.req == req)
            mine.push_back(&s);
    }
    return coverage_of(mine, total_stage);
}

std::vector<double>
TraceRecorder::all_request_coverage(const char *total_stage) const
{
    std::string total_name = total_stage;
    std::vector<TraceSpan> all = spans();
    std::unordered_map<uint64_t, std::vector<const TraceSpan *>> by_req;
    for (const TraceSpan &s : all)
        by_req[s.req].push_back(&s);
    std::vector<double> out;
    for (const TraceSpan &s : all) {
        if (total_name == s.stage)
            out.push_back(coverage_of(by_req[s.req], total_name));
    }
    return out;
}

} // namespace raizn::obs
