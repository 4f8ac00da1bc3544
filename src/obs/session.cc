#include "obs/session.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/prof/prof.h"

namespace raizn::obs {

Session::Session(TimelineConfig tl) : tl_cfg_(tl)
{
    ledger_.link_metrics(&registry_);
}

Session::~Session()
{
    if (owns_prof_ && !closed_)
        prof::disable();
}

void
Session::watch(EventLoop *loop, uint32_t num_devices,
               const std::function<void(Timeline *)> &install)
{
    num_devices_ = std::max(num_devices_, num_devices);
    if (timeline_ == nullptr) {
        loop_ = loop;
        timeline_ = std::make_unique<Timeline>(loop, &registry_, tl_cfg_);
        timeline_->add_probe([this] { ledger_.refresh_gauges(); });
    }
    if (loop != loop_)
        RAIZN_PANIC("obs::Session watches one event loop");
    install(timeline_.get());
    if (started_)
        timeline_->start();
}

void
Session::forget(const void *owner)
{
    if (timeline_ != nullptr)
        timeline_->remove_probes(owner);
}

void
Session::start()
{
    if (started_)
        return;
    started_ = true;
    if (!prof::enabled()) {
        prof::enable();
        owns_prof_ = true;
    }
    if (timeline_ != nullptr)
        timeline_->start();
}

void
Session::close()
{
    if (closed_)
        return;
    closed_ = true;
    // The window ends before the snapshots, which are not the run's.
    if (owns_prof_)
        prof::disable();
    if (timeline_ != nullptr && timeline_->running()) {
        timeline_->sample_now();
        timeline_->stop();
        timeline_csv_ = timeline_->to_csv();
    }
    ledger_.refresh_gauges();
    metrics_json_ = registry_.to_json();
    ledger_json_ = ledger_.to_json();
    audit_ = ledger_.audit();
    if (!started_)
        return;
    prof_coverage_ = prof::coverage();
    prof_json_ = prof::summary_json();
    prof_folded_ = prof::folded();
    prof_table_ = strprintf(
        "\n-- host profile: top scopes by self time (wall %.1f ms, "
        "%.0f events/s, coverage %.1f%%) --\n",
        static_cast<double>(prof::wall_ns()) * 1e-6,
        prof::events_per_sec(), prof_coverage_ * 100.0);
    prof_table_ += prof::table(10);
}

SpanCoverage
Session::span_coverage(const char *total_stage) const
{
    SpanCoverage c;
    std::vector<double> covs = trace_.all_request_coverage(total_stage);
    if (covs.empty())
        return c;
    c.min = 1.0;
    for (double v : covs) {
        c.min = std::min(c.min, v);
        c.mean += v;
    }
    c.n = covs.size();
    c.mean /= static_cast<double>(c.n);
    return c;
}

Status
Session::write(const std::string &dir)
{
    if (dir.empty())
        return Status::ok();
    close();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return Status(StatusCode::kIoError,
                      "cannot create " + dir + ": " + ec.message());
    // The registry may hold stats linked directly; the trace, timeline
    // and ledger exist once an array attached.
    std::vector<std::pair<const char *, std::string>> files;
    files.emplace_back("metrics.json", metrics_json_);
    if (loop_ != nullptr) {
        files.emplace_back("trace.json",
                           trace_.to_chrome_json(num_devices_));
        if (!timeline_csv_.empty())
            files.emplace_back("timeline.csv", timeline_csv_);
        files.emplace_back("ledger.json", ledger_json_);
    }
    if (started_) {
        files.emplace_back("prof.json", prof_json_);
        files.emplace_back("flame.folded", prof_folded_);
    }
    std::string manifest = "{\"files\": [";
    for (size_t i = 0; i < files.size(); ++i) {
        Status s = prof::write_file(dir + "/" + files[i].first,
                                    files[i].second);
        if (!s.is_ok())
            return s;
        manifest += strprintf("%s\"%s\"", i == 0 ? "" : ", ",
                              files[i].first);
    }
    manifest += "]}\n";
    return prof::write_file(dir + "/manifest.json", manifest);
}

} // namespace raizn::obs
