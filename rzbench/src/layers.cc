#include "layers.h"

#include <chrono>
#include <ctime>

#include "sim/event_loop.h"

namespace rzbench {

using namespace raizn;

Tracer *g_tracer = nullptr;

uint64_t
host_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<uint64_t>(ts.tv_nsec);
}

void
Tracer::enter(Layer l)
{
    gap_valid_ = false;
    stack_.push_back({l, host_ns(), 0});
}

void
Tracer::leave()
{
    gap_valid_ = false;
    leave_at(host_ns());
}

void
Tracer::leave_at(uint64_t now)
{
    Frame f = stack_.back();
    stack_.pop_back();
    uint64_t dur = now - f.t0;
    self_[f.layer] += dur - f.child;
    if (stack_.empty())
        top_ += dur;
    else
        stack_.back().child += dur;
}

void
Tracer::event_begin()
{
    uint64_t now = host_ns();
    if (gap_valid_ && stack_.size() == gap_depth_) {
        uint64_t gap = now - gap_t0_;
        self_[kSim] += gap;
        if (stack_.empty())
            top_ += gap;
        else
            stack_.back().child += gap;
    }
    gap_valid_ = false;
    stack_.push_back({kSim, now, 0});
}

void
Tracer::event_end()
{
    uint64_t now = host_ns();
    leave_at(now);
    gap_t0_ = now;
    gap_depth_ = stack_.size();
    gap_valid_ = true;
}

void
Tracer::attach(EventLoop *loop)
{
    loop->set_observer([this](Tick, uint64_t) { event_begin(); });
    loop->set_probe([this](Tick) { event_end(); });
}

void
Tracer::detach(EventLoop *loop)
{
    loop->set_observer(nullptr);
    loop->set_probe(nullptr);
    gap_valid_ = false;
}

uint64_t
DevCounts::total_sectors(bool written) const
{
    uint64_t sum = 0;
    for (const auto &c : sectors)
        sum += c[written ? 1 : 0];
    return sum;
}

void
TimedDevice::submit(IoRequest req, IoCallback cb)
{
    Span span(kZns);
    counts_.cmds++;
    counts_.flushes += req.op == IoOp::kFlush;
    counts_.zone_resets += req.op == IoOp::kZoneReset;
    bool is_read = req.op == IoOp::kRead;
    bool is_write = req.op == IoOp::kWrite || req.op == IoOp::kAppend;
    size_t cause = static_cast<size_t>(req.cause);
    uint32_t n = req.nsectors;
    Tick t0 = loop_->now();
    inner_->submit(std::move(req), [this, is_read, is_write, cause, n, t0,
                                    cb = std::move(cb)](IoResult r) {
        Span inner_span(kRaizn);
        counts_.lat_ns += loop_->now() - t0;
        if (r.status.is_ok() && (is_read || is_write))
            counts_.sectors[cause][is_write ? 1 : 0] += n;
        cb(std::move(r));
    });
}

// ---- Env decorator ----------------------------------------------------

class TimedWritableFile : public WritableFile
{
  public:
    TimedWritableFile(TimedEnv *env, std::unique_ptr<WritableFile> inner)
        : env_(env), inner_(std::move(inner))
    {
    }

    Status
    append(const std::vector<uint8_t> &data) override
    {
        Span span(kEnv);
        Tick t0 = env_->loop_->now();
        Status st = inner_->append(data);
        env_->counts_.appends++;
        env_->counts_.append_ns += env_->loop_->now() - t0;
        return st;
    }
    Status
    sync() override
    {
        Span span(kEnv);
        Tick t0 = env_->loop_->now();
        Status st = inner_->sync();
        env_->counts_.syncs++;
        env_->counts_.sync_ns += env_->loop_->now() - t0;
        return st;
    }
    Status
    close() override
    {
        Span span(kEnv);
        return inner_->close();
    }
    uint64_t size() const override { return inner_->size(); }

  private:
    TimedEnv *env_;
    std::unique_ptr<WritableFile> inner_;
};

class TimedReadableFile : public ReadableFile
{
  public:
    TimedReadableFile(TimedEnv *env, std::unique_ptr<ReadableFile> inner)
        : env_(env), inner_(std::move(inner))
    {
    }

    Result<std::vector<uint8_t>>
    read(uint64_t offset, uint64_t length) override
    {
        Span span(kEnv);
        Tick t0 = env_->loop_->now();
        auto res = inner_->read(offset, length);
        env_->counts_.reads++;
        env_->counts_.read_ns += env_->loop_->now() - t0;
        if (res.is_ok())
            env_->counts_.read_bytes += res.value().size();
        return res;
    }
    uint64_t size() const override { return inner_->size(); }

  private:
    TimedEnv *env_;
    std::unique_ptr<ReadableFile> inner_;
};

Result<std::unique_ptr<WritableFile>>
TimedEnv::new_writable(const std::string &name)
{
    Span span(kEnv);
    auto res = inner_->new_writable(name);
    if (!res.is_ok())
        return res.status();
    return std::unique_ptr<WritableFile>(
        new TimedWritableFile(this, std::move(res).value()));
}

Result<std::unique_ptr<ReadableFile>>
TimedEnv::open_readable(const std::string &name)
{
    Span span(kEnv);
    auto res = inner_->open_readable(name);
    if (!res.is_ok())
        return res.status();
    return std::unique_ptr<ReadableFile>(
        new TimedReadableFile(this, std::move(res).value()));
}

Status
TimedEnv::delete_file(const std::string &name)
{
    Span span(kEnv);
    return inner_->delete_file(name);
}

bool
TimedEnv::file_exists(const std::string &name) const
{
    Span span(kEnv);
    return inner_->file_exists(name);
}

Result<uint64_t>
TimedEnv::file_size(const std::string &name) const
{
    Span span(kEnv);
    return inner_->file_size(name);
}

std::vector<std::string>
TimedEnv::list_files() const
{
    Span span(kEnv);
    return inner_->list_files();
}

uint64_t
TimedEnv::free_bytes() const
{
    Span span(kEnv);
    return inner_->free_bytes();
}

// ---- IoTarget decorator -----------------------------------------------

namespace {

IoCallback
wkld_callback(IoCallback cb)
{
    return [cb = std::move(cb)](IoResult r) {
        Span span(kWkld);
        cb(std::move(r));
    };
}

} // namespace

void
TimedTarget::read(uint64_t lba, uint32_t n, IoCallback cb)
{
    Span span(kRaizn);
    inner_->read(lba, n, wkld_callback(std::move(cb)));
}

void
TimedTarget::write(uint64_t lba, uint32_t n, IoCallback cb)
{
    Span span(kRaizn);
    inner_->write(lba, n, wkld_callback(std::move(cb)));
}

void
TimedTarget::flush(IoCallback cb)
{
    Span span(kRaizn);
    inner_->flush(wkld_callback(std::move(cb)));
}

void
TimedTarget::reset_zone_at(uint64_t lba, IoCallback cb)
{
    Span span(kRaizn);
    inner_->reset_zone_at(lba, wkld_callback(std::move(cb)));
}

} // namespace rzbench
