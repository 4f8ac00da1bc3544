/**
 * @file
 * Per-layer host-time accounting measured from outside the library.
 *
 * The benchmark never edits src/: each layer is observed only through
 * its public entry points. Decorators below wrap a member BlockDevice,
 * an Env, and an IoTarget; bench code wraps the Db / OLTP calls it
 * makes; EventLoop's observer/probe hooks bracket every dispatched
 * event. Each boundary opens a span on one global stack, and a span's
 * self time is its duration minus the spans nested inside it, so the
 * self times of all layers plus the time outside any span sum exactly
 * to the wall time of the traced window.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "env/env.h"
#include "obs/cause.h"
#include "wkld/target.h"
#include "zns/block_device.h"

namespace raizn {
class EventLoop;
}

namespace rzbench {

/// Host monotonic clock in ns (span timing).
uint64_t host_ns();

/// CPU time this process has used, in ns. Host-clock metrics use it
/// rather than wall time so time the scheduler gives to other
/// processes on a shared machine does not count.
uint64_t cpu_ns();

/// Layers that own host time, named after the repository's modules.
/// kv time is split by call so per-put and per-get self time stay apart.
enum Layer : uint8_t {
    kWkld,
    kOltp,
    kKvPut,
    kKvGet,
    kEnv,
    kRaizn,
    kZns,
    kSim,
    kNumLayers,
};

inline constexpr const char *kLayerNames[kNumLayers] = {
    "wkld", "oltp", "kv.put", "kv.get", "env", "raizn", "zns", "sim"};

/**
 * Span stack with self-time accounting. Event dispatch is a kSim span
 * (observer -> probe); the loop's own work between two events (the
 * run predicate and the heap pop) is credited to kSim as well, provided
 * no other span opened or closed in between.
 */
class Tracer
{
  public:
    void enter(Layer l);
    void leave();

    /// Installs / removes the event-loop hooks on `loop`.
    void attach(raizn::EventLoop *loop);
    void detach(raizn::EventLoop *loop);

    const std::array<uint64_t, kNumLayers> &self_ns() const { return self_; }
    /// Summed duration of outermost spans.
    uint64_t top_ns() const { return top_; }
    size_t depth() const { return stack_.size(); }

  private:
    struct Frame {
        Layer layer;
        uint64_t t0;
        uint64_t child;
    };
    void leave_at(uint64_t now);
    void event_begin();
    void event_end();

    std::vector<Frame> stack_;
    std::array<uint64_t, kNumLayers> self_{};
    uint64_t top_ = 0;
    // Loop gap since the last event ended (valid while no span moved).
    uint64_t gap_t0_ = 0;
    size_t gap_depth_ = 0;
    bool gap_valid_ = false;
};

/// Active tracer of a traced rep; null in untraced reps.
extern Tracer *g_tracer;

/// RAII span on g_tracer (no-op when untraced).
class Span
{
  public:
    explicit Span(Layer l) : t_(g_tracer)
    {
        if (t_ != nullptr)
            t_->enter(l);
    }
    ~Span()
    {
        if (t_ != nullptr)
            t_->leave();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

/// Command and byte counts one TimedDevice observed.
struct DevCounts {
    uint64_t cmds = 0;
    uint64_t flushes = 0;
    uint64_t zone_resets = 0;
    uint64_t lat_ns = 0; ///< virtual submit->completion, summed
    /// Completed-ok sectors by cause: [cause][0 = read, 1 = written].
    std::array<std::array<uint64_t, 2>, raizn::obs::kNumCauses> sectors{};

    uint64_t
    cause_sectors(raizn::obs::Cause c, bool written) const
    {
        return sectors[static_cast<size_t>(c)][written ? 1 : 0];
    }
    uint64_t total_sectors(bool written) const;
};

/**
 * Member-device decorator: times submit() as zns and the completion
 * callback as raizn (the array is the only caller of its members), and
 * counts commands, virtual command latency and per-cause sectors.
 */
class TimedDevice : public raizn::BlockDevice
{
  public:
    TimedDevice(raizn::EventLoop *loop, raizn::BlockDevice *inner)
        : loop_(loop), inner_(inner)
    {
    }

    const raizn::DeviceGeometry &geometry() const override
    {
        return inner_->geometry();
    }
    const raizn::DeviceStats &stats() const override
    {
        return inner_->stats();
    }
    raizn::DataMode data_mode() const override { return inner_->data_mode(); }
    void submit(raizn::IoRequest req, raizn::IoCallback cb) override;
    raizn::Result<raizn::ZoneInfo> zone_info(uint32_t z) const override
    {
        return inner_->zone_info(z);
    }
    bool failed() const override { return inner_->failed(); }
    void fail() override { inner_->fail(); }
    void
    set_ledger(raizn::obs::IoLedger *ledger, uint32_t dev_index) override
    {
        inner_->set_ledger(ledger, dev_index);
    }

    const DevCounts &counts() const { return counts_; }
    /// Call when the inner device's stats restart from zero (replace()).
    void restart_sectors() { base_ = counts_; }
    /// Sectors read / written since the last restart: what the inner
    /// device's DeviceStats must show.
    uint64_t
    sectors_since_restart(bool written) const
    {
        return counts_.total_sectors(written) - base_.total_sectors(written);
    }

  private:
    raizn::EventLoop *loop_;
    raizn::BlockDevice *inner_;
    DevCounts counts_;
    DevCounts base_;
};

/// Call counts and virtual time one TimedEnv observed.
struct EnvCounts {
    uint64_t appends = 0, syncs = 0, reads = 0;
    uint64_t read_bytes = 0;
    uint64_t append_ns = 0, sync_ns = 0, read_ns = 0; ///< virtual, summed
};

/// Env decorator: every call into the env (and its file handles) is an
/// env span; appends, syncs and reads are counted and timed virtually.
class TimedEnv : public raizn::Env
{
  public:
    TimedEnv(raizn::EventLoop *loop, raizn::Env *inner)
        : loop_(loop), inner_(inner)
    {
    }

    raizn::Result<std::unique_ptr<raizn::WritableFile>>
    new_writable(const std::string &name) override;
    raizn::Result<std::unique_ptr<raizn::ReadableFile>>
    open_readable(const std::string &name) override;
    raizn::Status delete_file(const std::string &name) override;
    bool file_exists(const std::string &name) const override;
    raizn::Result<uint64_t> file_size(const std::string &name) const override;
    std::vector<std::string> list_files() const override;
    uint64_t free_bytes() const override;
    const raizn::EnvStats &stats() const override { return inner_->stats(); }

    const EnvCounts &counts() const { return counts_; }

  private:
    friend class TimedWritableFile;
    friend class TimedReadableFile;

    raizn::EventLoop *loop_;
    raizn::Env *inner_;
    EnvCounts counts_;
};

/// Workload-runner target decorator: calls into the array are raizn
/// spans, the runner's completion callbacks are wkld spans.
class TimedTarget : public raizn::IoTarget
{
  public:
    explicit TimedTarget(raizn::IoTarget *inner) : inner_(inner) {}

    uint64_t capacity() const override { return inner_->capacity(); }
    void read(uint64_t lba, uint32_t n, raizn::IoCallback cb) override;
    void write(uint64_t lba, uint32_t n, raizn::IoCallback cb) override;
    void flush(raizn::IoCallback cb) override;
    bool zoned() const override { return inner_->zoned(); }
    void reset_zone_at(uint64_t lba, raizn::IoCallback cb) override;

  private:
    raizn::IoTarget *inner_;
};

} // namespace rzbench
