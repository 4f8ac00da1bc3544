#include "chk/explorer.h"

#include <algorithm>

#include "array/engine.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/prof/prof.h"
#include "obs/session.h"
#include "sim/event_loop.h"

namespace raizn::chk {

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/// Bundle timeline: exploration workloads cover a few virtual
/// milliseconds, so rows are far finer than the benches' 100 ms, and
/// the ring keeps the run's tail.
constexpr obs::TimelineConfig kChkTimeline{50 * kNsPerUs, 256};

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v;
    return h * kFnvPrime;
}

uint64_t
hash_event(uint64_t h, uint32_t dev, const ZnsTraceEvent &ev)
{
    h = mix(h, dev);
    h = mix(h, static_cast<uint64_t>(ev.op));
    h = mix(h, ev.slba);
    h = mix(h, ev.lba);
    h = mix(h, ev.nsectors);
    h = mix(h, (ev.fua ? 1 : 0) | (ev.preflush ? 2 : 0) |
                   (ev.ok ? 4 : 0));
    h = mix(h, ev.tick);
    return h;
}

/// Sequential workload driver: op N+1 is issued from op N's ack, so
/// the shadow sees a serial history while each op's device sub-IOs
/// still interleave. Callbacks capture `this` raw; the driver outlives
/// the event loop, and abandoned post-crash events are never run.
struct Driver {
    const ChkWorkload *wl;
    ZonedArray *vol;
    EventLoop *loop;
    ShadowVolume *shadow;
    size_t next = 0;
    bool done = false;
    bool op_error = false;
    std::string detail;

    void
    fail_op(const ChkOp &op, const Status &st)
    {
        op_error = true;
        done = true;
        detail = strprintf("op %zu (%s): %s", next - 1,
                           to_string(op).c_str(),
                           st.to_string().c_str());
    }

    void
    issue()
    {
        if (next >= wl->size()) {
            done = true;
            return;
        }
        const ChkOp op = (*wl)[next++];
        switch (op.kind) {
          case OpKind::kWrite: {
            uint64_t lba = vol->zone_info(op.zone).value().start + op.off;
            std::vector<uint8_t> data =
                pattern_data(op.nsectors, op.seed);
            std::vector<uint64_t> snap;
            if (op.preflush)
                snap = shadow->wps();
            shadow->on_write_submitted(op.zone, op.off, data,
                                       op.nsectors);
            WriteFlags fl;
            fl.fua = op.fua;
            fl.preflush = op.preflush;
            uint64_t end_off = op.off + op.nsectors;
            vol->write(lba, std::move(data), fl,
                       [this, op, snap = std::move(snap),
                        end_off](IoResult r) {
                           if (!r.status.is_ok()) {
                               fail_op(op, r.status);
                               return;
                           }
                           if (op.preflush)
                               shadow->on_flush_acked(snap);
                           shadow->on_write_acked(op.zone, end_off,
                                                  op.fua);
                           issue();
                       });
            break;
          }
          case OpKind::kFlush: {
            std::vector<uint64_t> snap = shadow->wps();
            vol->flush([this, op, snap = std::move(snap)](IoResult r) {
                if (!r.status.is_ok()) {
                    fail_op(op, r.status);
                    return;
                }
                shadow->on_flush_acked(snap);
                issue();
            });
            break;
          }
          case OpKind::kResetZone: {
            shadow->on_reset_submitted(op.zone);
            vol->reset_zone(op.zone, [this, op](IoResult r) {
                if (!r.status.is_ok()) {
                    fail_op(op, r.status);
                    return;
                }
                shadow->on_reset_acked(op.zone);
                issue();
            });
            break;
          }
          case OpKind::kFinishZone: {
            shadow->on_finish_submitted(op.zone);
            vol->finish_zone(op.zone, [this, op](IoResult r) {
                if (!r.status.is_ok()) {
                    fail_op(op, r.status);
                    return;
                }
                shadow->on_finish_acked(op.zone);
                issue();
            });
            break;
          }
          case OpKind::kFailDevice: {
            vol->mark_device_failed(op.dev);
            // Step through the loop so the failure lands at a
            // deterministic schedule position.
            loop->schedule_after(1, [this] { issue(); });
            break;
          }
        }
    }
};

} // namespace

ChkGeom
ChkConfig::geom() const
{
    ChkGeom g;
    g.su_sectors = su_sectors;
    g.num_devices = num_devices;
    if (engine == RaidMode::kRaizn) {
        RaiznConfig rc;
        rc.num_devices = num_devices;
        rc.su_sectors = su_sectors;
        g.num_zones = nzones - rc.md_zones_per_device;
        g.zone_cap = static_cast<uint64_t>(rc.data_units()) * zone_cap;
        g.stripe_sectors =
            static_cast<uint64_t>(rc.data_units()) * su_sectors;
        return g;
    }
    EngineConfig ec;
    ec.mode = engine;
    ec.su_sectors = su_sectors;
    DeviceGeometry dg;
    dg.nzones = nzones;
    dg.zone_capacity = zone_cap;
    const ZonedEngine::Geometry eg =
        ZonedEngine::geometry(ec, num_devices, dg);
    g.num_zones = eg.nzones;
    g.zone_cap = eg.zone_cap;
    g.stripe_sectors = eg.stripe_sectors;
    return g;
}

std::string
ChkReport::summary() const
{
    std::string s = strprintf(
        "boundaries=%llu runs=%llu failures=%zu",
        (unsigned long long)boundaries, (unsigned long long)runs,
        failures.size());
    size_t show = std::min<size_t>(failures.size(), 5);
    for (size_t i = 0; i < show; ++i) {
        s += strprintf("\n  crash_point=%llu [%s] %s",
                       (unsigned long long)failures[i].crash_point,
                       failures[i].invariant.c_str(),
                       failures[i].detail.c_str());
    }
    if (failures.size() > show)
        s += strprintf("\n  ... and %zu more", failures.size() - show);
    return s;
}

struct CrashPointExplorer::Array {
    std::unique_ptr<EventLoop> loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    /// Fault decorators over `devs` (workload phase only; empty when
    /// no faults are configured).
    std::vector<std::unique_ptr<FaultInjectingDevice>> fdevs;
    std::unique_ptr<ZonedArray> vol;
    /// Typed views of `vol` — exactly one is non-null once created.
    RaiznVolume *rvol = nullptr;
    ZonedEngine *evol = nullptr;

    void
    set_vol(std::unique_ptr<RaiznVolume> v)
    {
        rvol = v.get();
        evol = nullptr;
        vol = std::move(v);
    }
    void
    set_vol(std::unique_ptr<ZonedEngine> v)
    {
        evol = v.get();
        rvol = nullptr;
        vol = std::move(v);
    }

    std::vector<ZnsDevice *>
    zns_ptrs() const
    {
        std::vector<ZnsDevice *> out;
        for (const auto &d : devs)
            out.push_back(d.get());
        return out;
    }
    std::vector<BlockDevice *>
    blk_ptrs() const
    {
        std::vector<BlockDevice *> out;
        for (const auto &d : devs)
            out.push_back(d.get());
        return out;
    }
};

CrashPointExplorer::CrashPointExplorer(ChkConfig cfg, ChkWorkload wl,
                                       ChkOptions opts)
    : cfg_(std::move(cfg)), wl_(std::move(wl)), opts_(std::move(opts))
{
}

CrashPointExplorer::~CrashPointExplorer() = default;

bool
CrashPointExplorer::drive(Array &arr, ShadowVolume &shadow,
                          uint64_t crash_at, uint64_t *completions,
                          uint64_t *final_hash,
                          std::vector<uint64_t> *hash_prefix,
                          ChkReport *rep, obs::Session *session)
{
    PROF_SCOPE("chk.drive");
    arr.loop = std::make_unique<EventLoop>();
    std::vector<BlockDevice *> ptrs;
    for (uint32_t i = 0; i < cfg_.num_devices; ++i) {
        ZnsDeviceConfig dc;
        dc.nzones = cfg_.nzones;
        dc.zone_size = cfg_.zone_cap;
        dc.zone_capacity = cfg_.zone_cap;
        dc.atomic_write_sectors = cfg_.atomic_write_sectors;
        dc.data_mode = DataMode::kStore;
        dc.name = "chk" + std::to_string(i);
        arr.devs.push_back(
            std::make_unique<ZnsDevice>(arr.loop.get(), dc));
        ptrs.push_back(arr.devs.back().get());
    }
    bool inject = opts_.faults.any() || opts_.fail_slow_dev >= 0;
    if (inject) {
        // The volume talks to fault decorators; traces and the
        // post-crash remount stay on the raw devices underneath.
        ptrs.clear();
        for (uint32_t i = 0; i < cfg_.num_devices; ++i) {
            FaultConfig fc = opts_.faults;
            fc.seed = opts_.faults.seed ^
                (0x9e3779b97f4a7c15ull * (i + 1));
            if (static_cast<int>(i) == opts_.fail_slow_dev)
                fc.latency_multiplier = opts_.fail_slow_mult;
            arr.fdevs.push_back(std::make_unique<FaultInjectingDevice>(
                arr.loop.get(), arr.devs[i].get(), fc));
            ptrs.push_back(arr.fdevs.back().get());
        }
    }
    if (cfg_.engine == RaidMode::kRaizn) {
        RaiznConfig rc;
        rc.num_devices = cfg_.num_devices;
        rc.su_sectors = cfg_.su_sectors;
        auto created = RaiznVolume::create(arr.loop.get(), ptrs, rc);
        if (!created.is_ok()) {
            rep->failures.push_back(
                {crash_at, "setup", created.status().to_string()});
            return false;
        }
        arr.set_vol(std::move(created).value());
        arr.rvol->set_debug_fault(opts_.fault);
    } else {
        if (opts_.phase == ChkOptions::Phase::kRebuild) {
            rep->failures.push_back(
                {crash_at, "setup",
                 "rebuild-phase exploration needs the raizn engine "
                 "(persistent rebuild checkpoints)"});
            return false;
        }
        if (opts_.fault != RaiznVolume::DebugFault::kNone) {
            rep->failures.push_back(
                {crash_at, "setup",
                 "debug faults are raizn-specific (partial-parity log)"});
            return false;
        }
        EngineConfig ec;
        ec.mode = cfg_.engine;
        ec.su_sectors = cfg_.su_sectors;
        auto created = ZonedEngine::create(arr.loop.get(), ptrs, ec);
        if (!created.is_ok()) {
            rep->failures.push_back(
                {crash_at, "setup", created.status().to_string()});
            return false;
        }
        arr.set_vol(std::move(created).value());
    }
    if (session != nullptr)
        arr.vol->attach(session);
    if (inject) {
        ZonedArray::ResilienceConfig rcfg;
        if (opts_.faults.stuck_rate > 0 || opts_.fail_slow_dev >= 0) {
            // Serial workload => tiny queue depth: a 10ms deadline
            // catches stuck IOs without tripping on queueing.
            rcfg.retry.io_deadline = 10 * kNsPerMs;
        }
        arr.vol->set_resilience(rcfg);
    }

    // Trace every completion from here on; mkfs is excluded so crash
    // point 0 is "power cut before the workload's first completion".
    // In the rebuild phase the whole workload is excluded too: tracing
    // (and the crash point count) starts with the rebuild's first IO.
    uint64_t hash = kFnvBasis;
    if (hash_prefix)
        hash_prefix->assign(1, hash);
    auto install_traces = [&] {
        for (uint32_t d = 0; d < cfg_.num_devices; ++d) {
            arr.devs[d]->set_trace(
                [d, completions, &hash,
                 hash_prefix](const ZnsTraceEvent &ev) {
                    (*completions)++;
                    hash = hash_event(hash, d, ev);
                    if (hash_prefix)
                        hash_prefix->push_back(hash);
                });
        }
    };
    bool rebuild_phase = opts_.phase == ChkOptions::Phase::kRebuild;
    if (!rebuild_phase)
        install_traces();

    Driver drv;
    drv.wl = &wl_;
    drv.vol = arr.vol.get();
    drv.loop = arr.loop.get();
    drv.shadow = &shadow;
    drv.issue();
    if (!rebuild_phase) {
        arr.loop->run_until_pred(
            [&] { return *completions >= crash_at || drv.done; });
        if (!drv.op_error && *completions < crash_at) {
            // Workload acked; drain straggler completions (metadata
            // appends issued without waiting) up to the crash point.
            arr.loop->run_until_pred(
                [&] { return *completions >= crash_at; });
        }
    } else {
        arr.loop->run_until_pred([&] { return drv.done; });
        if (!drv.op_error) {
            // Quiesce stragglers so the traced window holds rebuild IO
            // only, then fail the target and rebuild onto a blank swap.
            arr.loop->run();
            uint32_t target = opts_.rebuild_dev % cfg_.num_devices;
            if (arr.vol->failed_device() >= 0 &&
                arr.vol->failed_device() != static_cast<int>(target)) {
                rep->failures.push_back(
                    {crash_at, "setup",
                     "rebuild phase needs a workload that leaves the "
                     "array healthy"});
                return false;
            }
            arr.vol->mark_device_failed(target);
            arr.devs[target]->replace();
            if (opts_.rebuild_rate > 0) {
                RaiznVolume::LifecycleConfig lc;
                lc.throttle.rate_sectors_per_sec = opts_.rebuild_rate;
                arr.rvol->set_lifecycle(lc);
            }
            install_traces();
            bool rb_done = false;
            Status rb_st;
            arr.vol->rebuild_device(target, nullptr, [&](Status s) {
                rb_st = s;
                rb_done = true;
            });
            arr.loop->run_until_pred(
                [&] { return *completions >= crash_at || rb_done; });
            if (rb_done && !rb_st.is_ok()) {
                rep->failures.push_back(
                    {crash_at, "rebuild", rb_st.to_string()});
                drv.op_error = true;
            } else if (rb_done && *completions < crash_at) {
                // Drain the trailing completion-checkpoint appends.
                arr.loop->run_until_pred(
                    [&] { return *completions >= crash_at; });
            }
        }
    }
    *final_hash = hash;
    for (uint32_t d = 0; d < cfg_.num_devices; ++d)
        arr.devs[d]->set_trace(nullptr);
    if (drv.op_error) {
        if (!drv.detail.empty())
            rep->failures.push_back({crash_at, "workload", drv.detail});
        return false;
    }
    return true;
}

uint64_t
CrashPointExplorer::count_boundaries()
{
    if (counted_)
        return boundaries_;
    ChkGeom g = cfg_.geom();
    ShadowVolume shadow(g.num_zones, g.zone_cap, true);
    Array arr;
    uint64_t completions = 0, hash = 0;
    ChkReport scratch;
    if (!drive(arr, shadow, UINT64_MAX, &completions, &hash, &ref_hash_,
               &scratch)) {
        LOG_ERROR("chk reference run failed: %s",
                  scratch.failures.back().detail.c_str());
        return 0;
    }
    boundaries_ = completions;
    counted_ = true;
    return boundaries_;
}

void
CrashPointExplorer::run_one(uint64_t crash_at, ChkReport *rep)
{
    // Declared before the array, which it must outlive; started first
    // so the run's own scopes land in its profile.
    std::unique_ptr<obs::Session> session;
    if (!opts_.obs_dir.empty()) {
        session = std::make_unique<obs::Session>(kChkTimeline);
        session->start();
    }
    PROF_SCOPE("chk.run_one");
    Array arr;
    rep->runs++;
    size_t fails_before = rep->failures.size();
    check_point(arr, crash_at, session.get(), rep);
    if (session == nullptr || rep->failures.size() == fails_before)
        return;
    // An early failure left the pre-cut array alive: write() closes
    // the session before anything dies.
    std::string dir = opts_.obs_dir +
        strprintf("/point_%llu", (unsigned long long)crash_at);
    Status s = session->write(dir);
    if (!s.is_ok()) {
        LOG_ERROR("chk: triage bundle failed: %s", s.to_string().c_str());
        return;
    }
    LOG_INFO("chk: wrote triage bundle %s (%zu trace spans)", dir.c_str(),
             session->trace().size());
}

void
CrashPointExplorer::check_point(Array &arr, uint64_t crash_at,
                                obs::Session *session, ChkReport *rep)
{
    ChkGeom g = cfg_.geom();
    ShadowVolume shadow(g.num_zones, g.zone_cap, true);
    uint64_t completions = 0, hash = 0;
    if (!drive(arr, shadow, crash_at, &completions, &hash, nullptr, rep,
               session))
        return;

    if (opts_.verify_replay && counted_ &&
        completions < ref_hash_.size() &&
        hash != ref_hash_[completions]) {
        rep->failures.push_back(
            {crash_at, "replay-hash",
             strprintf("schedule diverged from reference after %llu "
                       "completions",
                       (unsigned long long)completions)});
        return;
    }

    // The pre-cut loop and volume die below: the bundle is the state
    // at the cut. Spans still open then never entered the trace ring.
    if (session != nullptr)
        session->close();

    // Snapshot acknowledged generations, then cut power everywhere.
    std::vector<uint64_t> pre_gens;
    for (uint32_t z = 0; z < g.num_zones; ++z)
        pre_gens.push_back(arr.rvol ? arr.rvol->gen_counters().get(z)
                                    : arr.evol->zone_gen(z));
    arr.rvol = nullptr;
    arr.evol = nullptr;
    arr.vol.reset();
    for (uint32_t d = 0; d < cfg_.num_devices; ++d) {
        PowerLossSpec spec;
        if (opts_.divergent_loss) {
            spec.policy = d == 0 ? PowerLossSpec::Policy::kDropCache
                                 : PowerLossSpec::Policy::kKeepAll;
        } else {
            spec.policy = opts_.policy;
        }
        spec.seed = opts_.loss_seed ^ (crash_at * 0x9e3779b9u + d);
        arr.devs[d]->power_cut(spec);
    }
    arr.loop = std::make_unique<EventLoop>();
    for (auto &dev : arr.devs)
        dev->reattach(arr.loop.get());

    if (cfg_.engine == RaidMode::kRaizn) {
        auto mounted = RaiznVolume::mount(arr.loop.get(), arr.blk_ptrs());
        if (!mounted.is_ok()) {
            rep->failures.push_back(
                {crash_at, "mount", mounted.status().to_string()});
            return;
        }
        arr.set_vol(std::move(mounted).value());
    } else {
        EngineConfig ec;
        ec.mode = cfg_.engine;
        ec.su_sectors = cfg_.su_sectors;
        auto mounted =
            ZonedEngine::mount(arr.loop.get(), arr.blk_ptrs(), ec);
        if (!mounted.is_ok()) {
            rep->failures.push_back(
                {crash_at, "mount", mounted.status().to_string()});
            return;
        }
        arr.set_vol(std::move(mounted).value());
    }

    if (opts_.phase == ChkOptions::Phase::kRebuild) {
        PROF_SCOPE("chk.rebuild");
        // Drive the interrupted rebuild to completion: resume from the
        // persisted checkpoint when one survived the cut, restart from
        // scratch when the cut landed before checkpoint #0 was durable
        // (mount then flags the blank replacement as the absent
        // device). Either way the oracle judges a healed array.
        bool resumed = arr.rvol->has_pending_rebuild();
        Status rb_st;
        bool rb_done = true;
        if (resumed) {
            rb_done = false;
            arr.rvol->resume_rebuild(nullptr, [&](Status s) {
                rb_st = s;
                rb_done = true;
            });
        } else if (arr.vol->failed_device() >= 0) {
            rb_done = false;
            arr.vol->rebuild_device(
                static_cast<uint32_t>(arr.vol->failed_device()), nullptr,
                [&](Status s) {
                    rb_st = s;
                    rb_done = true;
                });
        }
        arr.loop->run_until_pred([&] { return rb_done; });
        if (!rb_st.is_ok()) {
            rep->failures.push_back({crash_at,
                                     resumed ? "rebuild-resume"
                                             : "rebuild-restart",
                                     rb_st.to_string()});
            return;
        }
        if (arr.vol->failed_device() >= 0) {
            rep->failures.push_back(
                {crash_at, "rebuild-resume",
                 "volume still degraded after post-crash rebuild"});
            return;
        }
        // Late cut points must have at least one durably checkpointed
        // zone to skip on resume — otherwise the checkpoint record is
        // not actually saving re-rebuild work (zone cursor stuck at 0).
        uint64_t total_zones = arr.rvol->stats().zones_rebuilt +
            arr.rvol->stats().rebuild_zones_resumed;
        if (resumed && counted_ && total_zones >= 2 &&
            crash_at >= boundaries_ - boundaries_ / 4 &&
            arr.rvol->stats().rebuild_zones_resumed == 0) {
            rep->failures.push_back(
                {crash_at, "rebuild-checkpoint",
                 strprintf("late cut (%llu of %llu completions) "
                           "resumed zero of %llu zones from the "
                           "checkpoint",
                           (unsigned long long)crash_at,
                           (unsigned long long)boundaries_,
                           (unsigned long long)total_zones)});
            return;
        }
    }

    {
        PROF_SCOPE("chk.oracle");
        if (arr.rvol != nullptr) {
            OracleOptions oo;
            oo.check_parity = opts_.check_parity;
            oo.degrade_dev = opts_.check_degraded
                ? static_cast<int>(crash_at % cfg_.num_devices)
                : -1;
            check_invariants(*arr.loop, *arr.rvol, arr.zns_ptrs(),
                             shadow, pre_gens, oo, crash_at,
                             &rep->failures);
        } else {
            EngineOracleOptions eo;
            eo.check_scrub = opts_.check_parity;
            eo.degrade_dev = opts_.check_degraded
                ? static_cast<int>(crash_at % cfg_.num_devices)
                : -1;
            check_engine_invariants(*arr.loop, *arr.evol, shadow,
                                    pre_gens, eo, crash_at,
                                    &rep->failures);
        }
    }
}

ChkReport
CrashPointExplorer::explore_all()
{
    ChkReport rep;
    rep.boundaries = count_boundaries();
    for (uint64_t n = 0; n <= rep.boundaries; ++n)
        run_one(n, &rep);
    return rep;
}

ChkReport
CrashPointExplorer::explore_points(const std::vector<uint64_t> &points)
{
    ChkReport rep;
    rep.boundaries = count_boundaries();
    for (uint64_t n : points)
        run_one(std::min(n, rep.boundaries), &rep);
    return rep;
}

ChkReport
CrashPointExplorer::sweep_random(uint64_t nsamples, uint64_t seed)
{
    ChkReport rep;
    rep.boundaries = count_boundaries();
    Rng rng(seed ^ 0xc4a5c85d68d3afe5ull);
    for (uint64_t i = 0; i < nsamples; ++i)
        run_one(rng.next_below(rep.boundaries + 1), &rep);
    return rep;
}

} // namespace raizn::chk
