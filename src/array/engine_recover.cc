/**
 * @file
 * ZonedEngine mount-time recovery (metadata-log replay, write-pointer
 * reconciliation), and the rebuild and scrub policies (the shared walks
 * live in array/rebuild.cc and array/scrub.cc). The data path lives in
 * engine.cc.
 */
#include "array/engine.h"

#include <algorithm>

#include "array/stripe_gather.h"
#include "common/logging.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

uint64_t
bit(uint32_t dev)
{
    return 1ull << dev;
}

/// rebuild_role: the target holds no unit of the stripe.
constexpr int kNoRole = -3;

/// Tags an engine rebuild command with its trace stage and cause.
IoRequest
rebuild_io(IoRequest req)
{
    req.trace_stage = "eng.rebuild";
    req.cause = obs::Cause::kRebuild;
    return req;
}

} // namespace

// ---------------------------------------------------------------------
// Mount
// ---------------------------------------------------------------------

Status
ZonedEngine::run_mount()
{
    for (uint32_t d = 0; d < num_devices(); ++d)
        if (devs_[d]->failed())
            note_failed(d);
    Status s = replay_log();
    if (!s.is_ok())
        return s;
    for (uint32_t z = 0; z < nzones_; ++z) {
        s = recover_zone(z);
        if (!s.is_ok())
            return s;
    }
    return Status::ok();
}

Status
ZonedEngine::replay_log()
{
    auto logs = md_->scan();
    if (!logs.is_ok())
        return logs.status();
    // Every member logs the same records, so the union of the logs is
    // the state: each field keeps its newest generation, and the
    // participants of one generation merge.
    struct ZoneLog {
        uint64_t intent_gen = 0;
        bool has_parts = false;
        uint64_t gen = 0;
        uint64_t parts = ~0ull;
        bool has_kind = false;
        uint64_t kind_gen = 0;
        uint32_t kind = 0;
        std::vector<std::pair<uint64_t, uint64_t>> joins; // (gen, bits)
    };
    std::vector<ZoneLog> zl(nzones_);
    for (const MdManager::DeviceLog &log : logs.value()) {
        for (const MdEntry &e : log.entries) {
            ZoneRecord r;
            if (!decode_zone_record(e, &r) || r.zone >= nzones_)
                continue;
            ZoneLog &w = zl[r.zone];
            switch (r.op) {
            case ZoneRecord::kResetIntent:
                w.intent_gen = std::max(w.intent_gen, r.gen);
                break;
            case ZoneRecord::kSnapshot:
                if (r.reset_pending)
                    w.intent_gen = std::max(w.intent_gen, r.gen + 1);
                [[fallthrough]];
            case ZoneRecord::kResetDone:
                if (!w.has_parts || r.gen > w.gen) {
                    w.gen = r.gen;
                    w.parts = r.participants;
                } else if (r.gen == w.gen) {
                    w.parts |= r.participants;
                }
                w.has_parts = true;
                break;
            case ZoneRecord::kJoin:
                w.joins.emplace_back(r.gen, r.participants);
                break;
            default:
                break;
            }
            if (r.kind != ZoneRecord::kNoKind &&
                (!w.has_kind || r.gen >= w.kind_gen)) {
                w.has_kind = true;
                w.kind_gen = r.gen;
                w.kind = r.kind;
            }
        }
    }

    for (uint32_t z = 0; z < nzones_; ++z) {
        ZoneLog &w = zl[z];
        EZone &ez = zones_[z];
        uint64_t gen = w.gen;
        uint64_t parts = w.parts;
        if (w.intent_gen > gen) {
            // Interrupted reset: roll it forward. Physical resets are
            // idempotent, and the completion record makes the new
            // participant set durable.
            uint64_t np = 0;
            for (uint32_t d = 0; d < num_devices(); ++d) {
                if (is_marked_failed(d))
                    continue;
                IoRequest rst = IoRequest::zone_reset(dev_row_lba(z, 0));
                rst.cause = obs::Cause::kWalMd;
                IoResult r = submit_sync(*loop_, *devs_[d], std::move(rst));
                if (!r.status.is_ok())
                    return r.status;
                np |= bit(d);
            }
            ZoneRecord drec;
            drec.op = ZoneRecord::kResetDone;
            drec.zone = z;
            drec.gen = w.intent_gen;
            drec.participants = np;
            bool logged = false;
            Status ls;
            log_zone(drec, [&](Status st) {
                ls = st;
                logged = true;
            });
            loop_->run_until_pred([&] { return logged; });
            if (!ls.is_ok())
                return ls;
            parts = np;
            gen = w.intent_gen;
        }
        for (const auto &j : w.joins)
            if (j.first == gen)
                parts |= j.second;
        ez.gen = gen;
        ez.participants = parts;
        if (cfg_.mode == RaidMode::kAuto) {
            if (w.has_kind && w.kind_gen == gen) {
                ez.kind = static_cast<ZoneKind>(w.kind);
                ez.kind_decided = true;
            } else {
                // No data of this generation can be on media: the kind
                // record is logged durably before the first chunk.
                ez.kind = ZoneKind::kParity;
                ez.kind_decided = false;
            }
        }
    }
    return Status::ok();
}

Status
ZonedEngine::recover_zone(uint32_t zone)
{
    EZone &z = zones_[zone];
    const uint32_t n = num_devices();
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    std::vector<uint64_t> rows(n, 0);
    std::vector<bool> full(n, false);
    for (uint32_t d = 0; d < n; ++d) {
        if (is_marked_failed(d))
            continue;
        Result<ZoneInfo> zi = devs_[d]->zone_info(zone);
        if (!zi.is_ok())
            return zi.status();
        full[d] = zi.value().full();
        rows[d] = full[d] ? phys_cap_ : zi.value().written();
    }
    auto trusted = [&](uint32_t d) {
        return !is_marked_failed(d) && (z.participants & bit(d)) != 0;
    };

    // "Finished" must hold under degraded finishes, where only the live
    // members reached kFull: a zone is finished when enough trusted
    // full copies exist to serve its whole capacity.
    bool finished = false;
    switch (z.kind) {
    case ZoneKind::kMirror:
        for (uint32_t d = 0; d < n; ++d)
            if (trusted(d) && full[d])
                finished = true;
        break;
    case ZoneKind::kMirrorPairs: {
        finished = true;
        for (uint32_t u = 0; u < n / 2 && finished; ++u) {
            bool pair_ok = false;
            for (uint32_t d : {2 * u, 2 * u + 1})
                if (trusted(d) && full[d])
                    pair_ok = true;
            finished = pair_ok;
        }
        break;
    }
    default:
        finished = true;
        for (uint32_t d = 0; d < n; ++d)
            if (!trusted(d) || !full[d])
                finished = false;
        break;
    }

    uint64_t fill = 0;
    if (finished) {
        fill = zone_cap_;
    } else if (z.kind == ZoneKind::kMirror) {
        for (uint32_t d = 0; d < n; ++d)
            if (trusted(d))
                fill = std::max(fill,
                                std::min<uint64_t>(rows[d], zone_cap_));
    } else {
        // Longest logically-contiguous prefix with every chunk row
        // present on a trusted member. Parity is written only once a
        // stripe is complete, so a full P (or Q) row on a trusted
        // member also stands for a unit an untrusted member held.
        auto sealed = [&](uint64_t stripe) {
            for (int p : {parity_dev(zone, stripe), q_dev(zone, stripe)}) {
                const auto d = static_cast<uint32_t>(p);
                if (p >= 0 && trusted(d) && rows[d] >= (stripe + 1) * su)
                    return true;
            }
            return false;
        };
        bool stop = false;
        for (uint64_t stripe = 0; !stop && fill < zone_cap_; ++stripe) {
            for (uint32_t u = 0; u < units && !stop; ++u) {
                uint64_t have = 0;
                bool any_trusted = false;
                for (uint32_t d : unit_devs(zone, stripe, u)) {
                    if (!trusted(d))
                        continue;
                    any_trusted = true;
                    uint64_t avail = rows[d] > stripe * su
                        ? std::min<uint64_t>(rows[d] - stripe * su, su)
                        : 0;
                    have = std::max(have, avail);
                }
                if (!any_trusted && sealed(stripe))
                    have = su;
                fill += have;
                if (have < su)
                    stop = true;
            }
        }
        fill = std::min(fill, zone_cap_);
    }

    z.fill = fill;
    z.finished = finished;
    // Non-empty recovered zones are read-only until reset: the engine
    // cannot resume a ZNS append stream whose members may disagree
    // about the tail (and tail-stripe parity died with the crash).
    z.frozen = fill > 0;
    z.rec_fill.assign(n, 0);
    for (uint32_t d = 0; d < n; ++d) {
        if (!trusted(d))
            continue;
        z.rec_fill[d] = z.kind == ZoneKind::kMirror
            ? std::min<uint64_t>(rows[d], zone_cap_)
            : rows[d];
    }
    return Status::ok();
}

// ---------------------------------------------------------------------
// Rebuild
// ---------------------------------------------------------------------

bool
ZonedEngine::rebuild_zones(uint32_t /*dev*/, std::vector<uint32_t> *out) const
{
    for (uint32_t z = 0; out != nullptr && z < nzones_; ++z)
        out->push_back(z);
    return true;
}

void
ZonedEngine::rebuild_prepare(uint32_t dev, StatusCb cb)
{
    // The target is up from here on, yet whatever it held is untrusted
    // until copied back, zone by zone; participants gate both reads and
    // new writes.
    for (uint32_t z = 0; z < nzones_; ++z)
        zones_[z].participants &= ~bit(dev);
    LOG_INFO("%s: rebuilding member %u", metric_prefix().c_str(), dev);
    Status st = md_->format_device(dev);
    if (!st.is_ok()) {
        cb(st);
        return;
    }
    // The target's log starts from the zone snapshot, which holds
    // every zone now that the target left each participant set; the
    // records appended from here on reach it like every other member.
    MemberJoin join(this, [cb = std::move(cb)](IoResult r) { cb(r.status); });
    for (MdAppend &rec : snapshot_records())
        log_to(dev, std::move(rec), join);
    join.seal();
}

void
ZonedEngine::rebuild_zone_open(uint32_t dev, uint32_t zone,
                               std::function<void(Status, uint64_t)> cb)
{
    // Run as a zone-queue step: every already-submitted write has
    // issued its chunks (so the chains order them before our reads),
    // and later writes stay parked until the zone commits. The fill
    // snapshot is therefore stable for the whole pass.
    zone_enqueue(zone, [this, dev, zone,
                        cb = std::move(cb)](std::function<void()> wq_done) {
        rebuild_release_ = std::move(wq_done);
        // Wipe the target's copy of the zone; its write pointer must
        // restart from zero for the sequential copy.
        IoRequest rst = IoRequest::zone_reset(dev_row_lba(zone, 0));
        chain_submit(dev, zone, rebuild_io(std::move(rst)),
                     [this, dev, zone, cb, alive = alive_](IoResult r) {
            if (!*alive)
                return;
            const EZone &ez = zones_[zone];
            const uint64_t limit = ez.finished ? zone_cap_ : ez.fill;
            const uint64_t unit = ez.kind == ZoneKind::kMirror
                ? kMirrorRebuildRows
                : static_cast<uint64_t>(cfg_.su_sectors) * units_of(ez.kind);
            if (!r.status.is_ok())
                cb(r.status, 0);
            else if (ez.kind != ZoneKind::kStripe0)
                cb(Status::ok(), div_ceil(limit, unit));
            else if (limit > static_cast<uint64_t>(dev) * cfg_.su_sectors)
                cb(Status(StatusCode::kIoError,
                          "raid0 data on a lost member is unrecoverable"),
                   0);
            else
                cb(Status::ok(), 0);
        });
    });
}

int
ZonedEngine::rebuild_role(uint32_t t, uint32_t zone, uint64_t stripe) const
{
    const EZone &z = zones_[zone];
    if (parity_dev(zone, stripe) == static_cast<int>(t))
        return StripeGather::kP;
    if (q_dev(zone, stripe) == static_cast<int>(t))
        return StripeGather::kQ;
    if (z.kind == ZoneKind::kMirrorPairs)
        return static_cast<int>(t / 2);
    for (uint32_t u = 0; u < units_of(z.kind); ++u)
        if (chunk_dev(zone, stripe, u) == t)
            return static_cast<int>(u);
    return kNoRole;
}

uint32_t
ZonedEngine::rebuild_source(uint32_t t, uint32_t zone, uint64_t stripe,
                            uint32_t u, uint64_t row_end) const
{
    for (uint32_t d : mirror_sources(zone, row_end, unit_devs(zone, stripe, u)))
        if (d != t && !is_marked_failed(d))
            return d;
    return UINT32_MAX;
}

ZonedArray::RebuildExtent
ZonedEngine::rebuild_extent(uint32_t t, uint32_t zone, uint64_t unit) const
{
    const EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint64_t limit = z.finished ? zone_cap_ : z.fill;
    if (z.kind == ZoneKind::kMirror) {
        const uint64_t row = unit * kMirrorRebuildRows;
        return {dev_row_lba(zone, row),
                static_cast<uint32_t>(
                    std::min<uint64_t>(limit - row, kMirrorRebuildRows))};
    }
    const uint64_t stripe_sect = static_cast<uint64_t>(su) * units_of(z.kind);
    const uint64_t base = unit * stripe_sect;
    const uint64_t lba = dev_row_lba(zone, unit * su);
    const bool complete = base + stripe_sect <= limit;
    const int role = rebuild_role(t, zone, unit);
    if (role == StripeGather::kP || role == StripeGather::kQ) {
        // Tail-stripe parity is in-memory only; nothing to restore.
        return {lba, complete ? su : 0u};
    }
    const uint64_t chunk_base = base + static_cast<uint64_t>(role) * su;
    // A frozen zone's open stripe lost its tail buffer with the crash:
    // leave the target short, mirroring the degraded-read contract.
    if (role == kNoRole || limit <= chunk_base ||
        (!complete && z.frozen && z.kind != ZoneKind::kMirrorPairs))
        return {};
    return {lba, static_cast<uint32_t>(
                     std::min<uint64_t>(limit - chunk_base, su))};
}

void
ZonedEngine::rebuild_read(uint32_t t, uint32_t zone, uint64_t unit,
                          const RebuildExtent &e, DataCb cb)
{
    EZone &z = zones_[zone];
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    const uint64_t row0 = e.pba - dev_row_lba(zone, 0);
    const int role = z.kind == ZoneKind::kMirror ? 0
                                                 : rebuild_role(t, zone, unit);
    auto unavailable = [&cb](const char *what) {
        cb(Status(StatusCode::kIoError, what), {});
    };
    // Timing-only members: only mirror zones read what they copy.
    if (!store_data_ && z.kind != ZoneKind::kMirror) {
        cb(Status::ok(), {});
        return;
    }
    if (z.kind == ZoneKind::kMirror || z.kind == ZoneKind::kMirrorPairs) {
        // Copy the rows from an intact replica.
        const uint32_t src = rebuild_source(
            t, zone, unit, static_cast<uint32_t>(role), row0 + e.nsectors);
        if (src == UINT32_MAX) {
            unavailable("rebuild: no intact mirror copy");
            return;
        }
        chain_submit(src, zone,
                     rebuild_io(IoRequest::read(e.pba, e.nsectors)),
                     [cb = std::move(cb)](IoResult r) {
                         cb(r.status, std::move(r.data));
                     });
        return;
    }
    if (role == StripeGather::kP || role == StripeGather::kQ) {
        // The lost parity solves its equation over the data units.
        std::vector<uint32_t> src(units);
        for (uint32_t u = 0; u < units; ++u) {
            src[u] = rebuild_source(t, zone, unit, u, row0 + su);
            if (src[u] == UINT32_MAX) {
                unavailable("rebuild: stripe data unavailable");
                return;
            }
        }
        StripeGather::Spec spec;
        spec.fold = role == StripeGather::kQ ? StripeGather::Fold::kQ
                                             : StripeGather::Fold::kXor;
        spec.bytes = static_cast<size_t>(su) * kSectorSize;
        spec.lost = role;
        spec.zone = zone;
        spec.cause = obs::Cause::kRebuild;
        spec.stage = "eng.rebuild";
        StripeGather g(this, spec, std::move(cb));
        for (uint32_t u = 0; u < units; ++u)
            g.read(src[u], e.pba, su, static_cast<int>(u));
        g.seal();
        return;
    }
    const uint64_t limit = z.finished ? zone_cap_ : z.fill;
    if ((unit + 1) * su * units > limit) {
        // Open (tail) stripe: parity is not on media. Serve the chunk
        // from the in-memory tail buffer.
        auto it = z.tails.find(unit);
        const size_t off = static_cast<size_t>(role) * su * kSectorSize;
        const size_t len = static_cast<size_t>(e.nsectors) * kSectorSize;
        if (it == z.tails.end() || it->second.data.size() < off + len ||
            it->second.filled < static_cast<uint64_t>(role) * su + e.nsectors) {
            unavailable("rebuild: open-stripe data unavailable");
            return;
        }
        const uint8_t *p = it->second.data.data() + off;
        cb(Status::ok(), std::vector<uint8_t>(p, p + len));
        return;
    }
    reconstruct_chunk(zone, unit, static_cast<uint32_t>(role), 0, e.nsectors,
                      obs::Cause::kRebuild, std::move(cb));
}

void
ZonedEngine::rebuild_write(uint32_t dev, uint32_t zone, IoRequest req,
                           IoCallback cb)
{
    chain_submit(dev, zone, std::move(req), std::move(cb));
}

void
ZonedEngine::rebuild_zone_done(uint32_t dev, uint32_t zone, Status s,
                               StatusCb cb)
{
    if (!s.is_ok() || !zones_[zone].finished) {
        rebuild_join(dev, zone, s, std::move(cb));
        return;
    }
    chain_submit(dev, zone,
                 rebuild_io(IoRequest::zone_finish(dev_row_lba(zone, 0))),
                 [this, dev, zone, cb = std::move(cb),
                  alive = alive_](IoResult r) {
                     if (*alive)
                         rebuild_join(dev, zone, r.status, cb);
                 });
}

void
ZonedEngine::rebuild_join(uint32_t t, uint32_t zone, Status s, StatusCb cb)
{
    std::function<void()> release = std::move(rebuild_release_);
    rebuild_release_ = nullptr;
    if (!s.is_ok()) {
        release();
        cb(s);
        return;
    }
    EZone &ez = zones_[zone];
    ez.participants |= bit(t);
    Result<ZoneInfo> zi = devs_[t]->zone_info(zone);
    if (!ez.rec_fill.empty() && zi.is_ok()) {
        uint64_t rows = zi.value().full() ? phys_cap_ : zi.value().written();
        ez.rec_fill[t] = ez.kind == ZoneKind::kMirror
            ? std::min<uint64_t>(rows, zone_cap_)
            : rows;
    }
    ++stats_.zones_rebuilt;
    ZoneRecord j;
    j.op = ZoneRecord::kJoin;
    j.zone = zone;
    j.gen = ez.gen;
    j.participants = bit(t);
    log_zone(j, [zone, release, cb, alive = alive_](Status js) {
        if (!*alive)
            return;
        if (!js.is_ok())
            LOG_WARN("rebuild: join record for zone %u failed: %s", zone,
                     js.message().c_str());
        release();
        cb(Status::ok());
    });
}

void
ZonedEngine::rebuild_finish(uint32_t dev, Status s, StatusCb cb)
{
    auto conclude = [this, dev, cb = std::move(cb)](Status st) {
        if (st.is_ok()) {
            LOG_INFO("%s: member %u rebuilt (%llu zones)",
                     metric_prefix().c_str(), dev,
                     static_cast<unsigned long long>(stats_.zones_rebuilt));
        } else {
            // The target stays failed; per-zone participants already
            // exclude it.
            LOG_WARN("%s: rebuild of member %u failed: %s",
                     metric_prefix().c_str(), dev, st.message().c_str());
        }
        cb(st);
    };
    if (!s.is_ok()) {
        conclude(s);
        return;
    }
    // Seal the member with a flush.
    dev_submit(dev, rebuild_io(IoRequest::flush()),
               [conclude, alive = alive_](IoResult r) {
                   if (*alive)
                       conclude(r.status);
               });
}

// ---------------------------------------------------------------------
// Scrub policy
// ---------------------------------------------------------------------

bool
ZonedEngine::scrub_candidates(std::vector<ScrubStripe> *out) const
{
    const uint32_t su = cfg_.su_sectors;
    for (uint32_t zone = 0; zone < nzones_; ++zone) {
        const EZone &z = zones_[zone];
        const uint64_t ss = static_cast<uint64_t>(su) * units_of(z.kind);
        const uint64_t limit = z.finished ? zone_cap_ : z.fill;
        // Parity kinds verify complete stripes only: the open tail
        // stripe's parity is still in memory.
        const bool parity_kind = parity_dev(zone, 0) >= 0;
        const uint64_t nstripes =
            parity_kind ? limit / ss : (limit + ss - 1) / ss;
        for (uint64_t s = 0; s < nstripes; ++s) {
            if (!parity_kind || z.tails.count(s) == 0)
                out->push_back({zone, s, z.gen});
        }
    }
    return true;
}

bool
ZonedEngine::scrub_plan(const ScrubStripe &s, ScrubPlan *plan)
{
    EZone &z = zones_[s.zone];
    if (z.gen != s.gen || z.resetting)
        return false;
    if (plan == nullptr)
        return true;
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    const uint64_t limit = z.finished ? zone_cap_ : z.fill;
    const uint64_t row = s.stripe * su;
    const uint64_t lba = dev_row_lba(s.zone, row);
    plan->crc = &z.crc;
    for (uint32_t u = 0; u < units; ++u) {
        const uint64_t off = (s.stripe * units + u) * su;
        if (off >= limit)
            break;
        const auto n =
            static_cast<uint32_t>(std::min<uint64_t>(su, limit - off));
        const size_t copies = plan->units.size();
        for (uint32_t d : mirror_sources(s.zone, row + n,
                                         unit_devs(s.zone, s.stripe, u))) {
            if (!is_marked_failed(d))
                plan->units.push_back({d, lba, n, static_cast<int>(u), off});
        }
        if (plan->units.size() == copies)
            ++plan->unreadable;
    }
    // Parity kinds need every member to check the equations.
    const int pq[2] = {parity_dev(s.zone, s.stripe), q_dev(s.zone, s.stripe)};
    for (int i = 0; i < 2 && pq[i] >= 0; ++i) {
        const auto d = static_cast<uint32_t>(pq[i]);
        if (plan->unreadable > 0 || is_marked_failed(d) ||
            mirror_sources(s.zone, row + su, {d}).empty())
            return false;
        plan->units.push_back(
            {d, lba, su, i == 0 ? StripeGather::kP : StripeGather::kQ, 0});
    }
    return true;
}

} // namespace raizn
