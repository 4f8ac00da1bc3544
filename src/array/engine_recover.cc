/**
 * @file
 * ZonedEngine mount-time recovery (journal replay, write-pointer
 * reconciliation), device rebuild, the spare-promotion lifecycle, and
 * the scrub policy (the walker lives in array/scrub.cc). The data path
 * lives in engine.cc.
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

} // namespace

// ---------------------------------------------------------------------
// Mount
// ---------------------------------------------------------------------

Status
ZonedEngine::run_mount()
{
    Status s = replay_wal();
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
ZonedEngine::replay_wal()
{
    const uint32_t n = num_devices();
    struct Slot {
        bool valid = false;
        WalRecord rec;
    };
    std::vector<uint64_t> heights(n, 0);
    uint64_t max_h = 0;
    for (uint32_t d = 0; d < n; ++d) {
        if (failed_devs_[d])
            continue;
        Result<ZoneInfo> zi = devs_[d]->zone_info(0);
        if (!zi.is_ok())
            return zi.status();
        heights[d] = std::min<uint64_t>(zi.value().written(), wal_slots_);
        max_h = std::max(max_h, heights[d]);
    }
    std::vector<Slot> merged(max_h);
    for (uint32_t d = 0; d < n; ++d) {
        if (failed_devs_[d] || heights[d] == 0)
            continue;
        IoRequest rd = IoRequest::read(0, static_cast<uint32_t>(heights[d]));
        rd.cause = obs::Cause::kWalMd;
        IoResult r = submit_sync(*loop_, *devs_[d], std::move(rd));
        if (!r.status.is_ok())
            return r.status;
        for (uint64_t s = 0; s < heights[d]; ++s) {
            WalRecord rec;
            // A torn append fails the CRC; every durable copy of a slot
            // carries the same record, so first-valid wins.
            if (!decode_wal(r.data.data() + s * kSectorSize, &rec))
                continue;
            if (!merged[s].valid) {
                merged[s].valid = true;
                merged[s].rec = rec;
            }
        }
    }
    wal_next_ = max_h;
    // Journals can diverge in height after a crash (appends reached
    // some members only). Pad the short ones so the next append lands
    // at one slot everywhere.
    for (uint32_t d = 0; d < n; ++d) {
        if (failed_devs_[d])
            continue;
        for (uint64_t s = heights[d]; s < max_h; ++s) {
            std::vector<uint8_t> sector = merged[s].valid
                ? encode_wal(merged[s].rec)
                : std::vector<uint8_t>(kSectorSize, 0);
            IoRequest wr =
                IoRequest::write(s, std::move(sector), /*fua=*/true);
            wr.cause = obs::Cause::kWalMd;
            IoResult w = submit_sync(*loop_, *devs_[d], std::move(wr));
            if (!w.status.is_ok())
                return w.status;
        }
    }

    struct ZoneWal {
        uint64_t intent_gen = 0;
        uint64_t done_gen = 0;
        uint64_t done_parts = ~0ull;
        bool has_kind = false;
        uint64_t kind_gen = 0;
        uint32_t kind = 0;
        std::vector<std::pair<uint64_t, uint64_t>> joins; // (gen, bits)
    };
    std::vector<ZoneWal> zw(nzones_);
    for (uint64_t s = 0; s < max_h; ++s) {
        if (!merged[s].valid)
            continue;
        const WalRecord &r = merged[s].rec;
        if (r.zone >= nzones_)
            continue;
        ZoneWal &w = zw[r.zone];
        switch (r.type) {
        case WalRecord::kResetIntent:
            w.intent_gen = std::max(w.intent_gen, r.gen);
            break;
        case WalRecord::kResetDone:
            if (r.gen >= w.done_gen) {
                w.done_gen = r.gen;
                w.done_parts = r.participants;
            }
            break;
        case WalRecord::kKind:
            if (!w.has_kind || r.gen >= w.kind_gen) {
                w.has_kind = true;
                w.kind_gen = r.gen;
                w.kind = r.kind;
            }
            break;
        case WalRecord::kJoin:
            w.joins.emplace_back(r.gen, r.participants);
            break;
        default:
            break;
        }
    }

    for (uint32_t z = 0; z < nzones_; ++z) {
        ZoneWal &w = zw[z];
        EZone &ez = zones_[z];
        uint64_t gen = std::max(w.intent_gen, w.done_gen);
        uint64_t parts = w.done_gen > 0 ? w.done_parts : ~0ull;
        if (w.intent_gen > w.done_gen) {
            // Interrupted reset: roll it forward. Physical resets are
            // idempotent, and the completion record makes the new
            // participant set durable.
            const uint64_t lba = static_cast<uint64_t>(z + 1) *
                devs_[0]->geometry().zone_size;
            uint64_t np = 0;
            for (uint32_t d = 0; d < n; ++d) {
                if (failed_devs_[d])
                    continue;
                IoRequest rst = IoRequest::zone_reset(lba);
                rst.cause = obs::Cause::kWalMd;
                IoResult r =
                    submit_sync(*loop_, *devs_[d], std::move(rst));
                if (!r.status.is_ok())
                    return r.status;
                np |= bit(d);
            }
            if (wal_next_ >= wal_slots_)
                return Status(StatusCode::kNoSpace,
                              "reset journal full during replay");
            WalRecord drec;
            drec.type = WalRecord::kResetDone;
            drec.zone = z;
            drec.gen = w.intent_gen;
            drec.participants = np;
            std::vector<uint8_t> sector = encode_wal(drec);
            const uint64_t slot = wal_next_++;
            for (uint32_t d = 0; d < n; ++d) {
                if (failed_devs_[d])
                    continue;
                IoRequest wr =
                    IoRequest::write(slot, sector, /*fua=*/true);
                wr.cause = obs::Cause::kWalMd;
                IoResult r =
                    submit_sync(*loop_, *devs_[d], std::move(wr));
                if (!r.status.is_ok())
                    return r.status;
            }
            ++stats_.wal_appends;
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
                // record is FUA-journaled before the first chunk.
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
        if (failed_devs_[d])
            continue;
        Result<ZoneInfo> zi = devs_[d]->zone_info(phys_zone(zone));
        if (!zi.is_ok())
            return zi.status();
        full[d] = zi.value().full();
        rows[d] = full[d] ? phys_cap_ : zi.value().written();
    }
    auto trusted = [&](uint32_t d) {
        return !failed_devs_[d] && (z.participants & bit(d)) != 0;
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
        // present on a trusted member.
        bool stop = false;
        for (uint64_t stripe = 0; !stop && fill < zone_cap_; ++stripe) {
            for (uint32_t u = 0; u < units && !stop; ++u) {
                uint64_t have = 0;
                for (uint32_t d : unit_devs(zone, stripe, u)) {
                    if (!trusted(d))
                        continue;
                    uint64_t avail = rows[d] > stripe * su
                        ? std::min<uint64_t>(rows[d] - stripe * su, su)
                        : 0;
                    have = std::max(have, avail);
                }
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

void
ZonedEngine::rebuild_device(uint32_t dev, ProgressCb progress,
                            StatusCb done)
{
    auto reject = [this, &done](Status s) {
        loop_->schedule_after(1,
                              [done = std::move(done), s = std::move(s)] {
                                  if (done)
                                      done(s);
                              });
    };
    if (dev >= num_devices()) {
        reject(Status(StatusCode::kInvalidArgument,
                      "device index out of range"));
        return;
    }
    if (rebuilding_) {
        reject(Status(StatusCode::kBusy, "rebuild already in progress"));
        return;
    }
    rebuilding_ = true;
    rebuild_dev_ = static_cast<int>(dev);
    rebuild_progress_ = std::move(progress);
    rebuild_done_ = std::move(done);
    rebuild_wal_copied_ = 0;
    zone_rebuilt_.assign(nzones_, false);
    start_rebuild_throttle();
    if (failed_devs_[dev]) {
        failed_devs_[dev] = false;
        --nfailed_;
    }
    // Whatever the target held is untrusted until copied back, zone by
    // zone; participants gate both reads and new writes.
    for (uint32_t z = 0; z < nzones_; ++z)
        zones_[z].participants &= ~bit(dev);
    LOG_INFO("%s: rebuilding member %u", metric_prefix().c_str(), dev);
    IoRequest rst = IoRequest::zone_reset(0);
    rst.trace_stage = "eng.rebuild";
    rst.cause = obs::Cause::kRebuild;
    chain_submit(dev, 0, std::move(rst),
                 [this, alive = alive_](IoResult r) {
                     if (!*alive)
                         return;
                     if (!r.status.is_ok()) {
                         finish_rebuild(r.status);
                         return;
                     }
                     copy_wal_to_target([this, alive](Status s) {
                         if (!*alive)
                             return;
                         if (!s.is_ok()) {
                             finish_rebuild(s);
                             return;
                         }
                         rebuild_zone(0);
                     });
                 });
}

void
ZonedEngine::copy_wal_to_target(StatusCb done)
{
    const uint32_t t = static_cast<uint32_t>(rebuild_dev_);
    int src = -1;
    for (uint32_t d = 0; d < num_devices(); ++d)
        if (d != t && !failed_devs_[d]) {
            src = static_cast<int>(d);
            break;
        }
    auto shared_done = std::make_shared<StatusCb>(std::move(done));
    if (src < 0) {
        loop_->schedule_after(1, [shared_done] {
            (*shared_done)(
                Status(StatusCode::kOffline, "no live journal source"));
        });
        return;
    }
    // `step` refers to itself only through a weak_ptr; the IO
    // completions it arms hold it, so a copy abandoned mid-flight (the
    // engine destroyed) frees with them.
    auto step = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_step = step;
    auto conclude = [this, shared_done](Status s) {
        loop_->schedule_after(1, [shared_done, s = std::move(s)] {
            (*shared_done)(s);
        });
    };
    *step = [this, t, src, weak_step, conclude, alive = alive_] {
        if (rebuild_wal_copied_ >= wal_next_) {
            conclude(Status::ok());
            return;
        }
        auto self = weak_step.lock(); // the caller holds a strong ref
        const uint64_t slot = rebuild_wal_copied_;
        auto write_slot = [this, t, self, conclude, slot,
                           alive](std::vector<uint8_t> payload) {
            IoRequest wr = store_data_
                ? IoRequest::write(slot, std::move(payload), /*fua=*/true)
                : IoRequest::write_len(slot, 1, /*fua=*/true);
            wr.trace_stage = "eng.rebuild";
            wr.cause = obs::Cause::kRebuild;
            chain_submit(t, 0, std::move(wr),
                         [this, self, conclude, alive](IoResult w) {
                             if (!*alive)
                                 return;
                             if (!w.status.is_ok()) {
                                 conclude(w.status);
                                 return;
                             }
                             ++rebuild_wal_copied_;
                             (*self)();
                         });
        };
        if (!store_data_) {
            write_slot({});
            return;
        }
        IoRequest rd = IoRequest::read(slot, 1);
        rd.trace_stage = "eng.rebuild";
        rd.cause = obs::Cause::kRebuild;
        chain_submit(static_cast<uint32_t>(src), 0, std::move(rd),
                     [write_slot, conclude, alive](IoResult r) {
                         if (!*alive)
                             return;
                         if (!r.status.is_ok()) {
                             conclude(r.status);
                             return;
                         }
                         write_slot(std::move(r.data));
                     });
    };
    (*step)();
}

void
ZonedEngine::rebuild_zone(uint32_t zone)
{
    if (zone >= nzones_) {
        // Catch up journal records appended while zones were copying,
        // then seal the member with a flush.
        copy_wal_to_target([this, alive = alive_](Status s) {
            if (!*alive)
                return;
            if (!s.is_ok()) {
                finish_rebuild(s);
                return;
            }
            IoRequest fl = IoRequest::flush();
            fl.trace_stage = "eng.rebuild";
            fl.cause = obs::Cause::kRebuild;
            chain_submit(static_cast<uint32_t>(rebuild_dev_), 0,
                         std::move(fl), [this, alive](IoResult r) {
                             if (!*alive)
                                 return;
                             finish_rebuild(r.status);
                         });
        });
        return;
    }
    // Run as a zone-queue step: every already-submitted write has
    // issued its chunks (so the chains order them before our reads),
    // and later writes stay parked until the copy commits. The fill
    // snapshot below is therefore stable for the whole pass.
    zone_enqueue(zone, [this, zone](std::function<void()> wq_done) {
        rebuild_cur_zone_ = static_cast<int>(zone);
        EZone &z = zones_[zone];
        const uint32_t t = static_cast<uint32_t>(rebuild_dev_);
        const uint64_t limit = z.finished ? zone_cap_ : z.fill;
        StatusCb zone_done = [this, zone, t,
                              wq_done = std::move(wq_done)](Status s) {
            rebuild_cur_zone_ = -1;
            if (!s.is_ok()) {
                wq_done();
                finish_rebuild(s);
                return;
            }
            EZone &ez = zones_[zone];
            zone_rebuilt_[zone] = true;
            ez.participants |= bit(t);
            if (!ez.rec_fill.empty()) {
                Result<ZoneInfo> zi = devs_[t]->zone_info(phys_zone(zone));
                if (zi.is_ok()) {
                    uint64_t rows = zi.value().full()
                        ? phys_cap_
                        : zi.value().written();
                    ez.rec_fill[t] = ez.kind == ZoneKind::kMirror
                        ? std::min<uint64_t>(rows, zone_cap_)
                        : rows;
                }
            }
            ++stats_.zones_rebuilt;
            WalRecord j;
            j.type = WalRecord::kJoin;
            j.zone = zone;
            j.gen = ez.gen;
            j.participants = bit(t);
            append_wal(j, [this, zone, wq_done,
                           alive = alive_](Status js) {
                if (!*alive)
                    return;
                if (!js.is_ok())
                    LOG_WARN("rebuild: join record for zone %u failed: %s",
                             zone, js.message().c_str());
                wq_done();
                if (rebuild_progress_)
                    rebuild_progress_(zone + 1, nzones_);
                rebuild_zone(zone + 1);
            });
        };
        // Wipe the target's copy of the zone; its write pointer must
        // restart from zero for the sequential copy.
        IoRequest rst = IoRequest::zone_reset(
            static_cast<uint64_t>(zone + 1) *
            devs_[0]->geometry().zone_size);
        rst.trace_stage = "eng.rebuild";
        rst.cause = obs::Cause::kRebuild;
        chain_submit(t, phys_zone(zone), std::move(rst),
                     [this, zone, t, limit, zone_done,
                      alive = alive_](IoResult r) {
            if (!*alive)
                return;
            if (!r.status.is_ok()) {
                zone_done(r.status);
                return;
            }
            EZone &ez = zones_[zone];
            switch (ez.kind) {
            case ZoneKind::kStripe0:
                if (limit > static_cast<uint64_t>(t) * cfg_.su_sectors) {
                    zone_done(Status(
                        StatusCode::kIoError,
                        "raid0 data on a lost member is unrecoverable"));
                    return;
                }
                loop_->schedule_after(
                    1, [zone_done] { zone_done(Status::ok()); });
                return;
            case ZoneKind::kMirror: {
                if (limit == 0) {
                    loop_->schedule_after(
                        1, [zone_done] { zone_done(Status::ok()); });
                    return;
                }
                std::vector<uint32_t> all(num_devices());
                for (uint32_t d = 0; d < num_devices(); ++d)
                    all[d] = d;
                uint32_t src = UINT32_MAX;
                for (uint32_t d : mirror_sources(zone, limit, all))
                    if (d != t && dev_live(d)) {
                        src = d;
                        break;
                    }
                if (src == UINT32_MAX) {
                    zone_done(Status(StatusCode::kIoError,
                                     "no intact mirror source"));
                    return;
                }
                rebuild_mirror_rows(zone, 0, limit, src, zone_done);
                return;
            }
            default:
                rebuild_stripe_from(zone, 0, limit, zone_done);
                return;
            }
        });
    });
}

void
ZonedEngine::rebuild_mirror_rows(uint32_t zone, uint64_t row,
                                 uint64_t limit, uint32_t src,
                                 StatusCb done)
{
    const uint32_t t = static_cast<uint32_t>(rebuild_dev_);
    if (row >= limit) {
        if (!zones_[zone].finished) {
            loop_->schedule_after(1, [done = std::move(done)] {
                done(Status::ok());
            });
            return;
        }
        IoRequest req = IoRequest::zone_finish(
            static_cast<uint64_t>(zone + 1) *
            devs_[0]->geometry().zone_size);
        req.trace_stage = "eng.rebuild";
        req.cause = obs::Cause::kRebuild;
        chain_submit(t, phys_zone(zone), std::move(req),
                     [done = std::move(done)](IoResult r) {
                         done(r.status);
                     });
        return;
    }
    const uint32_t n =
        static_cast<uint32_t>(std::min<uint64_t>(limit - row, 32));
    if (!pace_rebuild(n, [this, zone, row, limit, src, done] {
            rebuild_mirror_rows(zone, row, limit, src, done);
        }))
        return;
    IoRequest rd = IoRequest::read(dev_row_lba(zone, row), n);
    rd.trace_stage = "eng.rebuild";
    rd.cause = obs::Cause::kRebuild;
    chain_submit(
        src, phys_zone(zone), std::move(rd),
        [this, zone, row, n, limit, src, done = std::move(done),
         alive = alive_](IoResult r) {
            if (!*alive)
                return;
            if (!r.status.is_ok()) {
                done(r.status);
                return;
            }
            const uint32_t tgt = static_cast<uint32_t>(rebuild_dev_);
            IoRequest wr = store_data_
                ? IoRequest::write(dev_row_lba(zone, row),
                                   std::move(r.data))
                : IoRequest::write_len(dev_row_lba(zone, row), n);
            wr.trace_stage = "eng.rebuild";
            wr.cause = obs::Cause::kRebuild;
            chain_submit(tgt, phys_zone(zone), std::move(wr),
                         [this, zone, row, n, limit, src, done, alive](
                             IoResult w) {
                             if (!*alive)
                                 return;
                             if (!w.status.is_ok()) {
                                 done(w.status);
                                 return;
                             }
                             rebuild_mirror_rows(zone, row + n, limit,
                                                 src, done);
                         });
        });
}

void
ZonedEngine::rebuild_stripe_from(uint32_t zone, uint64_t stripe,
                                 uint64_t limit, StatusCb done)
{
    EZone &z = zones_[zone];
    const uint32_t t = static_cast<uint32_t>(rebuild_dev_);
    const uint32_t su = cfg_.su_sectors;
    const uint32_t units = units_of(z.kind);
    const uint64_t stripe_sect = static_cast<uint64_t>(su) * units;
    const uint64_t base = stripe * stripe_sect;
    const uint64_t row0 = stripe * su;

    if (base >= limit) {
        if (!z.finished) {
            loop_->schedule_after(1, [done = std::move(done)] {
                done(Status::ok());
            });
            return;
        }
        IoRequest req = IoRequest::zone_finish(
            static_cast<uint64_t>(zone + 1) *
            devs_[0]->geometry().zone_size);
        req.trace_stage = "eng.rebuild";
        req.cause = obs::Cause::kRebuild;
        chain_submit(t, phys_zone(zone), std::move(req),
                     [done = std::move(done)](IoResult r) {
                         done(r.status);
                     });
        return;
    }

    // The lifecycle throttle charges one stripe unit per stripe: the
    // target's share of it.
    if (!pace_rebuild(su, [this, zone, stripe, limit, done] {
            rebuild_stripe_from(zone, stripe, limit, done);
        }))
        return;

    StatusCb next = [this, zone, stripe, limit, done](Status s) {
        if (!s.is_ok()) {
            done(s);
            return;
        }
        rebuild_stripe_from(zone, stripe + 1, limit, done);
    };
    auto skip = [this, next] {
        loop_->schedule_after(1, [next] { next(Status::ok()); });
    };
    auto write_target = [this, zone, t, next](uint64_t row,
                                              std::vector<uint8_t> data,
                                              uint32_t nsect) {
        IoRequest wr = data.empty()
            ? IoRequest::write_len(dev_row_lba(zone, row), nsect)
            : IoRequest::write(dev_row_lba(zone, row), std::move(data));
        wr.trace_stage = "eng.rebuild";
        wr.cause = obs::Cause::kRebuild;
        chain_submit(t, phys_zone(zone), std::move(wr),
                     [next](IoResult r) { next(r.status); });
    };

    const bool complete = base + stripe_sect <= limit;
    const int pd = parity_dev(zone, stripe);
    const int qd = q_dev(zone, stripe);
    const bool t_is_q = qd >= 0 && static_cast<uint32_t>(qd) == t;

    if ((pd >= 0 && static_cast<uint32_t>(pd) == t) || t_is_q) {
        // Tail-stripe parity is in-memory only; nothing to restore.
        if (!complete) {
            skip();
            return;
        }
        if (!store_data_) {
            write_target(row0, {}, su);
            return;
        }
        std::vector<uint32_t> src(units, UINT32_MAX);
        for (uint32_t u = 0; u < units; ++u) {
            for (uint32_t d :
                 mirror_sources(zone, row0 + su, unit_devs(zone, stripe, u)))
                if (d != t && dev_live(d)) {
                    src[u] = d;
                    break;
                }
            if (src[u] == UINT32_MAX) {
                loop_->schedule_after(1, [next] {
                    next(Status(StatusCode::kIoError,
                                "rebuild: stripe data unavailable"));
                });
                return;
            }
        }
        // The lost parity solves its equation over the data units.
        StripeGather::Spec spec;
        spec.fold = t_is_q ? StripeGather::Fold::kQ
                           : StripeGather::Fold::kXor;
        spec.bytes = static_cast<size_t>(su) * kSectorSize;
        spec.lost = t_is_q ? StripeGather::kQ : StripeGather::kP;
        spec.zone = zone;
        spec.cause = obs::Cause::kRebuild;
        spec.stage = "eng.rebuild";
        StripeGather g(
            this, spec,
            [su, row0, next, write_target](Status s,
                                           std::vector<uint8_t> out) {
                if (!s.is_ok()) {
                    next(s);
                    return;
                }
                write_target(row0, std::move(out), su);
            });
        for (uint32_t u = 0; u < units; ++u)
            g.read(src[u], dev_row_lba(zone, row0), su,
                    static_cast<int>(u));
        g.seal();
        return;
    }

    // Target holds a data chunk (or one copy of a mirror pair).
    uint32_t u_t = UINT32_MAX;
    if (z.kind == ZoneKind::kMirrorPairs) {
        u_t = t / 2;
    } else {
        for (uint32_t u = 0; u < units; ++u)
            if (chunk_dev(zone, stripe, u) == t) {
                u_t = u;
                break;
            }
    }
    if (u_t == UINT32_MAX) {
        skip();
        return;
    }
    const uint64_t chunk_base =
        base + static_cast<uint64_t>(u_t) * su;
    const uint64_t rows = limit > chunk_base
        ? std::min<uint64_t>(limit - chunk_base, su)
        : 0;
    if (rows == 0) {
        skip();
        return;
    }
    const uint32_t nrows = static_cast<uint32_t>(rows);
    if (!store_data_) {
        write_target(row0, {}, nrows);
        return;
    }

    if (z.kind == ZoneKind::kMirrorPairs) {
        const uint32_t partner = t ^ 1u;
        const bool ok = !dev_down_for_zone(partner, zone) &&
            dev_live(partner) &&
            (z.rec_fill.empty() || z.rec_fill[partner] >= row0 + rows);
        if (!ok) {
            loop_->schedule_after(1, [next] {
                next(Status(StatusCode::kIoError, "mirror pair lost"));
            });
            return;
        }
        IoRequest rd = IoRequest::read(dev_row_lba(zone, row0), nrows);
        rd.trace_stage = "eng.rebuild";
        rd.cause = obs::Cause::kRebuild;
        chain_submit(partner, phys_zone(zone), std::move(rd),
                     [row0, nrows, next, write_target](IoResult r) {
                         if (!r.status.is_ok()) {
                             next(r.status);
                             return;
                         }
                         write_target(row0, std::move(r.data), nrows);
                     });
        return;
    }

    if (!complete) {
        // Open (tail) stripe: parity is not on media. Serve the chunk
        // from the in-memory tail buffer; for frozen zones that buffer
        // died with the crash, so the sectors are gone — leave the
        // target short, mirroring the degraded-read contract.
        auto it = z.tails.find(stripe);
        if (!z.frozen && it != z.tails.end() &&
            it->second.filled >=
                static_cast<uint64_t>(u_t) * su + rows &&
            !it->second.data.empty()) {
            const size_t off =
                static_cast<size_t>(u_t) * su * kSectorSize;
            std::vector<uint8_t> chunk(
                it->second.data.begin() + off,
                it->second.data.begin() + off + rows * kSectorSize);
            write_target(row0, std::move(chunk), nrows);
            return;
        }
        if (z.frozen) {
            skip();
            return;
        }
        loop_->schedule_after(1, [next] {
            next(Status(StatusCode::kIoError,
                        "rebuild: open-stripe data unavailable"));
        });
        return;
    }

    reconstruct_chunk(
        zone, stripe, u_t, 0, nrows, obs::Cause::kRebuild,
        [row0, nrows, next, write_target](Status s,
                                          std::vector<uint8_t> data) {
            if (!s.is_ok()) {
                next(s);
                return;
            }
            write_target(row0, std::move(data), nrows);
        });
}

void
ZonedEngine::finish_rebuild(Status s)
{
    rebuilding_ = false;
    rebuild_cur_zone_ = -1;
    const int dev = rebuild_dev_;
    rebuild_dev_ = -1;
    StatusCb done = std::move(rebuild_done_);
    rebuild_done_ = nullptr;
    rebuild_progress_ = nullptr;
    if (s.is_ok()) {
        LOG_INFO("%s: member %d rebuilt (%llu zones)",
                 metric_prefix().c_str(), dev,
                 static_cast<unsigned long long>(stats_.zones_rebuilt));
    } else {
        LOG_WARN("%s: rebuild of member %d failed: %s",
                 metric_prefix().c_str(), dev, s.message().c_str());
        // The target never became trustworthy; keep it out of the
        // array (per-zone participants already exclude it).
        if (dev >= 0 && !failed_devs_[dev]) {
            failed_devs_[dev] = true;
            ++nfailed_;
        }
    }
    for (uint32_t z = 0; z < nzones_; ++z)
        zone_advance(z);
    if (done)
        done(s);
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
            if (dev_live(d))
                plan->units.push_back({d, lba, n, static_cast<int>(u), off});
        }
        if (plan->units.size() == copies)
            ++plan->unreadable;
    }
    // Parity kinds need every member to check the equations.
    const int pq[2] = {parity_dev(s.zone, s.stripe), q_dev(s.zone, s.stripe)};
    for (int i = 0; i < 2 && pq[i] >= 0; ++i) {
        const auto d = static_cast<uint32_t>(pq[i]);
        if (plan->unreadable > 0 || !dev_live(d) ||
            mirror_sources(s.zone, row + su, {d}).empty())
            return false;
        plan->units.push_back(
            {d, lba, su, i == 0 ? StripeGather::kP : StripeGather::kQ, 0});
    }
    return true;
}

} // namespace raizn
