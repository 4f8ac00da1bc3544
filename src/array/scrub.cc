/**
 * @file
 * The one scrub walker behind every zoned engine: the pass loop, the
 * background scrubber and the verdict. The engine lists its stripes
 * (scrub_candidates) and names each one's member reads (scrub_plan);
 * one StripeGather sends them through gather_submit, so every read
 * takes the retrier, health accounting and the engine's submit order.
 * Stripes whose zone was reset or that moved while their reads were in
 * flight are skipped uncounted and caught next pass.
 */
#include "array/zoned_array.h"

#include <cstring>

#include "array/crc_catalog.h"
#include "array/gf256.h"
#include "array/stripe_gather.h"
#include "common/kernels.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace raizn {

/// One pass over a candidate snapshot.
struct ZonedArray::ScrubWalk {
    std::vector<ScrubStripe> stripes;
    size_t next = 0;
    ScrubReport rep;
    bool finished = false; ///< scrub_all: the pass is over
    Tick interval = 0; ///< background scrubber; 0 for scrub_all
    std::function<void(const ScrubReport &)> on_pass;
};

Status
ZonedArray::scrub_list(std::vector<ScrubStripe> *out) const
{
    if (!members_store_data() || !scrub_candidates(out))
        return Status(StatusCode::kNotSupported,
                      "scrub needs data-storing members and a scrub policy");
    return Status::ok();
}

Status
ZonedArray::scrub_all(ScrubReport *report)
{
    auto w = std::make_shared<ScrubWalk>();
    Status s = scrub_list(&w->stripes);
    if (!s.is_ok())
        return s;
    scrub_next(w);
    loop_->run_until_pred([&w] { return w->finished; });
    if (report != nullptr)
        *report = w->rep;
    return Status::ok();
}

void
ZonedArray::start_scrubber(Tick interval,
                           std::function<void(const ScrubReport &)> on_pass)
{
    auto w = std::make_shared<ScrubWalk>();
    w->interval = interval > 0 ? interval : 1;
    w->on_pass = std::move(on_pass);
    (void)scrub_list(&w->stripes); // unsupported: idles, polling
    scrubber_ = w;
    scrub_then(w);
}

void
ZonedArray::scrub_then(const std::shared_ptr<ScrubWalk> &w)
{
    if (w->interval == 0) {
        scrub_next(w);
        return;
    }
    loop_->schedule_after(w->interval, [this, w, alive = alive_] {
        if (*alive)
            scrub_next(w);
    });
}

void
ZonedArray::scrub_next(const std::shared_ptr<ScrubWalk> &w)
{
    // A wake-up or completion of a background pass that was stopped or
    // restarted since finds another walk current and ends its chain.
    if (w->interval > 0 && scrubber_ != w)
        return;
    while (w->next < w->stripes.size()) {
        if (scrub_stripe(w->stripes[w->next++], w))
            return;
    }
    if (w->interval == 0) {
        w->finished = true;
        return;
    }
    // Background pass complete: report, then walk a fresh snapshot (or
    // poll again next interval when there is none).
    if (w->on_pass && !w->stripes.empty())
        w->on_pass(w->rep);
    w->rep = ScrubReport{};
    w->stripes.clear();
    w->next = 0;
    (void)scrub_list(&w->stripes);
    scrub_then(w);
}

bool
ZonedArray::scrub_stripe(const ScrubStripe &s,
                         const std::shared_ptr<ScrubWalk> &w)
{
    auto plan = std::make_shared<ScrubPlan>();
    if (!scrub_plan(s, plan.get()))
        return false;
    StripeGather::Spec spec;
    spec.fold = StripeGather::Fold::kPlace;
    for (const ScrubUnit &u : plan->units)
        spec.bytes += static_cast<size_t>(u.nsectors) * kSectorSize;
    spec.zone = s.zone;
    spec.cause = obs::Cause::kScrub;
    spec.stage = "scrub.read";
    uint64_t token = 0; ///< open "scrub.stripe" span
    if (trace_ != nullptr) {
        spec.trace_req = trace_->next_request_id();
        token = trace_->begin_span("scrub.stripe", spec.trace_req,
                                   obs::kTrackMetadata, loop_->now());
    }
    StripeGather g(this, spec,
                   [this, s, w, plan, token](Status st, IoBuf bytes) {
                       if (trace_ != nullptr && token != 0)
                           trace_->end_span(token, loop_->now());
                       // A stale snapshot is skipped uncounted.
                       if (scrub_plan(s, nullptr)) {
                           ++w->rep.stripes_scanned;
                           if (cells_.scrubbed_stripes != nullptr)
                               ++*cells_.scrubbed_stripes;
                           if (!st.is_ok() || plan->unreadable > 0)
                               ++w->rep.unrecoverable;
                           else
                               scrub_verdict(s, *plan, bytes, &w->rep);
                       }
                       scrub_then(w);
                   });
    size_t at = 0;
    for (const ScrubUnit &u : plan->units) {
        g.read(u.dev, u.pba, u.nsectors, u.role, at);
        at += static_cast<size_t>(u.nsectors) * kSectorSize;
    }
    g.seal();
    return true;
}

void
ZonedArray::scrub_verdict(const ScrubStripe &s, const ScrubPlan &plan,
                          const IoBuf &bytes, ScrubReport *rep)
{
    struct Unit {
        const ScrubUnit &u;
        const uint8_t *b;
        const uint8_t *first; ///< the first copy of this data unit
        CrcCatalog::Coverage c;
    };
    // The equations against the media: each mirror copy against the
    // first copy, P and Q against the data units. The catalog then
    // names the units whose bytes are bad.
    std::vector<Unit> data;
    const uint8_t *media[2] = {nullptr, nullptr}; ///< P and Q read back
    size_t plen = 0;
    size_t at = 0;
    uint64_t mismatches = 0;
    for (const ScrubUnit &u : plan.units) {
        const uint8_t *b = bytes.data() + at;
        const size_t nb = static_cast<size_t>(u.nsectors) * kSectorSize;
        at += nb;
        if (u.role < 0) {
            media[u.role == StripeGather::kQ ? 1 : 0] = b;
            plen = nb;
            continue;
        }
        const bool copy = !data.empty() && data.back().u.role == u.role;
        if (copy && std::memcmp(data.back().first, b, nb) != 0)
            ++mismatches;
        data.push_back({u, b, copy ? data.back().first : b,
                        plan.crc->check(u.crc_off, b, u.nsectors)});
    }
    std::vector<uint8_t> calc[2] = {
        std::vector<uint8_t>(media[0] ? plen : 0),
        std::vector<uint8_t>(media[1] ? plen : 0)};
    uint64_t bad_copies = 0; ///< copies failing their CRCs
    int bad = 0; ///< the data unit of the last of them
    uint64_t covered = 0;
    uint64_t sectors = 0;
    for (const Unit &x : data) {
        covered += x.c.covered;
        sectors += x.u.nsectors;
        if (x.c.mismatched > 0) {
            ++bad_copies;
            bad = x.u.role;
        }
        if (x.first != x.b)
            continue; // a mirror copy: no equation term
        if (media[0] != nullptr)
            xor_bytes(calc[0].data(), x.b, plen);
        if (media[1] != nullptr)
            gf256::accumulate(calc[1].data(), x.b, plen,
                              static_cast<unsigned>(x.u.role));
    }
    bool parity_bad[2];
    for (int i = 0; i < 2; ++i) {
        parity_bad[i] = media[i] != nullptr &&
            std::memcmp(calc[i].data(), media[i], plen) != 0;
        mismatches += parity_bad[i] ? 1 : 0;
    }

    if (mismatches == 0 && bad_copies == 0) {
        // Healthy. Under parity, backfill the checksums the catalog is
        // missing (it starts empty after a mount), so later corruption
        // here is localisable.
        for (const Unit &x : data) {
            if (media[0] != nullptr && x.c.covered < x.u.nsectors)
                plan.crc->record(x.u.crc_off, x.b, x.u.nsectors);
        }
        return;
    }
    rep->parity_mismatches += mismatches;
    rep->crc_mismatches += bad_copies;
    if (cells_.crc_mismatches != nullptr)
        *cells_.crc_mismatches += bad_copies;
    // Mirror copies and lone chunks only report: their reads serve
    // whichever copy verifies.
    if (media[0] == nullptr)
        return;
    if (covered == 0 || bad_copies > 1) {
        // Nothing to localise with, or more losses than P rebuilds.
        ++rep->unrecoverable;
        return;
    }
    if (bad_copies == 1) {
        // Rebuild the unit from P and the survivors; trust it only once
        // its checksums agree.
        std::vector<uint8_t> rec(media[0], media[0] + plen);
        const Unit *k = nullptr;
        for (const Unit &x : data) {
            if (x.u.role == bad)
                k = &x;
            else
                xor_bytes(rec.data(), x.b, plen);
        }
        if (!plan.crc->verify(k->u.crc_off, rec.data(), k->u.nsectors))
            ++rep->unrecoverable;
        else if (scrub_repair(s, bad, std::move(rec)))
            ++rep->repaired_units;
        return;
    }
    // Every data unit checks clean: the parity side is corrupt — but
    // only if the catalog covers the whole stripe, else an uncovered
    // sector could be the real culprit.
    if (covered < sectors) {
        ++rep->unrecoverable;
        return;
    }
    for (int i = 0; i < 2; ++i) {
        if (parity_bad[i] &&
            scrub_repair(s, i == 0 ? StripeGather::kP : StripeGather::kQ,
                         std::move(calc[i])))
            ++rep->repaired_parity;
    }
}

} // namespace raizn
