#include "array/stripe_gather.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "array/gf256.h"
#include "common/kernels.h"
#include "common/slab.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

struct StripeGather::State {
    /// A kPlace source not yet copied into the unit.
    struct Piece {
        size_t at = 0;
        IoBuf bytes;
    };

    ZonedArray *arr;
    Spec spec;
    DataCb cb;
    IoCallback io_cb; ///< instead of cb
    std::shared_ptr<bool> alive; ///< the array's
    uint32_t pending = 0;
    bool sealed = false;
    Status status;
    std::vector<uint8_t> p; ///< P-equation accumulator
    std::vector<uint8_t> q; ///< Q-equation accumulator
    // kPlace. A lone source is held as is, in case it covers the whole
    // unit. From the second source on, the unit is built in `out`:
    // each source is copied in as soon as everything before it is, so
    // the sources of a read that arrive in order are released as they
    // come; the others wait for the gap before them.
    Piece first;
    std::vector<uint8_t> out; ///< [0, out.size()) is laid out
    std::vector<Piece> waiting;
    uint64_t copied = 0;

    State(ZonedArray *a, Spec s, DataCb c, IoCallback ic)
        : arr(a), spec(s), cb(std::move(c)), io_cb(std::move(ic)),
          alive(a->alive_)
    {
        if (spec.fold != Fold::kQ && spec.fold != Fold::kPlace)
            p.assign(spec.bytes, 0);
        if (spec.fold == Fold::kQ || spec.fold == Fold::kTwo)
            q.assign(spec.bytes, 0);
    }

    void
    fail(Status err)
    {
        if (status.is_ok())
            status = std::move(err);
    }

    void
    arrive(const Status &s, IoBuf d, size_t at, int role)
    {
        PROF_SCOPE("gather.arrive");
        if (!s.is_ok()) {
            fail(s);
        } else if (!d.empty() && at < spec.bytes) {
            const size_t n = std::min(d.size(), spec.bytes - at);
            if (spec.fold == Fold::kPlace)
                place(at, n == d.size() ? std::move(d) : d.prefix(n));
            // P takes every source under kXor, data and P under kTwo.
            if (spec.fold == Fold::kXor ||
                (spec.fold == Fold::kTwo && role != kQ))
                xor_bytes(p.data() + at, d.data(), n);
            // Q takes the Q source and g^v * D_v under kQ and kTwo.
            if (!q.empty() && role == kQ)
                xor_bytes(q.data() + at, d.data(), n);
            else if (!q.empty() && role >= 0)
                gf256::accumulate(q.data() + at, d.data(), n,
                                  static_cast<unsigned>(role));
        }
        if (--pending == 0 && sealed)
            finish();
    }

    /// kPlace: takes the source `bytes` landing `at` bytes in.
    void
    place(size_t at, IoBuf bytes)
    {
        if (out.capacity() == 0 && first.bytes.empty()) {
            first = {at, std::move(bytes)};
            return;
        }
        start_out();
        waiting.push_back({at, std::move(bytes)});
        drain();
    }

    /// Starts laying the unit out in `out`, the lone source first.
    void
    start_out()
    {
        if (out.capacity() > 0)
            return;
        out.reserve(spec.bytes);
        if (!first.bytes.empty())
            waiting.push_back(std::move(first));
        first = {};
    }

    /// Copies in every waiting source that no gap precedes.
    void
    drain()
    {
        for (size_t i = 0; i < waiting.size();) {
            Piece &pc = waiting[i];
            if (pc.at > out.size()) {
                ++i;
                continue;
            }
            const uint8_t *src = pc.bytes.data();
            const size_t n = pc.bytes.size();
            const size_t overlap = std::min(n, out.size() - pc.at);
            std::memcpy(out.data() + pc.at, src, overlap);
            out.insert(out.end(), src + overlap, src + n);
            copied += n;
            waiting[i] = std::move(waiting.back());
            waiting.pop_back();
            i = 0; // the unit grew: an earlier waiter may fit now
        }
    }

    /// kPlace: the laid-out unit, once every source is in.
    IoBuf
    placed()
    {
        if (out.capacity() == 0 && first.at == 0 &&
            first.bytes.size() == spec.bytes)
            return std::move(first.bytes); // one source covers the unit
        start_out();
        drain();
        while (!waiting.empty()) {
            // Zero the gap no source covers, up to the nearest waiter.
            size_t next = spec.bytes;
            for (const Piece &pc : waiting)
                next = std::min(next, pc.at);
            out.resize(next);
            drain();
        }
        out.resize(spec.bytes);
        if (copied > 0)
            prof::count_copy(copied);
        return std::move(out);
    }

    void
    finish()
    {
        IoBuf unit;
        if (status.is_ok() && spec.bytes > 0) {
            switch (spec.fold) {
            case Fold::kPlace:
                unit = placed();
                break;
            case Fold::kXor:
                unit = std::move(p);
                break;
            case Fold::kQ:
                if (spec.lost != kQ) {
                    const uint8_t c = gf256::exp2(
                        255u - static_cast<unsigned>(spec.lost) % 255u);
                    for (uint8_t &b : q)
                        b = gf256::mul(c, b);
                }
                unit = std::move(q);
                break;
            case Fold::kTwo: {
                const auto x = static_cast<unsigned>(
                    std::min(spec.lost, spec.other));
                const auto y = static_cast<unsigned>(
                    std::max(spec.lost, spec.other));
                std::vector<uint8_t> dx(spec.bytes), dy(spec.bytes);
                gf256::solve_two(dx.data(), dy.data(), p.data(), q.data(),
                                 spec.bytes, x, y);
                unit = std::move(spec.lost < spec.other ? dx : dy);
                break;
            }
            }
        }
        first = {}; // an error leaves sources behind
        waiting.clear();
        out = {};
        if (io_cb) {
            IoResult r;
            r.status = status;
            r.data = std::move(unit);
            IoCallback done = std::move(io_cb);
            done(std::move(r));
            return;
        }
        DataCb done = std::move(cb);
        done(status, std::move(unit));
    }
};

/// A member read a gather has out: what its completion needs.
struct StripeGather::MemberRead {
    std::shared_ptr<State> st;
    BlockDevice *sent = nullptr; ///< the member the read went to
    size_t at = 0;
    uint32_t dev = 0;
    int role = 0;
};

/// Per thread, like the gathers' pooled joins: a completion captures
/// (slot, generation) and finds a released slot stale.
Slab<StripeGather::MemberRead> &
StripeGather::member_reads()
{
    thread_local Slab<MemberRead> reads;
    return reads;
}

void
StripeGather::Source::operator()(const Status &s, IoBuf d) const
{
    if (*st->alive)
        st->arrive(s, std::move(d), at, kP);
}

// Joins are pooled: one per logical read on the hot path.
StripeGather::StripeGather(ZonedArray *arr, Spec spec, DataCb cb)
    : st_(std::allocate_shared<State>(PoolAllocator<State>(), arr, spec,
                                      std::move(cb), nullptr))
{
}

StripeGather::StripeGather(ZonedArray *arr, Spec spec, IoCallback cb)
    : st_(std::allocate_shared<State>(PoolAllocator<State>(), arr, spec,
                                      nullptr, std::move(cb)))
{
}

void
StripeGather::read(uint32_t dev, uint64_t pba, uint32_t nsectors, int role,
                   size_t at)
{
    ++st_->pending;
    IoRequest req = IoRequest::read(pba, nsectors);
    req.trace_req = st_->spec.trace_req;
    req.trace_stage = st_->spec.stage;
    req.cause = st_->spec.cause;
    ZonedArray *arr = st_->arr;
    Slab<MemberRead> &reads = member_reads();
    const uint32_t slot = reads.acquire();
    reads[slot] = MemberRead{st_, arr->devs_[dev], at, dev, role};
    arr->gather_submit(
        dev, st_->spec.zone, std::move(req),
        [slot, gen = reads.gen(slot)](IoResult r) {
            Slab<MemberRead> &reads = member_reads();
            if (reads.gen(slot) != gen)
                return; // forgotten with its array
            MemberRead m = std::move(reads[slot]);
            reads.release(slot);
            State &st = *m.st;
            if (!*st.alive)
                return;
            // An error from a member that a promoted spare has since
            // replaced must not fail the spare.
            if (!r.status.is_ok() && st.arr->devs_[m.dev] == m.sent)
                st.arr->escalate_dev_error(m.dev, r.status);
            st.arrive(r.status, std::move(r.data), m.at, m.role);
        });
}

void
StripeGather::put(IoBuf data, Tick delay, size_t at)
{
    st_->arr->loop_->schedule_after(
        delay, [done = source(at), data = std::move(data)]() mutable {
            done(Status::ok(), std::move(data));
        });
}

void
StripeGather::put(Status err, Tick delay)
{
    st_->arr->loop_->schedule_after(delay, [done = source(), err] {
        done(err, {});
    });
}

StripeGather::Source
StripeGather::source(size_t at)
{
    ++st_->pending;
    return Source{st_, at};
}

void
StripeGather::fail(Status err)
{
    st_->fail(std::move(err));
}

void
StripeGather::forget(const ZonedArray *arr)
{
    Slab<MemberRead> &reads = member_reads();
    for (uint32_t i = 0; i < reads.size(); ++i) {
        if (reads[i].st != nullptr && reads[i].st->arr == arr)
            reads.release(i);
    }
}

void
StripeGather::seal()
{
    st_->sealed = true;
    if (st_->pending == 0)
        st_->arr->loop_->schedule_after(1, [st = st_] {
            if (*st->alive)
                st->finish();
        });
}

} // namespace raizn
