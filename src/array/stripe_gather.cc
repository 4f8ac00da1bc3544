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

    State(ZonedArray *a, Spec s, DataCb c, IoCallback ic)
        : arr(a), spec(s), cb(std::move(c)), io_cb(std::move(ic)),
          alive(a->alive_)
    {
        if (spec.fold != Fold::kQ)
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
    arrive(const Status &s, const std::vector<uint8_t> &d, size_t at,
           int role)
    {
        PROF_SCOPE("gather.arrive");
        if (!s.is_ok()) {
            fail(s);
        } else if (!d.empty() && at < spec.bytes) {
            const size_t n = std::min(d.size(), spec.bytes - at);
            if (spec.fold == Fold::kPlace) {
                prof::count_copy(n);
                std::memcpy(p.data() + at, d.data(), n);
            }
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

    void
    finish()
    {
        std::vector<uint8_t> out;
        if (status.is_ok() && spec.bytes > 0) {
            switch (spec.fold) {
            case Fold::kPlace:
            case Fold::kXor:
                out = std::move(p);
                break;
            case Fold::kQ:
                out = std::move(q);
                if (spec.lost != kQ) {
                    const uint8_t c = gf256::exp2(
                        255u - static_cast<unsigned>(spec.lost) % 255u);
                    for (uint8_t &b : out)
                        b = gf256::mul(c, b);
                }
                break;
            case Fold::kTwo: {
                const auto x = static_cast<unsigned>(
                    std::min(spec.lost, spec.other));
                const auto y = static_cast<unsigned>(
                    std::max(spec.lost, spec.other));
                std::vector<uint8_t> dx(spec.bytes), dy(spec.bytes);
                gf256::solve_two(dx.data(), dy.data(), p.data(), q.data(),
                                 spec.bytes, x, y);
                out = std::move(spec.lost < spec.other ? dx : dy);
                break;
            }
            }
        }
        if (io_cb) {
            IoResult r;
            r.status = status;
            r.data = std::move(out);
            IoCallback done = std::move(io_cb);
            done(std::move(r));
            return;
        }
        DataCb done = std::move(cb);
        done(status, std::move(out));
    }
};

void
StripeGather::Source::operator()(const Status &s,
                                 const std::vector<uint8_t> &d) const
{
    if (*st->alive)
        st->arrive(s, d, at, kP);
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
    BlockDevice *sent = arr->devs_[dev];
    arr->gather_submit(
        dev, st_->spec.zone, std::move(req),
        [st = st_, dev, sent, role, at](IoResult r) {
            if (!*st->alive)
                return;
            // An error from a member that a promoted spare has since
            // replaced must not fail the spare.
            if (!r.status.is_ok() && st->arr->devs_[dev] == sent)
                st->arr->escalate_dev_error(dev, r.status);
            st->arrive(r.status, r.data, at, role);
        });
}

void
StripeGather::put(std::vector<uint8_t> data, Tick delay, size_t at)
{
    st_->arr->loop_->schedule_after(
        delay, [done = source(at), data = std::move(data)] {
            done(Status::ok(), data);
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
