/**
 * @file
 * StripeGather, the reconstruct core every engine shares: its folds
 * against direct parity math, its error and completion rules, and the
 * spare guard on member-error escalation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "array/gf256.h"
#include "array/stripe_gather.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"
#include "zns/zns_device.h"

namespace raizn {
namespace {

/// The thinnest ZonedArray: members and the gather.
class GatherArray : public ZonedArray
{
  public:
    GatherArray(EventLoop *loop, std::vector<BlockDevice *> devs)
        : ZonedArray(loop, std::move(devs),
                     StatCells{&io_retries_, &io_timeouts_, &dev_errors_,
                               &spares_promoted_, &auto_failovers_,
                               &throttle_stalls_})
    {
    }

    StripeGather
    gather(StripeGather::Spec spec, DataCb cb)
    {
        return StripeGather(this, spec, std::move(cb));
    }
    void replace_member(uint32_t d, BlockDevice *dev) { devs_[d] = dev; }
    uint64_t dev_errors() const { return dev_errors_; }

    RaidMode mode() const override { return RaidMode::kRaid5; }
    uint32_t fault_tolerance() const override { return 1; }
    uint64_t capacity() const override { return 0; }
    void read(uint64_t, uint32_t, IoCallback) override {}
    void flush(IoCallback) override {}

  protected:
    void submit_write(uint64_t, uint32_t, IoBuf, WriteFlags,
                      IoCallback) override
    {
    }
    std::string metric_prefix() const override { return "gather"; }
    void link_stats_hook(obs::MetricsRegistry &) override {}

  private:
    uint64_t io_retries_ = 0;
    uint64_t io_timeouts_ = 0;
    uint64_t dev_errors_ = 0;
    uint64_t spares_promoted_ = 0;
    uint64_t auto_failovers_ = 0;
    uint64_t throttle_stalls_ = 0;
};

std::vector<uint8_t>
random_bytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> out(n);
    for (uint8_t &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

class StripeGatherTest : public ::testing::Test
{
  protected:
    static constexpr uint32_t kDevs = 6;
    static constexpr uint32_t kUnit = 4; ///< sectors per unit

    void
    SetUp() override
    {
        std::vector<BlockDevice *> ptrs;
        for (uint32_t i = 0; i < kDevs + 1; ++i) {
            ZnsDeviceConfig dc;
            dc.nzones = 2;
            dc.zone_size = 64;
            dc.zone_capacity = 64;
            dc.atomic_write_sectors = 4;
            dc.name = "zns" + std::to_string(i);
            devs_.push_back(std::make_unique<ZnsDevice>(&loop_, dc));
            if (i < kDevs)
                ptrs.push_back(devs_.back().get());
        }
        arr_ = std::make_unique<GatherArray>(&loop_, ptrs);
    }

    /// Writes one unit of `data` at `lba` of member `d`.
    void
    store(uint32_t d, std::vector<uint8_t> data, uint64_t lba = 0)
    {
        bool done = false;
        devs_[d]->submit(IoRequest::write(lba, std::move(data)),
                         [&](IoResult r) {
                             EXPECT_TRUE(r.status.is_ok());
                             done = true;
                         });
        loop_.run_until_pred([&] { return done; });
    }

    struct Outcome {
        bool fired = false;
        int calls = 0;
        Tick at = 0;
        Status status;
        IoBuf data;
    };

    StripeGather::DataCb
    capture(Outcome *o)
    {
        return [this, o](Status s, IoBuf d) {
            o->fired = true;
            ++o->calls;
            o->at = loop_.now();
            o->status = std::move(s);
            o->data = std::move(d);
        };
    }

    static StripeGather::Spec
    spec(StripeGather::Fold fold, int lost = StripeGather::kP,
         int other = StripeGather::kP)
    {
        StripeGather::Spec s;
        s.fold = fold;
        s.bytes = static_cast<size_t>(kUnit) * kSectorSize;
        s.lost = lost;
        s.other = other;
        return s;
    }

    EventLoop loop_;
    std::vector<std::unique_ptr<ZnsDevice>> devs_; ///< last one: a spare
    std::unique_ptr<GatherArray> arr_;
};

TEST_F(StripeGatherTest, XorOfMemberReadsEqualsDirectXor)
{
    Rng rng(11);
    const size_t bytes = static_cast<size_t>(kUnit) * kSectorSize;
    std::vector<uint8_t> want(bytes, 0);
    for (uint32_t d = 0; d < kDevs; ++d) {
        std::vector<uint8_t> unit = random_bytes(rng, bytes);
        xor_bytes(want.data(), unit.data(), bytes);
        store(d, std::move(unit));
    }
    Outcome o;
    auto g = arr_->gather(spec(StripeGather::Fold::kXor), capture(&o));
    for (uint32_t d = 0; d < kDevs; ++d)
        g.read(d, 0, kUnit);
    g.seal();
    loop_.run();
    ASSERT_TRUE(o.status.is_ok()) << o.status.to_string();
    EXPECT_EQ(o.calls, 1);
    EXPECT_EQ(o.data, want);
    for (uint32_t d = 0; d < kDevs; ++d)
        EXPECT_EQ(devs_[d]->stats().reads, 1u) << "member " << d;
}

TEST_F(StripeGatherTest, QAndTwoErasureFoldsMatchSolveTwo)
{
    // Members 0-3 hold a stripe's data units, member 4 its P and member
    // 5 its Q; each seed's stripe sits one unit further into the zone.
    const uint32_t D = 4;
    const uint32_t kPDev = 4;
    const uint32_t kQDev = 5;
    const size_t bytes = static_cast<size_t>(kUnit) * kSectorSize;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        const uint64_t lba = (seed - 1) * kUnit;
        Rng rng(seed);
        std::vector<std::vector<uint8_t>> data;
        std::vector<uint8_t> p(bytes, 0), q(bytes, 0);
        for (uint32_t v = 0; v < D; ++v) {
            data.push_back(random_bytes(rng, bytes));
            xor_bytes(p.data(), data[v].data(), bytes);
            gf256::accumulate(q.data(), data[v].data(), bytes, v);
            store(v, data[v], lba);
        }
        store(kPDev, p, lba);
        store(kQDev, q, lba);
        auto run = [&](StripeGather::Spec s, std::vector<uint32_t> known,
                       bool with_p, bool with_q) {
            Outcome o;
            StripeGather g = arr_->gather(s, capture(&o));
            for (uint32_t v : known)
                g.read(v, lba, kUnit, static_cast<int>(v));
            if (with_p)
                g.read(kPDev, lba, kUnit, StripeGather::kP);
            if (with_q)
                g.read(kQDev, lba, kUnit, StripeGather::kQ);
            g.seal();
            loop_.run();
            EXPECT_TRUE(o.status.is_ok()) << o.status.to_string();
            return o.data;
        };
        // One lost data unit, from Q and the other data units; and Q
        // itself, from every data unit.
        for (uint32_t u = 0; u < D; ++u) {
            std::vector<uint32_t> known;
            for (uint32_t v = 0; v < D; ++v)
                if (v != u)
                    known.push_back(v);
            EXPECT_EQ(run(spec(StripeGather::Fold::kQ, static_cast<int>(u)),
                          known, false, true),
                      data[u])
                << "seed " << seed << " unit " << u;
        }
        EXPECT_EQ(run(spec(StripeGather::Fold::kQ, StripeGather::kQ),
                      {0, 1, 2, 3}, false, false),
                  q);
        // Two lost data units, checked against solve_two directly.
        for (uint32_t x = 0; x < D; ++x) {
            for (uint32_t y = x + 1; y < D; ++y) {
                std::vector<uint8_t> pp = p, qq = q;
                std::vector<uint32_t> known;
                for (uint32_t v = 0; v < D; ++v) {
                    if (v == x || v == y)
                        continue;
                    known.push_back(v);
                    xor_bytes(pp.data(), data[v].data(), bytes);
                    gf256::accumulate(qq.data(), data[v].data(), bytes, v);
                }
                std::vector<uint8_t> dx(bytes), dy(bytes);
                gf256::solve_two(dx.data(), dy.data(), pp.data(),
                                 qq.data(), bytes, x, y);
                ASSERT_EQ(dx, data[x]);
                ASSERT_EQ(dy, data[y]);
                const int xi = static_cast<int>(x);
                const int yi = static_cast<int>(y);
                EXPECT_EQ(run(spec(StripeGather::Fold::kTwo, xi, yi), known,
                              true, true),
                          dx);
                EXPECT_EQ(run(spec(StripeGather::Fold::kTwo, yi, xi), known,
                              true, true),
                          dy);
            }
        }
    }
}

TEST_F(StripeGatherTest, FirstErrorWinsAndEveryReadIsIssued)
{
    for (uint32_t d = 0; d < kDevs; ++d)
        store(d, pattern_data(kUnit, d));
    devs_[1]->fail();
    Outcome o;
    const Tick t0 = loop_.now();
    auto g = arr_->gather(spec(StripeGather::Fold::kXor), capture(&o));
    for (uint32_t d = 0; d < kDevs; ++d)
        g.read(d, 0, kUnit);
    g.put(Status(StatusCode::kIoError, "later error"), 100 * kNsPerUs);
    g.seal();
    loop_.run();
    EXPECT_EQ(o.calls, 1);
    EXPECT_EQ(o.status.code(), StatusCode::kOffline)
        << o.status.to_string();
    EXPECT_TRUE(o.data.empty());
    EXPECT_GE(o.at, t0 + 100 * kNsPerUs) << "completed before every source";
    EXPECT_EQ(devs_[1]->stats().errors, 1u);
    for (uint32_t d = 0; d < kDevs; ++d) {
        if (d != 1) {
            EXPECT_EQ(devs_[d]->stats().reads, 1u) << "member " << d;
        }
    }
    // The live member's error escalated.
    EXPECT_EQ(arr_->dev_errors(), 1u);
    EXPECT_EQ(arr_->failed_device(), 1);
    for (uint32_t d = 0; d < kDevs; ++d)
        EXPECT_EQ(arr_->is_marked_failed(d), d == 1) << "member " << d;
}

TEST_F(StripeGatherTest, SealedGatherWithNoSourcesCompletesNextTick)
{
    Outcome o;
    const Tick t0 = loop_.now();
    auto g = arr_->gather(spec(StripeGather::Fold::kXor), capture(&o));
    g.seal();
    EXPECT_FALSE(o.fired) << "completed inline";
    loop_.run();
    EXPECT_EQ(o.calls, 1);
    EXPECT_EQ(o.at, t0 + 1);
    EXPECT_TRUE(o.status.is_ok());
    EXPECT_EQ(o.data,
              std::vector<uint8_t>(static_cast<size_t>(kUnit) * kSectorSize,
                                   0));
}

TEST_F(StripeGatherTest, InMemorySourceArrivesAtItsDelay)
{
    Outcome o;
    const Tick t0 = loop_.now();
    const std::vector<uint8_t> bytes = pattern_data(kUnit, 7);
    auto g = arr_->gather(spec(StripeGather::Fold::kXor), capture(&o));
    g.put(IoBuf::copy_of(bytes), 5 * kNsPerUs);
    g.seal();
    loop_.run();
    EXPECT_EQ(o.calls, 1);
    EXPECT_EQ(o.at, t0 + 5 * kNsPerUs);
    EXPECT_EQ(o.data, bytes);
}

TEST_F(StripeGatherTest, PlaceAssemblesExtentsAtTheirOffsets)
{
    const std::vector<uint8_t> want = pattern_data(kUnit, 9);
    const size_t sector = kSectorSize; // extents of 1, 1 and 2 sectors
    Outcome o;
    StripeGather::Spec s = spec(StripeGather::Fold::kPlace);
    auto g = arr_->gather(s, capture(&o));
    // Later extents arrive first.
    g.put(std::vector<uint8_t>(want.begin(), want.begin() + sector), 3);
    g.put(std::vector<uint8_t>(want.begin() + sector,
                               want.begin() + 2 * sector),
          2, sector);
    g.put(std::vector<uint8_t>(want.begin() + 2 * sector, want.end()), 1,
          2 * sector);
    g.seal();
    loop_.run();
    ASSERT_TRUE(o.status.is_ok()) << o.status.to_string();
    EXPECT_EQ(o.data, want);
}

TEST_F(StripeGatherTest, PlaceHandsOnALoneSourceAndZeroesOnlyGaps)
{
    // One member read covering the whole unit is handed on as is: the
    // only copy is the device's load.
    const size_t bytes = static_cast<size_t>(kUnit) * kSectorSize;
    const std::vector<uint8_t> want = pattern_data(kUnit, 5);
    store(0, want);
    Outcome o;
    StripeGather::Spec s = spec(StripeGather::Fold::kPlace);
    const uint64_t before = prof::g_copy_bytes;
    auto g = arr_->gather(s, capture(&o));
    g.read(0, 0, kUnit);
    g.seal();
    loop_.run();
    ASSERT_TRUE(o.status.is_ok()) << o.status.to_string();
    EXPECT_EQ(o.data, want);
    EXPECT_EQ(prof::g_copy_bytes - before, bytes) << "device load only";

    // Sources that leave a hole: the hole reads as zeros.
    const size_t sector = kSectorSize;
    Outcome h;
    auto g2 = arr_->gather(s, capture(&h));
    g2.put(IoBuf::copy_of(std::span(want).first(sector)), 1);
    g2.put(IoBuf::copy_of(std::span(want).subspan(2 * sector)), 1,
           2 * sector);
    g2.seal();
    loop_.run();
    ASSERT_TRUE(h.status.is_ok()) << h.status.to_string();
    std::vector<uint8_t> holed = want;
    std::fill_n(holed.begin() + static_cast<ptrdiff_t>(sector), sector, 0);
    EXPECT_EQ(h.data, holed);
}

TEST_F(StripeGatherTest, LateErrorFromReplacedMemberIsNotEscalated)
{
    devs_[0]->fail();
    Outcome o;
    auto g = arr_->gather(spec(StripeGather::Fold::kXor), capture(&o));
    g.read(0, 0, kUnit);
    g.seal();
    // A spare takes the slot while the read is in flight.
    arr_->replace_member(0, devs_[kDevs].get());
    loop_.run();
    EXPECT_EQ(o.calls, 1);
    EXPECT_EQ(o.status.code(), StatusCode::kOffline);
    EXPECT_EQ(arr_->dev_errors(), 0u);
    EXPECT_FALSE(arr_->degraded());
}

} // namespace
} // namespace raizn
