/**
 * @file
 * StripeGather: the one fan-out/join core behind every engine's
 * degraded read, rebuild, multi-extent read and scrub. A caller names
 * the sources of one unit — member reads, in-memory bytes (stripe-buffer
 * copies, partial parity, relocation caches) or completions it issues
 * itself — and the fold that joins them. The gather issues member reads
 * through ZonedArray::gather_submit, folds each source as it arrives
 * and fires one callback with the unit.
 *
 * Folds (a source lands `at` bytes into the unit):
 *  - kPlace: a read assembled from its extents, or a scrubbed
 *          stripe's units side by side. Sources are kept as they
 *          arrive; one source covering the whole unit is handed on as
 *          is, otherwise they are copied in order into one fresh
 *          buffer, and only the ranges no source covers are zeroed.
 *  - kXor: P equation; the unit is the XOR of every source.
 *  - kQ:   Q equation; data unit v enters as g^v * D_v and the Q source
 *          as is, and the sum is scaled by g^-lost (by 1 when the lost
 *          unit is Q itself).
 *  - kTwo: P and Q equations for two lost data units {lost, other},
 *          solved with gf256::solve_two.
 *
 * The first error wins: the callback gets it and no bytes, once every
 * source has arrived. A member read error escalates through
 * ZonedArray::escalate_dev_error, unless a promoted spare has replaced
 * that member since the read was sent. A sealed gather with nothing
 * pending completes on the next tick.
 *
 * A StripeGather is a handle: copies share one join, which lives until
 * its last pending source has arrived. A member read's completion
 * captures only a pooled slot (it fits std::function's inline buffer);
 * the array's destructor releases the slots of its reads still out.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "array/zoned_array.h"
#include "common/slab.h"

namespace raizn {

class StripeGather
{
    struct State;
    struct MemberRead;

  public:
    using DataCb = ZonedArray::DataCb;

    enum class Fold : uint8_t { kPlace, kXor, kQ, kTwo };
    /// Source roles besides data-unit indices (>= 0).
    static constexpr int kP = -1;
    static constexpr int kQ = -2;

    struct Spec {
        Fold fold = Fold::kXor;
        /// Bytes of the unit; 0 is timing-only and folds nothing.
        size_t bytes = 0;
        int lost = kP; ///< kQ / kTwo: the unit solved for
        int other = kP; ///< kTwo: the second lost data unit
        uint32_t zone = 0; ///< passed to gather_submit
        obs::Cause cause = obs::Cause::kParity;
        const char *stage = nullptr; ///< trace stage of member reads
        uint64_t trace_req = 0;
    };

    /// Completion of one source the caller issues itself (a DataCb),
    /// made by source(); invoke it exactly once.
    struct Source {
        std::shared_ptr<State> st;
        size_t at;

        void operator()(const Status &s, IoBuf d) const;
    };

    StripeGather(ZonedArray *arr, Spec spec, DataCb cb);
    /// The same, completing a logical read: `cb` gets an IoResult.
    StripeGather(ZonedArray *arr, Spec spec, IoCallback cb);

    /// Reads `nsectors` at `pba` of member `dev` as source `role`; its
    /// bytes land `at` bytes in.
    void read(uint32_t dev, uint64_t pba, uint32_t nsectors,
              int role = kP, size_t at = 0);
    /// In-memory source arriving `delay` ticks from now, `at` bytes in.
    void put(IoBuf data, Tick delay, size_t at = 0);
    /// In-memory source that fails `delay` ticks from now.
    void put(Status err, Tick delay);
    /// A source the caller issues; its bytes land `at` bytes in.
    Source source(size_t at = 0);
    /// Records an error now without adding a source.
    void fail(Status err);
    /// No more sources follow.
    void seal();

    /// Drops the pending member reads of `arr`, which is going away.
    static void forget(const ZonedArray *arr);

  private:
    static Slab<MemberRead> &member_reads();

    std::shared_ptr<State> st_;
};

} // namespace raizn
