/**
 * @file
 * Uniform IO target interface so the fio-like workload runner can
 * drive any ZonedArray (RAIZN, mdraid, ZonedEngine) or a raw device
 * with the same job specifications.
 */
#pragma once

#include <cstdint>

#include "array/zoned_array.h"
#include "zns/block_device.h"

namespace raizn {

class IoTarget
{
  public:
    virtual ~IoTarget() = default;
    virtual uint64_t capacity() const = 0;
    virtual void read(uint64_t lba, uint32_t n, IoCallback cb) = 0;
    /// Sequential or random write depending on the target's semantics.
    virtual void write(uint64_t lba, uint32_t n, IoCallback cb) = 0;
    virtual void flush(IoCallback cb) = 0;
    /// True if the target requires sequential (zoned) writes.
    virtual bool zoned() const = 0;
    /// For zoned targets: resets the zone containing `lba`.
    virtual void reset_zone_at(uint64_t lba, IoCallback cb) = 0;
};

/// Any ZonedArray implementation behind the shared interface: the
/// RAIZN volume, the mdraid volume and the generic ZonedEngine modes.
class ZonedArrayTarget : public IoTarget
{
  public:
    explicit ZonedArrayTarget(ZonedArray *arr) : arr_(arr) {}
    uint64_t capacity() const override { return arr_->capacity(); }
    void
    read(uint64_t lba, uint32_t n, IoCallback cb) override
    {
        arr_->read(lba, n, std::move(cb));
    }
    void
    write(uint64_t lba, uint32_t n, IoCallback cb) override
    {
        arr_->write_len(lba, n, {}, std::move(cb));
    }
    void
    flush(IoCallback cb) override
    {
        arr_->flush(std::move(cb));
    }
    bool zoned() const override { return arr_->zoned(); }
    /// Conventional arrays have no zones: completes at once, as a no-op.
    void
    reset_zone_at(uint64_t lba, IoCallback cb) override
    {
        if (!arr_->zoned()) {
            cb(IoResult{});
            return;
        }
        arr_->reset_zone(static_cast<uint32_t>(lba / arr_->zone_capacity()),
                         std::move(cb));
    }
    ZonedArray *array() const { return arr_; }

  private:
    ZonedArray *arr_;
};

/// Raw single-device target (§6.1 raw microbenchmarks).
class DeviceTarget : public IoTarget
{
  public:
    explicit DeviceTarget(BlockDevice *dev) : dev_(dev) {}
    uint64_t capacity() const override
    {
        const auto &g = dev_->geometry();
        return g.zoned ? g.zone_capacity * g.nzones : g.nsectors;
    }
    void
    read(uint64_t lba, uint32_t n, IoCallback cb) override
    {
        IoRequest req = IoRequest::read(to_pba(lba), n);
        req.cause = obs::Cause::kUserData;
        dev_->submit(std::move(req), std::move(cb));
    }
    void
    write(uint64_t lba, uint32_t n, IoCallback cb) override
    {
        IoRequest req = IoRequest::write_len(to_pba(lba), n);
        req.cause = obs::Cause::kUserData;
        dev_->submit(std::move(req), std::move(cb));
    }
    void
    flush(IoCallback cb) override
    {
        IoRequest req = IoRequest::flush();
        req.cause = obs::Cause::kUserData;
        dev_->submit(std::move(req), std::move(cb));
    }
    bool zoned() const override { return dev_->geometry().zoned; }
    void
    reset_zone_at(uint64_t lba, IoCallback cb) override
    {
        const auto &g = dev_->geometry();
        uint64_t zone = to_pba(lba) / g.zone_size;
        IoRequest req = IoRequest::zone_reset(zone * g.zone_size);
        req.cause = obs::Cause::kZoneMgmt;
        dev_->submit(std::move(req), std::move(cb));
    }

  private:
    /// Maps a dense "capacity" LBA onto the zoned address space.
    uint64_t
    to_pba(uint64_t lba) const
    {
        const auto &g = dev_->geometry();
        if (!g.zoned || g.zone_capacity == g.zone_size)
            return lba;
        uint64_t zone = lba / g.zone_capacity;
        return zone * g.zone_size + lba % g.zone_capacity;
    }

    BlockDevice *dev_;
};

} // namespace raizn
