/**
 * @file
 * Emulated conventional (block-interface) SSD: random writes and
 * overwrites supported, with an internal page-mapped FTL whose garbage
 * collection competes with host IO for device time — the behaviour that
 * separates mdraid-on-conventional from RAIZN-on-ZNS in the paper.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slab.h"
#include "zns/block_device.h"
#include "zns/ftl.h"
#include "zns/page_store.h"
#include "zns/timing_model.h"

namespace raizn {

struct ConvDeviceConfig {
    uint64_t nsectors = 1 * kGiB / kSectorSize;
    double op_ratio = 0.07;
    uint32_t pages_per_block = 512; ///< 2 MiB erase blocks
    uint32_t gc_low_blocks = 4;
    uint32_t gc_high_blocks = 8;
    DataMode data_mode = DataMode::kStore;
    TimingParams timing = TimingParams::conventional();
    std::string name = "convdev";
};

class ConvDevice : public BlockDevice
{
  public:
    ConvDevice(EventLoop *loop, ConvDeviceConfig config);

    const DeviceGeometry &geometry() const override { return geom_; }
    const DeviceStats &stats() const override { return stats_; }
    DataMode data_mode() const override { return config_.data_mode; }
    const std::string &name() const { return config_.name; }
    const Ftl &ftl() const { return *ftl_; }

    void submit(IoRequest req, IoCallback cb) override;

    Result<ZoneInfo> zone_info(uint32_t) const override
    {
        return Status(StatusCode::kNotSupported, "not a zoned device");
    }

    bool failed() const override { return failed_; }
    void fail() override { failed_ = true; }

    /// Host trim: deallocates the LBA range inside the FTL.
    void trim(uint64_t slba, uint64_t nsectors);

    /// See ZnsDevice::reattach.
    void reattach(EventLoop *loop);

    /// Replaces the device with a factory-fresh one (rebuild target).
    void replace();

    /// Host bytes held by stored payload pages (0 in timing-only mode).
    uint64_t resident_bytes() const { return data_.resident_bytes(); }

  private:
    /// A completion parked until its event fires (see ZnsDevice).
    struct Pending {
        IoCallback cb;
        IoResult result;
    };

    void complete(Tick when, IoCallback cb, IoResult result);
    void fire(uint32_t slot, uint32_t gen);

    EventLoop *loop_;
    ConvDeviceConfig config_;
    DeviceGeometry geom_;
    DeviceStats stats_;
    std::unique_ptr<TimingModel> timing_;
    std::unique_ptr<Ftl> ftl_;
    PageStore data_; ///< payload (kStore mode)
    /// Completions in flight; reattach() and replace() void them all.
    Slab<Pending> pending_;
    bool failed_ = false;
};

} // namespace raizn
