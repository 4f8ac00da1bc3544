#include "zns/conv_device.h"

#include <cassert>

#include "common/logging.h"
#include "obs/ledger.h"
#include "sim/event_loop.h"

namespace raizn {

ConvDevice::ConvDevice(EventLoop *loop, ConvDeviceConfig config)
    : loop_(loop), config_(std::move(config)),
      data_(config_.nsectors * kSectorSize)
{
    geom_.zoned = false;
    geom_.nsectors = config_.nsectors;
    geom_.atomic_write_sectors = 16;

    timing_ = std::make_unique<TimingModel>(*loop_, config_.timing);
    timing_->set_busy_accumulator(&stats_.busy_ns);
    FtlConfig fcfg;
    fcfg.user_pages = config_.nsectors;
    fcfg.op_ratio = config_.op_ratio;
    fcfg.pages_per_block = config_.pages_per_block;
    fcfg.gc_low_blocks = config_.gc_low_blocks;
    fcfg.gc_high_blocks = config_.gc_high_blocks;
    ftl_ = std::make_unique<Ftl>(fcfg);
}

void
ConvDevice::complete(Tick when, IoCallback cb, IoResult result)
{
    result.submit_tick = loop_->now();
    result.complete_tick = when;
    uint32_t slot = pending_.acquire();
    pending_[slot].cb = std::move(cb);
    pending_[slot].result = std::move(result);
    loop_->schedule_at(when, "conv.complete",
                       [this, slot, gen = pending_.gen(slot)] {
                           fire(slot, gen);
                       });
}

void
ConvDevice::fire(uint32_t slot, uint32_t gen)
{
    if (pending_.gen(slot) != gen)
        return;
    Pending p = std::move(pending_[slot]);
    pending_.release(slot);
    p.cb(std::move(p.result));
}

void
ConvDevice::submit(IoRequest req, IoCallback cb)
{
    assert(cb);
    if (failed_) {
        stats_.errors++;
        IoResult r;
        r.status = Status(StatusCode::kOffline, "device failed");
        complete(loop_->now() + kNsPerUs, std::move(cb), std::move(r));
        return;
    }

    IoResult result;
    Tick when = loop_->now();

    if (req.preflush && req.op != IoOp::kFlush)
        when = std::max(when, timing_->flush_done());

    switch (req.op) {
      case IoOp::kRead: {
        if (req.nsectors == 0 ||
            req.slba + req.nsectors > geom_.nsectors) {
            result.status =
                Status(StatusCode::kInvalidArgument, "read out of range");
            break;
        }
        stats_.reads++;
        stats_.sectors_read += req.nsectors;
        result.lba = req.slba;
        if (config_.data_mode == DataMode::kStore) {
            size_t len = static_cast<size_t>(req.nsectors) * kSectorSize;
            std::vector<uint8_t> bytes;
            bytes.reserve(len);
            data_.read(req.slba * kSectorSize, len, bytes);
            result.data = std::move(bytes);
        }
        when = std::max(when, timing_->read_done(req.nsectors));
        break;
      }
      case IoOp::kWrite: {
        if (req.nsectors == 0 ||
            req.slba + req.nsectors > geom_.nsectors) {
            result.status =
                Status(StatusCode::kInvalidArgument, "write out of range");
            break;
        }
        // Payload must be sector-aligned and agree with nsectors
        // (empty payloads are timing-only writes and always legal).
        if (!req.data.empty() &&
            (req.data.size() % kSectorSize != 0 ||
             req.data.size() / kSectorSize != req.nsectors)) {
            result.status = Status(StatusCode::kInvalidArgument,
                                   "payload size disagrees with nsectors");
            break;
        }
        stats_.writes++;
        stats_.sectors_written += req.nsectors;
        result.lba = req.slba;
        if (config_.data_mode == DataMode::kStore) {
            size_t len = static_cast<size_t>(req.nsectors) * kSectorSize;
            assert(req.data.empty() || req.data.size() == len);
            data_.write(req.slba * kSectorSize,
                        req.data.empty() ? nullptr : req.data.data(), len);
        }
        // Run every page through the FTL; GC work it triggers occupies
        // device units ahead of later commands.
        GcWork total;
        for (uint32_t i = 0; i < req.nsectors; ++i) {
            GcWork w = ftl_->write_page(req.slba + i);
            total.pages_copied += w.pages_copied;
            total.blocks_erased += w.blocks_erased;
        }
        when = std::max(when, timing_->write_done(req.nsectors));
        if (total.pages_copied > 0) {
            stats_.gc_page_copies += total.pages_copied;
            // Each relocated page costs a read + program on the media.
            Tick gc_done = timing_->internal_copy_done(
                static_cast<uint32_t>(total.pages_copied));
            when = std::max(when, gc_done);
        }
        if (total.blocks_erased > 0) {
            stats_.gc_erases += total.blocks_erased;
            for (uint64_t e = 0; e < total.blocks_erased; ++e)
                when = std::max(when, timing_->reset_done());
        }
        break;
      }
      case IoOp::kFlush: {
        stats_.flushes++;
        when = std::max(when, timing_->flush_done());
        break;
      }
      default:
        result.status =
            Status(StatusCode::kNotSupported, "zone op on block device");
        break;
    }

    if (!result.status.is_ok())
        stats_.errors++;
    else if (ledger_ != nullptr)
        ledger_->record(ledger_dev_, req.op, req.cause, req.slba,
                        req.nsectors);
    complete(std::max(when, loop_->now() + 1), std::move(cb),
             std::move(result));
}

void
ConvDevice::trim(uint64_t slba, uint64_t nsectors)
{
    assert(slba + nsectors <= geom_.nsectors);
    for (uint64_t i = 0; i < nsectors; ++i)
        ftl_->trim_page(slba + i);
}

void
ConvDevice::reattach(EventLoop *loop)
{
    loop_ = loop;
    pending_.release_all();
    timing_ = std::make_unique<TimingModel>(*loop_, config_.timing);
    timing_->set_busy_accumulator(&stats_.busy_ns);
}

void
ConvDevice::replace()
{
    failed_ = false;
    pending_.release_all();
    data_.clear();
    FtlConfig fcfg;
    fcfg.user_pages = config_.nsectors;
    fcfg.op_ratio = config_.op_ratio;
    fcfg.pages_per_block = config_.pages_per_block;
    fcfg.gc_low_blocks = config_.gc_low_blocks;
    fcfg.gc_high_blocks = config_.gc_high_blocks;
    ftl_ = std::make_unique<Ftl>(fcfg);
    stats_ = DeviceStats{};
    // Counters restarted from zero on a factory-fresh device: move the
    // ledger's audit baseline along or every delta check would trip.
    if (ledger_ != nullptr)
        ledger_->rebind_device(ledger_dev_, this);
}

} // namespace raizn
