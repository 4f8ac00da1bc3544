/**
 * @file
 * mdraid's resync policy (§6.2, Fig. 12) over the shared rebuild walk in
 * array/rebuild.cc: after a failed device is replaced, md reconstructs
 * and rewrites the replacement's ENTIRE address space, one chunk per
 * unit, as a single range. Unlike RAIZN it cannot distinguish valid
 * data from free space, so the time to repair is constant regardless
 * of array fill.
 */
#include "array/stripe_gather.h"
#include "mdraid/md_volume.h"

namespace raizn {

bool
MdVolume::rebuild_zones(uint32_t /*dev*/, std::vector<uint32_t> *out) const
{
    if (out != nullptr)
        out->push_back(0); // the whole device: one range of chunks
    return true;
}

void
MdVolume::rebuild_zone_open(uint32_t dev, uint32_t /*zone*/,
                            std::function<void(Status, uint64_t)> cb)
{
    cb(Status::ok(), devs_[dev]->geometry().nsectors / cfg_.chunk_sectors);
}

ZonedArray::RebuildExtent
MdVolume::rebuild_extent(uint32_t /*dev*/, uint32_t /*zone*/,
                         uint64_t stripe) const
{
    return {chunk_pba(stripe), cfg_.chunk_sectors};
}

void
MdVolume::rebuild_read(uint32_t dev, uint32_t /*zone*/, uint64_t /*stripe*/,
                       const RebuildExtent &e, DataCb cb)
{
    // Reconstruct this device's chunk from every other device: XOR
    // works for both data chunks and the parity chunk.
    StripeGather::Spec spec;
    if (store_data_)
        spec.bytes = static_cast<size_t>(e.nsectors) * kSectorSize;
    spec.cause = obs::Cause::kResync;
    spec.stage = "resync.read";
    StripeGather g(this, spec, std::move(cb));
    for (uint32_t d = 0; d < devs_.size(); ++d)
        if (d != dev)
            g.read(d, e.pba, e.nsectors);
    g.seal();
}

void
MdVolume::rebuild_write(uint32_t dev, uint32_t /*zone*/, IoRequest req,
                        IoCallback cb)
{
    const uint32_t n = req.nsectors;
    dev_submit(dev, std::move(req), [this, n, cb = std::move(cb)](IoResult r) {
        stats_.resynced_sectors += n;
        cb(std::move(r));
    });
}

} // namespace raizn
