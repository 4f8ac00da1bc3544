#include "obs/ledger.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/units.h"
#include "obs/metrics.h"
#include "zns/block_device.h"

namespace raizn::obs {

namespace {

void
append_f(std::string *out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    *out += buf;
}

} // namespace

std::string
LedgerAudit::summary() const
{
    if (ok())
        return "conservation audit: ok";
    std::string out = "conservation audit: " +
        std::to_string(problems.size()) + " violation(s)\n";
    for (const std::string &p : problems)
        out += "  " + p + "\n";
    return out;
}

void
IoLedger::snapshot_baseline(DevLedger &d)
{
    const DeviceStats &s = d.bd->stats();
    d.base_sectors_written = s.sectors_written;
    d.base_sectors_read = s.sectors_read;
    d.base_write_ops = s.writes + s.appends;
    d.base_read_ops = s.reads;
    d.base_flushes = s.flushes;
    d.base_zone_resets = s.zone_resets;
    d.mark = d.total;
}

void
IoLedger::attach_device(uint32_t dev, const BlockDevice *bd)
{
    if (dev >= devs_.size())
        devs_.resize(dev + 1);
    DevLedger &d = devs_[dev];
    d.bd = bd;
    const DeviceGeometry &g = bd->geometry();
    d.zone_size = g.zoned ? g.zone_size : 0;
    d.nzones = g.zoned && g.nzones > 0 ? g.nzones : 1;
    d.cells.assign(static_cast<size_t>(d.nzones) * kNumCauses,
                   LedgerCell{});
    d.total = LedgerCell{};
    snapshot_baseline(d);
}

void
IoLedger::rebind_device(uint32_t dev, const BlockDevice *bd)
{
    if (dev >= devs_.size() || devs_[dev].bd == nullptr) {
        attach_device(dev, bd);
        return;
    }
    DevLedger &d = devs_[dev];
    d.bd = bd;
    snapshot_baseline(d);
}

LedgerCell &
IoLedger::cell(DevLedger &d, uint64_t slba, Cause c)
{
    uint32_t zone = d.zone_size != 0
        ? static_cast<uint32_t>(slba / d.zone_size)
        : 0;
    if (zone >= d.nzones)
        zone = d.nzones - 1;
    return d.cells[static_cast<size_t>(zone) * kNumCauses +
                   static_cast<uint32_t>(c)];
}

void
IoLedger::record(uint32_t dev, IoOp op, Cause cause, uint64_t slba,
                 uint32_t nsectors)
{
    if (dev >= devs_.size() || devs_[dev].bd == nullptr)
        return; // unattached device (e.g. a spare before promotion)
    DevLedger &d = devs_[dev];
    LedgerCell &c = cell(d, slba, cause);
    CauseAgg &a = agg_[static_cast<uint32_t>(cause)];
    a.ops += 1;
    switch (op) {
      case IoOp::kWrite:
      case IoOp::kAppend:
        c.write_ops += 1;
        c.write_sectors += nsectors;
        d.total.write_ops += 1;
        d.total.write_sectors += nsectors;
        a.write_bytes += static_cast<uint64_t>(nsectors) * kSectorSize;
        break;
      case IoOp::kRead:
        c.read_ops += 1;
        c.read_sectors += nsectors;
        d.total.read_ops += 1;
        d.total.read_sectors += nsectors;
        a.read_bytes += static_cast<uint64_t>(nsectors) * kSectorSize;
        break;
      case IoOp::kFlush:
        c.flushes += 1;
        d.total.flushes += 1;
        break;
      case IoOp::kZoneReset:
        c.zone_resets += 1;
        d.total.zone_resets += 1;
        break;
      case IoOp::kZoneFinish:
      case IoOp::kZoneOpen:
      case IoOp::kZoneClose:
        c.zone_mgmt_ops += 1;
        d.total.zone_mgmt_ops += 1;
        break;
    }
}

void
IoLedger::note_untagged_submit(const char *stage)
{
    untagged_submits_ += 1;
    untagged_stages_[stage != nullptr ? stage : "(unlabeled)"] += 1;
}

void
IoLedger::note_user_write(uint32_t nsectors)
{
    logical_.write_bytes += static_cast<uint64_t>(nsectors) * kSectorSize;
}

void
IoLedger::note_user_read(uint32_t nsectors)
{
    logical_.read_bytes += static_cast<uint64_t>(nsectors) * kSectorSize;
}

uint64_t
IoLedger::device_write_bytes() const
{
    uint64_t sum = 0;
    for (const CauseAgg &a : agg_)
        sum += a.write_bytes;
    return sum;
}

uint64_t
IoLedger::device_read_bytes() const
{
    uint64_t sum = 0;
    for (const CauseAgg &a : agg_)
        sum += a.read_bytes;
    return sum;
}

uint64_t
IoLedger::cause_write_bytes(Cause c) const
{
    return agg_[static_cast<uint32_t>(c)].write_bytes;
}

uint64_t
IoLedger::cause_read_bytes(Cause c) const
{
    return agg_[static_cast<uint32_t>(c)].read_bytes;
}

uint64_t
IoLedger::untagged_ops() const
{
    return agg_[static_cast<uint32_t>(Cause::kUntagged)].ops +
        untagged_submits_;
}

double
IoLedger::waf() const
{
    if (logical_.write_bytes == 0)
        return 0.0;
    return static_cast<double>(device_write_bytes()) /
        static_cast<double>(logical_.write_bytes);
}

double
IoLedger::raf() const
{
    if (logical_.read_bytes == 0)
        return 0.0;
    return static_cast<double>(device_read_bytes()) /
        static_cast<double>(logical_.read_bytes);
}

double
IoLedger::waf_component(Cause c) const
{
    if (logical_.write_bytes == 0)
        return 0.0;
    return static_cast<double>(cause_write_bytes(c)) /
        static_cast<double>(logical_.write_bytes);
}

std::string
IoLedger::breakdown_table() const
{
    std::string out;
    append_f(&out, "%-12s %14s %14s %10s %8s\n", "cause", "write_bytes",
             "read_bytes", "ops", "waf");
    uint64_t wtot = device_write_bytes(), rtot = device_read_bytes();
    for (uint32_t i = 0; i < kNumCauses; ++i) {
        const CauseAgg &a = agg_[i];
        if (a.write_bytes == 0 && a.read_bytes == 0 && a.ops == 0)
            continue;
        append_f(&out, "%-12s %14" PRIu64 " %14" PRIu64 " %10" PRIu64
                 " %8.3f\n",
                 cause_name(static_cast<Cause>(i)), a.write_bytes,
                 a.read_bytes, a.ops,
                 waf_component(static_cast<Cause>(i)));
    }
    append_f(&out, "%-12s %14" PRIu64 " %14" PRIu64 " %10s %8.3f\n",
             "total", wtot, rtot, "", waf());
    append_f(&out,
             "acked user bytes: write %" PRIu64 " read %" PRIu64
             "  WAF %.3f  RAF %.3f\n",
             logical_.write_bytes, logical_.read_bytes, waf(), raf());
    return out;
}

std::string
IoLedger::breakdown_csv() const
{
    std::string out = "cause,write_bytes,read_bytes,ops,waf_component\n";
    for (uint32_t i = 0; i < kNumCauses; ++i) {
        const CauseAgg &a = agg_[i];
        if (a.write_bytes == 0 && a.read_bytes == 0 && a.ops == 0)
            continue;
        append_f(&out, "%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.6f\n",
                 cause_name(static_cast<Cause>(i)), a.write_bytes,
                 a.read_bytes, a.ops,
                 waf_component(static_cast<Cause>(i)));
    }
    append_f(&out, "total,%" PRIu64 ",%" PRIu64 ",,%.6f\n",
             device_write_bytes(), device_read_bytes(), waf());
    return out;
}

std::string
IoLedger::heatmap_csv() const
{
    std::string out = "dev,zone,cause,write_sectors,read_sectors,"
                      "write_ops,read_ops,flushes,zone_resets,"
                      "zone_mgmt_ops\n";
    for (uint32_t dev = 0; dev < devs_.size(); ++dev) {
        const DevLedger &d = devs_[dev];
        if (d.bd == nullptr)
            continue;
        for (uint32_t z = 0; z < d.nzones; ++z) {
            for (uint32_t c = 0; c < kNumCauses; ++c) {
                const LedgerCell &cell =
                    d.cells[static_cast<size_t>(z) * kNumCauses + c];
                if (cell.empty())
                    continue;
                append_f(&out,
                         "%u,%u,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                         ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                         "\n",
                         dev, z, cause_name(static_cast<Cause>(c)),
                         cell.write_sectors, cell.read_sectors,
                         cell.write_ops, cell.read_ops, cell.flushes,
                         cell.zone_resets, cell.zone_mgmt_ops);
            }
        }
    }
    return out;
}

std::string
IoLedger::to_json() const
{
    LedgerAudit a = audit();
    std::string out = "{\n";
    append_f(&out,
             "  \"user_write_bytes\": %" PRIu64
             ", \"user_read_bytes\": %" PRIu64 ",\n"
             "  \"device_write_bytes\": %" PRIu64
             ", \"device_read_bytes\": %" PRIu64 ",\n"
             "  \"waf\": %.6f, \"raf\": %.6f,\n"
             "  \"untagged_ops\": %" PRIu64 ", \"audit_ok\": %s,\n"
             "  \"causes\": {\n",
             logical_.write_bytes, logical_.read_bytes,
             device_write_bytes(), device_read_bytes(), waf(), raf(),
             untagged_ops(), a.ok() ? "true" : "false");
    bool first = true;
    for (uint32_t i = 0; i < kNumCauses; ++i) {
        const CauseAgg &agg = agg_[i];
        if (agg.write_bytes == 0 && agg.read_bytes == 0 && agg.ops == 0)
            continue;
        if (!first)
            out += ",\n";
        first = false;
        append_f(&out,
                 "    \"%s\": {\"write_bytes\": %" PRIu64
                 ", \"read_bytes\": %" PRIu64 ", \"ops\": %" PRIu64
                 ", \"waf_component\": %.6f}",
                 cause_name(static_cast<Cause>(i)), agg.write_bytes,
                 agg.read_bytes, agg.ops,
                 waf_component(static_cast<Cause>(i)));
    }
    out += "\n  }\n}\n";
    return out;
}

LedgerAudit
IoLedger::audit() const
{
    LedgerAudit rep;
    uint64_t untagged = untagged_ops();
    if (untagged != 0) {
        rep.problems.push_back(
            "untagged sub-I/Os reached a device: " +
            std::to_string(untagged));
        for (const auto &[stage, n] : untagged_stages_) {
            rep.problems.push_back("untagged submits at stage " + stage +
                                   ": " + std::to_string(n));
        }
    }
    for (uint32_t dev = 0; dev < devs_.size(); ++dev) {
        const DevLedger &d = devs_[dev];
        if (d.bd == nullptr)
            continue;
        const DeviceStats &s = d.bd->stats();
        auto check = [&](const char *what, uint64_t dev_now,
                         uint64_t dev_base, uint64_t led_now,
                         uint64_t led_base) {
            uint64_t dev_delta = dev_now - dev_base;
            uint64_t led_delta = led_now - led_base;
            if (dev_delta != led_delta) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "dev%u %s: device counted %" PRIu64
                              " but ledger attributed %" PRIu64,
                              dev, what, dev_delta, led_delta);
                rep.problems.push_back(buf);
            }
        };
        check("sectors_written", s.sectors_written,
              d.base_sectors_written, d.total.write_sectors,
              d.mark.write_sectors);
        check("sectors_read", s.sectors_read, d.base_sectors_read,
              d.total.read_sectors, d.mark.read_sectors);
        check("write_ops", s.writes + s.appends, d.base_write_ops,
              d.total.write_ops, d.mark.write_ops);
        check("read_ops", s.reads, d.base_read_ops, d.total.read_ops,
              d.mark.read_ops);
        check("flushes", s.flushes, d.base_flushes, d.total.flushes,
              d.mark.flushes);
        check("zone_resets", s.zone_resets, d.base_zone_resets,
              d.total.zone_resets, d.mark.zone_resets);
    }
    return rep;
}

void
IoLedger::link_metrics(MetricsRegistry *reg)
{
    for (uint32_t i = 1; i < kNumCauses; ++i) {
        std::string prefix =
            std::string("ledger.cause.") +
            cause_name(static_cast<Cause>(i));
        reg->link_counter(prefix + ".write_bytes", &agg_[i].write_bytes);
        reg->link_counter(prefix + ".read_bytes", &agg_[i].read_bytes);
        reg->link_counter(prefix + ".ops", &agg_[i].ops);
    }
    reg->link_counter("ledger.user.write_bytes", &logical_.write_bytes);
    reg->link_counter("ledger.user.read_bytes", &logical_.read_bytes);
    reg->link_counter("ledger.untagged.ops",
                      &agg_[static_cast<uint32_t>(Cause::kUntagged)].ops);
    waf_gauge_ = reg->gauge("ledger.waf_milli");
    raf_gauge_ = reg->gauge("ledger.raf_milli");
    refresh_gauges();
}

void
IoLedger::refresh_gauges()
{
    waf_milli_ = static_cast<uint64_t>(waf() * 1000.0);
    raf_milli_ = static_cast<uint64_t>(raf() * 1000.0);
    if (waf_gauge_ != nullptr)
        waf_gauge_->set(waf_milli_);
    if (raf_gauge_ != nullptr)
        raf_gauge_->set(raf_milli_);
}

} // namespace raizn::obs
