/**
 * @file
 * Unit tests for the observability layer (src/obs): histogram
 * percentile edge cases, metrics-registry handle semantics and
 * external linkage, trace-ring wraparound, Chrome trace JSON shape
 * (golden file), stage breakdown, request coverage math, and the
 * obs::Session that wires an array into all of them.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "array/engine.h"
#include "common/histogram.h"
#include "mdraid/md_volume.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "raizn_test_util.h"
#include "zns/conv_device.h"

namespace raizn::obs {
namespace {

// ---------------------------------------------------------------------
// Histogram percentile edge cases (the registry exports these, so the
// corner behaviors are part of the metrics contract).

TEST(HistogramEdge, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p999(), 0u);
}

TEST(HistogramEdge, SingleSampleEveryPercentile)
{
    Histogram h;
    h.add(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 1000u);
    EXPECT_EQ(h.max(), 1000u);
    // Log-bucketed: every quantile lands in the sample's bucket, so
    // the answer is within the bucket's ~1.6% relative error.
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_NEAR(static_cast<double>(h.percentile(q)), 1000.0,
                    1000.0 * 0.02)
            << "q=" << q;
    }
}

TEST(HistogramEdge, MergeMatchesCombinedStream)
{
    Histogram a, b, both;
    for (uint64_t v = 1; v <= 1000; ++v) {
        (v % 2 ? a : b).add(v * 100);
        both.add(v * 100);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    for (double q : {0.1, 0.5, 0.95, 0.999})
        EXPECT_EQ(a.percentile(q), both.percentile(q)) << "q=" << q;
}

TEST(HistogramEdge, MergeIntoEmpty)
{
    Histogram a, b;
    b.add(42);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.max(), 42u);
}

// ---------------------------------------------------------------------
// Window snapshots (the timeline's per-interval percentiles).

TEST(HistogramEdge, WindowOfEmptyHistogramIsEmpty)
{
    Histogram h;
    Histogram w = h.window();
    EXPECT_EQ(w.count(), 0u);
    EXPECT_EQ(w.min(), 0u);
    EXPECT_EQ(w.max(), 0u);
    EXPECT_EQ(w.p50(), 0u);
}

TEST(HistogramEdge, WindowSingleSampleHasExactMinMax)
{
    Histogram h;
    h.add(12345);
    Histogram w = h.window();
    EXPECT_EQ(w.count(), 1u);
    // Window min/max are tracked exactly, not bucket-rounded.
    EXPECT_EQ(w.min(), 12345u);
    EXPECT_EQ(w.max(), 12345u);
    // The cumulative view is untouched by taking a window.
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 12345u);
}

TEST(HistogramEdge, WindowResetsSoNextWindowIsIndependent)
{
    Histogram h;
    h.add(100);
    h.add(200);
    Histogram w1 = h.window();
    EXPECT_EQ(w1.count(), 2u);
    // Nothing recorded since: the next window is empty even though the
    // cumulative histogram is not.
    Histogram w2 = h.window();
    EXPECT_EQ(w2.count(), 0u);
    EXPECT_EQ(h.count(), 2u);

    h.add(1000000);
    Histogram w3 = h.window();
    EXPECT_EQ(w3.count(), 1u);
    EXPECT_EQ(w3.min(), 1000000u);
    EXPECT_EQ(w3.max(), 1000000u);
    EXPECT_GT(w3.p50(), 100000u)
        << "window percentiles must not mix in pre-window samples";
}

TEST(HistogramEdge, DeltaOfSnapshotsMatchesWindow)
{
    Histogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.add(v * 10);
    Histogram prev = h; // timeline keeps a copy of the last snapshot
    for (uint64_t v = 1; v <= 50; ++v)
        h.add(v * 1000);
    Histogram d = Histogram::delta(h, prev);
    EXPECT_EQ(d.count(), 50u);
    // Bucket-bounded min/max still bracket the true values.
    EXPECT_LE(d.min(), 1000u);
    EXPECT_GE(d.max(), 50000u * 90 / 100);

    // A cleared/restarted source (count went backwards) falls back to
    // the current cumulative view instead of a bogus negative diff.
    Histogram fresh;
    fresh.add(7);
    Histogram d2 = Histogram::delta(fresh, prev);
    EXPECT_EQ(d2.count(), 1u);
}

// ---------------------------------------------------------------------
// Registry handle semantics.

TEST(MetricsRegistry, HandlesAreStableAndReused)
{
    MetricsRegistry reg;
    Counter *c1 = reg.counter("raizn.write.count");
    Counter *c2 = reg.counter("raizn.write.count");
    EXPECT_EQ(c1, c2) << "same name must return the same handle";
    EXPECT_EQ(reg.size(), 1u);

    c1->inc();
    c1->inc(4);
    EXPECT_EQ(c2->value(), 5u);

    LatencyMetric *l1 = reg.latency("raizn.write.total_ns");
    LatencyMetric *l2 = reg.latency("raizn.write.total_ns");
    EXPECT_EQ(l1, l2);
    EXPECT_EQ(reg.size(), 2u);

    // Handles stay valid as the registry grows (pointer stability).
    for (int i = 0; i < 100; ++i)
        reg.counter("filler." + std::to_string(i));
    c1->inc();
    EXPECT_EQ(reg.counter("raizn.write.count")->value(), 6u);
}

TEST(MetricsRegistry, LinkedCounterReadsThrough)
{
    MetricsRegistry reg;
    uint64_t field = 7;
    reg.link_counter("layer.field", &field);
    field = 123; // hot path mutates the plain struct field
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "layer.field");
    EXPECT_EQ(snap[0].value, 123u);
}

struct TestStats {
    uint64_t alpha = 1;
    uint64_t beta = 2;

    template <typename Fn>
    void
    for_each_field(Fn fn) const
    {
        fn("alpha", alpha);
        fn("beta", beta);
    }
};

TEST(MetricsRegistry, LinkStatsAndRenderShareFieldList)
{
    TestStats s;
    EXPECT_EQ(render_stats(s), "alpha=1 beta=2");

    MetricsRegistry reg;
    link_stats(reg, "test", s);
    s.beta = 9;
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "test.alpha");
    EXPECT_EQ(snap[0].value, 1u);
    EXPECT_EQ(snap[1].name, "test.beta");
    EXPECT_EQ(snap[1].value, 9u);
}

TEST(MetricsRegistry, SnapshotSortedAndJsonShape)
{
    MetricsRegistry reg;
    reg.counter("z.last")->inc(3);
    reg.counter("a.first")->inc(1);
    reg.latency("m.lat_ns")->record(5000);
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.first");
    EXPECT_EQ(snap[1].name, "m.lat_ns");
    EXPECT_EQ(snap[2].name, "z.last");

    std::string j = reg.to_json();
    EXPECT_NE(j.find("\"a.first\": 1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"z.last\": 3"), std::string::npos) << j;
    EXPECT_NE(j.find("\"m.lat_ns\": {\"count\": 1"), std::string::npos)
        << j;
    EXPECT_NE(j.find("\"p99_ns\""), std::string::npos) << j;
}

TEST(MetricsRegistry, RenderKvEmpty)
{
    EXPECT_EQ(render_kv({}), "");
}

// ---------------------------------------------------------------------
// Trace ring.

TEST(TraceRecorder, RingWraparoundKeepsNewest)
{
    TraceRecorder tr(4);
    for (uint64_t i = 0; i < 7; ++i)
        tr.add_span("s", i, kTrackRequest, i * 10, i * 10 + 5);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.dropped(), 3u);
    auto spans = tr.spans();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest-first iteration over the surviving window: reqs 3..6.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].req, i + 3) << "slot " << i;

    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.dropped(), 0u);
}

TEST(TraceRecorder, OpenSpanCutByCrashNeverEntersRing)
{
    TraceRecorder tr(16);
    uint64_t done = tr.begin_span("finished", 1, kTrackRequest, 100);
    uint64_t cut = tr.begin_span("cut", 1, kTrackDevBase, 150);
    tr.end_span(done, 200);
    (void)cut; // never ended: simulated power cut
    auto spans = tr.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].stage, "finished");
    EXPECT_EQ(spans[0].start, 100u);
    EXPECT_EQ(spans[0].end, 200u);
    // Ending an unknown token is a no-op, not a crash.
    tr.end_span(999999, 300);
    EXPECT_EQ(tr.size(), 1u);
    // So is ending a closed span again, even once its slot is reused.
    uint64_t next = tr.begin_span("next", 2, kTrackRequest, 310);
    tr.end_span(done, 320);
    EXPECT_EQ(tr.size(), 1u);
    tr.end_span(next, 330);
    ASSERT_EQ(tr.size(), 2u);
    EXPECT_STREQ(tr.spans()[1].stage, "next");
}

TEST(TraceRecorder, RequestIdsNeverZero)
{
    TraceRecorder tr(4);
    uint64_t a = tr.next_request_id();
    uint64_t b = tr.next_request_id();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

// Golden file: the exact Chrome trace_event JSON for a tiny recorder.
// Catches accidental format drift — chrome://tracing and Perfetto both
// parse this shape.
TEST(TraceRecorder, ChromeJsonGolden)
{
    TraceRecorder tr(8);
    tr.add_span("raizn.write", 1, kTrackRequest, 1000, 3500);
    tr.add_span("write.data", 1, kTrackDevBase, 1500, 2500);
    tr.instant("power_cut", 0, kTrackMetadata, 4000);
    const char *want =
        "{\"traceEvents\":[\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"requests\"}},\n"
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":0,\"args\":{\"sort_index\":0}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"metadata\"}},\n"
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":1,\"args\":{\"sort_index\":1}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
        "\"args\":{\"name\":\"dev0\"}},\n"
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":2,\"args\":{\"sort_index\":2}},\n"
        "{\"name\":\"raizn.write\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
        "\"ts\":1.000,\"dur\":2.500,\"args\":{\"req\":1}},\n"
        "{\"name\":\"write.data\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
        "\"ts\":1.500,\"dur\":1.000,\"args\":{\"req\":1}},\n"
        "{\"name\":\"power_cut\",\"ph\":\"i\",\"pid\":1,\"tid\":1,"
        "\"ts\":4.000,\"s\":\"t\",\"args\":{\"req\":0}}\n"
        "],\"displayTimeUnit\":\"ns\"}\n";
    EXPECT_EQ(tr.to_chrome_json(/*num_devices=*/1), want);
}

TEST(TraceRecorder, StageBreakdownSortsByTotalAndNotesDrops)
{
    TraceRecorder tr(4);
    tr.add_span("small", 1, kTrackRequest, 0, 1000);
    tr.add_span("big", 1, kTrackRequest, 0, 100000);
    tr.add_span("big", 2, kTrackRequest, 0, 100000);
    std::string bd = tr.stage_breakdown();
    size_t big = bd.find("big"), small = bd.find("small");
    ASSERT_NE(big, std::string::npos) << bd;
    ASSERT_NE(small, std::string::npos) << bd;
    EXPECT_LT(big, small) << "dominant stage must read first:\n" << bd;
    EXPECT_EQ(bd.find("ring wrapped"), std::string::npos);

    tr.add_span("extra", 3, kTrackRequest, 0, 10);
    tr.add_span("extra", 3, kTrackRequest, 0, 10); // forces wraparound
    EXPECT_NE(tr.stage_breakdown().find("ring wrapped"),
              std::string::npos);
}

TEST(TraceRecorder, RequestCoverageUnionsOverlaps)
{
    TraceRecorder tr(16);
    tr.add_span("total", 7, kTrackRequest, 0, 100);
    // Overlapping children [0,60) and [30,80): union covers 80/100.
    tr.add_span("child_a", 7, kTrackDevBase, 0, 60);
    tr.add_span("child_b", 7, kTrackDevBase + 1, 30, 80);
    // A different request's spans must not count.
    tr.add_span("child_a", 8, kTrackDevBase, 0, 100);
    EXPECT_DOUBLE_EQ(tr.request_coverage(7, "total"), 0.8);
    // Unknown request or missing total span: 0.
    EXPECT_DOUBLE_EQ(tr.request_coverage(99, "total"), 0.0);
    EXPECT_DOUBLE_EQ(tr.request_coverage(8, "total"), 0.0);
    // The one-pass form agrees, one entry per "total" span.
    tr.add_span("total", 9, kTrackRequest, 0, 50);
    tr.add_span("child_a", 9, kTrackDevBase, 0, 25);
    EXPECT_EQ(tr.all_request_coverage("total"),
              (std::vector<double>{0.8, 0.5}));
    EXPECT_TRUE(tr.all_request_coverage("missing").empty());
}

TEST(TraceRecorder, RequestCoverageClampsToWindow)
{
    TraceRecorder tr(16);
    tr.add_span("total", 1, kTrackRequest, 100, 200);
    // Child exceeds the window on both sides; only [100,200) counts.
    tr.add_span("child", 1, kTrackDevBase, 50, 400);
    EXPECT_DOUBLE_EQ(tr.request_coverage(1, "total"), 1.0);
}

// ---------------------------------------------------------------------
// Integration: a throttled rebuild's pump emits stage spans that
// survive into the Chrome export — the triage artifact for Fig. 12
// investigations.

TEST(TraceRecorder, ThrottledRebuildSpansReachChromeExport)
{
    TestArray arr;
    arr.make();
    MetricsRegistry reg;
    TraceRecorder trace;
    arr.vol->attach_observability(&reg, &trace);

    // Fill one logical zone so the rebuild has real work.
    const uint64_t ss = 64; // su 16 × 4 data units
    for (uint64_t s = 0; s < 8; ++s)
        arr.write_pattern(s * ss, static_cast<uint32_t>(ss), s + 1);
    arr.flush();

    RaiznVolume::LifecycleConfig lc;
    lc.auto_rebuild = false;
    lc.throttle.rate_sectors_per_sec = 100000;
    lc.throttle.burst_sectors = 32;
    arr.vol->set_lifecycle(std::move(lc));

    arr.vol->mark_device_failed(2);
    arr.devs[2]->replace();
    Status st = arr.rebuild(2);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_GT(arr.vol->stats().rebuild_throttle_stalls, 0u)
        << "rebuild was not actually throttled";

    std::set<std::string> stages;
    for (const TraceSpan &sp : trace.spans())
        stages.insert(sp.stage);
    const char *want[] = {"rebuild.device", "rebuild.zone",
                          "rebuild.reconstruct", "rebuild.write"};
    for (const char *w : want)
        EXPECT_EQ(stages.count(w), 1u) << "missing span: " << w;

    std::string json = trace.to_chrome_json(arr.vol->num_devices());
    for (const char *w : want)
        EXPECT_NE(json.find(w), std::string::npos)
            << "span absent from Chrome export: " << w;
    EXPECT_NE(json.find("rebuild.checkpoint"), std::string::npos)
        << "checkpoint instants absent from Chrome export";
}

// The one rebuild walk traces mdraid's resync and the engine modes'
// rebuilds with the same spans.
TEST(TraceRecorder, EveryEngineRebuildEmitsTheSameSpans)
{
    for (RaidMode mode : {RaidMode::kMdraid, RaidMode::kRaid5}) {
        SCOPED_TRACE(to_string(mode));
        EventLoop loop;
        std::vector<std::unique_ptr<BlockDevice>> devs;
        std::vector<BlockDevice *> ptrs;
        std::unique_ptr<ZonedArray> arr;
        if (mode == RaidMode::kMdraid) {
            for (uint32_t i = 0; i < 5; ++i) {
                ConvDeviceConfig cfg;
                cfg.nsectors = 2 * kMiB / kSectorSize;
                cfg.pages_per_block = 64;
                devs.push_back(std::make_unique<ConvDevice>(&loop, cfg));
                ptrs.push_back(devs.back().get());
            }
            arr = std::make_unique<MdVolume>(&loop, ptrs, MdVolumeConfig{});
        } else {
            for (uint32_t i = 0; i < 4; ++i) {
                devs.push_back(std::make_unique<ZnsDevice>(
                    &loop, TestArray::device_config(5, 64)));
                ptrs.push_back(devs.back().get());
            }
            EngineConfig ec;
            ec.mode = mode;
            ec.su_sectors = 4;
            auto res = ZonedEngine::create(&loop, ptrs, ec);
            ASSERT_TRUE(res.is_ok()) << res.status().to_string();
            arr = std::move(res).value();
        }
        TraceRecorder trace;
        arr->attach_observability(nullptr, &trace);
        bool done = false;
        arr->write(0, std::vector<uint8_t>(48 * kSectorSize, 0x3c), {},
                   [&](IoResult) { done = true; });
        loop.run_until_pred([&] { return done; });

        arr->mark_device_failed(2);
        if (mode == RaidMode::kMdraid)
            static_cast<ConvDevice *>(devs[2].get())->replace();
        else
            static_cast<ZnsDevice *>(devs[2].get())->replace();
        Status st;
        done = false;
        arr->rebuild_device(2, nullptr, [&](Status s) {
            st = s;
            done = true;
        });
        loop.run_until_pred([&] { return done; });
        ASSERT_TRUE(st.is_ok()) << st.to_string();

        std::set<std::string> stages;
        for (const TraceSpan &sp : trace.spans())
            stages.insert(sp.stage);
        for (const char *w : {"rebuild.device", "rebuild.zone",
                              "rebuild.reconstruct", "rebuild.write"})
            EXPECT_EQ(stages.count(w), 1u) << "missing span: " << w;
    }
}

// ---------------------------------------------------------------------
// obs::Session: one attach wires an array into every recorder, close()
// snapshots them, write() exports them.

std::string
read_file(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/// The quoted names inside manifest.json's "files" list.
std::vector<std::string>
manifest_files(const std::string &manifest)
{
    std::vector<std::string> out;
    size_t open = manifest.find('[');
    size_t end = manifest.find(']');
    if (open == std::string::npos || end == std::string::npos)
        return out;
    for (size_t q = manifest.find('"', open); q != std::string::npos && q < end;
         q = manifest.find('"', q + 1)) {
        size_t close = manifest.find('"', q + 1);
        out.push_back(manifest.substr(q + 1, close - q - 1));
        q = close;
    }
    return out;
}

TEST(Session, WritesEveryArtifactAndAManifest)
{
    const std::string dir = testing::TempDir() + "obs_session_artifacts";
    std::filesystem::remove_all(dir);
    Session s;
    s.start();
    {
        TestArray arr;
        arr.make();
        arr.vol->attach(&s);
        arr.write_pattern(0, 128, 7);
        ASSERT_TRUE(arr.flush().status.is_ok());
        arr.expect_pattern(0, 128, 7);
        s.close();
    } // the array dies before the export
    ASSERT_TRUE(s.write(dir).is_ok());

    std::vector<std::string> files =
        manifest_files(read_file(dir + "/manifest.json"));
    const std::set<std::string> listed(files.begin(), files.end());
    for (const char *want : {"metrics.json", "trace.json", "timeline.csv",
                             "ledger.json", "prof.json", "flame.folded"})
        EXPECT_EQ(listed.count(want), 1u) << "manifest lacks " << want;
    for (const std::string &f : files) {
        EXPECT_GT(std::filesystem::file_size(dir + "/" + f), 0u)
            << f << " is empty";
    }
    EXPECT_NE(read_file(dir + "/metrics.json").find("\"raizn."),
              std::string::npos);
    EXPECT_TRUE(s.audit().ok()) << s.audit().summary();
    EXPECT_GT(s.ledger().user_write_bytes(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(Session, WithoutADirectoryWritesNothing)
{
    // Benches run without --obs-dir take this path: the session still
    // records and closes, and the file system is left alone.
    auto listing = [] {
        std::set<std::string> names;
        for (const auto &e : std::filesystem::directory_iterator(
                 std::filesystem::current_path()))
            names.insert(e.path().filename().string());
        return names;
    };
    const std::set<std::string> before = listing();
    Session s;
    s.start();
    TestArray arr;
    arr.make();
    arr.vol->attach(&s);
    arr.write_pattern(0, 64, 3);
    s.close();
    EXPECT_TRUE(s.write("").is_ok());
    EXPECT_GT(s.trace().size(), 0u);
    EXPECT_EQ(listing(), before);
}

} // namespace
} // namespace raizn::obs
