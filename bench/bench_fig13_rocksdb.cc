/**
 * @file
 * Fig. 13: RocksDB-style db_bench workloads (fillseq, fillrandom,
 * overwrite, readwhilewriting) on the LSM store over F2FS-style envs:
 * ZonedEnv-on-RAIZN vs BlockEnv-on-mdraid, value sizes 4000 and 8000
 * bytes. The paper reports RAIZN within 10% of mdraid on throughput
 * and p99 latency; we report the same normalized comparison.
 *
 * Scaled: the paper runs 100M operations on 2TB arrays; we run tens
 * of thousands on the scaled arrays (shape, not magnitude).
 *
 * --smoke runs the same table on a sixth of the keys and operations
 * (ctest fig13_smoke): a short end-to-end pass of the kv, env, array
 * and device layers with real bytes. --obs-dir DIR writes an
 * obs::Session: the host profile of the whole run plus the last
 * point's env and volume counters ("env.zoned.*", "env.block.*",
 * "raizn.*", "mdraid.*").
 */
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "env/block_env.h"
#include "env/zoned_env.h"
#include "kv/db.h"

using namespace raizn;
using namespace raizn::bench;

namespace {

/// Keys written by the fill workloads and operations run by the
/// overwrite and readwhilewriting workloads.
struct Scale {
    uint64_t keys;
    uint64_t ops;
};
constexpr Scale kFull{6000, 12000};
constexpr Scale kSmoke{1000, 2000};

std::string
make_key(uint64_t k)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llu", (unsigned long long)k);
    return buf;
}

struct BenchPoint {
    double kops = 0; ///< operations per virtual second / 1000
    double p99_us = 0;
};

struct Harness {
    RaiznArray rz;
    MdArray md;
    std::unique_ptr<Env> env;
    std::unique_ptr<Db> db;
    EventLoop *loop = nullptr;

    void
    build(bool zoned, uint32_t value_size)
    {
        BenchScale scale;
        scale.zones_per_device = 24;
        scale.zone_cap_sectors = 1536; // 6 MiB zones
        scale.data_mode = DataMode::kStore;
        DbOptions opt;
        opt.memtable_bytes = 4 * kMiB;
        opt.target_file_bytes = 4 * kMiB;
        opt.l1_bytes = 16 * kMiB;
        if (zoned) {
            rz = make_raizn_array(scale);
            loop = rz.loop.get();
            env = std::make_unique<ZonedEnv>(loop, rz.vol.get());
        } else {
            md = make_mdraid_array(scale);
            loop = md.loop.get();
            env = std::make_unique<BlockEnv>(loop, md.vol.get());
        }
        auto d = Db::open(env.get(), opt);
        if (!d.is_ok())
            RAIZN_PANIC("db open failed");
        db = std::move(d).value();
        (void)value_size;
    }
};

BenchPoint
run_workload(Harness &h, const std::string &wl, uint32_t value_size,
             const Scale &sc)
{
    Rng rng(11);
    std::string value(value_size, 'v');
    Histogram lat;
    Tick start = h.loop->now();
    uint64_t ops = 0;

    auto timed = [&](const std::function<Status()> &op) {
        Tick t0 = h.loop->now();
        Status st = op();
        if (!st.is_ok())
            RAIZN_PANIC("op failed: %s", st.to_string().c_str());
        lat.add(h.loop->now() - t0);
        ops++;
    };

    if (wl == "fillseq") {
        for (uint64_t k = 0; k < sc.keys; ++k)
            timed([&] { return h.db->put(make_key(k), value); });
    } else if (wl == "fillrandom") {
        for (uint64_t i = 0; i < sc.keys; ++i) {
            timed([&] {
                return h.db->put(make_key(rng.next_below(sc.keys)),
                                 value);
            });
        }
    } else if (wl == "overwrite") {
        for (uint64_t i = 0; i < sc.ops; ++i) {
            timed([&] {
                return h.db->put(make_key(rng.next_below(sc.keys)),
                                 value);
            });
        }
    } else if (wl == "readwhilewriting") {
        // 8 reads interleaved per write (paper: 8 reader threads +
        // 1 writer; serialized interleave at the same ratio).
        for (uint64_t i = 0; i < sc.ops / 9; ++i) {
            timed([&] {
                return h.db->put(make_key(rng.next_below(sc.keys)),
                                 value);
            });
            for (int r = 0; r < 8; ++r) {
                timed([&] {
                    auto v = h.db->get(make_key(
                        rng.next_below(sc.keys)));
                    if (!v.is_ok() &&
                        v.status().code() != StatusCode::kNotFound)
                        return v.status();
                    if (v.is_ok() && v.value() != value)
                        return Status(StatusCode::kCorruption,
                                      "get returned wrong bytes");
                    return Status::ok();
                });
            }
        }
    }
    Tick elapsed = h.loop->now() - start;
    BenchPoint out;
    out.kops = static_cast<double>(ops) /
        (static_cast<double>(elapsed) / kNsPerSec) / 1000.0;
    out.p99_us = static_cast<double>(lat.p99()) / 1e3;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ObsOptions oo;
    if (!parse_obs_args(argc, argv, &oo))
        return 2;
    const Scale sc = oo.smoke ? kSmoke : kFull;
    // Profiles the whole run when --obs-dir is given.
    obs::Session session;
    if (!oo.obs_dir.empty())
        session.start();
    print_header("Fig 13: RocksDB-style db_bench, RAIZN vs mdraid");
    for (uint32_t vs : {4000u, 8000u}) {
        std::printf("\n-- value size %u B --\n", vs);
        std::printf("%-18s %10s %10s %8s %12s %12s %10s\n", "workload",
                    "md_kops", "rz_kops", "rz/md", "md_p99us",
                    "rz_p99us", "p99_ratio");
        // Paper protocol: fillseq on a fresh array; reset; then
        // fillrandom, overwrite, readwhilewriting run in succession.
        // The fillseq pair is gone before the second pair is built, so
        // at most two arrays hold payload at once.
        {
            Harness md_seq, rz_seq;
            md_seq.build(false, vs);
            rz_seq.build(true, vs);
            auto md_fill = run_workload(md_seq, "fillseq", vs, sc);
            auto rz_fill = run_workload(rz_seq, "fillseq", vs, sc);
            std::printf(
                "%-18s %10.1f %10.1f %8.2f %12.0f %12.0f %10.2f\n",
                "fillseq", md_fill.kops, rz_fill.kops,
                rz_fill.kops / md_fill.kops, md_fill.p99_us,
                rz_fill.p99_us, rz_fill.p99_us / md_fill.p99_us);
        }

        Harness md_h, rz_h;
        md_h.build(false, vs);
        rz_h.build(true, vs);
        for (const char *wl :
             {"fillrandom", "overwrite", "readwhilewriting"}) {
            auto mdp = run_workload(md_h, wl, vs, sc);
            auto rzp = run_workload(rz_h, wl, vs, sc);
            std::printf(
                "%-18s %10.1f %10.1f %8.2f %12.0f %12.0f %10.2f\n", wl,
                mdp.kops, rzp.kops, rzp.kops / mdp.kops, mdp.p99_us,
                rzp.p99_us, rzp.p99_us / mdp.p99_us);
        }

        // Env-level GC accounting: the zoned env relocates live data to
        // reclaim zones, the block env just overwrites in place.
        std::printf("env gc (zoned): %s\n",
                    obs::render_stats(rz_h.env->stats()).c_str());
        std::printf("env gc (block): %s\n",
                    obs::render_stats(md_h.env->stats()).c_str());
        if (vs == 8000) {
            // The last point's env + volume counters, snapshotted
            // before its harnesses die.
            obs::MetricsRegistry &reg = session.registry();
            obs::link_stats(reg, "env.zoned", rz_h.env->stats());
            obs::link_stats(reg, "env.block", md_h.env->stats());
            obs::link_stats(reg, "raizn", rz_h.rz.vol->stats());
            obs::link_stats(reg, "mdraid", md_h.md.vol->stats());
            session.close();
        }
    }
    std::printf("\nPaper shape: RAIZN within 10%% of mdraid on "
                "throughput and p99 for all four workloads (steady "
                "state, before conventional-SSD GC).\n");
    write_obs(oo, session, "");
    return 0;
}
