/**
 * @file
 * Crash-point exploration CLI. Drives the deterministic crash-point
 * explorer (src/chk/) from the command line: exhaustive enumeration of
 * every completion boundary, seeded random sweeps over larger
 * workloads, or replay of specific crash points when triaging a
 * failure. Every failing schedule is printed with the exact arguments
 * that reproduce it.
 *
 *   chk_explore explore  [--workload W] [--policy P] [--degraded]
 *   chk_explore sweep    [--runs N] [--seed S] [--workload W]
 *   chk_explore replay   --points 12,13,40 [--workload W]
 *   chk_explore --smoke       # bounded mode for ctest (<30s)
 *
 * Workloads: canonical (default), degraded[:dev], random[:seed[:nops]].
 * Policies: drop (default), keep, random, divergent.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chk/explorer.h"
#include "obs/session.h"

using namespace raizn::chk;

namespace {

int
usage(const char *argv0)
{
    fprintf(stderr,
            "usage: %s [explore|sweep|replay] [options]\n"
            "  --engine raizn|raid0|raid1|raid5|raid6|raid10|auto\n"
            "                    array implementation to explore\n"
            "                    (default raizn, the paper's volume)\n"
            "  --workload canonical|degraded[:dev]|random[:seed[:nops]]\n"
            "  --policy drop|keep|random|divergent\n"
            "  --degraded        also re-read degraded after each mount\n"
            "  --runs N          sweep: number of sampled crash points\n"
            "  --seed S          sweep: RNG seed\n"
            "  --points a,b,c    replay: explicit crash points\n"
            "  --fault skip-pp   plant the skip-partial-parity bug\n"
            "  --err-rate R      inject transient IO errors at rate R\n"
            "  --bitflip-rate R  flip one bit of read payloads at rate R\n"
            "  --fault-seed S    seed for the fault schedule\n"
            "  --slow-dev D      make device D 8x slower (fail-slow)\n"
            "  --obs-dir DIR     host-profile the run into DIR and write\n"
            "                    each failing point's triage bundle\n"
            "                    (trace, metrics, timeline, ledger,\n"
            "                    profile, manifest) to DIR/point_<N>/\n"
            "  --phase workload|rebuild[:dev]\n"
            "                    rebuild: run the workload, fail :dev\n"
            "                    (default 1), cut power during the\n"
            "                    in-flight rebuild, resume after mount\n"
            "  --rebuild-rate R  throttle the rebuild to R sectors/s\n"
            "  --smoke           bounded exhaustive+sweep for ctest\n",
            argv0);
    return 2;
}

ChkWorkload
parse_workload(const std::string &spec, const ChkGeom &g,
               bool allow_fail_dev, bool *ok)
{
    *ok = true;
    if (spec.empty() || spec == "canonical")
        return canonical_workload(g);
    if (spec.rfind("degraded", 0) == 0) {
        uint32_t dev = 1;
        if (spec.size() > 9 && spec[8] == ':')
            dev = static_cast<uint32_t>(strtoul(spec.c_str() + 9, nullptr, 0));
        if (dev >= g.num_devices) {
            fprintf(stderr, "degraded:%u: device out of range (0-%u)\n",
                    dev, g.num_devices - 1);
            *ok = false;
            return {};
        }
        return degraded_workload(g, dev);
    }
    if (spec.rfind("random", 0) == 0) {
        uint64_t seed = 1;
        uint32_t nops = 12;
        if (spec.size() > 7 && spec[6] == ':') {
            char *end = nullptr;
            seed = strtoull(spec.c_str() + 7, &end, 0);
            if (end && *end == ':')
                nops = static_cast<uint32_t>(strtoul(end + 1, nullptr, 0));
        }
        return random_workload(g, seed, nops, allow_fail_dev);
    }
    *ok = false;
    return {};
}

void
print_report(const char *mode, const ChkReport &rep,
             const std::string &repro_args)
{
    printf("%s: boundaries=%llu runs=%llu failures=%zu\n", mode,
           (unsigned long long)rep.boundaries, (unsigned long long)rep.runs,
           rep.failures.size());
    for (const ChkFailure &f : rep.failures) {
        printf("  FAIL crash_point=%llu [%s] %s\n",
               (unsigned long long)f.crash_point, f.invariant.c_str(),
               f.detail.c_str());
        printf("    replay: chk_explore replay --points %llu%s\n",
               (unsigned long long)f.crash_point, repro_args.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = "explore";
    std::string wl_spec = "canonical";
    std::string policy = "drop";
    bool degraded = false, smoke = false;
    uint64_t runs = 64, seed = 1;
    std::vector<uint64_t> points;
    auto fault = raizn::RaiznVolume::DebugFault::kNone;
    double err_rate = 0.0, bitflip_rate = 0.0;
    uint64_t fault_seed = 0;
    int slow_dev = -1;
    std::string obs_dir;
    auto phase = ChkOptions::Phase::kWorkload;
    uint32_t rebuild_dev = 1;
    uint64_t rebuild_rate = 0;

    auto engine = raizn::RaidMode::kRaizn;

    int i = 1;
    if (i < argc && argv[i][0] != '-')
        mode = argv[i++];
    for (; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--engine") {
            std::string e = next();
            if (!raizn::parse_raid_mode(e, &engine)) {
                fprintf(stderr, "unknown engine '%s'\n", e.c_str());
                return usage(argv[0]);
            }
            if (engine == raizn::RaidMode::kMdraid) {
                fprintf(stderr,
                        "mdraid runs over conventional devices — it has "
                        "no zones, so zone-granular crash exploration "
                        "does not apply; use the bench_fault_sweep "
                        "fault matrix instead\n");
                return 2;
            }
        } else if (a == "--workload") {
            wl_spec = next();
        } else if (a == "--policy") {
            policy = next();
        } else if (a == "--degraded") {
            degraded = true;
        } else if (a == "--runs") {
            runs = strtoull(next(), nullptr, 0);
        } else if (a == "--seed") {
            seed = strtoull(next(), nullptr, 0);
        } else if (a == "--points") {
            const char *p = next();
            while (*p) {
                points.push_back(strtoull(p, const_cast<char **>(&p), 0));
                if (*p == ',')
                    p++;
            }
        } else if (a == "--fault") {
            std::string f = next();
            if (f != "skip-pp")
                return usage(argv[0]);
            fault = raizn::RaiznVolume::DebugFault::kSkipPartialParityLog;
        } else if (a == "--err-rate") {
            err_rate = strtod(next(), nullptr);
        } else if (a == "--bitflip-rate") {
            bitflip_rate = strtod(next(), nullptr);
        } else if (a == "--fault-seed") {
            fault_seed = strtoull(next(), nullptr, 0);
        } else if (a == "--slow-dev") {
            slow_dev = static_cast<int>(strtol(next(), nullptr, 0));
        } else if (a == "--obs-dir") {
            obs_dir = next();
            if (obs_dir.empty())
                return usage(argv[0]);
        } else if (a == "--phase") {
            std::string p = next();
            if (p == "workload") {
                phase = ChkOptions::Phase::kWorkload;
            } else if (p.rfind("rebuild", 0) == 0) {
                phase = ChkOptions::Phase::kRebuild;
                if (p.size() > 8 && p[7] == ':') {
                    rebuild_dev = static_cast<uint32_t>(
                        strtoul(p.c_str() + 8, nullptr, 0));
                }
            } else {
                return usage(argv[0]);
            }
        } else if (a == "--rebuild-rate") {
            rebuild_rate = strtoull(next(), nullptr, 0);
        } else if (a == "--smoke") {
            smoke = true;
        } else {
            return usage(argv[0]);
        }
    }

    ChkConfig cfg;
    cfg.engine = engine;
    const bool is_raizn = engine == raizn::RaidMode::kRaizn;
    if (!is_raizn) {
        // Engine geometry: smaller stripe units and taller zones keep
        // every mode's canonical workload inside the smallest logical
        // zone capacity (RAID-1's, one device zone).
        cfg.su_sectors = 8;
        cfg.zone_cap = 256;
        if (engine == raizn::RaidMode::kRaid10)
            cfg.num_devices = 4; // mirror pairs need an even count
    }
    // Mid-workload device failures followed by a power cut are only in
    // contract for arrays whose acked writes stay reconstructable
    // across the crash: RAIZN (partial-parity log) and the mirror
    // modes (whole copies on the surviving members). Generic parity
    // modes lose the open stripe's parity with the cut.
    const bool fail_dev_in_contract = is_raizn ||
        engine == raizn::RaidMode::kRaid1 ||
        engine == raizn::RaidMode::kRaid10;
    if (phase == ChkOptions::Phase::kRebuild && !is_raizn) {
        fprintf(stderr,
                "--phase rebuild needs the raizn engine (persistent "
                "rebuild checkpoints)\n");
        return 2;
    }
    if (fault != raizn::RaiznVolume::DebugFault::kNone && !is_raizn) {
        fprintf(stderr, "--fault targets the raizn partial-parity log; "
                        "pick --engine raizn\n");
        return 2;
    }
    if (wl_spec.rfind("degraded", 0) == 0 && !fail_dev_in_contract) {
        fprintf(stderr,
                "the degraded workload is out of contract for engine "
                "'%s': its open-stripe parity is volatile, so degraded "
                "acks need not survive the cut (that write hole is what "
                "raizn's partial-parity log closes)\n",
                std::string(raizn::to_string(engine)).c_str());
        return 2;
    }
    bool ok = false;
    ChkWorkload wl =
        parse_workload(wl_spec, cfg.geom(), fail_dev_in_contract, &ok);
    if (!ok)
        return usage(argv[0]);

    ChkOptions opts;
    if (policy == "drop") {
        opts.policy = raizn::PowerLossSpec::Policy::kDropCache;
    } else if (policy == "keep") {
        opts.policy = raizn::PowerLossSpec::Policy::kKeepAll;
    } else if (policy == "random") {
        opts.policy = raizn::PowerLossSpec::Policy::kRandom;
        opts.loss_seed = seed;
    } else if (policy == "divergent") {
        opts.divergent_loss = true;
    } else {
        return usage(argv[0]);
    }
    opts.check_degraded = degraded;
    opts.fault = fault;
    if (err_rate > 0) {
        opts.faults.read_error_rate = err_rate;
        opts.faults.write_error_rate = err_rate;
    }
    opts.faults.bitflip_rate = bitflip_rate;
    if (fault_seed)
        opts.faults.seed = fault_seed;
    opts.fail_slow_dev = slow_dev;
    opts.phase = phase;
    opts.rebuild_dev = rebuild_dev;
    opts.rebuild_rate = rebuild_rate;
    opts.obs_dir = obs_dir;

    std::string engine_arg = is_raizn
        ? std::string()
        : " --engine " + std::string(raizn::to_string(engine));
    std::string repro =
        engine_arg + " --workload " + wl_spec + " --policy " + policy;
    if (fault != raizn::RaiznVolume::DebugFault::kNone)
        repro += " --fault skip-pp";
    if (degraded)
        repro += " --degraded";
    if (err_rate > 0) {
        char buf[64];
        snprintf(buf, sizeof(buf), " --err-rate %g", err_rate);
        repro += buf;
    }
    if (bitflip_rate > 0) {
        char buf[64];
        snprintf(buf, sizeof(buf), " --bitflip-rate %g", bitflip_rate);
        repro += buf;
    }
    if (fault_seed) {
        char buf[64];
        snprintf(buf, sizeof(buf), " --fault-seed %llu",
                 (unsigned long long)fault_seed);
        repro += buf;
    }
    if (slow_dev >= 0) {
        char buf[64];
        snprintf(buf, sizeof(buf), " --slow-dev %d", slow_dev);
        repro += buf;
    }
    if (phase == ChkOptions::Phase::kRebuild) {
        char buf[64];
        snprintf(buf, sizeof(buf), " --phase rebuild:%u", rebuild_dev);
        repro += buf;
    }
    if (rebuild_rate > 0) {
        char buf[64];
        snprintf(buf, sizeof(buf), " --rebuild-rate %llu",
                 (unsigned long long)rebuild_rate);
        repro += buf;
    }

    // The whole-run session holds the profiler window; each failing
    // point's bundle session nests in it.
    raizn::obs::Session session;
    if (!obs_dir.empty())
        session.start();

    int rc = 0;
    if (smoke && !is_raizn) {
        // Bounded per-mode budget for ctest: power cut at every
        // completion of the canonical workload, a seeded random sweep,
        // and — for the mirror modes, whose redundancy is whole copies
        // and therefore crash-safe — an exhaustive degraded pass with
        // post-mount degraded re-reads.
        {
            CrashPointExplorer ex(cfg, canonical_workload(cfg.geom()),
                                  opts);
            ChkReport rep = ex.explore_all();
            print_report("smoke-canonical", rep,
                         engine_arg + " --workload canonical --policy " +
                             policy);
            rc |= !rep.ok();
        }
        {
            CrashPointExplorer ex(
                cfg,
                random_workload(cfg.geom(), seed + 1, 14,
                                fail_dev_in_contract),
                opts);
            ChkReport rep = ex.sweep_random(16, seed);
            print_report("smoke-random", rep,
                         engine_arg + " --workload random:" +
                             std::to_string(seed + 1) + ":14 --policy " +
                             policy);
            rc |= !rep.ok();
        }
        if (fail_dev_in_contract) {
            ChkOptions dopts = opts;
            dopts.check_degraded = true;
            CrashPointExplorer ex(cfg, degraded_workload(cfg.geom(), 1),
                                  dopts);
            ChkReport rep = ex.explore_all();
            print_report("smoke-degraded", rep,
                         engine_arg +
                             " --workload degraded:1 --degraded "
                             "--policy " +
                             policy);
            rc |= !rep.ok();
        }
    } else if (smoke && phase == ChkOptions::Phase::kRebuild) {
        // Bounded rebuild-phase budget for ctest: power cut at every
        // completion of an unthrottled in-flight rebuild, plus a short
        // throttled sweep so the token-bucket path crosses the cut.
        std::string base =
            " --workload canonical --policy " + policy + " --phase rebuild";
        {
            CrashPointExplorer ex(cfg, canonical_workload(cfg.geom()),
                                  opts);
            ChkReport rep = ex.explore_all();
            print_report("smoke-rebuild", rep, base);
            rc |= !rep.ok();
        }
        {
            ChkOptions topts = opts;
            topts.rebuild_rate = 4096;
            CrashPointExplorer ex(cfg, canonical_workload(cfg.geom()),
                                  topts);
            ChkReport rep = ex.sweep_random(16, seed);
            print_report("smoke-rebuild-throttled", rep,
                         base + " --rebuild-rate 4096");
            rc |= !rep.ok();
        }
    } else if (smoke) {
        // Bounded budget for ctest: one exhaustive pass over the small
        // degraded workload, re-read with the member down (RAIZN's
        // partial-parity reconstruct), plus a short sweep of the
        // canonical one.
        {
            ChkOptions dopts = opts;
            dopts.check_degraded = true;
            CrashPointExplorer ex(cfg, degraded_workload(cfg.geom(), 1),
                                  dopts);
            ChkReport rep = ex.explore_all();
            print_report("smoke-degraded", rep,
                         " --workload degraded:1 --degraded --policy " +
                             policy);
            rc |= !rep.ok();
        }
        {
            CrashPointExplorer ex(cfg, canonical_workload(cfg.geom()),
                                  opts);
            ChkReport rep = ex.sweep_random(24, seed);
            print_report("smoke-canonical", rep,
                         " --workload canonical --policy " + policy);
            rc |= !rep.ok();
        }
    } else if (mode == "explore") {
        CrashPointExplorer ex(cfg, wl, opts);
        ChkReport rep = ex.explore_all();
        print_report("explore", rep, repro);
        rc = !rep.ok();
    } else if (mode == "sweep") {
        CrashPointExplorer ex(cfg, wl, opts);
        ChkReport rep = ex.sweep_random(runs, seed);
        print_report("sweep", rep, repro);
        rc = !rep.ok();
    } else if (mode == "replay") {
        if (points.empty())
            return usage(argv[0]);
        CrashPointExplorer ex(cfg, wl, opts);
        ChkReport rep = ex.explore_points(points);
        print_report("replay", rep, repro);
        rc = !rep.ok();
    } else {
        return usage(argv[0]);
    }

    if (!obs_dir.empty()) {
        session.close();
        printf("%s", session.prof_table().c_str());
        raizn::Status s = session.write(obs_dir);
        if (!s.is_ok()) {
            fprintf(stderr, "cannot write %s: %s\n", obs_dir.c_str(),
                    s.to_string().c_str());
            return 2;
        }
    }
    return rc;
}
