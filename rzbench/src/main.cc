/**
 * @file
 * One rep of one workload in this process:
 *
 *   rzbench_wl --workload fio_timing|kv_bulk|oltp_sync --seed N
 *              [--scale F] [--trace 0|1]
 *
 * Prints the rep's record as a single JSON line on stdout; run.py runs
 * reps, checks them against each other and aggregates the metrics.
 * Exit 0 after a completed rep (failed checks are in the record),
 * 2 on bad arguments.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "workloads.h"

using namespace rzbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fio_timing|kv_bulk|oltp_sync "
                 "--seed N [--scale F] [--trace 0|1]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string a = argv[i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = argv[i + 1];
        } else if (a == "--seed") {
            o.seed = std::strtoull(argv[i + 1], &end, 10);
        } else if (a == "--scale") {
            o.scale = std::strtod(argv[i + 1], &end);
            if (!(o.scale > 0 && o.scale <= 1))
                return usage(argv[0]);
        } else if (a == "--trace") {
            std::string v = argv[i + 1];
            if (v != "0" && v != "1")
                return usage(argv[0]);
            o.traced = v == "1";
        } else {
            return usage(argv[0]);
        }
        if (end != nullptr && *end != '\0')
            return usage(argv[0]);
    }
    if (argc % 2 != 1)
        return usage(argv[0]);

    // Advisory health warnings would interleave with the record; the
    // rep reports them as fault.* metrics instead.
    raizn::set_log_level(raizn::LogLevel::kError);
    RepResult r;
    if (o.workload == "fio_timing")
        r = run_fio_timing(o);
    else if (o.workload == "kv_bulk")
        r = run_kv_bulk(o);
    else if (o.workload == "oltp_sync")
        r = run_oltp_sync(o);
    else
        return usage(argv[0]);
    std::printf("%s\n", to_json(o, r).c_str());
    return 0;
}
