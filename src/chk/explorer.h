/**
 * @file
 * Crash-point explorer. A run is: mkfs a fresh array, replay a
 * workload while tracing every device command completion, and inject a
 * power cut after the N-th completion; then remount and run the oracle.
 *
 * The simulation is deterministic (seeded RNG, sequence-tiebroken
 * event loop), so the N-th completion of a replay is the same physical
 * moment every time — verified by hashing the completion trace and
 * comparing each replay's prefix hash against the reference run.
 * Exhaustive mode enumerates every N in [0, boundaries]; sweep mode
 * samples N from a seeded RNG for larger workloads. A failing point is
 * reported with everything needed to replay it: (workload, options,
 * crash point N).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/raid_mode.h"
#include "chk/oracle.h"
#include "chk/workload.h"
#include "fault/fault_device.h"
#include "raizn/volume.h"
#include "zns/zns_device.h"

namespace raizn::obs {
class Session;
} // namespace raizn::obs

namespace raizn::chk {

/// Array shape for exploration runs (small: runs are O(boundaries^2)).
struct ChkConfig {
    uint32_t num_devices = 5;
    uint32_t su_sectors = 16;
    uint32_t nzones = 8; ///< physical zones per device (3 are metadata)
    uint64_t zone_cap = 128; ///< physical sectors per zone
    uint32_t atomic_write_sectors = 4;
    /**
     * Array implementation under test. kRaizn (default) explores the
     * paper's volume; the generic modes (raid0/1/5/6/10/auto) explore
     * a ZonedEngine, whose oracle enforces the engine's own contract:
     * core durability/readability on healthy arrays, settled-stripe
     * scrub consistency, and post-crash degraded re-reads for
     * mirror-kind zones only (parity tails are volatile by design —
     * the write hole RAIZN's partial-parity log closes). kMdraid is
     * rejected (no zones to crash-explore). The kRebuild phase needs
     * kRaizn (persistent rebuild checkpoints).
     */
    RaidMode engine = RaidMode::kRaizn;

    ChkGeom geom() const;
};

struct ChkOptions {
    PowerLossSpec::Policy policy = PowerLossSpec::Policy::kDropCache;
    uint64_t loss_seed = 1;
    /// Device 0 drops its volatile cache while the rest keep theirs —
    /// the divergent-survival case of §5.1.
    bool divergent_loss = false;
    bool check_parity = true;
    /// Also re-read all contents with device (N mod num_devices)
    /// marked failed after each healthy mount.
    bool check_degraded = false;
    /// Verify each replay followed the reference schedule exactly.
    bool verify_replay = true;
    RaiznVolume::DebugFault fault = RaiznVolume::DebugFault::kNone;
    /// Transient-fault schedule applied to every device during the
    /// workload phase (never during remount/recovery, so the oracle
    /// judges the volume's resilience, not the injector). The
    /// schedule is seeded per device and replays identically in the
    /// reference and crash runs, preserving the replay-hash check.
    FaultConfig faults;
    /// Device index given `fail_slow_mult`x latency (-1: none).
    int fail_slow_dev = -1;
    double fail_slow_mult = 8.0;
    /// When non-empty, every failing crash point writes the
    /// obs::Session bundle of its pre-cut run to
    /// `<obs_dir>/point_<N>/`: stage trace, metrics registry, the
    /// ring-buffered tail of the timeline, byte-provenance ledger,
    /// host profile and manifest. The session is closed at the power
    /// cut, so the bundle shows the array's state at the moment power
    /// was lost. Purely observational: replay hashes still match.
    std::string obs_dir;
    /// Crash phase. kWorkload (default) cuts power mid-workload.
    /// kRebuild runs the whole workload to completion untraced, fails
    /// `rebuild_dev`, swaps in a blank replacement and starts a
    /// rebuild; completions are counted — and power is cut — during
    /// the in-flight rebuild only. After remount, a pending rebuild
    /// checkpoint is resumed to completion before the oracle runs, and
    /// late cut points must prove they skipped checkpointed zones.
    enum class Phase { kWorkload, kRebuild };
    Phase phase = Phase::kWorkload;
    /// Device rebuilt in the kRebuild phase (mod num_devices).
    uint32_t rebuild_dev = 1;
    /// Rebuild throttle rate in the kRebuild phase (sectors per
    /// second; 0 leaves the rebuild unthrottled).
    uint64_t rebuild_rate = 0;
};

struct ChkReport {
    uint64_t boundaries = 0; ///< completion boundaries in the full run
    uint64_t runs = 0; ///< crash-injected runs performed
    std::vector<ChkFailure> failures;

    bool ok() const { return failures.empty(); }
    std::string summary() const;
};

class CrashPointExplorer
{
  public:
    CrashPointExplorer(ChkConfig cfg, ChkWorkload wl, ChkOptions opts);
    ~CrashPointExplorer();

    /// Crash-free reference run: counts boundaries, records the trace
    /// hash prefix for replay verification. Idempotent.
    uint64_t count_boundaries();

    /// Exhaustive: every crash point in [0, boundaries].
    ChkReport explore_all();

    /// Specific crash points (CLI replay of a failing point).
    ChkReport explore_points(const std::vector<uint64_t> &points);

    /// `nsamples` crash points drawn from a seeded RNG.
    ChkReport sweep_random(uint64_t nsamples, uint64_t seed);

  private:
    struct Array; ///< devices + loop + volume for one run

    /// One crash point; a failing one writes its obs bundle.
    void run_one(uint64_t crash_at, ChkReport *rep);
    /// Drives, cuts power, remounts and runs the oracle, recording
    /// failures in `rep`. Closes `session` (if any) at the cut.
    void check_point(Array &arr, uint64_t crash_at, obs::Session *session,
                     ChkReport *rep);
    /// Replays the workload until `crash_at` completions; fills in the
    /// array, shadow, and completion count, with the array attached to
    /// `session` when non-null. Returns false on a workload-level
    /// error (recorded in `rep`).
    bool drive(Array &arr, ShadowVolume &shadow, uint64_t crash_at,
               uint64_t *completions, uint64_t *final_hash,
               std::vector<uint64_t> *hash_prefix, ChkReport *rep,
               obs::Session *session = nullptr);

    ChkConfig cfg_;
    ChkWorkload wl_;
    ChkOptions opts_;
    bool counted_ = false;
    uint64_t boundaries_ = 0;
    std::vector<uint64_t> ref_hash_; ///< cumulative hash after n events
};

} // namespace raizn::chk
