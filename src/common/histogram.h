/**
 * @file
 * Log-bucketed latency histogram with percentile queries, used by the
 * workload runner and application benchmarks (median / p95 / p99 / p99.9).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace raizn {

/**
 * Histogram over unsigned 64-bit samples (nanoseconds in practice).
 *
 * Buckets are arranged with geometric growth: 64 linear sub-buckets per
 * power-of-two range, giving ~1.6% relative error on percentiles while
 * keeping the footprint fixed and merges cheap.
 */
class Histogram
{
  public:
    Histogram();

    void add(uint64_t value);
    void merge(const Histogram &other);
    void clear();

    uint64_t count() const { return count_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const;

    /// Value at quantile q in [0, 1] (interpolated within the bucket).
    uint64_t percentile(double q) const;

    uint64_t p50() const { return percentile(0.50); }
    uint64_t p95() const { return percentile(0.95); }
    uint64_t p99() const { return percentile(0.99); }
    uint64_t p999() const { return percentile(0.999); }

    /**
     * Snapshot-and-reset of the *window*, not the histogram: returns a
     * histogram holding exactly the samples added since the previous
     * window() call (or construction), then starts a new window. The
     * cumulative state is untouched, so callers can keep whole-run
     * percentiles and per-interval percentiles from the same instance.
     * The window's min/max are exact (tracked per-sample).
     */
    Histogram window();

    /**
     * Samples present in `cur` but not in `prev`, where `prev` is an
     * earlier copy of the same histogram (bucket-wise subtraction).
     * This is how the timeline windows *read-only* histograms it does
     * not own: keep the previous snapshot, diff per interval. min/max
     * are approximated by the bounds of the extreme changed buckets
     * (within the histogram's ~1.6% bucket error). If `cur` was
     * cleared since `prev` was taken (count went backwards), returns a
     * copy of `cur`.
     */
    static Histogram delta(const Histogram &cur, const Histogram &prev);

  private:
    static constexpr int kSubBucketBits = 6; // 64 sub-buckets
    static constexpr int kSubBuckets = 1 << kSubBucketBits;
    static constexpr int kRanges = 64 - kSubBucketBits;

    static int bucket_index(uint64_t value);
    static uint64_t bucket_lower_bound(int index);
    static uint64_t bucket_upper_bound(int index);

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;

    // Window baseline: cumulative state as of the last window() call.
    // win_base_buckets_ is allocated lazily on the first window() so
    // histograms that never use windows pay nothing extra.
    std::vector<uint64_t> win_base_buckets_;
    uint64_t win_base_count_ = 0;
    uint64_t win_base_sum_ = 0;
    uint64_t win_min_ = UINT64_MAX; ///< exact min/max within the window
    uint64_t win_max_ = 0;
};

} // namespace raizn
