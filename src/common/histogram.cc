#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace raizn {

Histogram::Histogram() : buckets_(kRanges * kSubBuckets, 0) {}

int
Histogram::bucket_index(uint64_t value)
{
    // Values below kSubBuckets fall into range 0 linearly.
    if (value < kSubBuckets)
        return static_cast<int>(value);
    int msb = 63 - std::countl_zero(value);
    int range = msb - kSubBucketBits + 1;
    if (range >= kRanges)
        range = kRanges - 1;
    uint64_t sub = (value >> (range - 1)) - kSubBuckets;
    assert(sub < kSubBuckets);
    return range * kSubBuckets + static_cast<int>(sub);
}

uint64_t
Histogram::bucket_lower_bound(int index)
{
    int range = index / kSubBuckets;
    uint64_t sub = static_cast<uint64_t>(index % kSubBuckets);
    if (range == 0)
        return sub;
    return (kSubBuckets + sub) << (range - 1);
}

uint64_t
Histogram::bucket_upper_bound(int index)
{
    int range = index / kSubBuckets;
    uint64_t sub = static_cast<uint64_t>(index % kSubBuckets);
    if (range == 0)
        return sub + 1;
    return (kSubBuckets + sub + 1) << (range - 1);
}

void
Histogram::add(uint64_t value)
{
    buckets_[static_cast<size_t>(bucket_index(value))]++;
    count_++;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    win_min_ = std::min(win_min_, value);
    win_max_ = std::max(win_max_, value);
}

void
Histogram::merge(const Histogram &other)
{
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    if (other.count_ > 0) {
        win_min_ = std::min(win_min_, other.min_);
        win_max_ = std::max(win_max_, other.max_);
    }
}

void
Histogram::clear()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = UINT64_MAX;
    max_ = 0;
    win_base_buckets_.clear();
    win_base_count_ = 0;
    win_base_sum_ = 0;
    win_min_ = UINT64_MAX;
    win_max_ = 0;
}

Histogram
Histogram::window()
{
    Histogram w;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        uint64_t base =
            i < win_base_buckets_.size() ? win_base_buckets_[i] : 0;
        w.buckets_[i] = buckets_[i] - base;
    }
    w.count_ = count_ - win_base_count_;
    w.sum_ = sum_ - win_base_sum_;
    if (w.count_ > 0) {
        w.min_ = win_min_;
        w.max_ = win_max_;
        w.win_min_ = win_min_;
        w.win_max_ = win_max_;
    }
    win_base_buckets_ = buckets_;
    win_base_count_ = count_;
    win_base_sum_ = sum_;
    win_min_ = UINT64_MAX;
    win_max_ = 0;
    return w;
}

Histogram
Histogram::delta(const Histogram &cur, const Histogram &prev)
{
    if (cur.count_ < prev.count_)
        return cur; // cur was cleared since prev was snapshotted
    Histogram d;
    int lo_bucket = -1, hi_bucket = -1;
    for (size_t i = 0; i < cur.buckets_.size(); ++i) {
        uint64_t n = cur.buckets_[i] - prev.buckets_[i];
        if (n == 0)
            continue;
        d.buckets_[i] = n;
        if (lo_bucket < 0)
            lo_bucket = static_cast<int>(i);
        hi_bucket = static_cast<int>(i);
    }
    d.count_ = cur.count_ - prev.count_;
    d.sum_ = cur.sum_ - prev.sum_;
    if (d.count_ > 0 && lo_bucket >= 0) {
        // min/max at bucket precision, clamped into the cumulative
        // histogram's observed range.
        d.min_ = std::max(bucket_lower_bound(lo_bucket), cur.min());
        d.max_ = std::min(bucket_upper_bound(hi_bucket) - 1, cur.max());
        if (d.min_ > d.max_)
            d.min_ = d.max_;
        d.win_min_ = d.min_;
        d.win_max_ = d.max_;
    }
    return d;
}

double
Histogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (target >= count_)
        target = count_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (seen + buckets_[i] > target) {
            // Interpolate linearly within the bucket.
            uint64_t lo = bucket_lower_bound(static_cast<int>(i));
            uint64_t hi = bucket_upper_bound(static_cast<int>(i));
            double frac = static_cast<double>(target - seen) /
                static_cast<double>(buckets_[i]);
            uint64_t v = lo +
                static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
            return std::clamp(v, min(), max());
        }
        seen += buckets_[i];
    }
    return max_;
}

} // namespace raizn
